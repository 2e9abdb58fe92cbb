//! EXPERIMENTS.md states the reproduction's measured numbers by hand;
//! these tests hold its Tables II and III to the `table2/<kernel>` and
//! `table3/<kernel>` metrics of the committed `report.json` (what
//! `reproduce_all` writes), and those metrics to the tables the code
//! computes now, so a stale cell fails the build the way a golden file
//! does.

use uecgra_core::experiments::{run_all_policies_many, table2, table3_row, SEED};
use uecgra_dfg::kernels;
use uecgra_probe::RunReport;

/// Table II's measured cells in column order.
const CELLS: [&str; 4] = ["eopt_perf", "eopt_eff", "popt_perf", "popt_eff"];

/// Kernel name and its four cells (EOpt perf, EOpt eff, POpt perf,
/// POpt eff).
type Row<T> = (String, [T; 4]);

fn read(file: &str) -> String {
    let path = format!("{}/{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

/// Kernel name and its metrics, in report order.
type Metrics = (String, Vec<(String, f64)>);

/// The `<table>/<kernel>` metrics reports of the committed
/// `report.json`, in file order.
fn report_metrics(table: &str) -> Vec<Metrics> {
    let reports = RunReport::parse_all(&read("report.json")).expect("report.json parses");
    reports
        .into_iter()
        .filter_map(|r| {
            let kernel = r.name.strip_prefix(table)?.strip_prefix('/')?;
            Some((kernel.to_string(), r.metrics))
        })
        .collect()
}

fn metric((kernel, metrics): &Metrics, name: &str) -> f64 {
    let found = metrics.iter().find(|(k, _)| k == name);
    found
        .unwrap_or_else(|| panic!("{kernel}: no metric {name}"))
        .1
}

/// The `table2/<kernel>` cells of the committed `report.json`.
fn report_rows() -> Vec<Row<f64>> {
    report_metrics("table2")
        .iter()
        .map(|m| (m.0.clone(), CELLS.map(|name| metric(m, name))))
        .collect()
}

/// The measured cells of EXPERIMENTS.md's Table II:
/// `| llist | 1.00 (1.00) | **0.98 (1.50)** | ... |`, the paper's
/// value in parentheses.
fn doc_rows(text: &str) -> Vec<Row<String>> {
    let section = text
        .split("## Table II")
        .nth(1)
        .expect("EXPERIMENTS.md has a Table II section");
    section
        .lines()
        .take_while(|l| !l.starts_with("## "))
        .filter(|l| l.starts_with("| ") && !l.starts_with("| kernel"))
        .map(|l| {
            let fields: Vec<&str> = l.trim_matches('|').split('|').map(str::trim).collect();
            assert_eq!(fields.len(), 5, "Table II row {l:?}");
            let cell = |i: usize| {
                let measured = fields[i + 1].trim_matches('*').split_whitespace().next();
                measured.expect("non-empty cell").to_string()
            };
            (fields[0].to_string(), [0, 1, 2, 3].map(cell))
        })
        .collect()
}

#[test]
fn experiments_table2_matches_the_report() {
    let report: Vec<Row<String>> = report_rows()
        .into_iter()
        .map(|(kernel, cells)| (kernel, cells.map(|x| format!("{x:.2}"))))
        .collect();
    assert_eq!(report.len(), 5, "five table2/<kernel> reports");
    assert_eq!(doc_rows(&read("EXPERIMENTS.md")), report);
}

#[test]
fn the_report_table2_matches_the_code() {
    let computed: Vec<Row<f64>> = table2(&kernels::all_kernels(), SEED)
        .expect("Table II kernels compile and run")
        .iter()
        .map(|r| {
            let cells = [r.eopt_perf, r.eopt_eff, r.popt_perf, r.popt_eff];
            (r.kernel.to_string(), cells)
        })
        .collect();
    assert_eq!(
        report_rows(),
        computed,
        "report.json is stale: regenerate it with reproduce_all (and EXPERIMENTS.md's Table II)"
    );
}

/// The measured column of EXPERIMENTS.md's Table III, by quantity:
/// `| data cycles | 8–500 | 252–1014 |`.
fn doc_table3(text: &str) -> Vec<(String, String)> {
    let section = text
        .split("## Table III")
        .nth(1)
        .expect("EXPERIMENTS.md has a Table III section");
    section
        .lines()
        .take_while(|l| !l.starts_with("## "))
        .filter(|l| l.starts_with("| ") && !l.starts_with("| quantity"))
        .map(|l| {
            let fields: Vec<&str> = l.trim_matches('|').split('|').map(str::trim).collect();
            assert_eq!(fields.len(), 3, "Table III row {l:?}");
            (fields[0].to_string(), fields[2].to_string())
        })
        .collect()
}

#[test]
fn experiments_table3_matches_the_report() {
    let rows = report_metrics("table3");
    assert_eq!(rows.len(), 5, "five table3/<kernel> reports");
    let each = |name: &str| rows.iter().map(|m| metric(m, name)).collect::<Vec<_>>();
    let range = |name: &str| {
        let xs = each(name);
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        (min, max)
    };
    let ratio_range = |name: &str| {
        let (min, max) = range(name);
        format!("{min:.2}–{max:.2}×")
    };
    let recurrences: Vec<String> = rows
        .iter()
        .map(|m| {
            let (ideal, real) = (metric(m, "ideal_recurrence"), metric(m, "real_recurrence"));
            format!("{ideal}→{}", real.round())
        })
        .collect();
    let mut cfg: Vec<String> = rows
        .iter()
        .map(|m| {
            format!(
                "{}/{}",
                metric(m, "cfg_cycles_e"),
                metric(m, "cfg_cycles_ue")
            )
        })
        .collect();
    cfg.dedup();
    let (data_min, data_max) = range("data_cycles");
    let report = [
        ("recurrence Ideal → Real", recurrences.join(", ")),
        ("cfg cycles E/UE", cfg.join(", ")),
        ("data cycles", format!("{data_min}–{data_max}")),
        ("E-CGRA perf", ratio_range("E-CGRA_perf")),
        ("UE-POpt perf", ratio_range("UE-CGRA POpt_perf")),
        ("UE-EOpt eff", ratio_range("UE-CGRA EOpt_eff")),
    ]
    .map(|(quantity, measured)| (quantity.to_string(), measured));
    assert_eq!(doc_table3(&read("EXPERIMENTS.md")), report);
}

#[test]
fn the_report_table3_matches_the_code() {
    let computed: Vec<Metrics> = run_all_policies_many(&kernels::all_kernels(), SEED)
        .expect("Table III kernels compile and run")
        .iter()
        .map(|runs| {
            let row = table3_row(runs).expect("Table III runs reach a steady state");
            let mut metrics = vec![
                ("ideal_recurrence".into(), row.ideal_recurrence as f64),
                ("real_recurrence".into(), row.real_recurrence),
                ("cfg_cycles_e".into(), row.cfg_cycles.0 as f64),
                ("cfg_cycles_ue".into(), row.cfg_cycles.1 as f64),
                ("data_cycles".into(), row.data_cycles as f64),
                ("core_cycles".into(), row.core_cycles as f64),
                ("core_energy_pj".into(), row.core_energy_pj),
            ];
            for (policy, perf, eff) in &row.relative {
                metrics.push((format!("{}_perf", policy.label()), *perf));
                metrics.push((format!("{}_eff", policy.label()), *eff));
            }
            (row.kernel.to_string(), metrics)
        })
        .collect();
    assert_eq!(
        report_metrics("table3"),
        computed,
        "report.json is stale: regenerate it with reproduce_all (and EXPERIMENTS.md's Table III)"
    );
}
