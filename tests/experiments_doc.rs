//! EXPERIMENTS.md states the reproduction's measured numbers by hand;
//! this test holds its Table II to the `table2/<kernel>` metrics of the
//! committed `report.json` (what `reproduce_all` writes), and those
//! metrics to the table the code computes now, so a stale cell fails
//! the build the way a golden file does.

use uecgra_core::experiments::{table2, SEED};
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

/// The `table2/<kernel>` metrics reports of the committed `report.json`.
fn report_rows() -> Vec<Row<f64>> {
    let reports = RunReport::parse_all(&read("report.json")).expect("report.json parses");
    reports
        .iter()
        .filter_map(|r| {
            let kernel = r.name.strip_prefix("table2/")?;
            let cell = |name: &str| {
                let metric = r.metrics.iter().find(|(k, _)| k == name);
                metric
                    .unwrap_or_else(|| panic!("{}: no metric {name}", r.name))
                    .1
            };
            Some((kernel.to_string(), CELLS.map(cell)))
        })
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
