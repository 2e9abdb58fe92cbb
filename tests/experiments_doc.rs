//! EXPERIMENTS.md states the reproduction's measured numbers by hand;
//! this test holds its Table II to the committed `reproduce_output.txt`
//! (the `reproduce_all` snapshot), and the snapshot's Table II to the
//! table the code computes now, so a stale cell fails the build the
//! way a golden file does.

use uecgra_core::experiments::{table2, SEED};
use uecgra_dfg::kernels;

/// Kernel name and the four measured cells (EOpt perf, EOpt eff, POpt
/// perf, POpt eff) as printed.
type Row = (String, Vec<String>);

fn read(file: &str) -> String {
    let path = format!("{}/{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

/// The rows of `table2_kernels`' table in the snapshot:
/// `llist    |      1.00      0.98 |      1.50      0.69 |  1.50 / 1.49`.
fn snapshot_rows(text: &str) -> Vec<Row> {
    let table = text
        .split("Table II: UE-CGRA vs E-CGRA")
        .nth(1)
        .expect("snapshot has Table II");
    table
        .lines()
        .skip_while(|l| !l.starts_with("kernel"))
        .skip(1)
        .take_while(|l| !l.trim().is_empty())
        .map(|l| {
            let fields: Vec<&str> = l.split('|').collect();
            let cells = fields[1..3]
                .iter()
                .flat_map(|f| f.split_whitespace())
                .map(String::from)
                .collect();
            (fields[0].trim().to_string(), cells)
        })
        .collect()
}

/// The measured cells of EXPERIMENTS.md's Table II:
/// `| llist | 1.00 (1.00) | **0.98 (1.50)** | ... |`, the paper's
/// value in parentheses.
fn doc_rows(text: &str) -> Vec<Row> {
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
            let cells = fields[1..]
                .iter()
                .map(|c| {
                    let measured = c.trim_matches('*').split_whitespace().next();
                    measured.expect("non-empty cell").to_string()
                })
                .collect();
            (fields[0].to_string(), cells)
        })
        .collect()
}

#[test]
fn experiments_table2_matches_the_snapshot() {
    let snapshot = snapshot_rows(&read("reproduce_output.txt"));
    assert_eq!(snapshot.len(), 5, "five Table II kernels in the snapshot");
    assert!(snapshot.iter().all(|(_, cells)| cells.len() == 4));
    assert_eq!(doc_rows(&read("EXPERIMENTS.md")), snapshot);
}

#[test]
fn the_snapshot_table2_matches_the_code() {
    let computed: Vec<Row> = table2(&kernels::all_kernels(), SEED)
        .expect("Table II kernels compile and run")
        .iter()
        .map(|r| {
            let cells = [r.eopt_perf, r.eopt_eff, r.popt_perf, r.popt_eff];
            (
                r.kernel.to_string(),
                cells.map(|x| format!("{x:.2}")).to_vec(),
            )
        })
        .collect();
    assert_eq!(
        snapshot_rows(&read("reproduce_output.txt")),
        computed,
        "reproduce_output.txt is stale: re-capture it (and EXPERIMENTS.md's Table II)"
    );
}
