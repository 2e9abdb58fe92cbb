//! Table I: power breakdowns of the dither kernel with and without
//! power gating (P) and hierarchical clock gating (H).

use uecgra_bench::{evaluation_kernels, header, json_path, write_reports};
use uecgra_core::experiments::{run_all_policies, table1, SEED};
use uecgra_core::report::metrics_report;

fn main() {
    let json = json_path();
    let dither = evaluation_kernels().remove(1);
    assert_eq!(dither.name, "dither");
    let runs = run_all_policies(&dither, SEED).expect("dither compiles and runs");
    header("Table I: power breakdowns, dither kernel (mW)");
    println!(
        "{:<22} {:>8} {:>8} {:>7} {:>7} {:>7} {:>8} {:>7}",
        "configuration", "PE logic", "PE clk", "G.spr", "G.nom", "G.rest", "tot clk", "total"
    );
    let rows = table1(&runs);
    for row in &rows {
        println!(
            "{:<22} {:>8.2} {:>8.2} {:>7.2} {:>7.2} {:>7.2} {:>8.2} {:>7.2}",
            row.label,
            row.pe_logic_mw,
            row.pe_clock_mw,
            row.global_mw[2],
            row.global_mw[1],
            row.global_mw[0],
            row.total_clock_mw,
            row.total_mw
        );
    }
    println!("\nPaper shape: clock ~half of total when ungated; P then H cut it");
    println!("stepwise; UE global clock ~4x E global clock before gating.");

    if let Some(path) = json {
        // The table rows as named scalars (per configuration × gating);
        // the three dither runs are reported by `table2_kernels`.
        let mut metrics = Vec::new();
        for row in &rows {
            for (field, v) in [
                ("pe_logic_mw", row.pe_logic_mw),
                ("pe_clock_mw", row.pe_clock_mw),
                ("global_rest_mw", row.global_mw[0]),
                ("global_nominal_mw", row.global_mw[1]),
                ("global_sprint_mw", row.global_mw[2]),
                ("total_clock_mw", row.total_clock_mw),
                ("total_mw", row.total_mw),
            ] {
                metrics.push((format!("{}/{field}", row.label), v));
            }
        }
        write_reports(&path, &[metrics_report("table1_power", metrics)]);
    }
}
