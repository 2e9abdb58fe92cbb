//! Table II: UE-CGRA performance and energy relative to the 8x8
//! E-CGRA.

use uecgra_bench::{evaluation_kernels, header, json_path, kernel_run_reports, r2, write_reports};
use uecgra_core::experiments::{run_all_policies_many, KernelRuns, SEED};
use uecgra_core::report::metrics_report;

fn main() {
    let json = json_path();
    header("Table II: UE-CGRA vs E-CGRA (iterations/s and iterations/J, relative)");
    println!(
        "{:<8} | {:>9} {:>9} | {:>9} {:>9} |  paper EOpt eff / POpt perf",
        "kernel", "EOpt perf", "EOpt eff", "POpt perf", "POpt eff"
    );
    let paper = [
        (1.50, 1.49),
        (1.24, 1.42),
        (1.73, 1.50),
        (2.32, 1.49),
        (1.32, 1.44),
    ];
    let all =
        run_all_policies_many(&evaluation_kernels(), SEED).expect("all kernels compile and run");
    let rows: Vec<_> = all.iter().map(KernelRuns::table2_row).collect();
    for (row, (pe, pp)) in rows.iter().zip(paper) {
        println!(
            "{:<8} | {:>9} {:>9} | {:>9} {:>9} |  {pe:.2} / {pp:.2}",
            row.kernel,
            r2(row.eopt_perf),
            r2(row.eopt_eff),
            r2(row.popt_perf),
            r2(row.popt_eff)
        );
    }
    if let Some(path) = json {
        let mut reports: Vec<_> = all.iter().flat_map(|r| kernel_run_reports("", r)).collect();
        for row in &rows {
            reports.push(metrics_report(
                format!("table2/{}", row.kernel),
                vec![
                    ("eopt_perf".into(), row.eopt_perf),
                    ("eopt_eff".into(), row.eopt_eff),
                    ("popt_perf".into(), row.popt_perf),
                    ("popt_eff".into(), row.popt_eff),
                ],
            ));
        }
        write_reports(&path, &reports);
    }
}
