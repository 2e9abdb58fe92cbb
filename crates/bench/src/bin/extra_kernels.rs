//! Extension kernels beyond the paper: Table-II-style results for
//! CRC-32 (load-carried recurrence), SpMV row gather, and max-scan
//! (data-dependent control), showing the stack generalizes.

use uecgra_bench::{header, json_path, kernel_run_reports, r2, write_reports};
use uecgra_core::experiments::{run_all_policies, SEED};
use uecgra_core::report::metrics_report;
use uecgra_dfg::kernels::extra::extra_kernels;

fn main() {
    let json = json_path();
    header("Extension kernels: UE-CGRA vs E-CGRA (relative)");
    println!(
        "{:<9} {:>6} {:>7} | {:>9} {:>9} | {:>9} {:>9}",
        "kernel", "ideal", "real", "EOpt perf", "EOpt eff", "POpt perf", "POpt eff"
    );
    let mut reports = Vec::new();
    for k in extra_kernels(400) {
        let runs = run_all_policies(&k, SEED).expect("kernel runs");
        let row = runs.table2_row();
        let e_ii = runs.e.try_ii().expect("steady state");
        println!(
            "{:<9} {:>6} {:>7} | {:>9} {:>9} | {:>9} {:>9}",
            row.kernel,
            k.ideal_recurrence,
            r2(e_ii),
            r2(row.eopt_perf),
            r2(row.eopt_eff),
            r2(row.popt_perf),
            r2(row.popt_eff)
        );
        reports.extend(kernel_run_reports("", &runs));
        reports.push(metrics_report(
            format!("extra_kernels/{}", row.kernel),
            vec![
                ("ideal_recurrence".into(), k.ideal_recurrence as f64),
                ("e_ii".into(), e_ii),
                ("eopt_perf".into(), row.eopt_perf),
                ("eopt_eff".into(), row.eopt_eff),
                ("popt_perf".into(), row.popt_perf),
                ("popt_eff".into(), row.popt_eff),
            ],
        ));
    }
    if let Some(path) = json {
        write_reports(&path, &reports);
    }
    println!("\ncrc32 behaves like llist (a load on the recurrence: only DVFS helps);");
    println!("spmv and max_scan are index-loop bound and sprint like dither.");
}
