//! Figure 13: normalized energy efficiency vs performance — global
//! E-CGRA VF scaling against fine-grain UE-CGRA mappings.

use uecgra_bench::{header, json_path, kernel_run_reports, r2, write_reports};
use uecgra_core::experiments::{figure13, run_all_policies, SEED};
use uecgra_core::report::metrics_report;
use uecgra_dfg::kernels;

fn main() {
    let json = json_path();
    header("Figure 13: energy efficiency vs performance (relative to nominal E-CGRA)");
    let mut reports = Vec::new();
    for k in [
        kernels::llist::build_with_hops(400),
        kernels::dither::build_with_pixels(400),
    ] {
        let runs = run_all_policies(&k, SEED).expect("kernel runs");
        println!("\n{}:", k.name);
        println!("  {:<10} {:>6} {:>6}", "config", "perf", "eff");
        let mut metrics = Vec::new();
        for p in figure13(&runs).expect("steady state") {
            println!("  {:<10} {:>6} {:>6}", p.label, r2(p.perf), r2(p.eff));
            metrics.push((format!("{}_perf", p.label), p.perf));
            metrics.push((format!("{}_eff", p.label), p.eff));
        }
        reports.extend(kernel_run_reports("fig13/", &runs));
        reports.push(metrics_report(format!("fig13/{}", k.name), metrics));
    }
    if let Some(path) = json {
        write_reports(&path, &reports);
    }
    println!("\nPaper: whole-fabric scaling trades one axis for the other; fine-grain");
    println!("DVFS (UE points) reaches performance the global curve only gets by");
    println!("paying full sprint energy everywhere.");
}
