//! Table III: performance and energy efficiency of the integrated
//! processor+CGRA system relative to the RV32IM core.

use uecgra_bench::{evaluation_kernels, header, json_path, kernel_run_reports, r2, write_reports};
use uecgra_core::experiments::{run_all_policies_many, table3_row, SEED};
use uecgra_core::pipeline::Policy;
use uecgra_core::report::metrics_report;

fn main() {
    let json = json_path();
    header("Table III: system-level results relative to the in-order RV32IM core");
    println!(
        "{:<8} {:>5} {:>5} {:>9} {:>6} | {:>6} {:>6} | {:>6} {:>6} | {:>6} {:>6}",
        "kernel",
        "ideal",
        "real",
        "cfg E/UE",
        "data",
        "E perf",
        "E eff",
        "EO prf",
        "EO eff",
        "PO prf",
        "PO eff"
    );
    // All kernel × policy pipeline runs fan out across threads; the
    // per-row core simulations then fan out per kernel. Printing stays
    // on the main thread in kernel order.
    let all = run_all_policies_many(&evaluation_kernels(), SEED).expect("kernels run");
    let rows = uecgra_core::par::par_map(&all, |runs| table3_row(runs).expect("steady state"));
    for row in &rows {
        let find = |p: Policy| {
            row.relative
                .iter()
                .find(|(q, _, _)| *q == p)
                .map(|&(_, perf, eff)| (perf, eff))
                .expect("policy present")
        };
        let (ep, ee) = find(Policy::ECgra);
        let (eop, eoe) = find(Policy::UeEnergyOpt);
        let (pop, poe) = find(Policy::UePerfOpt);
        println!(
            "{:<8} {:>5} {:>5.1} {:>9} {:>6} | {:>6} {:>6} | {:>6} {:>6} | {:>6} {:>6}",
            row.kernel,
            row.ideal_recurrence,
            row.real_recurrence,
            format!("{}/{}", row.cfg_cycles.0, row.cfg_cycles.1),
            row.data_cycles,
            r2(ep),
            r2(ee),
            r2(eop),
            r2(eoe),
            r2(pop),
            r2(poe)
        );
    }
    println!("\nPaper bands: E-CGRA perf 0.94-2.31x, UE POpt perf 1.35-3.38x,");
    println!("UE EOpt efficiency 0.80-1.53x relative to the core.");

    if let Some(path) = json {
        let mut reports: Vec<_> = all.iter().flat_map(kernel_run_reports).collect();
        for row in &rows {
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
            reports.push(metrics_report(format!("table3/{}", row.kernel), metrics));
        }
        write_reports(&path, &reports);
    }
}
