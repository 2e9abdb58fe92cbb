//! Figure 3: analytical-model case study — explore every per-group VF
//! setting of the 13-node synthetic DFG and report the frontier.
//!
//! The design-space explorer enumerates the whole grouped space here
//! (`3^5 = 243` assignments fit the default budget); every metric is
//! relative to the all-nominal point.

use uecgra_bench::{header, json_path, r2, write_reports};
use uecgra_clock::VfMode;
use uecgra_core::report::metrics_report;
use uecgra_dfg::kernels::synthetic;
use uecgra_dse::{explore_points, DseConfig, DsePoint, EvalCache};

fn main() {
    let json = json_path();
    let cs = synthetic::fig3_case_study();
    let (outcome, points) = explore_points(
        &cs.dfg,
        vec![0; 4096],
        cs.iter_marker,
        &[],
        &DseConfig::default(),
        &EvalCache::new(),
    );
    let nominal = points
        .iter()
        .find(|p| p.modes.iter().all(|&m| m == VfMode::Nominal))
        .expect("all-nominal is a seed")
        .ed;
    // (speedup, efficiency) over all-nominal.
    let rel = |p: &DsePoint| (p.ed.speedup_over(&nominal), p.ed.efficiency_over(&nominal));
    // The most efficient evaluated point whose speedup passes `keep`.
    let most_efficient = |keep: fn(f64) -> bool| {
        points
            .iter()
            .map(rel)
            .filter(|p| keep(p.0))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .expect("a point passes")
    };

    header("Figure 3: VF sweep over the 13-node case-study DFG");
    println!("configurations evaluated: {}", outcome.unique_configs);
    let circled = most_efficient(|s| s >= 1.3);
    println!(
        "sprint-and-rest point:  {}x speedup, {}x energy efficiency (paper circled: 1.4x, 1.2x)",
        r2(circled.0),
        r2(circled.1)
    );
    let effmax = most_efficient(|s| (s - 1.0).abs() < 1e-9);
    println!(
        "best same-performance efficiency: {}x (paper: ~2.2x from resting)",
        r2(effmax.1)
    );
    println!("\nPareto frontier (speedup, efficiency):");
    let mut pareto: Vec<(f64, f64)> = outcome.frontier.iter().map(rel).collect();
    pareto.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
    for p in &pareto {
        println!("  {:>5}  {:>5}", r2(p.0), r2(p.1));
    }

    if let Some(path) = json {
        let mut metrics = vec![
            ("configurations".into(), outcome.unique_configs as f64),
            ("circled_speedup".into(), circled.0),
            ("circled_efficiency".into(), circled.1),
            ("same_perf_best_efficiency".into(), effmax.1),
            ("pareto_points".into(), pareto.len() as f64),
        ];
        for (i, p) in pareto.iter().enumerate() {
            metrics.push((format!("pareto_{i}_speedup"), p.0));
            metrics.push((format!("pareto_{i}_efficiency"), p.1));
        }
        write_reports(&path, &[metrics_report("fig03_sweep", metrics)]);
    }
}
