//! Figure 3: analytical-model case study — sweep per-group VF settings
//! on the 13-node synthetic DFG and report the frontier.

use uecgra_bench::{header, json_path, r2, write_reports};
use uecgra_core::report::metrics_report;
use uecgra_dfg::kernels::synthetic;
use uecgra_model::sweep::sweep_group_modes;

fn main() {
    let json = json_path();
    let cs = synthetic::fig3_case_study();
    let sweep = sweep_group_modes(&cs.dfg, vec![0; 4096], cs.iter_marker);
    header("Figure 3: VF sweep over the 13-node case-study DFG");
    println!("configurations evaluated: {}", sweep.points.len());

    let circled = sweep
        .points
        .iter()
        .filter(|p| p.speedup >= 1.3)
        .max_by(|a, b| a.efficiency.partial_cmp(&b.efficiency).expect("finite"))
        .expect("sweep nonempty");
    println!(
        "sprint-and-rest point:  {}x speedup, {}x energy efficiency (paper circled: 1.4x, 1.2x)",
        r2(circled.speedup),
        r2(circled.efficiency)
    );
    let effmax = sweep
        .points
        .iter()
        .filter(|p| (p.speedup - 1.0).abs() < 1e-9)
        .max_by(|a, b| a.efficiency.partial_cmp(&b.efficiency).expect("finite"))
        .expect("nominal-speed point exists");
    println!(
        "best same-performance efficiency: {}x (paper: ~2.2x from resting)",
        r2(effmax.efficiency)
    );
    println!("\nPareto frontier (speedup, efficiency):");
    let pareto = sweep.pareto_front();
    for p in &pareto {
        println!("  {:>5}  {:>5}", r2(p.speedup), r2(p.efficiency));
    }

    if let Some(path) = json {
        let mut metrics = vec![
            ("configurations".into(), sweep.points.len() as f64),
            ("circled_speedup".into(), circled.speedup),
            ("circled_efficiency".into(), circled.efficiency),
            ("same_perf_best_efficiency".into(), effmax.efficiency),
            ("pareto_points".into(), pareto.len() as f64),
        ];
        for (i, p) in pareto.iter().enumerate() {
            metrics.push((format!("pareto_{i}_speedup"), p.speedup));
            metrics.push((format!("pareto_{i}_efficiency"), p.efficiency));
        }
        write_reports(&path, &[metrics_report("fig03_sweep", metrics)]);
    }
}
