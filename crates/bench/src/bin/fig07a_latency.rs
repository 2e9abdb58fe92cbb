//! Figure 7(a): throughput versus inter-PE latency (cycles per hop).

use uecgra_bench::{header, json_path, write_reports};
use uecgra_clock::VfMode;
use uecgra_core::report::metrics_report;
use uecgra_dfg::kernels::synthetic;
use uecgra_model::{DfgSimulator, SimConfig};

fn throughput(n_or_chain: Option<usize>, hop: u32) -> f64 {
    let s = match n_or_chain {
        Some(n) => synthetic::cycle_n(n),
        None => synthetic::chain(6),
    };
    let config = SimConfig {
        marker: Some(s.iter_marker),
        max_marker_fires: Some(120),
        hop_latency: hop,
        ..SimConfig::default()
    };
    let modes = vec![VfMode::Nominal; s.dfg.node_count()];
    let r = DfgSimulator::new(&s.dfg, modes, vec![], config).run();
    r.throughput(20).expect("steady state")
}

fn main() {
    let json = json_path();
    header("Figure 7(a): throughput vs inter-PE latency (iterations/cycle)");
    println!(
        "{:<12} {:>8} {:>8} {:>8}",
        "benchmark", "1 cyc", "2 cyc", "3 cyc"
    );
    let mut metrics = Vec::new();
    for (label, which) in [
        ("cycle-2", Some(2)),
        ("cycle-4", Some(4)),
        ("cycle-8", Some(8)),
        ("chain", None),
    ] {
        let t: Vec<f64> = (1..=3).map(|h| throughput(which, h)).collect();
        println!(
            "{label:<12} {:>8.3} {:>8.3} {:>8.3}   (degradation at 2 cyc: {:.1}x)",
            t[0],
            t[1],
            t[2],
            t[0] / t[1]
        );
        for (hop, thpt) in (1..=3).zip(&t) {
            metrics.push((format!("{label}_hop{hop}_throughput"), *thpt));
        }
    }
    if let Some(path) = json {
        write_reports(&path, &[metrics_report("fig07a_latency", metrics)]);
    }
    println!("\nPaper: two-cycle synchronization latency (async FIFOs) degrades");
    println!("recurrence-bound kernels by 2-3x; high performance needs ~zero added latency.");
}
