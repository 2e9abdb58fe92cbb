//! Figure 7(c): throughput versus sprint frequency.

use uecgra_bench::{header, json_path, write_reports};
use uecgra_clock::{ClockSet, VfMode};
use uecgra_core::report::metrics_report;
use uecgra_dfg::kernels::synthetic;
use uecgra_model::{DfgSimulator, SimConfig};

/// Nominal divisor 6 lets sprint divisors 6..2 express multipliers
/// 1.0x, 1.2x, 1.5x, 2.0x, 3.0x.
fn throughput(n: usize, sprint_div: u32) -> f64 {
    let s = synthetic::cycle_n(n);
    let clocks = ClockSet::new([18, 6, sprint_div]).expect("valid plan");
    let mut modes = vec![VfMode::Nominal; s.dfg.node_count()];
    for c in &s.cycle_nodes {
        modes[c.index()] = VfMode::Sprint;
    }
    let config = SimConfig {
        clocks,
        marker: Some(s.iter_marker),
        max_marker_fires: Some(200),
        ..SimConfig::default()
    };
    let r = DfgSimulator::new(&s.dfg, modes, vec![], config).run();
    r.throughput(30).expect("steady state")
}

fn main() {
    let json = json_path();
    header("Figure 7(c): throughput vs sprint frequency (iterations/cycle)");
    let sweeps = [(6u32, 1.0), (5, 1.2), (4, 1.5), (3, 2.0), (2, 3.0)];
    print!("{:<12}", "benchmark");
    for (_, m) in sweeps {
        print!(" {:>8}", format!("{m:.1}x"));
    }
    println!();
    let mut metrics = Vec::new();
    for n in [2usize, 4, 8] {
        print!("cycle-{n:<6}");
        for (d, m) in sweeps {
            let t = throughput(n, d);
            metrics.push((format!("cycle-{n}_sprint_{m:.1}x_throughput"), t));
            print!(" {t:>8.3}");
        }
        println!();
    }
    if let Some(path) = json {
        write_reports(&path, &[metrics_report("fig07c_sprint", metrics)]);
    }
    println!("\nPaper: speedup is linear in sprint frequency until the producer-rate");
    println!("ceiling; the realistic VLSI region tops out near 1.5x (1.58x pre-quantization).");
}
