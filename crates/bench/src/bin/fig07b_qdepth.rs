//! Figure 7(b): throughput versus queue depth.

use uecgra_bench::{header, json_path, write_reports};
use uecgra_clock::VfMode;
use uecgra_compiler::bitstream::Bitstream;
use uecgra_compiler::mapping::{ArrayShape, MappedKernel};
use uecgra_core::report::metrics_report;
use uecgra_dfg::kernels::synthetic;
use uecgra_model::{DfgSimulator, SimConfig};
use uecgra_rtl::fabric::{Fabric, FabricConfig};

fn throughput(n_or_chain: Option<usize>, depth: usize) -> f64 {
    let s = match n_or_chain {
        Some(n) => synthetic::cycle_n(n),
        None => synthetic::chain(6),
    };
    let config = SimConfig {
        marker: Some(s.iter_marker),
        max_marker_fires: Some(120),
        queue_capacity: depth,
        ..SimConfig::default()
    };
    let modes = vec![VfMode::Nominal; s.dfg.node_count()];
    let r = DfgSimulator::new(&s.dfg, modes, vec![], config).run();
    r.throughput(20).expect("steady state")
}

fn main() {
    let json = json_path();
    header("Figure 7(b): throughput vs queue depth (iterations/cycle)");
    let depths = [1usize, 2, 3, 4, 8];
    print!("{:<12}", "benchmark");
    for d in depths {
        print!(" {:>8}", format!("depth {d}"));
    }
    println!();
    let mut metrics = Vec::new();
    for (label, which) in [
        ("cycle-2", Some(2)),
        ("cycle-4", Some(4)),
        ("cycle-8", Some(8)),
        ("chain", None),
    ] {
        print!("{label:<12}");
        for d in depths {
            let t = throughput(which, d);
            metrics.push((format!("model_{label}_depth{d}_throughput"), t));
            print!(" {t:>8.3}");
        }
        println!();
    }
    println!("\nPaper: irregular kernels are insensitive to depth (the cycle's queues");
    println!("are always near-empty); regular kernels need depth >= 2 for full rate.");

    // Cross-check on the cycle-level fabric (the paper's RTL method):
    // place-and-route cycle-N onto the 8x8 array and sweep the real
    // bisynchronous queue capacity.
    println!("\nRTL-fabric cross-check (routed cycle-N):");
    print!("{:<12}", "benchmark");
    for d in depths {
        print!(" {:>8}", format!("depth {d}"));
    }
    println!();
    for n in [2usize, 4, 8] {
        let s = synthetic::cycle_n(n);
        let mapped = MappedKernel::map(&s.dfg, ArrayShape::default(), 7).expect("maps");
        let modes = vec![VfMode::Nominal; s.dfg.node_count()];
        let bs = Bitstream::assemble(&s.dfg, &mapped, &modes).expect("assembles");
        print!("cycle-{n:<6}");
        for d in depths {
            let config = FabricConfig {
                marker: Some(mapped.coord_of(s.iter_marker)),
                max_marker_fires: Some(120),
                queue_capacity: d,
                ..FabricConfig::default()
            };
            let act = Fabric::new(&bs, vec![], config).run();
            let ii = act.steady_ii(20).expect("steady state");
            metrics.push((format!("rtl_cycle-{n}_depth{d}_throughput"), 1.0 / ii));
            print!(" {:>8.3}", 1.0 / ii);
        }
        println!();
    }
    println!("(routed rings run at their placed length, still depth-insensitive)");
    if let Some(path) = json {
        write_reports(&path, &[metrics_report("fig07b_qdepth", metrics)]);
    }
}
