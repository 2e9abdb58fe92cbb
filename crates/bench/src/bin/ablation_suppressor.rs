//! Ablation: the elasticity-aware suppressor versus a traditional
//! ratiochronous suppressor (paper Figure 8(d) / Section V).
//!
//! In the 2:3:9 clock plan, every fast→slow capture edge is unsafe, so
//! a traditional suppressor (safe edges only) starves any mapping that
//! sprints. The elasticity-aware suppressor lets aged tokens cross on
//! unsafe edges, keeping mixed-clock mappings at full throughput.

use uecgra_bench::{header, json_path, write_reports};
use uecgra_clock::VfMode;
use uecgra_compiler::bitstream::Bitstream;
use uecgra_compiler::mapping::{ArrayShape, MappedKernel};
use uecgra_compiler::power_map::{power_map, Objective};
use uecgra_core::report::metrics_report;
use uecgra_dfg::kernels;
use uecgra_rtl::fabric::{Fabric, FabricConfig, SuppressorKind};

fn main() {
    let json = json_path();
    header("Ablation: suppressor flavor vs throughput (iterations completed)");
    println!(
        "{:<8} {:>12} {:>14} {:>14}",
        "kernel", "target", "elast.-aware", "traditional"
    );
    let mut metrics = Vec::new();
    for k in [
        kernels::llist::build_with_hops(120),
        kernels::dither::build_with_pixels(120),
        kernels::bf::build_with_rounds(32),
    ] {
        let pm = power_map(&k.dfg, k.mem.clone(), k.iter_marker, Objective::Performance);
        let mapped = MappedKernel::map(&k.dfg, ArrayShape::default(), 7).expect("maps");
        let bs = Bitstream::assemble(&k.dfg, &mapped, &pm.node_modes).expect("assembles");
        let run = |kind| {
            let config = FabricConfig {
                marker: Some(mapped.coord_of(k.iter_marker)),
                suppressor: kind,
                max_ticks: 300_000,
                ..FabricConfig::default()
            };
            Fabric::new(&bs, k.mem.clone(), config).run().iterations()
        };
        let sprints = pm
            .node_modes
            .iter()
            .filter(|m| **m == VfMode::Sprint)
            .count();
        let elastic = run(SuppressorKind::ElasticityAware);
        let traditional = run(SuppressorKind::Traditional);
        println!(
            "{:<8} {:>12} {:>14} {:>14}   ({} sprinting nodes)",
            k.name, k.iters, elastic, traditional, sprints
        );
        metrics.push((format!("{}_target_iters", k.name), k.iters as f64));
        metrics.push((format!("{}_elastic_iters", k.name), elastic as f64));
        metrics.push((format!("{}_traditional_iters", k.name), traditional as f64));
        metrics.push((format!("{}_sprint_nodes", k.name), sprints as f64));
    }
    if let Some(path) = json {
        write_reports(&path, &[metrics_report("ablation_suppressor", metrics)]);
    }
    println!("\nTraditional suppression deadlocks the POpt mappings: crossings into");
    println!("slower domains have no safe edges, so only the elasticity-aware design");
    println!("makes per-PE DVFS usable at all.");
}
