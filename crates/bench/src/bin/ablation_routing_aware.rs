//! Ablation: logical vs routing-aware power mapping.
//!
//! The paper's power mapper measures energy-delay on the logical DFG;
//! this reproduction can additionally feed the routed per-edge hop
//! counts into `MeasureEnergyDelay` (the minimal version of the
//! physically-constrained mapping the paper leaves as future work).
//! This binary quantifies what that buys.

use uecgra_bench::{header, json_path, r2, write_reports};
use uecgra_clock::VfMode;
use uecgra_compiler::bitstream::Bitstream;
use uecgra_compiler::mapping::{ArrayShape, MappedKernel};
use uecgra_compiler::power_map::{power_map_routed, Objective};
use uecgra_core::report::metrics_report;
use uecgra_dfg::kernels;
use uecgra_rtl::fabric::{Fabric, FabricConfig};

fn measure(k: &uecgra_dfg::Kernel, modes: &[VfMode], mapped: &MappedKernel) -> f64 {
    let bs = Bitstream::assemble(&k.dfg, mapped, modes).expect("assembles");
    let config = FabricConfig {
        marker: Some(mapped.coord_of(k.iter_marker)),
        ..FabricConfig::default()
    };
    let act = Fabric::new(&bs, k.mem.clone(), config).run();
    act.steady_ii(8).expect("steady state")
}

fn main() {
    let json = json_path();
    header("Ablation: POpt speedup with logical vs routing-aware MeasureEnergyDelay");
    println!(
        "{:<8} {:>8} {:>10} {:>10} {:>12}",
        "kernel", "E-II", "logical", "routed", "routed gain"
    );
    let mut metrics = Vec::new();
    for k in [
        kernels::llist::build_with_hops(120),
        kernels::dither::build_with_pixels(120),
        kernels::fft::build_with_group(120),
    ] {
        let mapped = MappedKernel::map(&k.dfg, ArrayShape::default(), 7).expect("maps");
        let nominal = vec![VfMode::Nominal; k.dfg.node_count()];
        let e_ii = measure(&k, &nominal, &mapped);

        let logical = power_map_routed(
            &k.dfg,
            k.mem.clone(),
            k.iter_marker,
            Objective::Performance,
            &[],
        );
        let extra = mapped.edge_extra_hops();
        let routed = power_map_routed(
            &k.dfg,
            k.mem.clone(),
            k.iter_marker,
            Objective::Performance,
            &extra,
        );
        let ii_logical = measure(&k, &logical.node_modes, &mapped);
        let ii_routed = measure(&k, &routed.node_modes, &mapped);
        println!(
            "{:<8} {:>8} {:>10} {:>10} {:>11}%",
            k.name,
            r2(e_ii),
            r2(e_ii / ii_logical),
            r2(e_ii / ii_routed),
            r2(100.0 * (ii_logical / ii_routed - 1.0))
        );
        metrics.push((format!("{}_e_ii", k.name), e_ii));
        metrics.push((format!("{}_speedup_logical", k.name), e_ii / ii_logical));
        metrics.push((format!("{}_speedup_routed", k.name), e_ii / ii_routed));
    }
    if let Some(path) = json {
        write_reports(&path, &[metrics_report("ablation_routing_aware", metrics)]);
    }
    println!("\nSeeing routed latencies lets the mapper sprint the cycles that are");
    println!("actually critical after place-and-route and rest slack that only");
    println!("exists physically.");
}
