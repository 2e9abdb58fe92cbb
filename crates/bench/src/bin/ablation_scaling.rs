//! Q&A VIII-A: scalability — does the UE-CGRA's triple clock network
//! stay affordable as the array grows?
//!
//! Maps the dither kernel onto 8x8 and 16x16 arrays and compares
//! hierarchically-gated clock power: the compiler gates every cluster
//! that selects no PE on a given network, so the UE overhead stays
//! bounded as unused area grows.

use uecgra_bench::{header, json_path, write_reports};
use uecgra_clock::ClockSet;
use uecgra_compiler::bitstream::Bitstream;
use uecgra_compiler::mapping::{ArrayShape, MappedKernel};
use uecgra_compiler::power_map::{power_map, Objective};
use uecgra_core::report::metrics_report;
use uecgra_dfg::kernels;
use uecgra_vlsi::area::CgraKind;
use uecgra_vlsi::clock_power::{clock_power, ClockPowerParams, GatingConfig};

fn main() {
    let json = json_path();
    header("Ablation: clock power vs array size (dither POpt mapping, mW)");
    println!(
        "{:<8} {:>10} {:>12} {:>12} {:>14}",
        "array", "PEs used", "ungated clk", "gated clk", "gated/ungated"
    );
    let k = kernels::dither::build_with_pixels(120);
    let pm = power_map(&k.dfg, k.mem.clone(), k.iter_marker, Objective::Performance);
    // Each array size maps and measures independently; format the rows
    // in parallel and print them in order afterwards.
    let rows = uecgra_core::par::par_map(&[8usize, 16], |&dim| {
        let shape = ArrayShape {
            width: dim,
            height: dim,
        };
        let mapped = MappedKernel::map(&k.dfg, shape, 7).expect("maps");
        let bs = Bitstream::assemble(&k.dfg, &mapped, &pm.node_modes).expect("assembles");
        let grid = bs.clock_grid();
        // Scale the full-tree network power with array area (buffers
        // grow with the spanned region).
        let scale = (dim * dim) as f64 / 64.0;
        let table1 = ClockPowerParams::default();
        let params = ClockPowerParams {
            ue_global_net_mw: table1.ue_global_net_mw.map(|mw| mw * scale),
            e_global_net_mw: table1.e_global_net_mw * scale,
            ..table1
        };
        let clocks = ClockSet::default();
        let power = |gating| clock_power(CgraKind::UltraElastic, &params, &clocks, &grid, gating);
        let ungated = power(GatingConfig::POWER_ONLY);
        let gated = power(GatingConfig::FULL);
        let used = grid.iter().flatten().filter(|m| m.is_some()).count();
        let line = format!(
            "{:<8} {:>10} {:>12.2} {:>12.2} {:>13.0}%",
            format!("{dim}x{dim}"),
            used,
            ungated.total_clock_mw(),
            gated.total_clock_mw(),
            100.0 * gated.total_clock_mw() / ungated.total_clock_mw()
        );
        (line, used, ungated.total_clock_mw(), gated.total_clock_mw())
    });
    let mut metrics = Vec::new();
    for (&dim, (line, used, ungated_mw, gated_mw)) in [8usize, 16].iter().zip(&rows) {
        println!("{line}");
        metrics.push((format!("{dim}x{dim}_pes_used"), *used as f64));
        metrics.push((format!("{dim}x{dim}_ungated_clock_mw"), *ungated_mw));
        metrics.push((format!("{dim}x{dim}_gated_clock_mw"), *gated_mw));
    }
    if let Some(path) = json {
        write_reports(&path, &[metrics_report("ablation_scaling", metrics)]);
    }
    println!("\nThe kernel occupies the same clusters regardless of array size, so");
    println!("hierarchical gating prunes the growing idle region: gated clock power");
    println!("stays nearly flat while the ungated trees scale with area — the");
    println!("paper's argument that large UE islands cost like large E islands.");
}
