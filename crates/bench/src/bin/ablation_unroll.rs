//! Q&A VIII-C: mitigating low utilization with multiple kernel
//! instances.
//!
//! The paper notes the kernels underutilize the 8x8 fabric (~65% in
//! their mappings, much less for small kernels) and suggests placing
//! multiple instances side by side. This binary instantiates dither
//! twice — the second instance built from *source text* through the
//! compiler frontend with a disjoint memory layout — merges the two
//! DFGs, maps the pair onto one array, and measures aggregate
//! throughput and utilization.

use uecgra_bench::{header, json_path, write_reports};
use uecgra_clock::VfMode;
use uecgra_compiler::bitstream::Bitstream;
use uecgra_compiler::frontend::lower;
use uecgra_compiler::mapping::{ArrayShape, MappedKernel};
use uecgra_compiler::parse::parse;
use uecgra_core::report::metrics_report;
use uecgra_dfg::kernels::dither;
use uecgra_dfg::transform::merge;
use uecgra_rtl::fabric::{Fabric, FabricConfig};

const N: usize = 200;

fn main() {
    let json = json_path();
    header("Ablation: one vs two dither instances on one 8x8 fabric");

    // Instance 0: the library kernel (src @ 16, dst @ dst_base).
    let k = dither::build_with_pixels(N);

    // Instance 1: same loop from source text, over a disjoint region.
    let base2 = k.mem.len() as u32;
    let src2 = parse(&format!(
        "array src @ {};
         array dst @ {};
         for i in 0..{N} carry (err = 0) {{
             let out = src[i] + err;
             if (out > 127) {{ dst[i] = 255; err = out - 255; }}
             else {{ dst[i] = 0; err = out; }}
         }}",
        base2 + 16,
        base2 + 16 + N as u32 + 16,
    ))
    .expect("valid source");
    let inst2 = lower(&src2.nest).expect("lowers");

    // Combined memory: image 0, then image 1 (same pixels).
    let mut mem = k.mem.clone();
    mem.extend(k.mem.iter().copied());

    // Single instance baseline.
    let single = run(&k.dfg, k.iter_marker, k.mem.clone());
    // Merged pair.
    let (pair, maps) = merge(&[&k.dfg, &inst2.dfg]);
    let marker = maps[0][k.iter_marker.index()];
    let both = run(&pair, marker, mem);

    println!(
        "{:<18} {:>12} {:>12} {:>14}",
        "configuration", "utilization", "II (cycles)", "pixels/cycle"
    );
    println!(
        "{:<18} {:>11.0}% {:>12.2} {:>14.3}",
        "1x dither",
        single.1 * 100.0,
        single.0,
        1.0 / single.0
    );
    println!(
        "{:<18} {:>11.0}% {:>12.2} {:>14.3}",
        "2x dither",
        both.1 * 100.0,
        both.0,
        2.0 / both.0
    );
    println!("\nTwo instances double aggregate throughput at (near) unchanged II:");
    println!("UE-CGRA benefits are intra-kernel and compose with this replication,");
    println!("exactly the paper's Section VIII-C argument.");

    if let Some(path) = json {
        let report = metrics_report(
            "ablation_unroll",
            vec![
                ("single_ii".into(), single.0),
                ("single_utilization".into(), single.1),
                ("single_pixels_per_cycle".into(), 1.0 / single.0),
                ("pair_ii".into(), both.0),
                ("pair_utilization".into(), both.1),
                ("pair_pixels_per_cycle".into(), 2.0 / both.0),
            ],
        );
        write_reports(&path, &[report]);
    }
}

fn run(dfg: &uecgra_dfg::Dfg, marker: uecgra_dfg::NodeId, mem: Vec<u32>) -> (f64, f64) {
    let mapped = MappedKernel::map(dfg, ArrayShape::default(), 7).expect("fits");
    let modes = vec![VfMode::Nominal; dfg.node_count()];
    let bs = Bitstream::assemble(dfg, &mapped, &modes).expect("assembles");
    let config = FabricConfig {
        marker: Some(mapped.coord_of(marker)),
        ..FabricConfig::default()
    };
    let act = Fabric::new(&bs, mem, config).run();
    (act.steady_ii(8).expect("steady"), mapped.utilization())
}
