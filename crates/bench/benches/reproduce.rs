//! Wall-clock benchmarks over the reproduction stack: one group per
//! paper artifact, measuring the cost of regenerating it. (The
//! `src/bin/*` binaries print the artifacts themselves; these benches
//! keep the machinery honest and measurable.)
//!
//! Dependency-free by necessity — the build container has no network,
//! so `criterion` cannot be fetched. Each benchmark runs a warmup
//! pass, then reports min/median/mean over a fixed number of
//! iterations; `harness = false` plus the non-default `bench-harness`
//! feature keep this target out of ordinary `cargo test` builds.
//! Run with: `cargo bench -p uecgra-bench --features bench-harness`.

use std::hint::black_box;
use std::time::Instant;
use uecgra_clock::VfMode;
use uecgra_compiler::bitstream::Bitstream;
use uecgra_compiler::mapping::{ArrayShape, MappedKernel};
use uecgra_compiler::power_map::{power_map, Objective};
use uecgra_core::experiments::SEED;
use uecgra_core::pipeline::{Policy, RunRequest};
use uecgra_dfg::kernels::{self, synthetic};
use uecgra_dse::{explore, DseConfig, EvalCache};
use uecgra_model::{DfgSimulator, SimConfig};
use uecgra_rtl::fabric::{Fabric, FabricConfig};
use uecgra_vlsi::area::{pe_area, CgraKind, FIG10_CYCLE_TIMES};

/// Time `f` over `iters` iterations after one warmup call and print a
/// criterion-style summary line.
fn bench<R>(group: &str, name: &str, iters: u32, mut f: impl FnMut() -> R) {
    black_box(f());
    let mut samples: Vec<f64> = (0..iters)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let min = samples[0];
    let median = samples[samples.len() / 2];
    let mean: f64 = samples.iter().sum::<f64>() / samples.len() as f64;
    println!(
        "{group}/{name}: min {min:.3} ms, median {median:.3} ms, mean {mean:.3} ms ({iters} iters)"
    );
}

/// Figure 2/7: the analytical discrete-event simulator on toy DFGs.
fn bench_analytical_sim() {
    bench(
        "fig02_07_analytical_sim",
        "cycle4_nominal_200_iters",
        20,
        || {
            let s = synthetic::cycle_n(4);
            let config = SimConfig {
                marker: Some(s.iter_marker),
                max_marker_fires: Some(200),
                ..SimConfig::default()
            };
            let modes = vec![VfMode::Nominal; s.dfg.node_count()];
            DfgSimulator::new(&s.dfg, modes, vec![], config).run()
        },
    );
}

/// Figure 3: the full per-group VF sweep (exhaustive DSE on a cold
/// cache).
fn bench_fig3_sweep() {
    bench("fig03_sweep", "case_study_full_sweep", 10, || {
        let cs = synthetic::fig3_case_study();
        let cfg = DseConfig::default();
        explore(
            &cs.dfg,
            vec![0; 4096],
            cs.iter_marker,
            &[],
            &cfg,
            &EvalCache::new(),
        )
    });
}

/// Figures 10-12: the VLSI area models.
fn bench_vlsi_models() {
    bench("fig10_12_vlsi", "pe_area_sweep", 50, || {
        let mut acc = 0.0;
        for kind in CgraKind::ALL {
            for &t in &FIG10_CYCLE_TIMES {
                acc += pe_area(kind, t);
            }
        }
        acc
    });
}

/// Compiler: place + route + power-map + assemble for each kernel.
fn bench_compiler() {
    for k in [
        kernels::llist::build_with_hops(60),
        kernels::fft::build_with_group(60),
    ] {
        bench(
            "compiler",
            &format!("map_and_assemble_{}", k.name),
            10,
            || {
                let mapped = MappedKernel::map(&k.dfg, ArrayShape::default(), SEED).unwrap();
                let modes = vec![VfMode::Nominal; k.dfg.node_count()];
                Bitstream::assemble(&k.dfg, &mapped, &modes).unwrap()
            },
        );
        bench(
            "compiler",
            &format!("power_map_popt_{}", k.name),
            10,
            || power_map(&k.dfg, k.mem.clone(), k.iter_marker, Objective::Performance),
        );
    }
}

/// Tables II/III: the cycle-level fabric executing kernels.
fn bench_fabric() {
    for k in [
        kernels::dither::build_with_pixels(120),
        kernels::bf::build_with_rounds(32),
    ] {
        let mapped = MappedKernel::map(&k.dfg, ArrayShape::default(), SEED).unwrap();
        let modes = vec![VfMode::Nominal; k.dfg.node_count()];
        let bs = Bitstream::assemble(&k.dfg, &mapped, &modes).unwrap();
        let marker = mapped.coord_of(k.iter_marker);
        bench("table2_3_fabric", &format!("fabric_{}", k.name), 10, || {
            let config = FabricConfig {
                marker: Some(marker),
                ..FabricConfig::default()
            };
            Fabric::new(&bs, k.mem.clone(), config).run()
        });
    }
}

/// The full end-to-end pipeline (one Table II cell).
fn bench_pipeline() {
    let k = kernels::llist::build_with_hops(120);
    for policy in Policy::ALL {
        bench(
            "pipeline_end_to_end",
            &policy.label().replace(' ', "_"),
            10,
            || RunRequest::new(&k).policy(policy).seed(SEED).run().unwrap(),
        );
    }
}

/// The compiler's text frontend.
fn bench_parser() {
    let src = "
        array src @ 16;
        array dst @ 1048;
        for i in 0..1000 carry (err = 0) {
            let out = src[i] + err;
            if (out > 127) { dst[i] = 255; err = out - 255; }
            else { dst[i] = 0; err = out; }
        }
    ";
    bench("frontend", "parse_and_lower_dither", 50, || {
        let p = uecgra_compiler::parse::parse(black_box(src)).unwrap();
        uecgra_compiler::frontend::lower(&p.nest).unwrap()
    });
}

/// The out-of-order scheduling model over a kernel trace.
fn bench_ooo() {
    use uecgra_system::{programs, run_ooo, OooParams};
    let k = kernels::fft::build_with_group(200);
    bench("system_ooo", "ooo_schedule_fft", 10, || {
        run_ooo(
            programs::fft_program(200),
            k.mem.clone(),
            OooParams::default(),
        )
        .unwrap()
    });
}

fn main() {
    bench_analytical_sim();
    bench_fig3_sweep();
    bench_vlsi_models();
    bench_compiler();
    bench_fabric();
    bench_pipeline();
    bench_parser();
    bench_ooo();
}
