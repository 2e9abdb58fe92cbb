//! Engine parity on the points the DSE recommends.
//!
//! `rtl_crosscheck` runs each best assignment once, on the fabric
//! engine. The differential contract (DESIGN.md §11) still covers the
//! mode vectors the search chooses: this test explores the five paper
//! kernels at small scale exactly as `dse_sweep` does (mapping seed 7,
//! routed extra hops) and requires `Fabric::run` and the dense oracle
//! `Fabric::run_reference` to give identical `Activity` on every best
//! assignment.

use uecgra_compiler::bitstream::Bitstream;
use uecgra_compiler::mapping::{ArrayShape, MappedKernel};
use uecgra_dfg::kernels::{self, Kernel};
use uecgra_dse::{explore, rtl_crosscheck, DseConfig, EvalCache};
use uecgra_rtl::{Fabric, FabricConfig};

const SEED: u64 = 7;

fn small_paper_kernels() -> Vec<Kernel> {
    vec![
        kernels::llist::build_with_hops(60),
        kernels::dither::build_with_pixels(60),
        kernels::susan::build_with_iters(60),
        kernels::fft::build_with_group(60),
        kernels::bf::build_with_rounds(24),
    ]
}

#[test]
fn best_assignments_run_identically_on_both_engines() {
    // A small budget keeps the unoptimized build quick; every kernel's
    // best point still mixes modes.
    let cfg = DseConfig {
        seed: SEED,
        budget: 64,
    };
    let cache = EvalCache::new();
    for k in small_paper_kernels() {
        let mapped = MappedKernel::map(&k.dfg, ArrayShape::default(), SEED)
            .unwrap_or_else(|e| panic!("{}: mapping failed: {e}", k.name));
        let extra = mapped.edge_extra_hops();
        let out = explore(&k.dfg, k.mem.clone(), k.iter_marker, &extra, &cfg, &cache);
        let modes = &out.best.modes;
        rtl_crosscheck(&k, &mapped, modes).unwrap_or_else(|e| panic!("{e}"));

        let bitstream = Bitstream::assemble(&k.dfg, &mapped, modes)
            .unwrap_or_else(|e| panic!("{}: assembly failed: {e:?}", k.name));
        let fabric = || {
            let config = FabricConfig {
                marker: Some(mapped.coord_of(k.iter_marker)),
                ..FabricConfig::default()
            };
            Fabric::new(&bitstream, k.mem.clone(), config)
        };
        let event = fabric().run();
        let dense = fabric().run_reference();
        assert_eq!(
            (event.ticks, event.stop),
            (dense.ticks, dense.stop),
            "{}: tick counts or stop reasons diverge under {}",
            k.name,
            out.best.modes_string()
        );
        assert!(
            event == dense,
            "{}: Activity diverges under {}",
            k.name,
            out.best.modes_string()
        );
    }
}
