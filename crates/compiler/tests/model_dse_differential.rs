//! The analytical model's stepper against its oracle on inputs shaped
//! like the design-space explorer's: the five paper kernels at full
//! scale, their routed extra hops (placement seed 7), per-group VF
//! assignments drawn over `Grouping::chains`, queue depths 1–3, and
//! the estimator's measurement window. `DfgSimulator::run` must return
//! the same `SimResult` as `DfgSimulator::run_reference` on every case.
//! A failing case prints its seed; `UECGRA_CHECK_SEED=<seed>` replays
//! it alone.

use uecgra_clock::{ClockSet, VfMode};
use uecgra_compiler::mapping::{ArrayShape, MappedKernel};
use uecgra_dfg::analysis::Grouping;
use uecgra_dfg::kernels::{self, Kernel};
use uecgra_model::{DfgSimulator, EnergyDelayEstimator, SimConfig};
use uecgra_util::check::forall;

/// A paper kernel with what the explorer sees of it.
struct Mapped {
    kernel: Kernel,
    /// Routed extra hops per edge.
    extra: Vec<u32>,
    /// Searchable chain groups, each a list of node indices.
    groups: Vec<Vec<usize>>,
}

fn mapped_kernels() -> Vec<Mapped> {
    kernels::all_kernels()
        .into_iter()
        .map(|kernel| {
            let mapped = MappedKernel::map(&kernel.dfg, ArrayShape::default(), 7)
                .unwrap_or_else(|e| panic!("{}: mapping failed: {e}", kernel.name));
            let grouping = Grouping::chains(&kernel.dfg);
            let groups = grouping
                .searchable(&kernel.dfg)
                .into_iter()
                .map(|g| grouping.members(g).iter().map(|n| n.index()).collect())
                .collect();
            Mapped {
                extra: mapped.edge_extra_hops(),
                groups,
                kernel,
            }
        })
        .collect()
}

#[test]
fn run_matches_the_reference_on_dse_shaped_inputs() {
    let cases = mapped_kernels();
    let clocks = ClockSet::default();
    forall(150, |rng| {
        let m = &cases[rng.range(cases.len())];
        let k = &m.kernel;
        // Pseudo-op groups stay nominal, as in the explorer; the rest
        // take one mode per group (sometimes one mode for all).
        let mut modes = vec![VfMode::Nominal; k.dfg.node_count()];
        let uniform = rng.bool().then(|| *rng.pick(&VfMode::ALL));
        for group in &m.groups {
            let mode = uniform.unwrap_or_else(|| *rng.pick(&VfMode::ALL));
            for &n in group {
                modes[n] = mode;
            }
        }
        let config = SimConfig {
            clocks: clocks.clone(),
            queue_capacity: 1 + rng.range(3),
            marker: Some(k.iter_marker),
            max_marker_fires: Some(EnergyDelayEstimator::WINDOW),
            edge_extra_latency: m.extra.clone(),
            ..SimConfig::default()
        };
        let sim = || DfgSimulator::new(&k.dfg, modes.clone(), k.mem.clone(), config.clone());
        assert_eq!(
            sim().run(),
            sim().run_reference(),
            "{}: run() and run_reference() disagree",
            k.name
        );
    });
}
