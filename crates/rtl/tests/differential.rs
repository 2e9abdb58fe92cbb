//! Differential tests: the event-driven engine against the dense
//! reference oracle.
//!
//! The contract (DESIGN.md §11) is *bit-identical* [`Activity`] on
//! every configuration — cycle counts, per-PE edge-classified stall
//! partitions, queue-occupancy histograms, gated-edge counters, final
//! memory, recorded events, and the protocol checker's end-of-run
//! report. These tests enforce it over seeded random 8×8 fabrics
//! (random DVFS assignments, recurrence cycles through registers and
//! queue loops, perimeter SRAM PEs) and over the real compiled paper
//! kernels (nominal, POpt and EOpt DVFS) and the extension kernels
//! (nominal and POpt). Failures print the case seed; rerun a single case with
//! `UECGRA_CHECK_SEED=<seed>`.

mod common;

use common::{
    assert_engines_agree, compiled, random_bitstream, random_config, small_kernels, MEM_WORDS,
};
use uecgra_clock::VfMode;
use uecgra_compiler::power_map::{power_map, Objective};
use uecgra_dfg::kernels::{self, extra::extra_kernels, Kernel};
use uecgra_rtl::fabric::{Fabric, FabricConfig, SuppressorKind};
use uecgra_util::check::forall;

/// The tentpole property: ≥200 seeded random 8×8 fabrics, dense vs
/// event-driven `Activity` identical field-for-field.
#[test]
fn random_fabrics_run_identically_on_both_engines() {
    forall(250, |rng| {
        let bs = random_bitstream(rng, 8, 8);
        let mem: Vec<u32> = (0..MEM_WORDS).map(|_| rng.next_u32()).collect();
        let config = random_config(rng, 8, 8);
        assert_engines_agree(&bs, &mem, &config, "random 8x8 fabric");
    });
}

/// Non-square arrays keep the row-major index mapping honest.
#[test]
fn random_rectangular_fabrics_run_identically() {
    forall(60, |rng| {
        let w = 1 + rng.range(9);
        let h = 1 + rng.range(9);
        let bs = random_bitstream(rng, w, h);
        let mem: Vec<u32> = (0..MEM_WORDS).map(|_| rng.next_u32()).collect();
        let config = random_config(rng, w, h);
        assert_engines_agree(&bs, &mem, &config, "random rectangular fabric");
    });
}

/// Long runs: the event engine leaves PEs disarmed across long idle
/// stretches and wakes them only on the pushes and pops that can
/// change their outcome, so the random fabrics run for 5,000–20,000
/// ticks with no marker cap.
#[test]
fn long_random_fabrics_run_identically() {
    forall(100, |rng| {
        let bs = random_bitstream(rng, 8, 8);
        let mem: Vec<u32> = (0..MEM_WORDS).map(|_| rng.next_u32()).collect();
        let mut config = random_config(rng, 8, 8);
        config.max_ticks = rng.range_u64(5_000, 20_001);
        config.max_marker_fires = None;
        assert_engines_agree(&bs, &mem, &config, "long random 8x8 fabric");
    });
}

fn assert_kernels_agree_at_nominal(ks: Vec<Kernel>) {
    for k in ks {
        let modes = vec![VfMode::Nominal; k.dfg.node_count()];
        let (bs, config) = compiled(&k, &modes, 7);
        assert_engines_agree(&bs, &k.mem, &config, k.name);
    }
}

fn assert_kernels_agree_under(ks: Vec<Kernel>, objective: Objective) {
    for k in ks {
        let pm = power_map(&k.dfg, k.mem.clone(), k.iter_marker, objective);
        let (bs, config) = compiled(&k, &pm.node_modes, 7);
        assert_engines_agree(&bs, &k.mem, &config, &format!("{} ({objective:?})", k.name));
    }
}

#[test]
fn paper_kernels_run_identically_at_nominal() {
    assert_kernels_agree_at_nominal(small_kernels());
}

#[test]
fn paper_kernels_run_identically_under_popt_dvfs() {
    assert_kernels_agree_under(small_kernels(), Objective::Performance);
}

#[test]
fn paper_kernels_run_identically_under_eopt_dvfs() {
    assert_kernels_agree_under(small_kernels(), Objective::Energy);
}

#[test]
fn extra_kernels_run_identically_at_nominal() {
    assert_kernels_agree_at_nominal(extra_kernels(40));
}

#[test]
fn extra_kernels_run_identically_under_popt_dvfs() {
    assert_kernels_agree_under(extra_kernels(40), Objective::Performance);
}

#[test]
fn paper_kernels_run_identically_with_events_and_marker_cap() {
    let k = kernels::dither::build_with_pixels(40);
    let modes = vec![VfMode::Nominal; k.dfg.node_count()];
    let (bs, mut config) = compiled(&k, &modes, 3);
    config.record_events = true;
    config.max_marker_fires = Some(12);
    assert_engines_agree(&bs, &k.mem, &config, "dither (events + marker cap)");
}

#[test]
fn paper_kernels_run_identically_under_traditional_suppressor() {
    // Mixed clocks + traditional suppressor strangle the fabric — the
    // engines must agree on exactly how it strangles (including the
    // LUT-phase-driven suppressed/backpressure flapping).
    let k = kernels::dither::build_with_pixels(40);
    let pm = power_map(&k.dfg, k.mem.clone(), k.iter_marker, Objective::Performance);
    let (bs, mut config) = compiled(&k, &pm.node_modes, 7);
    config.suppressor = SuppressorKind::Traditional;
    config.max_ticks = 100_000;
    assert_engines_agree(&bs, &k.mem, &config, "dither (traditional suppressor)");
}

/// The paper kernels at ten times the small scale (thousands of
/// ticks each), under POpt DVFS with single- and triple-entry queues
/// and both suppressors.
#[test]
fn long_paper_kernels_run_identically_across_queue_depths_and_suppressors() {
    let ks = [
        kernels::llist::build_with_hops(400),
        kernels::dither::build_with_pixels(400),
        kernels::susan::build_with_iters(400),
        kernels::fft::build_with_group(400),
        kernels::bf::build_with_rounds(160),
    ];
    for k in ks {
        let pm = power_map(&k.dfg, k.mem.clone(), k.iter_marker, Objective::Performance);
        let (bs, base) = compiled(&k, &pm.node_modes, 7);
        for queue_capacity in [1, 3] {
            for suppressor in [SuppressorKind::ElasticityAware, SuppressorKind::Traditional] {
                let config = FabricConfig {
                    queue_capacity,
                    suppressor,
                    max_ticks: 20_000,
                    ..base.clone()
                };
                let label = format!("{} (POpt, depth {queue_capacity}, {suppressor:?})", k.name);
                assert_engines_agree(&bs, &k.mem, &config, &label);
            }
        }
    }
}

#[test]
fn event_engine_functional_outputs_match_references() {
    // Beyond engine agreement: the event engine alone still computes
    // the right answers.
    for k in small_kernels() {
        let modes = vec![VfMode::Nominal; k.dfg.node_count()];
        let (bs, config) = compiled(&k, &modes, 7);
        let act = Fabric::new(&bs, k.mem.clone(), config).run();
        let expect = k.reference_memory();
        assert_eq!(
            &act.mem[..expect.len()],
            &expect[..],
            "{}: event engine memory diverges from host reference",
            k.name
        );
    }
}
