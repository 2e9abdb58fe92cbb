//! Differential suite: the analytical model's stepper
//! (`DfgSimulator::run`) against its tick-by-tick oracle
//! (`DfgSimulator::run_reference`).
//!
//! Every case draws a graph (a small-scale paper kernel or a synthetic
//! microbenchmark), a clock plan, per-node modes, per-edge extra
//! latencies, queue depth, hop latency and the optional limits, then
//! runs both steppers under `catch_unwind`. They must agree on the
//! whole `SimResult`, or both panic with the same message (a truncated
//! memory image makes loads and stores go out of bounds). A failing
//! case prints its seed; `UECGRA_CHECK_SEED=<seed>` replays it alone
//! (the coverage checks at the end then fail, as one case cannot reach
//! every stop reason).

use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, AssertUnwindSafe};
use uecgra_clock::{ClockSet, VfMode};
use uecgra_dfg::kernels::{self, synthetic};
use uecgra_dfg::{Dfg, NodeId, Op};
use uecgra_model::{DfgSimulator, SimConfig, SimResult, StopReason};
use uecgra_util::{check::forall, SplitMix64};

/// A graph under test with its marker and a memory image.
struct Case {
    dfg: Dfg,
    marker: NodeId,
    mem: Vec<u32>,
}

fn arb_case(rng: &mut SplitMix64) -> Case {
    let scale = 1 + rng.range(40);
    let kernel = |k: kernels::Kernel| Case {
        marker: k.iter_marker,
        mem: k.mem,
        dfg: k.dfg,
    };
    let synth = |s: synthetic::Synthetic| Case {
        marker: s.iter_marker,
        dfg: s.dfg,
        mem: Vec::new(),
    };
    match rng.range(10) {
        0 => kernel(kernels::llist::build_with_hops(scale)),
        1 => kernel(kernels::dither::build_with_pixels(scale)),
        2 => kernel(kernels::susan::build_with_iters(scale)),
        3 => kernel(kernels::fft::build_with_group(scale)),
        4 => kernel(kernels::bf::build_with_rounds(1 + scale / 4)),
        5 => synth(synthetic::cycle_n(2 + rng.range(7))),
        6 => synth(synthetic::chain(1 + rng.range(8))),
        7 => synth(synthetic::fig1_dep_chain()),
        8 => {
            let toy = synthetic::fig2_toy();
            Case {
                marker: toy.iter_marker,
                dfg: toy.dfg,
                mem: vec![0; 256],
            }
        }
        _ => {
            let cs = synthetic::fig3_case_study();
            Case {
                marker: cs.iter_marker,
                dfg: cs.dfg,
                mem: vec![0; 256],
            }
        }
    }
}

fn arb_clocks(rng: &mut SplitMix64) -> ClockSet {
    let divisors = match rng.range(4) {
        0 => [9, 3, 2],
        1 => [6, 3, 2],
        2 => [18, 6, 1 + rng.range(6) as u32],
        _ => [3, 3, 3],
    };
    ClockSet::new(divisors).expect("ordered divisors")
}

/// Run `sim` and return its result, or the panic message.
fn outcome(sim: impl FnOnce() -> SimResult) -> Result<SimResult, String> {
    catch_unwind(AssertUnwindSafe(sim)).map_err(|panic| {
        panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    })
}

#[test]
fn run_matches_the_reference_stepper() {
    let stops = RefCell::new(Vec::new());
    let panics = Cell::new(0);
    forall(300, |rng| {
        let Case {
            dfg,
            marker,
            mut mem,
        } = arb_case(rng);
        // One case in eight truncates the memory image, so some loads
        // and stores go out of bounds and both steppers must panic alike.
        if !mem.is_empty() && rng.range(8) == 0 {
            mem.truncate(rng.range(mem.len()));
        }
        let modes: Vec<VfMode> = (0..dfg.node_count())
            .map(|_| *rng.pick(&VfMode::ALL))
            .collect();
        let edge_extra_latency = if rng.bool() {
            Vec::new()
        } else {
            (0..dfg.edge_count()).map(|_| rng.range(3) as u32).collect()
        };
        let config = SimConfig {
            clocks: arb_clocks(rng),
            queue_capacity: 1 + rng.range(4),
            hop_latency: 1 + rng.range(3) as u32,
            max_ticks: rng.range_u64(100, 20_000),
            max_marker_fires: rng.bool().then(|| rng.range_u64(1, 60)),
            marker: Some(marker),
            source_limit: rng.bool().then(|| rng.range_u64(0, 40)),
            edge_extra_latency,
        };
        let sim = || DfgSimulator::new(&dfg, modes.clone(), mem.clone(), config.clone());
        let fast = outcome(|| sim().run());
        let oracle = outcome(|| sim().run_reference());
        assert_eq!(fast, oracle, "run() and run_reference() disagree");
        match fast {
            Ok(r) => stops.borrow_mut().push(r.stop),
            Err(_) => panics.set(panics.get() + 1),
        }
    });
    for stop in [
        StopReason::MarkerDone,
        StopReason::Quiesced,
        StopReason::TickLimit,
    ] {
        assert!(
            stops.borrow().contains(&stop),
            "no case stopped with {stop:?}"
        );
    }
    assert!(panics.get() > 0, "no case exercised panic parity");
}

/// Run both steppers on one configuration and require the same outcome.
fn both(dfg: &Dfg, mem: Vec<u32>, config: SimConfig) -> Result<SimResult, String> {
    let modes = vec![VfMode::Nominal; dfg.node_count()];
    let sim = || DfgSimulator::new(dfg, modes.clone(), mem.clone(), config.clone());
    let fast = outcome(|| sim().run());
    assert_eq!(fast, outcome(|| sim().run_reference()));
    fast
}

/// A Phi with both inputs visible pops its first in-edge (in input
/// order, not port order), and two stores to one address on one tick
/// land in ascending node order.
#[test]
fn phi_priority_and_same_tick_stores_match() {
    let mut g = Dfg::new();
    let src = g.add_node(Op::Source, "src").id();
    let add = g.add_node(Op::Add, "add").constant(100).id();
    let phi = g.add_node(Op::Phi, "phi").id();
    let first = g.add_node(Op::Store, "first").constant(1).id();
    let second = g.add_node(Op::Store, "second").constant(2).id();
    g.connect(src, add);
    g.connect_ports(src, 0, phi, 1);
    g.connect_ports(add, 0, phi, 0);
    g.connect(phi, first);
    g.connect(phi, second);
    let config = SimConfig {
        marker: Some(first),
        max_marker_fires: Some(5),
        ..SimConfig::default()
    };
    let r = both(&g, vec![0; 256], config).expect("in-bounds stores");
    assert_eq!(r.stop, StopReason::MarkerDone);
    // The source's tokens (addresses 0, 1, ...) win over the adder's
    // (100, 101, ...), and the second store overwrites the first.
    assert_eq!(&r.mem[..3], &[2, 2, 2]);
    assert!(!r.mem.contains(&1));
}

/// A load whose output queue is full idles before it checks its
/// address, so an out-of-bounds address only panics once it can fire.
#[test]
fn blocked_load_checks_space_before_bounds() {
    // src -> load -> add <-> phi: the add/phi ring holds no token, so
    // the add never fires and the load's output fills.
    let mut g = Dfg::new();
    let src = g.add_node(Op::Source, "src").id();
    let load = g.add_node(Op::Load, "load").id();
    let add = g.add_node(Op::Add, "add").id();
    let phi = g.add_node(Op::Phi, "phi").id();
    g.connect(src, load);
    g.connect(load, add);
    g.connect(phi, add);
    g.connect(add, phi);
    for (capacity, expect) in [
        (1, Ok(StopReason::Quiesced)),
        (2, Err("load from 1 out of bounds".to_string())),
    ] {
        let config = SimConfig {
            queue_capacity: capacity,
            ..SimConfig::default()
        };
        let got = both(&g, vec![7], config).map(|r| r.stop);
        assert_eq!(got, expect, "queue capacity {capacity}");
    }
}
