//! Differential testing: for randomly generated loop programs, the
//! direct IR interpreter and the discrete-event simulation of the
//! lowered dataflow graph must produce identical memory images — the
//! lowering (including if-to-br/phi conversion and constant
//! materialization) is semantics-preserving.

use uecgra_clock::VfMode;
use uecgra_compiler::frontend::lower;
use uecgra_compiler::interp::interpret_fresh;
use uecgra_compiler::ir::{Carried, Expr, LoopNest, Stmt};
use uecgra_dfg::Op;
use uecgra_model::{DfgSimulator, SimConfig, StopReason};
use uecgra_util::{check::forall, SplitMix64};

include!("common/gen_loop.rs");

fn arb_choices(rng: &mut SplitMix64) -> Vec<u32> {
    (0..64).map(|_| rng.next_u32()).collect()
}

/// Deterministic pseudo-random initial memory.
fn arb_memory(mem_seed: u32) -> Vec<u32> {
    let mut mem = vec![0u32; MEM_WORDS];
    let mut state = mem_seed | 1;
    for w in mem.iter_mut() {
        state = state.wrapping_mul(1664525).wrapping_add(1013904223);
        *w = state % 1000;
    }
    mem
}

#[test]
fn lowering_matches_interpreter() {
    forall(48, |rng| {
        let trip = 1 + rng.next_u32() % 11;
        let carried = rng.bool();
        let nest = gen_loop(trip, carried, arb_choices(rng));
        if nest.validate().is_err() {
            return;
        }
        let mem = arb_memory(rng.next_u32());

        let expected = interpret_fresh(&nest, &mem).expect("interpreter runs");

        let lowered = lower(&nest).expect("lowering succeeds");
        let config = SimConfig {
            marker: Some(lowered.induction_phi),
            ..SimConfig::default()
        };
        let modes = vec![VfMode::Nominal; lowered.dfg.node_count()];
        let r = DfgSimulator::new(&lowered.dfg, modes, mem, config).run();
        assert_eq!(r.stop, StopReason::Quiesced, "lowered graph must terminate");
        assert_eq!(r.mem, expected, "lowering changed semantics");
    });
}

/// The same differential under random DVFS assignments and routed
/// extra latencies: neither may change results. The model's stepper
/// must also match its tick-by-tick oracle on the lowered graph.
#[test]
fn lowering_matches_interpreter_under_dvfs() {
    forall(48, |rng| {
        let trip = 1 + rng.next_u32() % 7;
        let nest = gen_loop(trip, true, arb_choices(rng));
        if nest.validate().is_err() {
            return;
        }
        let mode_picks: Vec<usize> = (0..64).map(|_| rng.range(3)).collect();
        let mem = vec![7u32; MEM_WORDS];
        let expected = interpret_fresh(&nest, &mem).expect("interpreter runs");

        let lowered = lower(&nest).expect("lowering succeeds");
        let modes: Vec<VfMode> = (0..lowered.dfg.node_count())
            .map(|i| VfMode::ALL[mode_picks[i % mode_picks.len()]])
            .collect();
        let config = SimConfig {
            marker: Some(lowered.induction_phi),
            edge_extra_latency: (0..lowered.dfg.edge_count())
                .map(|_| rng.range(3) as u32)
                .collect(),
            ..SimConfig::default()
        };
        let sim = || DfgSimulator::new(&lowered.dfg, modes.clone(), mem.clone(), config.clone());
        let r = sim().run();
        assert_eq!(
            r,
            sim().run_reference(),
            "run() and run_reference() disagree"
        );
        assert_eq!(r.stop, StopReason::Quiesced);
        assert_eq!(r.mem, expected);
    });
}

/// The optimizer (CSE + DCE) preserves semantics end to end.
#[test]
fn optimizer_preserves_semantics() {
    forall(32, |rng| {
        let trip = 1 + rng.next_u32() % 9;
        let carried = rng.bool();
        let nest = gen_loop(trip, carried, arb_choices(rng));
        if nest.validate().is_err() {
            return;
        }
        let mem = arb_memory(rng.next_u32());
        let expected = interpret_fresh(&nest, &mem).expect("interpreter runs");

        let lowered = lower(&nest).expect("lowering succeeds");
        let optimized = uecgra_compiler::opt::optimize(&lowered.dfg);
        assert!(
            optimized.dfg.node_count() <= lowered.dfg.node_count(),
            "optimization never grows the graph"
        );
        let Some(marker) = optimized.node_map[lowered.induction_phi.index()] else {
            // The whole loop was dead (no stores reachable): legal only
            // when the program writes nothing.
            assert_eq!(mem, expected, "DCE removed live effects");
            return;
        };
        let config = SimConfig {
            marker: Some(marker),
            ..SimConfig::default()
        };
        let modes = vec![VfMode::Nominal; optimized.dfg.node_count()];
        let r = DfgSimulator::new(&optimized.dfg, modes, mem, config).run();
        assert_eq!(r.stop, StopReason::Quiesced);
        assert_eq!(r.mem, expected, "optimizer changed semantics");
    });
}

/// Source-text round trip: unparse then parse reproduces the loop.
#[test]
fn unparse_parse_roundtrip() {
    forall(48, |rng| {
        use std::collections::HashMap;
        use uecgra_compiler::parse::{parse, unparse, Program};
        let trip = 1 + rng.next_u32() % 19;
        let carried = rng.bool();
        let nest = gen_loop(trip, carried, arb_choices(rng));
        if nest.validate().is_err() {
            return;
        }
        let program = Program {
            arrays: HashMap::new(),
            nest,
        };
        // The generator uses raw address arithmetic (no named arrays),
        // which unparse renders through `__mem[...]`; declare it.
        let mut text = String::from("array __mem @ 0;\n");
        text.push_str(&unparse(&program));
        let reparsed = parse(&text).expect("unparsed text parses");
        // The __mem declaration rewrites loads/stores to the
        // array-at-0 form, which is address-identical: compare by
        // semantics through the interpreter.
        let mem = vec![3u32; 160];
        let a = interpret_fresh(&program.nest, &mem).expect("original runs");
        let b = interpret_fresh(&reparsed.nest, &mem).expect("reparsed runs");
        assert_eq!(a, b, "round trip changed semantics");
    });
}
