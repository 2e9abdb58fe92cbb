//! Mapping cases shared by the golden mapping pins and the routing
//! legality property: the five paper kernels and the three extension
//! kernels at seeds `0..SEEDS`, plus lowered random loops.

// `gen_loop.rs` also carries the memory-image constants the
// differential suite uses; the mapping suites need only the graphs.
#![allow(dead_code)]

use uecgra_compiler::frontend::lower;
use uecgra_compiler::ir::{Carried, Expr, LoopNest, Stmt};
use uecgra_dfg::kernels::{self, extra::extra_kernels};
use uecgra_dfg::{Dfg, Op};
use uecgra_util::SplitMix64;

include!("gen_loop.rs");

/// Placement seeds every kernel is mapped at.
pub const SEEDS: u64 = 16;
/// Lowered random loops, each mapped at seeds `0..RANDOM_SEEDS`.
const RANDOM_GRAPHS: u64 = 8;
const RANDOM_SEEDS: u64 = 2;

/// One mapping to make: a label, the graph and the placement seed.
pub struct Case {
    pub label: String,
    pub dfg: Dfg,
    pub seed: u64,
}

/// Every mapping case, in a fixed order.
pub fn mapping_cases() -> Vec<Case> {
    let mut cases = Vec::new();
    let named = kernels::all_kernels().into_iter().chain(extra_kernels(32));
    for k in named {
        for seed in 0..SEEDS {
            cases.push(Case {
                label: format!("{}/s{seed}", k.name),
                dfg: k.dfg.clone(),
                seed,
            });
        }
    }
    for g in 0..RANDOM_GRAPHS {
        let mut rng = SplitMix64::seed_from_u64(0x6d61_7000 + g);
        let trip = 1 + rng.next_u32() % 11;
        let carried = rng.bool();
        let choices = (0..64).map(|_| rng.next_u32()).collect();
        let nest = gen_loop(trip, carried, choices);
        let Ok(lowered) = lower(&nest) else {
            continue;
        };
        for seed in 0..RANDOM_SEEDS {
            cases.push(Case {
                label: format!("random{g}/s{seed}"),
                dfg: lowered.dfg.clone(),
                seed,
            });
        }
    }
    cases
}
