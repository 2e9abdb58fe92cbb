//! Helpers shared by the differential and fault-injection suites:
//! seeded random fabrics, compiled paper kernels, and the
//! engine-agreement assertion.

// Each integration-test binary uses a subset of these helpers.
#![allow(dead_code)]

use uecgra_clock::{ClockSet, VfMode};
use uecgra_compiler::bitstream::{Bitstream, Bypass, Dir, OperandSel, PeConfig, PeRole};
use uecgra_compiler::mapping::{ArrayShape, MappedKernel};
use uecgra_dfg::kernels::{self, Kernel};
use uecgra_dfg::Op;
use uecgra_rtl::fabric::{Fabric, FabricConfig, SuppressorKind};
use uecgra_util::rng::SplitMix64;

pub const MEM_WORDS: u32 = 64;

/// Ops a random compute PE may run. `Load`/`Store` get a constant
/// address below `MEM_WORDS` so the scratchpad never faults.
pub const RANDOM_OPS: [Op; 16] = [
    Op::Add,
    Op::Sub,
    Op::Sll,
    Op::Srl,
    Op::And,
    Op::Or,
    Op::Xor,
    Op::Eq,
    Op::Lt,
    Op::Geq,
    Op::Mul,
    Op::Phi,
    Op::Br,
    Op::Nop,
    Op::Load,
    Op::Store,
];

/// Generate a random — possibly nonsensical, but panic-free — `w × h`
/// configuration. The one structural invariant real bitstreams also
/// uphold (enforced by `Bitstream::assemble`'s output-conflict check)
/// is that each output direction of a PE has at most one driver, so a
/// PE can never double-push one queue in a single tick.
pub fn random_bitstream(rng: &mut SplitMix64, w: usize, h: usize) -> Bitstream {
    let mut grid = vec![vec![PeConfig::default(); w]; h];
    for row in &mut grid {
        for cfg in row.iter_mut() {
            let roll = rng.range(10);
            if roll < 3 {
                continue; // stays Gated
            }
            cfg.role = if roll < 5 {
                PeRole::RouteOnly
            } else {
                PeRole::Compute(*rng.pick(&RANDOM_OPS))
            };
            cfg.clk = *rng.pick(&VfMode::ALL);
            // Partition the four output directions among the five
            // possible drivers (ALU true/false ports, two bypass
            // slots) or leave them unused.
            let mut bp_mask = [[false; 4]; 2];
            let rolls: [usize; 4] = std::array::from_fn(|_| rng.range(8));
            for (d, roll) in rolls.into_iter().enumerate() {
                match roll {
                    0 | 1 => cfg.alu_true_mask[d] = true,
                    2 => cfg.alu_false_mask[d] = true,
                    3 => bp_mask[0][d] = true,
                    4 => bp_mask[1][d] = true,
                    _ => {}
                }
            }
            for (slot, mask) in bp_mask.iter().enumerate() {
                if mask.iter().any(|&m| m) {
                    cfg.bypass[slot] = Some(Bypass {
                        src: *rng.pick(&Dir::ALL),
                        dst_mask: *mask,
                    });
                }
            }
            if let PeRole::Compute(op) = cfg.role {
                for port in 0..2 {
                    cfg.operands[port] = match rng.range(6) {
                        0..=2 => OperandSel::Queue(*rng.pick(&Dir::ALL)),
                        3 => OperandSel::Reg,
                        4 => OperandSel::Const,
                        _ => OperandSel::None,
                    };
                }
                cfg.constant = Some(rng.next_u32() % MEM_WORDS);
                if matches!(op, Op::Load | Op::Store) {
                    cfg.operands[0] = OperandSel::Const;
                }
                cfg.reg_write = rng.range(4) == 0;
                if rng.range(4) == 0 {
                    cfg.init = Some(rng.next_u32() % 97);
                }
            }
        }
    }
    Bitstream { grid }
}

pub fn random_config(rng: &mut SplitMix64, w: usize, h: usize) -> FabricConfig {
    let divisor_sets: [[u32; 3]; 7] = [
        [9, 3, 2],
        [8, 4, 2],
        [6, 3, 3],
        [4, 2, 1],
        [3, 3, 3],
        [12, 4, 3],
        [1, 1, 1],
    ];
    let (marker, max_marker_fires) = if rng.bool() {
        (
            Some((rng.range(w), rng.range(h))),
            Some(1 + rng.range_u64(0, 20)),
        )
    } else {
        (None, None)
    };
    FabricConfig {
        clocks: ClockSet::new(*rng.pick(&divisor_sets)).expect("divisor sets are valid"),
        queue_capacity: 1 + rng.range(3),
        // Includes tiny limits (and 0) so the TickLimit accounting
        // edge cases are exercised, not just quiesce/marker stops.
        max_ticks: rng.range_u64(0, 2500),
        max_marker_fires,
        marker,
        suppressor: if rng.bool() {
            SuppressorKind::ElasticityAware
        } else {
            SuppressorKind::Traditional
        },
        record_events: rng.bool(),
        ..FabricConfig::default()
    }
}

/// Run `bs` on the dense oracle ([`Fabric::run_reference`]) and the
/// runtime engine ([`Fabric::run`]) and assert bit-identical
/// [`Activity`] —
/// including the protocol report. The cleanliness oracle only applies
/// to fault-free configurations, so it is skipped when the config
/// carries a fault plan.
pub fn assert_engines_agree(bs: &Bitstream, mem: &[u32], config: &FabricConfig, label: &str) {
    let dense = Fabric::new(bs, mem.to_vec(), config.clone()).run_reference();
    let event = Fabric::new(bs, mem.to_vec(), config.clone()).run();
    assert_eq!(
        dense.ticks, event.ticks,
        "{label}: tick counts diverge (dense {} vs event {})",
        dense.ticks, event.ticks
    );
    assert_eq!(dense.stop, event.stop, "{label}: stop reasons diverge");
    assert_eq!(dense, event, "{label}: Activity diverges");
    if config.faults.is_empty() {
        // The protocol checker is a permanent oracle in the
        // differential suite: a fault-free fabric must never violate
        // an elastic invariant.
        assert!(
            dense.protocol.is_clean(),
            "{label}: protocol violations without faults: {:?}",
            dense.protocol.violations
        );
    }
}

pub fn compiled(k: &Kernel, modes: &[VfMode], seed: u64) -> (Bitstream, FabricConfig) {
    let mapped = MappedKernel::map(&k.dfg, ArrayShape::default(), seed)
        .unwrap_or_else(|e| panic!("{}: {e}", k.name));
    let bs =
        Bitstream::assemble(&k.dfg, &mapped, modes).unwrap_or_else(|e| panic!("{}: {e}", k.name));
    let config = FabricConfig {
        marker: Some(mapped.coord_of(k.iter_marker)),
        ..FabricConfig::default()
    };
    (bs, config)
}

pub fn small_kernels() -> Vec<Kernel> {
    vec![
        kernels::llist::build_with_hops(40),
        kernels::dither::build_with_pixels(40),
        kernels::susan::build_with_iters(40),
        kernels::fft::build_with_group(40),
        kernels::bf::build_with_rounds(16),
    ]
}
