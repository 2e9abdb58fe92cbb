//! Property-based tests over the reproduction's core invariants.

use uecgra_clock::{ClockSet, UnsafeLut, VfMode};
use uecgra_compiler::bitstream::{Bypass, Dir, OperandSel, PeConfig, PeRole};
use uecgra_dfg::{kernels, Op, PE_OPS};
use uecgra_model::{DfgSimulator, SimConfig, StopReason};
use uecgra_util::{check::forall, SplitMix64};

fn arb_mode(rng: &mut SplitMix64) -> VfMode {
    *rng.pick(&VfMode::ALL)
}

/// THE elastic-design theorem: any per-node DVFS assignment and any
/// queue depth >= 2 produce the same results as the host reference —
/// only timing changes. (Depth 1 also works for correctness; it is
/// included.)
#[test]
fn any_dvfs_assignment_preserves_dither() {
    forall(24, |rng| {
        let mode_pool: Vec<VfMode> = (0..64).map(|_| arb_mode(rng)).collect();
        let depth = 1 + rng.range(3);
        let k = kernels::dither::build_with_pixels(24);
        let modes = mode_pool[..k.dfg.node_count()].to_vec();
        let config = SimConfig {
            marker: Some(k.iter_marker),
            queue_capacity: depth,
            ..SimConfig::default()
        };
        let r = DfgSimulator::new(&k.dfg, modes, k.mem.clone(), config).run();
        assert_eq!(r.stop, StopReason::Quiesced);
        assert_eq!(r.mem, k.reference_memory());
    });
}

/// Ditto for the pointer chase, whose control flow is fully
/// data-dependent.
#[test]
fn any_dvfs_assignment_preserves_llist() {
    forall(24, |rng| {
        let mode_pool: Vec<VfMode> = (0..64).map(|_| arb_mode(rng)).collect();
        let k = kernels::llist::build_with_hops(16);
        let modes = mode_pool[..k.dfg.node_count()].to_vec();
        let config = SimConfig {
            marker: Some(k.iter_marker),
            ..SimConfig::default()
        };
        let r = DfgSimulator::new(&k.dfg, modes, k.mem.clone(), config).run();
        assert_eq!(r.stop, StopReason::Quiesced);
        assert_eq!(r.mem, k.reference_memory());
    });
}

/// ALU op algebra: comparison pairs are complementary, add/sub
/// invert, copies project.
#[test]
fn op_eval_algebra() {
    forall(256, |rng| {
        let a = rng.next_u32();
        let b = rng.next_u32();
        assert_eq!(Op::Eq.eval(a, b) ^ Op::Ne.eval(a, b), 1);
        assert_eq!(Op::Lt.eval(a, b) ^ Op::Geq.eval(a, b), 1);
        assert_eq!(Op::Gt.eval(a, b) ^ Op::Leq.eval(a, b), 1);
        assert_eq!(Op::Sub.eval(Op::Add.eval(a, b), b), a);
        assert_eq!(Op::Cp0.eval(a, b), a);
        assert_eq!(Op::Cp1.eval(a, b), b);
        assert_eq!(Op::Xor.eval(Op::Xor.eval(a, b), b), a);
    });
}

/// PE configuration words round-trip through packing.
#[test]
fn bitstream_pack_unpack_roundtrip() {
    forall(256, |rng| {
        let dir = |c: usize| Dir::ALL[c];
        let sel = |c: usize| match c {
            0..=3 => OperandSel::Queue(dir(c)),
            4 => OperandSel::Reg,
            5 => OperandSel::Const,
            _ => OperandSel::None,
        };
        let mask = |rng: &mut SplitMix64| [rng.bool(), rng.bool(), rng.bool(), rng.bool()];
        let bypass = |rng: &mut SplitMix64| {
            if rng.bool() {
                let src = dir(rng.range(4));
                let dst_mask = [rng.bool(), rng.bool(), rng.bool(), rng.bool()];
                Some(Bypass { src, dst_mask })
            } else {
                None
            }
        };
        let cfg = PeConfig {
            role: if rng.bool() {
                PeRole::RouteOnly
            } else {
                PeRole::Compute(PE_OPS[rng.range(PE_OPS.len())])
            },
            operands: [sel(rng.range(7)), sel(rng.range(7))],
            alu_true_mask: mask(rng),
            alu_false_mask: mask(rng),
            bypass: [bypass(rng), bypass(rng)],
            clk: arb_mode(rng),
            reg_write: rng.bool(),
            constant: None,
            init: None,
        };
        assert_eq!(PeConfig::unpack(cfg.pack()), cfg);
    });
}

/// Any valid clock plan passes the STA cross-product check, and
/// the suppressor invariant holds: a token aged one receiver
/// period is always readable at the next receiver edge.
#[test]
fn clock_plans_verify_and_suppressor_is_live() {
    forall(256, |rng| {
        let sprint = 1 + rng.range(4) as u32;
        let nominal = sprint * (1 + rng.range(3) as u32);
        let rest = nominal * (1 + rng.range(3) as u32);
        let clocks = ClockSet::new([rest, nominal, sprint]).expect("ordered divisors");
        let report = uecgra_clock::sta::verify_all(&clocks);
        assert!(report.all_clean(), "{report}");

        // Liveness: for every src->dst pair, a token written at any src
        // edge is readable at some dst edge within one hyperperiod +
        // one dst period. A handshake proceeds on a safe edge, or on an
        // unsafe one once the token has aged one receiver period.
        let h = clocks.hyperperiod();
        for src in VfMode::ALL {
            for dst in VfMode::ALL {
                let lut = UnsafeLut::build(&clocks, src, dst);
                let p = clocks.period(dst);
                for t_w in clocks.rising_edges(src) {
                    let mut t = clocks.next_rising(dst, t_w);
                    let deadline = t_w + h + p;
                    while lut.is_unsafe_at(t) && t - t_w < p {
                        t = clocks.next_rising(dst, t);
                        assert!(t <= deadline, "{src}->{dst} token starved");
                    }
                }
            }
        }
    });
}

/// Source/sink bookkeeping: a chain fed by a limited source
/// delivers exactly that many tokens.
#[test]
fn source_limit_is_exact() {
    forall(256, |rng| {
        use uecgra_dfg::kernels::synthetic;
        let limit = rng.range_u64(1, 40);
        let n = 1 + rng.range(5);
        let s = synthetic::chain(n);
        let config = SimConfig {
            marker: Some(s.iter_marker),
            source_limit: Some(limit),
            ..SimConfig::default()
        };
        let modes = vec![VfMode::Nominal; s.dfg.node_count()];
        let r = DfgSimulator::new(&s.dfg, modes, vec![], config).run();
        assert_eq!(r.stop, StopReason::Quiesced);
        assert_eq!(r.iterations(), limit);
    });
}
