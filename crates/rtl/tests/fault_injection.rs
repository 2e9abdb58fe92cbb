//! Fault-injection tests: every injected fault class must be detected
//! by the protocol checker, tolerated by the elastic protocol, or
//! converted into a structured stop — never a silent corruption or a
//! process abort — and the two engines must stay bit-identical while
//! it happens.
//!
//! The targeted tests use a hand-built 1×3 pipeline (a phi
//! accumulator feeding east into an adder feeding east into a nop
//! sink) and attack its only busy crossing, the adder's west queue, so
//! every detection claim is about a concrete token stream.

mod common;

use common::{assert_engines_agree, compiled, random_bitstream, random_config, MEM_WORDS};
use uecgra_clock::VfMode;
use uecgra_compiler::bitstream::{Bitstream, Dir, OperandSel, PeConfig, PeRole};
use uecgra_compiler::power_map::{power_map, Objective};
use uecgra_dfg::{kernels, Op};
use uecgra_rtl::fabric::{Activity, Fabric, FabricConfig, FabricStop};
use uecgra_rtl::{Fault, FaultKind, FaultPlan, ViolationKind};
use uecgra_util::check::forall;

/// Compiled paper kernels under POpt DVFS, attacked the way the fault
/// campaign attacks them: seeded single-fault plans at crossings that
/// carried at least 8 tokens in a fault-free baseline, rotating through
/// every fault class. Each faulty run must be bit-identical on both
/// engines.
#[test]
fn seeded_faults_on_popt_kernels_keep_engines_bit_identical() {
    let ks = [
        kernels::llist::build_with_hops(40),
        kernels::dither::build_with_pixels(40),
    ];
    for (i, k) in ks.iter().enumerate() {
        let pm = power_map(&k.dfg, k.mem.clone(), k.iter_marker, Objective::Performance);
        let (bs, config) = compiled(k, &pm.node_modes, 7);
        let baseline = Fabric::new(&bs, k.mem.clone(), config.clone()).run();
        let targets: Vec<_> = baseline
            .protocol
            .flows
            .iter()
            .filter(|(_, _, n)| *n >= 8)
            .map(|&(pe, dir, _)| (pe, dir))
            .collect();
        let plan = FaultPlan::random_at(3 + i as u64, &targets, 12);
        assert_eq!(plan.faults.len(), 12, "{}: no busy crossings", k.name);
        for fault in plan.faults {
            let config = FabricConfig {
                faults: FaultPlan::single(fault),
                ..config.clone()
            };
            assert_engines_agree(
                &bs,
                &k.mem,
                &config,
                &format!("{} {}", k.name, fault.label()),
            );
        }
    }
}

/// The engines must agree on *faulty* runs exactly as they do on clean
/// ones: same Activity, same violations, same (possibly fatal) stop.
#[test]
fn random_fault_plans_keep_engines_bit_identical() {
    forall(150, |rng| {
        let w = 1 + rng.range(8);
        let h = 1 + rng.range(8);
        let bs = random_bitstream(rng, w, h);
        let mem: Vec<u32> = (0..MEM_WORDS).map(|_| rng.next_u32()).collect();
        let mut config = random_config(rng, w, h);
        config.faults = FaultPlan::random(rng.next_u64(), w, h, 1 + rng.range(4));
        assert_engines_agree(&bs, &mem, &config, "random fabric under faults");
    });
}

/// 1×3: phi accumulator (0,0) → add-1 (1,0) → nop sink (2,0).
fn tiny_bitstream() -> Bitstream {
    let mut grid = vec![vec![PeConfig::default(); 3]; 1];
    grid[0][0] = PeConfig {
        role: PeRole::Compute(Op::Phi),
        operands: [OperandSel::Reg, OperandSel::None],
        alu_true_mask: [false, true, false, false], // east
        reg_write: true,
        init: Some(5),
        ..PeConfig::default()
    };
    grid[0][1] = PeConfig {
        role: PeRole::Compute(Op::Add),
        operands: [OperandSel::Queue(Dir::West), OperandSel::Const],
        constant: Some(1),
        alu_true_mask: [false, true, false, false],
        ..PeConfig::default()
    };
    grid[0][2] = PeConfig {
        role: PeRole::Compute(Op::Nop),
        operands: [OperandSel::Queue(Dir::West), OperandSel::None],
        ..PeConfig::default()
    };
    Bitstream { grid }
}

/// The attacked crossing: the adder's west input queue.
const CROSSING: ((usize, usize), Dir) = ((1, 0), Dir::West);

fn attack(kind: FaultKind) -> FaultPlan {
    FaultPlan::single(Fault {
        pe: CROSSING.0,
        dir: CROSSING.1,
        kind,
    })
}

/// Run the tiny pipeline for 10 marker fires under `plan`, asserting
/// dense/event agreement on the way.
fn run_tiny(plan: FaultPlan) -> Activity {
    let bs = tiny_bitstream();
    let config = FabricConfig {
        marker: Some((0, 0)),
        max_marker_fires: Some(10),
        faults: plan,
        ..FabricConfig::default()
    };
    assert_engines_agree(&bs, &[], &config, "tiny pipeline under faults");
    Fabric::new(&bs, vec![], config).run()
}

#[test]
fn dropped_tokens_are_detected_as_token_loss() {
    let act = run_tiny(attack(FaultKind::DropToken { nth: 2 }));
    assert_eq!(
        act.stop,
        FabricStop::MarkerDone,
        "drop must not wedge the run"
    );
    let loss = act
        .protocol
        .violations
        .iter()
        .find(|v| matches!(v.kind, ViolationKind::TokenLoss { .. }))
        .expect("token loss must be detected");
    assert_eq!((loss.pe, loss.dir), (CROSSING.0, Some(CROSSING.1)));
    match loss.kind {
        ViolationKind::TokenLoss { offered, received } => assert_eq!(offered, received + 1),
        _ => unreachable!(),
    }
}

#[test]
fn flipped_payloads_are_detected_as_corruption() {
    let act = run_tiny(attack(FaultKind::FlipPayloadBit { bit: 7, nth: 1 }));
    assert_eq!(act.stop, FabricStop::MarkerDone);
    let hit = act
        .protocol
        .violations
        .iter()
        .find(|v| v.kind == ViolationKind::PayloadCorruption)
        .expect("payload corruption must be detected");
    assert_eq!((hit.pe, hit.dir), (CROSSING.0, Some(CROSSING.1)));
}

#[test]
fn duplicated_tokens_are_detected_or_stop_the_run() {
    let act = run_tiny(attack(FaultKind::DuplicateToken { nth: 1 }));
    // A duplicate either lands (token-duplication at end of run) or
    // bursts the queue's credit (fatal overflow, structured stop) —
    // silence is the only failure.
    let detected = act.protocol.violations.iter().any(|v| {
        matches!(
            v.kind,
            ViolationKind::TokenDuplication { .. } | ViolationKind::Overflow
        )
    });
    assert!(
        detected,
        "duplicate went unnoticed: {:?}",
        act.protocol.violations
    );
    if act.protocol.first_fatal().is_some() {
        assert_eq!(act.stop, FabricStop::ProtocolViolation);
    }
}

#[test]
fn stuck_handshakes_are_tolerated_by_the_elastic_protocol() {
    for kind in [
        FaultKind::StickValid { from: 0, ticks: 40 },
        FaultKind::StickReady { from: 0, ticks: 40 },
    ] {
        let act = run_tiny(attack(kind));
        // A finite stuck window only delays tokens; the run still
        // completes, conserving every token, with no violations.
        assert_eq!(act.stop, FabricStop::MarkerDone, "{kind:?}");
        assert!(
            act.protocol.is_clean(),
            "{kind:?}: handshake fault should be absorbed, got {:?}",
            act.protocol.violations
        );
        assert!(act.fires[0][1] > 0, "{kind:?}: adder never recovered");
    }
}

#[test]
fn permanent_domain_stall_quiesces_without_progress() {
    let act = run_tiny(attack(FaultKind::StallDomain {
        domain: VfMode::Nominal,
        from: 0,
        ticks: u64::MAX,
    }));
    // Everything in the tiny fabric runs at nominal: a permanent stall
    // freezes it whole. The fabric quiesces (the pipeline watchdog
    // turns this into `Error::Stalled`); no invariant is violated.
    assert_eq!(act.stop, FabricStop::Quiesced);
    assert_eq!(act.fires[0][0], 0);
    assert!(act.protocol.is_clean());
}

#[test]
fn clean_runs_report_flows_for_the_campaign_targeting() {
    let act = run_tiny(FaultPlan::none());
    assert_eq!(act.stop, FabricStop::MarkerDone);
    assert!(act.protocol.is_clean());
    // Both busy crossings show up with their token counts, so the
    // fault campaign can aim at streams that actually carry data.
    for (pe, dir) in [CROSSING, ((2, 0), Dir::West)] {
        let flow = act
            .protocol
            .flows
            .iter()
            .find(|(p, d, _)| (*p, *d) == (pe, dir))
            .unwrap_or_else(|| panic!("no flow recorded at {pe:?}.{dir:?}"));
        assert!(flow.2 >= 8, "{pe:?}.{dir:?} carried only {} tokens", flow.2);
    }
}

#[test]
fn conflicting_drivers_stop_with_a_structured_violation() {
    // A malformed bitstream (two drivers for one output direction —
    // exactly what `Bitstream::validate` rejects statically) must not
    // abort the process if forced into a fabric: the checker converts
    // the inevitable credit violation into a ProtocolViolation stop.
    let mut bs = tiny_bitstream();
    // The adder's ALU already drives east; add a bypass that forwards
    // its west input east as well — two tokens per firing. With the
    // sink gated (no credit ever returned) and an odd queue capacity,
    // a firing with one free slot left must push without credit.
    bs.grid[0][1].bypass[0] = Some(uecgra_compiler::bitstream::Bypass {
        src: Dir::West,
        dst_mask: [false, true, false, false],
    });
    bs.grid[0][2] = PeConfig::default(); // dead sink
    let config = FabricConfig {
        marker: Some((0, 0)),
        max_marker_fires: Some(10),
        queue_capacity: 3,
        ..FabricConfig::default()
    };
    let dense = Fabric::new(&bs, vec![], config.clone()).run_reference();
    let event = Fabric::new(&bs, vec![], config).run();
    assert_eq!(dense, event, "engines diverge on a malformed bitstream");
    assert_eq!(dense.stop, FabricStop::ProtocolViolation);
    let fatal = dense
        .protocol
        .first_fatal()
        .expect("fatal stop carries a violation");
    assert_eq!(fatal.kind, ViolationKind::Overflow);
    assert_eq!((fatal.pe, fatal.dir), ((2, 0), Some(Dir::West)));
}
