//! Property tests over the ratiochronous clocking substrate.

use uecgra_clock::{classify_crossing, sta, ClockSet, UnsafeLut, VfMode};
use uecgra_util::{check::forall, SplitMix64};

/// A random valid clock plan: rest and nominal periods are integer
/// multiples of the sprint period.
fn arb_clockset(rng: &mut SplitMix64) -> ClockSet {
    let sprint = 1 + rng.range(5) as u32;
    let nominal = sprint * (1 + rng.range(4) as u32);
    let rest = nominal * (1 + rng.range(4) as u32);
    ClockSet::new([rest, nominal, sprint]).expect("ordered")
}

#[test]
fn hyperperiod_is_common_multiple() {
    forall(96, |rng| {
        let clocks = arb_clockset(rng);
        let h = clocks.hyperperiod();
        for m in VfMode::ALL {
            assert_eq!(h % clocks.period(m), 0);
            assert!(clocks.is_rising(m, 0));
            assert!(clocks.is_rising(m, h));
        }
    });
}

#[test]
fn next_and_last_rising_bracket_time() {
    forall(96, |rng| {
        let clocks = arb_clockset(rng);
        let t = rng.range_u64(0, 200);
        for m in VfMode::ALL {
            let last = clocks.last_rising(m, t);
            let next = clocks.next_rising(m, t);
            assert!(last <= t && t < next);
            assert_eq!(next - last, clocks.period(m));
            assert!(clocks.is_rising(m, last));
            assert!(clocks.is_rising(m, next));
        }
    });
}

#[test]
fn classify_margins_never_exceed_source_period_plus_budget() {
    forall(96, |rng| {
        let clocks = arb_clockset(rng);
        for src in VfMode::ALL {
            for dst in VfMode::ALL {
                for e in classify_crossing(&clocks, src, dst) {
                    assert!(e.margin >= 1);
                    assert!(
                        e.margin <= clocks.period(src) + clocks.period(dst),
                        "{src}->{dst}: margin {} too large",
                        e.margin
                    );
                    assert_eq!(e.safe, e.margin >= clocks.period(dst));
                }
            }
        }
    });
}

#[test]
fn sta_is_clean_for_every_plan() {
    forall(96, |rng| {
        let clocks = arb_clockset(rng);
        let report = sta::verify_all(&clocks);
        assert!(report.all_clean(), "{report}");
    });
}

#[test]
fn last_edge_tokens_are_safe_iff_aged() {
    // The fabric's elasticity-aware rule reads a token once it has aged
    // one receiver period (`t >= written + period`). For a token
    // written on the last source edge before a capture, that rule and
    // the unsafe-edge LUT agree: the capture edge is safe iff the token
    // has aged one receiver period. So the aging rule lets fresh data
    // through exactly on safe edges and holds it exactly on unsafe ones.
    forall(96, |rng| {
        let clocks = arb_clockset(rng);
        for src in VfMode::ALL {
            for dst in VfMode::ALL {
                let lut = UnsafeLut::build(&clocks, src, dst);
                let p = clocks.period(dst);
                for k in 1..=(2 * clocks.hyperperiod() / p) {
                    let capture = k * p;
                    let written = clocks.last_rising(src, capture - 1);
                    let aged = capture - written >= p;
                    assert_eq!(
                        lut.is_unsafe_at(capture),
                        !aged,
                        "{src}->{dst}@{capture}: token written {written}"
                    );
                }
            }
        }
    });
}
