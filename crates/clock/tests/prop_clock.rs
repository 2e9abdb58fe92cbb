//! Property tests over the ratiochronous clocking substrate.

use uecgra_clock::{classify_crossing, sta, ClockSet, Suppressor, VfMode};
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
fn suppressor_never_allows_under_aged_unsafe_tokens() {
    forall(96, |rng| {
        let clocks = arb_clockset(rng);
        for src in VfMode::ALL {
            for dst in VfMode::ALL {
                let sup = Suppressor::new(&clocks, src, dst);
                let h = clocks.hyperperiod();
                for k in 1..=(2 * h / clocks.period(dst)) {
                    let capture = k * clocks.period(dst);
                    // A token written on the immediately preceding source
                    // edge: allowed iff its age covers one receiver period.
                    let written = clocks.last_rising(src, capture.saturating_sub(1));
                    let aged = capture - written >= clocks.period(dst);
                    let d = sup.decide(capture, written);
                    if d.allow {
                        assert!(
                            aged || !d.edge_unsafe,
                            "{src}->{dst}@{capture}: fresh token crossed an unsafe edge"
                        );
                    } else {
                        assert!(!aged, "{src}->{dst}@{capture}: aged token blocked");
                    }
                }
            }
        }
    });
}

#[test]
fn suppressor_decisions_are_monotonic_across_capture_edges() {
    // Once a token is allowed at some capture edge it stays allowed at
    // every later one: successive receiver edges are one period apart,
    // so a token that crossed (fresh on a safe edge or aged anywhere)
    // is aged at least a full period by the next edge. Without this, a
    // consumer that stalled for unrelated reasons could lose a token
    // it had already been granted.
    forall(96, |rng| {
        let clocks = arb_clockset(rng);
        for src in VfMode::ALL {
            for dst in VfMode::ALL {
                let sup = Suppressor::new(&clocks, src, dst);
                let p = clocks.period(dst);
                let written = clocks.last_rising(src, rng.range_u64(0, 2 * clocks.hyperperiod()));
                let first = clocks.next_rising(dst, written);
                let mut granted = false;
                for k in 0..8 {
                    let capture = first + k * p;
                    let allow = sup.allows(capture, written);
                    assert!(
                        allow || !granted,
                        "{src}->{dst}: token written {written} allowed then revoked at {capture}"
                    );
                    granted |= allow;
                }
            }
        }
    });
}

#[test]
fn suppressor_grants_every_token_within_two_receiver_periods() {
    // Liveness (no token loss through suppression): whatever the
    // crossing, a written token is allowed no later than the first
    // capture edge at which it has aged one receiver period — at most
    // two receiver periods after the write. The traditional
    // all-unsafe-edge suppressor relies on exactly this bound.
    forall(96, |rng| {
        let clocks = arb_clockset(rng);
        for src in VfMode::ALL {
            for dst in VfMode::ALL {
                let sup = Suppressor::new(&clocks, src, dst);
                let p = clocks.period(dst);
                let written = clocks.last_rising(src, rng.range_u64(0, 2 * clocks.hyperperiod()));
                let mut capture = clocks.next_rising(dst, written);
                while !sup.allows(capture, written) {
                    capture += p;
                    assert!(
                        capture - written <= 2 * p,
                        "{src}->{dst}: token written {written} still suppressed at {capture}"
                    );
                }
            }
        }
    });
}
