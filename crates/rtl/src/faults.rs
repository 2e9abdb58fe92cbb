//! Deterministic fault injection for the elastic inter-PE protocol.
//!
//! The paper's correctness claim is that the ultra-elastic fabric
//! tolerates arbitrary timing perturbations at ratiochronous crossings
//! while never corrupting data. This module provides the adversary: a
//! SplitMix64-seeded injector that perturbs a chosen crossing (a
//! destination PE's input queue) or a whole clock domain:
//!
//! * **Corruption faults** ([`FaultKind::FlipPayloadBit`],
//!   [`FaultKind::DropToken`], [`FaultKind::DuplicateToken`]) attack
//!   the data path: the n-th token delivered through the crossing is
//!   bit-flipped, silently discarded, or delivered twice. The protocol
//!   checker must detect every one of these (token conservation and
//!   payload checksums over the crossing).
//! * **Handshake faults** ([`FaultKind::StickValid`],
//!   [`FaultKind::StickReady`]) attack the control path: for a window
//!   of PLL ticks the crossing's valid (front-token visibility) or
//!   ready (queue credit) signal is stuck low. A correct elastic
//!   fabric absorbs these — execution is delayed, never corrupted.
//! * **Timing faults** ([`FaultKind::StallDomain`]) freeze every PE of
//!   one clock domain for a window of ticks, modeling a PLL glitch or
//!   a clock-gating controller fault. Finite stalls are absorbed;
//!   unbounded stalls are converted into a structured
//!   `Error::Stalled` by the pipeline watchdog.
//!
//! A [`FaultPlan`] is pure data (it lives in
//! [`FabricConfig`](crate::fabric::FabricConfig)); the mutable
//! trigger state lives in `FaultState` inside the fabric, so a plan
//! can be reused across runs and engines. Both engines evaluate the
//! same plan at the same queue operations, which keeps the dense and
//! event-driven engines bit-identical under injection (the event
//! engine additionally disables its wakeup-skipping optimization while
//! faults are active, because stuck windows change PE outcomes without
//! any queue mutation).

use uecgra_clock::VfMode;
use uecgra_compiler::bitstream::Dir;
use uecgra_compiler::mapping::Coord;

/// One way to perturb the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// XOR bit `bit` into the payload of the `nth` token delivered
    /// through the crossing (0-based).
    FlipPayloadBit {
        /// Bit index (taken modulo 32).
        bit: u8,
        /// Which token through the crossing to corrupt.
        nth: u64,
    },
    /// Silently discard the `nth` token delivered through the
    /// crossing.
    DropToken {
        /// Which token through the crossing to drop.
        nth: u64,
    },
    /// Deliver the `nth` token through the crossing twice.
    DuplicateToken {
        /// Which token through the crossing to duplicate.
        nth: u64,
    },
    /// Hold the crossing's valid signal low — the front token is
    /// invisible to the consumer — for `ticks` PLL ticks starting at
    /// `from`.
    StickValid {
        /// First PLL tick of the stuck window.
        from: u64,
        /// Window length in PLL ticks.
        ticks: u64,
    },
    /// Hold the crossing's ready signal low — the queue reports no
    /// free credit to its producer — for `ticks` PLL ticks starting at
    /// `from`.
    StickReady {
        /// First PLL tick of the stuck window.
        from: u64,
        /// Window length in PLL ticks.
        ticks: u64,
    },
    /// Freeze every PE of `domain` (their rising edges do nothing) for
    /// `ticks` PLL ticks starting at `from`.
    StallDomain {
        /// The clock domain to stall.
        domain: VfMode,
        /// First PLL tick of the stall window.
        from: u64,
        /// Window length in PLL ticks (`u64::MAX` for a permanent
        /// stall).
        ticks: u64,
    },
}

impl FaultKind {
    /// Stable lowercase class label (`flip`, `drop`, `dup`,
    /// `stick-valid`, `stick-ready`, `stall-domain`) used by campaign
    /// reports and gates.
    pub fn class(&self) -> &'static str {
        match self {
            FaultKind::FlipPayloadBit { .. } => "flip",
            FaultKind::DropToken { .. } => "drop",
            FaultKind::DuplicateToken { .. } => "dup",
            FaultKind::StickValid { .. } => "stick-valid",
            FaultKind::StickReady { .. } => "stick-ready",
            FaultKind::StallDomain { .. } => "stall-domain",
        }
    }

    /// True for the corruption class (flip/drop/dup): faults the
    /// protocol checker must always detect.
    pub fn is_corruption(&self) -> bool {
        matches!(
            self,
            FaultKind::FlipPayloadBit { .. }
                | FaultKind::DropToken { .. }
                | FaultKind::DuplicateToken { .. }
        )
    }
}

/// One injected fault: a kind plus the crossing it targets.
///
/// The crossing is identified from the consumer side: `pe` is the
/// destination PE and `dir` names which of its four input queues is
/// attacked (i.e. the queue fed by the neighbor in direction `dir`).
/// [`FaultKind::StallDomain`] ignores the crossing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// Destination PE of the attacked crossing.
    pub pe: Coord,
    /// Which input queue of `pe` is attacked.
    pub dir: Dir,
    /// The perturbation.
    pub kind: FaultKind,
}

impl Fault {
    /// A compact stable label, e.g. `flip[bit=3,nth=1]@(4,2).West`.
    pub fn label(&self) -> String {
        let at = format!("@({},{}).{:?}", self.pe.0, self.pe.1, self.dir);
        match self.kind {
            FaultKind::FlipPayloadBit { bit, nth } => format!("flip[bit={bit},nth={nth}]{at}"),
            FaultKind::DropToken { nth } => format!("drop[nth={nth}]{at}"),
            FaultKind::DuplicateToken { nth } => format!("dup[nth={nth}]{at}"),
            FaultKind::StickValid { from, ticks } => {
                format!("stick-valid[from={from},ticks={ticks}]{at}")
            }
            FaultKind::StickReady { from, ticks } => {
                format!("stick-ready[from={from},ticks={ticks}]{at}")
            }
            FaultKind::StallDomain {
                domain,
                from,
                ticks,
            } => format!("stall-domain[{domain:?},from={from},ticks={ticks}]"),
        }
    }
}

/// A set of faults to inject into one run. Pure data — the trigger
/// counters live in the fabric's private `FaultState`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// The faults, applied in order at each matching queue operation.
    pub faults: Vec<Fault>,
}

/// The six fault classes in campaign rotation order.
const CLASS_COUNT: usize = 6;

impl FaultPlan {
    /// The empty plan (no injection).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// A single-fault plan.
    pub fn single(fault: Fault) -> FaultPlan {
        FaultPlan {
            faults: vec![fault],
        }
    }

    /// `count` seeded random faults over arbitrary crossings of a
    /// `w × h` array. Deterministic in `seed`; used by the
    /// differential suite to stress both engines identically.
    pub fn random(seed: u64, w: usize, h: usize, count: usize) -> FaultPlan {
        let mut rng = Splitmix(seed);
        let mut faults = Vec::with_capacity(count);
        for _ in 0..count {
            let pe = (rng.below(w as u64) as usize, rng.below(h as u64) as usize);
            let dir = Dir::ALL[rng.below(4) as usize];
            faults.push(Fault {
                pe,
                dir,
                kind: random_kind(&mut rng),
            });
        }
        FaultPlan { faults }
    }

    /// `count` seeded random faults whose crossings are drawn from
    /// `targets` (crossings known to carry tokens — see
    /// `ProtocolReport::flows`), rotating through all six fault
    /// classes so a campaign covers the whole taxonomy. Returns the
    /// empty plan when `targets` is empty.
    pub fn random_at(seed: u64, targets: &[(Coord, Dir)], count: usize) -> FaultPlan {
        if targets.is_empty() {
            return FaultPlan::none();
        }
        let mut rng = Splitmix(seed);
        let mut faults = Vec::with_capacity(count);
        for i in 0..count {
            let &(pe, dir) = &targets[rng.below(targets.len() as u64) as usize];
            faults.push(Fault {
                pe,
                dir,
                kind: kind_of_class(&mut rng, i % CLASS_COUNT),
            });
        }
        FaultPlan { faults }
    }
}

/// A tiny local SplitMix64 (kept here so `uecgra-rtl` stays free of a
/// `uecgra-util` dependency; the mixer constants are the standard
/// ones, identical to `uecgra_util::rng::SplitMix64`).
struct Splitmix(u64);

impl Splitmix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        ((u128::from(self.next()) * u128::from(bound)) >> 64) as u64
    }
}

fn random_kind(rng: &mut Splitmix) -> FaultKind {
    let class = rng.below(CLASS_COUNT as u64) as usize;
    kind_of_class(rng, class)
}

fn kind_of_class(rng: &mut Splitmix, class: usize) -> FaultKind {
    match class {
        0 => FaultKind::FlipPayloadBit {
            bit: rng.below(32) as u8,
            nth: rng.below(6),
        },
        1 => FaultKind::DropToken { nth: rng.below(6) },
        2 => FaultKind::DuplicateToken { nth: rng.below(6) },
        3 => FaultKind::StickValid {
            from: rng.below(256),
            ticks: 1 + rng.below(96),
        },
        4 => FaultKind::StickReady {
            from: rng.below(256),
            ticks: 1 + rng.below(96),
        },
        _ => FaultKind::StallDomain {
            domain: VfMode::ALL[rng.below(3) as usize],
            from: rng.below(256),
            ticks: 1 + rng.below(96),
        },
    }
}

/// The runtime trigger state of a [`FaultPlan`] inside one fabric run:
/// a per-fault count of tokens seen at the attacked crossing.
#[derive(Debug)]
pub(crate) struct FaultState {
    plan: FaultPlan,
    /// Tokens observed at each fault's crossing so far (corruption
    /// faults trigger when this reaches their `nth`).
    seen: Vec<u64>,
}

/// What the injector decided for one token delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Injected {
    /// How many copies to push (0 = dropped, 2 = duplicated).
    pub(crate) copies: u8,
    /// The (possibly corrupted) payload.
    pub(crate) value: u32,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan) -> FaultState {
        let seen = vec![0; plan.faults.len()];
        FaultState { plan, seen }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.plan.is_empty()
    }

    /// Apply the corruption faults to one token delivered to queue
    /// `dir` of PE `pe`, advancing the per-crossing token counters.
    pub(crate) fn inject(&mut self, pe: Coord, dir: Dir, value: u32) -> Injected {
        let mut out = Injected { copies: 1, value };
        for (i, f) in self.plan.faults.iter().enumerate() {
            if f.pe != pe || f.dir != dir || !f.kind.is_corruption() {
                continue;
            }
            let n = self.seen[i];
            self.seen[i] += 1;
            match f.kind {
                FaultKind::FlipPayloadBit { bit, nth } if n == nth => {
                    out.value ^= 1 << (bit & 31);
                }
                FaultKind::DropToken { nth } if n == nth => out.copies = 0,
                FaultKind::DuplicateToken { nth } if n == nth => out.copies = 2,
                _ => {}
            }
        }
        out
    }

    /// Is the crossing's valid signal stuck low at tick `t`?
    pub(crate) fn valid_stuck(&self, pe: Coord, dir: Dir, t: u64) -> bool {
        self.plan.faults.iter().any(|f| {
            f.pe == pe
                && f.dir == dir
                && matches!(f.kind, FaultKind::StickValid { from, ticks }
                    if in_window(t, from, ticks))
        })
    }

    /// Is the crossing's ready signal stuck low at tick `t`?
    pub(crate) fn ready_stuck(&self, pe: Coord, dir: Dir, t: u64) -> bool {
        self.plan.faults.iter().any(|f| {
            f.pe == pe
                && f.dir == dir
                && matches!(f.kind, FaultKind::StickReady { from, ticks }
                    if in_window(t, from, ticks))
        })
    }

    /// Is clock domain `mode` stalled at tick `t`?
    pub(crate) fn domain_stalled(&self, mode: VfMode, t: u64) -> bool {
        self.plan.faults.iter().any(|f| {
            matches!(f.kind, FaultKind::StallDomain { domain, from, ticks }
                if domain == mode && in_window(t, from, ticks))
        })
    }
}

fn in_window(t: u64, from: u64, ticks: u64) -> bool {
    t >= from && t - from < ticks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic() {
        let a = FaultPlan::random(42, 8, 8, 12);
        let b = FaultPlan::random(42, 8, 8, 12);
        assert_eq!(a, b);
        assert_eq!(a.faults.len(), 12);
        let c = FaultPlan::random(43, 8, 8, 12);
        assert_ne!(a, c, "distinct seeds give distinct plans");
    }

    #[test]
    fn random_at_rotates_all_classes() {
        let targets = [((1usize, 2usize), Dir::West), ((3, 4), Dir::North)];
        let plan = FaultPlan::random_at(7, &targets, 6);
        let classes: Vec<&str> = plan.faults.iter().map(|f| f.kind.class()).collect();
        assert_eq!(
            classes,
            [
                "flip",
                "drop",
                "dup",
                "stick-valid",
                "stick-ready",
                "stall-domain"
            ]
        );
        for f in &plan.faults {
            assert!(targets.contains(&(f.pe, f.dir)) || f.kind.class() == "stall-domain");
        }
    }

    #[test]
    fn inject_triggers_on_the_nth_token_only() {
        let fault = Fault {
            pe: (1, 1),
            dir: Dir::West,
            kind: FaultKind::FlipPayloadBit { bit: 0, nth: 2 },
        };
        let mut state = FaultState::new(FaultPlan::single(fault));
        assert_eq!(state.inject((1, 1), Dir::West, 10).value, 10);
        // Other crossings do not advance the counter.
        assert_eq!(state.inject((2, 1), Dir::West, 10).value, 10);
        assert_eq!(state.inject((1, 1), Dir::West, 10).value, 10);
        assert_eq!(
            state.inject((1, 1), Dir::West, 10).value,
            11,
            "nth token flips"
        );
        assert_eq!(state.inject((1, 1), Dir::West, 10).value, 10);
    }

    #[test]
    fn drop_and_duplicate_set_copy_counts() {
        let mut state = FaultState::new(FaultPlan {
            faults: vec![
                Fault {
                    pe: (0, 0),
                    dir: Dir::East,
                    kind: FaultKind::DropToken { nth: 0 },
                },
                Fault {
                    pe: (0, 0),
                    dir: Dir::South,
                    kind: FaultKind::DuplicateToken { nth: 1 },
                },
            ],
        });
        assert_eq!(state.inject((0, 0), Dir::East, 5).copies, 0);
        assert_eq!(state.inject((0, 0), Dir::East, 5).copies, 1);
        assert_eq!(state.inject((0, 0), Dir::South, 5).copies, 1);
        assert_eq!(state.inject((0, 0), Dir::South, 5).copies, 2);
    }

    #[test]
    fn stuck_windows_cover_exactly_their_ticks() {
        let state = FaultState::new(FaultPlan {
            faults: vec![
                Fault {
                    pe: (2, 3),
                    dir: Dir::North,
                    kind: FaultKind::StickValid { from: 10, ticks: 5 },
                },
                Fault {
                    pe: (2, 3),
                    dir: Dir::North,
                    kind: FaultKind::StickReady { from: 0, ticks: 1 },
                },
                Fault {
                    pe: (0, 0),
                    dir: Dir::North,
                    kind: FaultKind::StallDomain {
                        domain: VfMode::Sprint,
                        from: 4,
                        ticks: u64::MAX,
                    },
                },
            ],
        });
        assert!(!state.valid_stuck((2, 3), Dir::North, 9));
        assert!(state.valid_stuck((2, 3), Dir::North, 10));
        assert!(state.valid_stuck((2, 3), Dir::North, 14));
        assert!(!state.valid_stuck((2, 3), Dir::North, 15));
        assert!(
            !state.valid_stuck((2, 3), Dir::South, 10),
            "other dir untouched"
        );
        assert!(state.ready_stuck((2, 3), Dir::North, 0));
        assert!(!state.ready_stuck((2, 3), Dir::North, 1));
        assert!(!state.domain_stalled(VfMode::Sprint, 3));
        assert!(
            state.domain_stalled(VfMode::Sprint, u64::MAX - 1),
            "permanent stall"
        );
        assert!(!state.domain_stalled(VfMode::Nominal, 100));
    }

    #[test]
    fn labels_are_stable_and_classy() {
        let f = Fault {
            pe: (4, 2),
            dir: Dir::West,
            kind: FaultKind::FlipPayloadBit { bit: 3, nth: 1 },
        };
        assert_eq!(f.label(), "flip[bit=3,nth=1]@(4,2).West");
        assert!(f.kind.is_corruption());
        assert!(!FaultKind::StickValid { from: 0, ticks: 1 }.is_corruption());
    }
}
