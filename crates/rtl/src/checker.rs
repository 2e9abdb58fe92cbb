//! The elastic-protocol invariant checker.
//!
//! An always-on, observation-only monitor of the inter-PE elastic
//! protocol. Every token delivered through a ratiochronous crossing (a
//! destination PE's input queue) is accounted on both sides of the
//! fault injector, so the checker can prove, per crossing:
//!
//! * **Token conservation** — every token a producer offered was
//!   received exactly once ([`ViolationKind::TokenLoss`] /
//!   [`ViolationKind::TokenDuplication`] otherwise).
//! * **Payload integrity** — an order-sensitive checksum over the
//!   offered stream equals the checksum over the received stream
//!   ([`ViolationKind::PayloadCorruption`] otherwise).
//! * **Queue conservation** — tokens received minus tokens consumed
//!   equals the queue's final occupancy
//!   ([`ViolationKind::QueueConservation`] otherwise).
//! * **Suppressor safety** — no consumer captures a token younger than
//!   one receiver period (elasticity-aware), or on an unsafe edge
//!   (traditional) ([`ViolationKind::SuppressorUnsafe`] otherwise).
//!
//! Credit conservation is enforced structurally: the ready signal *is*
//! the queue's free capacity (`BisyncQueue::can_push`), so a producer
//! that pushes without credit is an [`ViolationKind::Overflow`] — a
//! *fatal* violation, like [`ViolationKind::PopFromEmpty`],
//! [`ViolationKind::DoubleTake`], and
//! [`ViolationKind::MemoryOutOfBounds`]: the simulated state is no
//! longer meaningful, so both engines stop the run with
//! [`FabricStop::ProtocolViolation`](crate::fabric::FabricStop) and the
//! pipeline surfaces the first fatal violation as
//! `uecgra_core::Error::Protocol`.
//!
//! In a fault-free run no injector sits between the two sides, so the
//! event engine's plain build accounts each token with one update
//! (`ProtocolChecker::offer_received`).
//!
//! The checker is deliberately cheap (a few counter updates and three
//! or four 64-bit mixes per token) so it stays on in every run,
//! including the differential suite — where it doubles as a permanent
//! oracle: both engines must produce identical [`ProtocolReport`]s,
//! and clean runs must produce zero violations.

use crate::queue::TakeError;
use uecgra_compiler::bitstream::Dir;
use uecgra_compiler::mapping::Coord;

/// The SplitMix64 output mixer — the checksum primitive. Chaining it
/// (`sum = mix64(sum ^ mix64(value))`) makes the stream checksum
/// order-sensitive, so token reordering is caught, not just value
/// tampering.
pub(crate) fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What invariant a [`ProtocolViolation`] broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// Fewer tokens were received at a crossing than its producer
    /// offered.
    TokenLoss {
        /// Tokens the producer sent.
        offered: u64,
        /// Tokens that arrived.
        received: u64,
    },
    /// More tokens were received at a crossing than its producer
    /// offered.
    TokenDuplication {
        /// Tokens the producer sent.
        offered: u64,
        /// Tokens that arrived.
        received: u64,
    },
    /// Token counts match but the payload stream was altered in
    /// flight.
    PayloadCorruption,
    /// Tokens received minus tokens consumed does not equal the
    /// queue's final occupancy.
    QueueConservation {
        /// Tokens pushed into the queue.
        received: u64,
        /// Tokens popped from the queue.
        consumed: u64,
        /// Tokens resident at the end of the run.
        resident: u64,
    },
    /// A consumer captured a token that had not aged one receiver
    /// period (elasticity-aware), or on an unsafe edge (traditional).
    SuppressorUnsafe {
        /// The token's age in PLL ticks at capture.
        age: u64,
        /// The receiver's clock period.
        period: u64,
    },
    /// A pop was attempted on an empty queue (fatal).
    PopFromEmpty,
    /// A queue user consumed the same front token twice (fatal).
    DoubleTake {
        /// The offending local user (0 = compute, 1/2 = bypass).
        user: usize,
    },
    /// A producer pushed into a full queue — a push without credit
    /// (fatal).
    Overflow,
    /// A load or store addressed past the scratchpad (fatal).
    MemoryOutOfBounds {
        /// The offending word address.
        addr: u32,
    },
}

impl ViolationKind {
    /// Fatal violations corrupt simulated state, so the run stops.
    pub fn is_fatal(&self) -> bool {
        matches!(
            self,
            ViolationKind::PopFromEmpty
                | ViolationKind::DoubleTake { .. }
                | ViolationKind::Overflow
                | ViolationKind::MemoryOutOfBounds { .. }
        )
    }

    /// Stable lowercase label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            ViolationKind::TokenLoss { .. } => "token-loss",
            ViolationKind::TokenDuplication { .. } => "token-duplication",
            ViolationKind::PayloadCorruption => "payload-corruption",
            ViolationKind::QueueConservation { .. } => "queue-conservation",
            ViolationKind::SuppressorUnsafe { .. } => "suppressor-unsafe",
            ViolationKind::PopFromEmpty => "pop-from-empty",
            ViolationKind::DoubleTake { .. } => "double-take",
            ViolationKind::Overflow => "overflow",
            ViolationKind::MemoryOutOfBounds { .. } => "memory-out-of-bounds",
        }
    }
}

/// One detected protocol violation, locatable to a crossing and tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtocolViolation {
    /// The PE on whose input side the violation was observed (for
    /// memory violations, the accessing PE).
    pub pe: Coord,
    /// The input queue involved, when the violation is crossing-local.
    pub dir: Option<Dir>,
    /// The PLL tick of detection (end-of-run checks carry the final
    /// tick).
    pub tick: u64,
    /// Which invariant broke.
    pub kind: ViolationKind,
}

impl std::fmt::Display for ProtocolViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "protocol violation `{}` at PE ({}, {})",
            self.kind.label(),
            self.pe.0,
            self.pe.1
        )?;
        if let Some(d) = self.dir {
            write!(f, " queue {d:?}")?;
        }
        write!(f, " (tick {})", self.tick)?;
        match self.kind {
            ViolationKind::TokenLoss { offered, received }
            | ViolationKind::TokenDuplication { offered, received } => {
                write!(f, ": offered {offered}, received {received}")
            }
            ViolationKind::QueueConservation {
                received,
                consumed,
                resident,
            } => write!(
                f,
                ": received {received}, consumed {consumed}, resident {resident}"
            ),
            ViolationKind::SuppressorUnsafe { age, period } => {
                write!(f, ": token age {age} < receiver period {period}")
            }
            ViolationKind::MemoryOutOfBounds { addr } => write!(f, ": address {addr}"),
            ViolationKind::DoubleTake { user } => write!(f, ": user {user}"),
            _ => Ok(()),
        }
    }
}

impl std::error::Error for ProtocolViolation {}

/// Per-crossing token accounting. `offered` counts tokens on the
/// producer side of the fault injector; `received` counts what the
/// queue actually absorbed; `consumed` counts pops. The `*_sum` fields
/// are chained order-sensitive checksums of the respective payload
/// streams.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct CrossingStats {
    offered: u64,
    offered_sum: u64,
    received: u64,
    received_sum: u64,
    consumed: u64,
}

/// The end-of-run protocol summary carried on
/// [`Activity`](crate::fabric::Activity). Both engines must produce it
/// bit-identically; it is *not* serialized into `RunReport`s (reports
/// stay byte-stable across this layer being added).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProtocolReport {
    /// Tokens offered into crossings over the whole run.
    pub tokens_checked: u64,
    /// Every violation detected, in detection order (fatal violations
    /// first stop the run; end-of-run conservation checks follow in
    /// row-major crossing order).
    pub violations: Vec<ProtocolViolation>,
    /// Per-crossing received-token counts for crossings that carried
    /// at least one token, in row-major order — the fault campaign
    /// draws its targets from here so injected faults actually fire.
    pub flows: Vec<(Coord, Dir, u64)>,
}

impl ProtocolReport {
    /// True when no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// The first fatal violation, if the run was stopped by one.
    pub fn first_fatal(&self) -> Option<&ProtocolViolation> {
        self.violations.iter().find(|v| v.kind.is_fatal())
    }
}

/// The live monitor: one [`CrossingStats`] per (PE, direction),
/// indexed by row-major PE index.
#[derive(Debug)]
pub(crate) struct ProtocolChecker {
    width: usize,
    stats: Vec<CrossingStats>,
    violations: Vec<ProtocolViolation>,
    fatal: bool,
    tokens: u64,
}

impl ProtocolChecker {
    pub(crate) fn new(width: usize, height: usize) -> ProtocolChecker {
        ProtocolChecker {
            width,
            stats: vec![CrossingStats::default(); width * height * 4],
            violations: Vec::new(),
            fatal: false,
            tokens: 0,
        }
    }

    /// The stats of queue `dir` of PE `idx` (row-major index).
    fn slot(&mut self, idx: usize, dir: Dir) -> &mut CrossingStats {
        &mut self.stats[idx * 4 + dir as usize]
    }

    /// A producer sent `value` toward queue `dir` of PE `idx`
    /// (pre-fault).
    pub(crate) fn offer(&mut self, idx: usize, dir: Dir, value: u32) {
        self.tokens += 1;
        let s = self.slot(idx, dir);
        s.offered += 1;
        s.offered_sum = mix64(s.offered_sum ^ mix64(u64::from(value)));
    }

    /// Queue `dir` of PE `idx` absorbed `value` (post-fault).
    pub(crate) fn receive(&mut self, idx: usize, dir: Dir, value: u32) {
        let s = self.slot(idx, dir);
        s.received += 1;
        s.received_sum = mix64(s.received_sum ^ mix64(u64::from(value)));
    }

    /// `value` crossed into queue `dir` of PE `idx` with no fault
    /// injector between the two sides: the one update writes what
    /// [`ProtocolChecker::offer`] then [`ProtocolChecker::receive`]
    /// would.
    pub(crate) fn offer_received(&mut self, idx: usize, dir: Dir, value: u32) {
        self.tokens += 1;
        let s = self.slot(idx, dir);
        let mixed = mix64(u64::from(value));
        s.offered += 1;
        s.offered_sum = mix64(s.offered_sum ^ mixed);
        s.received += 1;
        s.received_sum = mix64(s.received_sum ^ mixed);
    }

    /// The front token of queue `dir` of PE `idx` was popped.
    pub(crate) fn consume(&mut self, idx: usize, dir: Dir) {
        self.slot(idx, dir).consumed += 1;
    }

    /// Record a non-fatal violation.
    pub(crate) fn record(&mut self, pe: Coord, dir: Option<Dir>, tick: u64, kind: ViolationKind) {
        self.violations.push(ProtocolViolation {
            pe,
            dir,
            tick,
            kind,
        });
    }

    /// Record a fatal violation; the engines stop the run once the
    /// current tick's phase 2 completes.
    pub(crate) fn fatal(&mut self, pe: Coord, dir: Option<Dir>, tick: u64, kind: ViolationKind) {
        self.fatal = true;
        self.record(pe, dir, tick, kind);
    }

    /// Map a [`TakeError`] to its fatal violation.
    pub(crate) fn fatal_take(&mut self, pe: Coord, dir: Dir, tick: u64, err: TakeError) {
        let kind = match err {
            TakeError::Empty => ViolationKind::PopFromEmpty,
            TakeError::DoubleTake { user } => ViolationKind::DoubleTake { user },
        };
        self.fatal(pe, Some(dir), tick, kind);
    }

    /// Has a fatal violation been recorded?
    pub(crate) fn is_fatal(&self) -> bool {
        self.fatal
    }

    /// Run the end-of-run conservation checks and emit the report.
    /// `resident` carries each crossing's final queue occupancy,
    /// indexed like the internal stats (`(y * width + x) * 4 + dir`).
    pub(crate) fn finish(&mut self, resident: &[u64], tick: u64) -> ProtocolReport {
        debug_assert_eq!(resident.len(), self.stats.len());
        let mut flows = Vec::new();
        for (idx, s) in self.stats.iter().enumerate() {
            let pe = ((idx / 4) % self.width, idx / 4 / self.width);
            let dir = Dir::ALL[idx % 4];
            if s.received > 0 {
                flows.push((pe, dir, s.received));
            }
            let kind = if s.received < s.offered {
                Some(ViolationKind::TokenLoss {
                    offered: s.offered,
                    received: s.received,
                })
            } else if s.received > s.offered {
                Some(ViolationKind::TokenDuplication {
                    offered: s.offered,
                    received: s.received,
                })
            } else if s.offered_sum != s.received_sum {
                Some(ViolationKind::PayloadCorruption)
            } else if s.received != s.consumed + resident[idx] {
                Some(ViolationKind::QueueConservation {
                    received: s.received,
                    consumed: s.consumed,
                    resident: resident[idx],
                })
            } else {
                None
            };
            if let Some(kind) = kind {
                self.violations.push(ProtocolViolation {
                    pe,
                    dir: Some(dir),
                    tick,
                    kind,
                });
            }
        }
        ProtocolReport {
            tokens_checked: self.tokens,
            violations: std::mem::take(&mut self.violations),
            flows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_streams_report_no_violations() {
        let mut c = ProtocolChecker::new(2, 2);
        for v in [3u32, 5, 8] {
            c.offer(1, Dir::West, v);
            c.receive(1, Dir::West, v);
        }
        c.consume(1, Dir::West);
        c.consume(1, Dir::West);
        let mut resident = vec![0u64; 2 * 2 * 4];
        // PE (1, 0) is row-major index 1; four queues per PE.
        resident[4 + Dir::West as usize] = 1;
        let report = c.finish(&resident, 99);
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.tokens_checked, 3);
        assert_eq!(report.flows, vec![((1, 0), Dir::West, 3)]);
    }

    #[test]
    fn one_update_per_token_matches_offer_then_receive() {
        let mut split = ProtocolChecker::new(2, 1);
        let mut fused = ProtocolChecker::new(2, 1);
        for (idx, dir, v) in [(0, Dir::East, 3u32), (1, Dir::West, 9), (0, Dir::East, 4)] {
            split.offer(idx, dir, v);
            split.receive(idx, dir, v);
            fused.offer_received(idx, dir, v);
        }
        assert_eq!(split.stats, fused.stats);
        assert_eq!(split.tokens, fused.tokens);
    }

    #[test]
    fn loss_duplication_and_corruption_are_distinguished() {
        let mut c = ProtocolChecker::new(3, 1);
        // (0,0): a dropped token.
        c.offer(0, Dir::North, 1);
        // (1,0): a duplicated token.
        c.offer(1, Dir::North, 2);
        c.receive(1, Dir::North, 2);
        c.receive(1, Dir::North, 2);
        // (2,0): a flipped payload.
        c.offer(2, Dir::North, 3);
        c.receive(2, Dir::North, 7);
        c.consume(1, Dir::North);
        c.consume(1, Dir::North);
        c.consume(2, Dir::North);
        let report = c.finish(&[0u64; 3 * 4], 10);
        let kinds: Vec<&str> = report.violations.iter().map(|v| v.kind.label()).collect();
        assert_eq!(
            kinds,
            ["token-loss", "token-duplication", "payload-corruption"]
        );
        assert!(report.first_fatal().is_none());
    }

    #[test]
    fn reordering_is_caught_by_the_chained_checksum() {
        let mut c = ProtocolChecker::new(1, 1);
        c.offer(0, Dir::East, 1);
        c.offer(0, Dir::East, 2);
        c.receive(0, Dir::East, 2);
        c.receive(0, Dir::East, 1);
        c.consume(0, Dir::East);
        c.consume(0, Dir::East);
        let report = c.finish(&[0u64; 4], 5);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].kind, ViolationKind::PayloadCorruption);
    }

    #[test]
    fn queue_conservation_checks_residency() {
        let mut c = ProtocolChecker::new(1, 1);
        c.offer(0, Dir::South, 4);
        c.receive(0, Dir::South, 4);
        // Never consumed, but reported resident count says empty.
        let report = c.finish(&[0u64; 4], 5);
        assert_eq!(report.violations.len(), 1);
        assert!(matches!(
            report.violations[0].kind,
            ViolationKind::QueueConservation {
                received: 1,
                consumed: 0,
                resident: 0
            }
        ));
    }

    #[test]
    fn fatal_violations_set_the_flag_and_sort_first() {
        let mut c = ProtocolChecker::new(1, 1);
        assert!(!c.is_fatal());
        c.fatal_take((0, 0), Dir::West, 7, TakeError::Empty);
        assert!(c.is_fatal());
        let report = c.finish(&[0u64; 4], 7);
        let fatal = report.first_fatal().expect("fatal recorded");
        assert_eq!(fatal.kind, ViolationKind::PopFromEmpty);
        assert!(fatal.kind.is_fatal());
        assert!(!ViolationKind::PayloadCorruption.is_fatal());
        let shown = fatal.to_string();
        assert!(shown.contains("pop-from-empty"), "{shown}");
        assert!(shown.contains("(0, 0)"), "{shown}");
    }
}
