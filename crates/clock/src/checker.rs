//! Unsafe-edge detection for ratiochronous clock-domain crossings.
//!
//! Rational clocks have phase relationships that repeat every
//! hyperperiod. A capture (receiver) edge is **safe** when the time
//! since the most recent launch (source) edge is at least one full
//! receiver clock period — the criterion of the paper's Figure 8(a),
//! where the B0→A1 crossing is safe "since the propagation time … is a
//! full (receiver) clock cycle" and the B1→A2 crossing is "too
//! aggressive to meet timing".
//!
//! The hardware implements this as a counter + LUT per domain pair
//! ([`UnsafeLut`], the `CNT LUT` blocks of Figure 8(c)); this module
//! computes those LUTs.

use crate::ratio::{ClockSet, VfMode};

/// One capture opportunity in a crossing, with its timing margin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaptureEdge {
    /// The receiver rising edge (PLL ticks within the hyperperiod).
    pub capture: u64,
    /// The most recent source rising edge at or before `capture`.
    pub launch: u64,
    /// `capture - launch` in PLL ticks.
    pub margin: u64,
    /// True when `margin` is at least one receiver period (or the edge
    /// coincides with a launch edge, in which case the *previous*
    /// launch edge governs).
    pub safe: bool,
}

/// Classify every capture edge of a `src → dst` crossing over one
/// hyperperiod.
///
/// A capture edge that coincides with a launch edge captures data from
/// the *previous* launch (data launched on the coincident edge cannot
/// arrive instantaneously), so its margin is measured from the launch
/// strictly before it.
pub fn classify_crossing(clocks: &ClockSet, src: VfMode, dst: VfMode) -> Vec<CaptureEdge> {
    let budget = clocks.period(dst);
    clocks
        .rising_edges(dst)
        .into_iter()
        .map(|capture| {
            // Launch edges repeat with the hyperperiod, so for capture
            // edges early in the hyperperiod the governing launch may
            // belong to the previous hyperperiod (negative time); work
            // in an offset frame to keep arithmetic unsigned.
            let h = clocks.hyperperiod();
            let t = capture + h;
            let last = clocks.last_rising(src, t);
            let launch = if last == t {
                clocks.last_rising(src, t - 1)
            } else {
                last
            };
            let margin = t - launch;
            CaptureEdge {
                capture,
                launch: launch % h,
                margin,
                safe: margin >= budget,
            }
        })
        .collect()
}

/// The per-crossing unsafe-edge lookup table of Figure 8(c): one bit
/// per receiver edge within the hyperperiod, true when that edge is
/// unsafe. The hardware walks this LUT with a counter reset by
/// `clkrst`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnsafeLut {
    bits: Vec<bool>,
    dst_period: u64,
}

impl UnsafeLut {
    /// Build the LUT for a `src → dst` crossing.
    pub fn build(clocks: &ClockSet, src: VfMode, dst: VfMode) -> UnsafeLut {
        let bits = classify_crossing(clocks, src, dst)
            .into_iter()
            .map(|e| !e.safe)
            .collect();
        UnsafeLut {
            bits,
            dst_period: clocks.period(dst),
        }
    }

    /// Number of receiver edges per hyperperiod.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// True when the LUT is empty (never for a valid clock set).
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// True if the receiver edge at absolute PLL tick `t` is unsafe.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not a receiver rising edge.
    pub fn is_unsafe_at(&self, t: u64) -> bool {
        assert_eq!(t % self.dst_period, 0, "t={t} is not a receiver edge");
        let edges_per_hyper = self.bits.len() as u64;
        let idx = (t / self.dst_period) % edges_per_hyper;
        self.bits[idx as usize]
    }
}

/// The full 3×3 bank of LUTs a PE carries (the nine `CNT LUT` blocks
/// of Figure 8(c)), indexed by `[src][dst]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClockChecker {
    luts: Vec<UnsafeLut>,
}

impl ClockChecker {
    /// Build all nine crossings for a clock set.
    pub fn new(clocks: &ClockSet) -> ClockChecker {
        let mut luts = Vec::with_capacity(9);
        for src in VfMode::ALL {
            for dst in VfMode::ALL {
                luts.push(UnsafeLut::build(clocks, src, dst));
            }
        }
        ClockChecker { luts }
    }

    /// The LUT for a `src → dst` crossing.
    pub fn lut(&self, src: VfMode, dst: VfMode) -> &UnsafeLut {
        &self.luts[(src as usize) * 3 + (dst as usize)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn default_clocks() -> ClockSet {
        ClockSet::default()
    }

    #[test]
    fn same_domain_is_always_safe() {
        let c = default_clocks();
        for m in VfMode::ALL {
            let lut = UnsafeLut::build(&c, m, m);
            assert!(lut.bits.iter().all(|&b| !b), "{m}→{m}");
        }
    }

    #[test]
    fn figure8_two_to_three_crossing() {
        // The figure's example: launch on div3 (period 3 = our nominal),
        // capture on div2 (period 2 = our sprint). Captures at 0,2,4;
        // launches at 0,3. Capture 2 ← launch 0: margin 2 ≥ 2 safe.
        // Capture 4 ← launch 3: margin 1 < 2 unsafe.
        let c = default_clocks();
        let edges = classify_crossing(&c, VfMode::Nominal, VfMode::Sprint);
        let at = |t: u64| edges.iter().find(|e| e.capture == t).unwrap();
        assert!(at(2).safe);
        assert!(!at(4).safe);
        assert_eq!(at(4).margin, 1);
    }

    #[test]
    fn coincident_edges_capture_previous_launch() {
        // Nominal → sprint at t = 0: both rise; the governing launch is
        // the nominal edge at 15 (previous hyperperiod), margin 3 ≥ 2.
        let c = default_clocks();
        let edges = classify_crossing(&c, VfMode::Nominal, VfMode::Sprint);
        let e0 = edges.iter().find(|e| e.capture == 0).unwrap();
        assert_eq!(e0.launch, 15);
        assert_eq!(e0.margin, 3);
        assert!(e0.safe);
    }

    #[test]
    fn slow_to_fast_crossing_unsafe_pattern() {
        // Rest (9) → sprint (2): captures every 2 ticks; launches at 0, 9.
        // Unsafe captures are the first edge after each launch that is
        // closer than 2 ticks: capture 10 (margin 1). Edge counts over the
        // 18-tick hyperperiod: 9 captures, exactly one unsafe.
        let c = default_clocks();
        let lut = UnsafeLut::build(&c, VfMode::Rest, VfMode::Sprint);
        assert_eq!(lut.len(), 9);
        let unsafe_count = (0..9).filter(|&k| lut.is_unsafe_at(k * 2)).count();
        assert_eq!(unsafe_count, 1);
        assert!(lut.is_unsafe_at(10));
    }

    #[test]
    fn fast_to_slow_crossing_unsafe_pattern() {
        // Sprint (2) → nominal (3): captures at 0,3,6,9,12,15; launches
        // every 2. Margins: capture 3 ← launch 2 (1, unsafe), 6 ← 4 (2,
        // unsafe), 9 ← 8 (1, unsafe), 12 ← 10 (2, unsafe), 15 ← 14 (1,
        // unsafe), 0 ← 16 of prev hyper (2, unsafe). All unsafe! The
        // fabric's elasticity-aware suppressor, which reads any token
        // aged one receiver period, is what keeps such crossings flowing.
        let c = default_clocks();
        let lut = UnsafeLut::build(&c, VfMode::Sprint, VfMode::Nominal);
        assert!(lut.bits.iter().all(|&b| b));
    }

    #[test]
    fn lut_is_periodic() {
        let c = default_clocks();
        let lut = UnsafeLut::build(&c, VfMode::Nominal, VfMode::Sprint);
        for k in 0..9u64 {
            assert_eq!(lut.is_unsafe_at(k * 2), lut.is_unsafe_at(k * 2 + 18));
        }
    }

    #[test]
    #[should_panic(expected = "not a receiver edge")]
    fn lut_rejects_non_edges() {
        let c = default_clocks();
        let lut = UnsafeLut::build(&c, VfMode::Nominal, VfMode::Sprint);
        lut.is_unsafe_at(3);
    }
}
