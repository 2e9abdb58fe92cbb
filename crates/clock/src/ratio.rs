//! Rational clock sets.
//!
//! The UE-CGRA derives all PE clocks from one PLL by integer division
//! (paper Section V). The published design point divides by
//! **2 / 3 / 9**: sprint = PLL/2, nominal = PLL/3, rest = PLL/9, giving
//! sprint = 1.5× and rest = 1/3× the nominal frequency — the
//! "2-to-3-to-9" ratio the paper selects after quantizing the SPICE-fit
//! voltages (0.61 V, 0.90 V, 1.23 V).

use std::fmt;

/// The three DVFS operating modes of a UE-CGRA PE.
///
/// # Examples
///
/// ```
/// use uecgra_clock::VfMode;
/// assert_eq!(VfMode::Sprint.speedup_over_nominal(&Default::default()), 1.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum VfMode {
    /// Low voltage / low frequency (0.61 V, 1/3× nominal).
    Rest,
    /// The nominal operating point (0.90 V, 750 MHz in TSMC 28).
    #[default]
    Nominal,
    /// High voltage / high frequency (1.23 V, 1.5× nominal).
    Sprint,
}

impl VfMode {
    /// All three modes, slowest first.
    pub const ALL: [VfMode; 3] = [VfMode::Rest, VfMode::Nominal, VfMode::Sprint];

    /// Frequency multiplier relative to nominal in `clocks`.
    pub fn speedup_over_nominal(self, clocks: &ClockSet) -> f64 {
        clocks.frequency_ratio(self, VfMode::Nominal)
    }
}

impl fmt::Display for VfMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            VfMode::Rest => "rest",
            VfMode::Nominal => "nominal",
            VfMode::Sprint => "sprint",
        };
        f.write_str(s)
    }
}

/// A set of three rational clocks derived from one PLL by integer
/// division, indexed by [`VfMode`].
///
/// Time is measured in PLL ticks. A divided clock with divisor `d` has
/// rising edges at `t = 0, d, 2d, …` (after the two-phase clock reset
/// aligns all dividers, Section V).
///
/// # Examples
///
/// ```
/// use uecgra_clock::{ClockSet, VfMode};
///
/// let clocks = ClockSet::default(); // the paper's 2-to-3-to-9
/// assert_eq!(clocks.divisor(VfMode::Sprint), 2);
/// assert_eq!(clocks.hyperperiod(), 18);
/// assert!(clocks.is_rising(VfMode::Nominal, 6));
/// assert!(!clocks.is_rising(VfMode::Rest, 6));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ClockSet {
    divisors: [u32; 3],
}

impl Default for ClockSet {
    /// The paper's published "2-to-3-to-9" design point.
    fn default() -> Self {
        ClockSet::new([9, 3, 2]).expect("default divisors are valid")
    }
}

impl ClockSet {
    /// Create a clock set from divisors `[rest, nominal, sprint]`.
    ///
    /// # Errors
    ///
    /// Returns an error if any divisor is zero or the ordering is not
    /// `rest ≥ nominal ≥ sprint` (rest must be the slowest clock).
    pub fn new(divisors: [u32; 3]) -> Result<ClockSet, RatioError> {
        if divisors.contains(&0) {
            return Err(RatioError::ZeroDivisor);
        }
        if !(divisors[0] >= divisors[1] && divisors[1] >= divisors[2]) {
            return Err(RatioError::Unordered(divisors));
        }
        Ok(ClockSet { divisors })
    }

    /// The PLL divisor of `mode`'s clock.
    pub fn divisor(&self, mode: VfMode) -> u32 {
        self.divisors[mode as usize]
    }

    /// Clock period of `mode` in PLL ticks.
    pub fn period(&self, mode: VfMode) -> u64 {
        u64::from(self.divisor(mode))
    }

    /// `f(a) / f(b)` as an exact ratio of divisors.
    pub fn frequency_ratio(&self, a: VfMode, b: VfMode) -> f64 {
        f64::from(self.divisor(b)) / f64::from(self.divisor(a))
    }

    /// Least common multiple of the three periods: the interval after
    /// which all edge relationships repeat.
    pub fn hyperperiod(&self) -> u64 {
        self.divisors
            .iter()
            .fold(1u64, |acc, &d| lcm(acc, u64::from(d)))
    }

    /// True if `mode`'s clock has a rising edge at PLL tick `t`.
    pub fn is_rising(&self, mode: VfMode, t: u64) -> bool {
        t.is_multiple_of(self.period(mode))
    }

    /// The first rising edge of `mode` strictly after PLL tick `t`.
    pub fn next_rising(&self, mode: VfMode, t: u64) -> u64 {
        let p = self.period(mode);
        (t / p + 1) * p
    }

    /// The most recent rising edge of `mode` at or before PLL tick `t`.
    pub fn last_rising(&self, mode: VfMode, t: u64) -> u64 {
        let p = self.period(mode);
        (t / p) * p
    }

    /// Number of rising edges of `mode` in the inclusive PLL-tick
    /// range `[0, through]`.
    ///
    /// Every divided clock has an edge at `t = 0` (the two-phase clock
    /// reset aligns all dividers), so the count is never zero. This is
    /// the closed form the event-driven fabric engine uses to account
    /// for clock-domain edges over a counted range without sweeping
    /// every tick.
    ///
    /// # Examples
    ///
    /// ```
    /// use uecgra_clock::{ClockSet, VfMode};
    /// let clocks = ClockSet::default();
    /// // Nominal (period 3) edges at 0, 3, 6 within [0, 7].
    /// assert_eq!(clocks.rising_edges_through(VfMode::Nominal, 7), 3);
    /// ```
    pub fn rising_edges_through(&self, mode: VfMode, through: u64) -> u64 {
        through / self.period(mode) + 1
    }

    /// Rising edges of `mode` within one hyperperiod.
    pub fn rising_edges(&self, mode: VfMode) -> Vec<u64> {
        (0..self.hyperperiod())
            .step_by(self.period(mode) as usize)
            .collect()
    }

    /// Nominal cycles elapsed in `t` PLL ticks.
    pub fn pll_to_nominal_cycles(&self, t: u64) -> f64 {
        t as f64 / self.period(VfMode::Nominal) as f64
    }
}

/// Errors from [`ClockSet::new`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RatioError {
    /// A divisor was zero.
    ZeroDivisor,
    /// Divisors were not ordered `rest ≥ nominal ≥ sprint`.
    Unordered([u32; 3]),
}

impl fmt::Display for RatioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RatioError::ZeroDivisor => write!(f, "clock divisor must be nonzero"),
            RatioError::Unordered(d) => {
                write!(f, "divisors {d:?} must satisfy rest >= nominal >= sprint")
            }
        }
    }
}

impl std::error::Error for RatioError {}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn lcm(a: u64, b: u64) -> u64 {
    a / gcd(a, b) * b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_2_3_9() {
        let c = ClockSet::default();
        assert_eq!(c.divisor(VfMode::Rest), 9);
        assert_eq!(c.divisor(VfMode::Nominal), 3);
        assert_eq!(c.divisor(VfMode::Sprint), 2);
        assert_eq!(c.hyperperiod(), 18);
    }

    #[test]
    fn frequency_ratios_match_paper() {
        let c = ClockSet::default();
        assert_eq!(c.frequency_ratio(VfMode::Sprint, VfMode::Nominal), 1.5);
        assert!((c.frequency_ratio(VfMode::Rest, VfMode::Nominal) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(VfMode::Sprint.speedup_over_nominal(&c), 1.5);
        assert_eq!(VfMode::Nominal.speedup_over_nominal(&c), 1.0);
    }

    #[test]
    fn rising_edge_schedule() {
        let c = ClockSet::default();
        assert_eq!(
            c.rising_edges(VfMode::Sprint),
            vec![0, 2, 4, 6, 8, 10, 12, 14, 16]
        );
        assert_eq!(c.rising_edges(VfMode::Nominal), vec![0, 3, 6, 9, 12, 15]);
        assert_eq!(c.rising_edges(VfMode::Rest), vec![0, 9]);
    }

    #[test]
    fn next_and_last_rising() {
        let c = ClockSet::default();
        assert_eq!(c.next_rising(VfMode::Nominal, 0), 3);
        assert_eq!(c.next_rising(VfMode::Nominal, 2), 3);
        assert_eq!(c.next_rising(VfMode::Nominal, 3), 6);
        assert_eq!(c.last_rising(VfMode::Nominal, 5), 3);
        assert_eq!(c.last_rising(VfMode::Nominal, 6), 6);
    }

    #[test]
    fn edge_counts_match_enumeration() {
        for divs in [[9, 3, 2], [8, 4, 2], [6, 3, 3], [12, 4, 3], [1, 1, 1]] {
            let c = ClockSet::new(divs).unwrap();
            for m in VfMode::ALL {
                for through in 0..60u64 {
                    let brute = (0..=through).filter(|&t| c.is_rising(m, t)).count() as u64;
                    assert_eq!(
                        c.rising_edges_through(m, through),
                        brute,
                        "{m} through {through} for {divs:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn rejects_bad_divisors() {
        assert_eq!(ClockSet::new([9, 3, 0]), Err(RatioError::ZeroDivisor));
        assert!(matches!(
            ClockSet::new([2, 3, 9]),
            Err(RatioError::Unordered(_))
        ));
    }

    #[test]
    fn all_edges_align_at_hyperperiod() {
        for divs in [[9, 3, 2], [8, 4, 2], [6, 3, 3], [12, 4, 3]] {
            let c = ClockSet::new(divs).unwrap();
            let h = c.hyperperiod();
            for m in VfMode::ALL {
                assert!(c.is_rising(m, 0));
                assert!(
                    c.is_rising(m, h),
                    "{m} must tick at hyperperiod for {divs:?}"
                );
            }
        }
    }

    #[test]
    fn nominal_cycle_conversion() {
        let c = ClockSet::default();
        assert_eq!(c.pll_to_nominal_cycles(18), 6.0);
        assert_eq!(c.pll_to_nominal_cycles(3), 1.0);
    }
}
