//! Model constants (paper Section II-C).
//!
//! The analytical model prices energy with three tables that live with
//! what they describe: the per-mode supply voltages and clock plan in
//! [`uecgra_clock`] ([`VfMode::voltage`](uecgra_clock::VfMode::voltage),
//! [`ClockSet`](uecgra_clock::ClockSet)), the per-op alphas and
//! `α_sram = 0.82` in [`uecgra_dfg::Op`]. This module adds the two
//! leakage constants of the published TSMC 28 nm design point:
//!
//! * leakage fraction `γ = 0.1` ([`GAMMA`]);
//! * SRAM-bank leakage multiplier `β = 2.0` ([`BETA`]).

/// Target leakage fraction of an active PE's total power (γ).
pub const GAMMA: f64 = 0.1;

/// SRAM-bank leakage as a multiple of PE leakage (β).
pub const BETA: f64 = 2.0;

/// PE leakage power at nominal voltage, in normalized power units
/// where a `mul` firing every nominal cycle dissipates `α_mul = 1`
/// unit. Derived from the paper's γ definition:
/// `γ = P_leak / (α_mul · fN · VN² + P_leak)` with the dynamic term
/// normalized to 1.
pub fn pe_leak_power_nominal() -> f64 {
    GAMMA / (1.0 - GAMMA)
}

/// SRAM-subbank leakage power at nominal voltage (normalized, = β ×
/// PE leakage).
pub fn sram_leak_power_nominal() -> f64 {
    BETA * pe_leak_power_nominal()
}

#[cfg(test)]
mod tests {
    use super::*;
    use uecgra_clock::{ClockSet, VfMode, NOMINAL_MHZ};

    #[test]
    fn fit_passes_through_anchor_points() {
        // The three SPICE anchor points of Section V, as the model reads
        // them: each mode's voltage and its frequency on the model's plan.
        let c = crate::SimConfig::default().clocks;
        let anchors = [
            (VfMode::Rest, 0.61, 250.0),
            (VfMode::Nominal, 0.90, 750.0),
            (VfMode::Sprint, 1.23, 1125.0),
        ];
        for (mode, volts, mhz) in anchors {
            assert_eq!(mode.voltage(), volts, "{mode}");
            let f = NOMINAL_MHZ * mode.speedup_over_nominal(&c);
            assert!((f - mhz).abs() < 1e-9, "{mode}: {f} MHz");
        }
    }

    #[test]
    fn fitted_frequencies_match_quantized_ratios() {
        // The quantization step of Section V: the adjusted voltages run at
        // exactly the multipliers the 2:3:9 divisors imply.
        let c = crate::SimConfig::default().clocks;
        assert_eq!(c, ClockSet::default());
        for mode in VfMode::ALL {
            let implied = f64::from(c.divisor(VfMode::Nominal)) / f64::from(c.divisor(mode));
            assert!(
                (mode.speedup_over_nominal(&c) - implied).abs() < 1e-12,
                "{mode}: plan {} vs divisors {implied}",
                mode.speedup_over_nominal(&c)
            );
        }
        // Faster modes need strictly higher voltage.
        assert!(VfMode::Rest.voltage() < VfMode::Nominal.voltage());
        assert!(VfMode::Nominal.voltage() < VfMode::Sprint.voltage());
    }

    #[test]
    fn quantized_multipliers() {
        // The model simulates on the default 9:3:2 plan.
        let c = crate::SimConfig::default().clocks;
        assert!((VfMode::Rest.speedup_over_nominal(&c) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(VfMode::Nominal.speedup_over_nominal(&c), 1.0);
        assert_eq!(VfMode::Sprint.speedup_over_nominal(&c), 1.5);
    }

    #[test]
    fn energy_scales() {
        assert_eq!(VfMode::Nominal.dynamic_scale(), 1.0);
        // (1.23/0.90)² ≈ 1.868: sprinting costs ~87% more energy/op.
        assert!((VfMode::Sprint.dynamic_scale() - 1.868).abs() < 1e-3);
        // (0.61/0.90)² ≈ 0.459: resting halves energy/op.
        assert!((VfMode::Rest.dynamic_scale() - 0.459).abs() < 1e-3);
        assert!(VfMode::Rest.static_scale() < 1.0);
    }

    #[test]
    fn leakage_budget_matches_gamma() {
        let leak = pe_leak_power_nominal();
        // P_leak / (P_dyn + P_leak) with P_dyn = 1 must equal gamma.
        let frac = leak / (1.0 + leak);
        assert!((frac - GAMMA).abs() < 1e-12);
        assert_eq!(sram_leak_power_nominal(), 2.0 * leak);
    }

    #[test]
    fn rest_gives_large_power_reduction() {
        // Paper Section IV-D: resting to 0.61 V yields roughly 3× slower
        // frequency and ~7× dynamic power reduction (f × V² ≈ 6.5×).
        let f = VfMode::Rest.speedup_over_nominal(&ClockSet::default());
        let power_ratio = f * VfMode::Rest.dynamic_scale();
        assert!(power_ratio < 1.0 / 6.0, "got {power_ratio}");
    }
}
