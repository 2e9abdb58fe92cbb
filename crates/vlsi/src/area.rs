//! PE area models (paper Figures 10 and 11-right).
//!
//! Component-level post-PnR area for the three PE variants in
//! TSMC 28 nm, calibrated to the paper's published relationships: at
//! the 750 MHz target (1.33 ns) the E-CGRA PE carries ~14% and the
//! UE-CGRA PE ~17% area overhead over the inelastic PE, with the
//! UE-specific suppression logic being a very small slice. Area grows
//! toward aggressive cycle-time targets as synthesis upsizes gates.

use std::collections::BTreeMap;
use uecgra_clock::NOMINAL_CYCLE_NS;

/// The three CGRA families compared throughout the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CgraKind {
    /// Traditional inelastic (statically scheduled) CGRA.
    Inelastic,
    /// Elastic CGRA (latency-insensitive interconnect).
    Elastic,
    /// Ultra-elastic CGRA (elastic + per-PE DVFS).
    UltraElastic,
}

impl CgraKind {
    /// All three, in the paper's comparison order.
    pub const ALL: [CgraKind; 3] = [
        CgraKind::Inelastic,
        CgraKind::Elastic,
        CgraKind::UltraElastic,
    ];

    /// Short label used in tables.
    pub fn label(self) -> &'static str {
        match self {
            CgraKind::Inelastic => "IE-CGRA",
            CgraKind::Elastic => "E-CGRA",
            CgraKind::UltraElastic => "UE-CGRA",
        }
    }
}

/// Component areas of one PE in µm² at the reference cycle time.
///
/// Shared components appear in every variant; the elastic variants
/// replace the inelastic pipeline registers with four two-entry
/// queues; the ultra-elastic variant adds the clock switcher and the
/// unsafe-edge suppression logic.
pub fn component_areas(kind: CgraKind) -> BTreeMap<&'static str, f64> {
    let mut parts = BTreeMap::from([
        ("mul", 830.0),
        ("alu", 360.0),
        ("muxes", 540.0),
        ("acc_reg", 130.0),
        ("other", 1060.0),
    ]);
    match kind {
        CgraKind::Inelastic => {
            parts.insert("pipeline_regs", 430.0);
        }
        CgraKind::Elastic => {
            for q in ["q_n", "q_e", "q_s", "q_w"] {
                parts.insert(q, 230.0);
            }
        }
        CgraKind::UltraElastic => {
            for q in ["q_n", "q_e", "q_s", "q_w"] {
                parts.insert(q, 230.0);
            }
            parts.insert("clk_switcher", 55.0);
            parts.insert("suppress", 20.0);
            parts.insert("unsafe_gen", 25.0);
        }
    }
    parts
}

/// Total PE area in µm² at the reference cycle time.
pub fn pe_area_reference(kind: CgraKind) -> f64 {
    component_areas(kind).values().sum()
}

/// Area multiplier versus the reference cycle time: synthesis upsizes
/// cells toward aggressive clocks and relaxes them for slower ones
/// (the Figure 10 sweep shape).
pub fn cycle_time_scale(cycle_ns: f64) -> f64 {
    assert!(cycle_ns > 0.5, "target beyond technology reach");
    if cycle_ns <= NOMINAL_CYCLE_NS {
        1.0 + 0.65 * (NOMINAL_CYCLE_NS / cycle_ns - 1.0)
    } else {
        1.0 / (1.0 + 0.12 * (cycle_ns / NOMINAL_CYCLE_NS - 1.0))
    }
}

/// PE area in µm² at an arbitrary cycle-time target (Figure 10).
pub fn pe_area(kind: CgraKind, cycle_ns: f64) -> f64 {
    pe_area_reference(kind) * cycle_time_scale(cycle_ns)
}

/// The cycle-time sweep points of Figure 10 (ns).
pub const FIG10_CYCLE_TIMES: [f64; 8] = [1.0, 1.11, 1.18, 1.25, 1.33, 1.43, 1.53, 1.67];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elastic_overhead_is_about_14_percent() {
        let ie = pe_area_reference(CgraKind::Inelastic);
        let e = pe_area_reference(CgraKind::Elastic);
        let ratio = e / ie;
        assert!((ratio - 1.14).abs() < 0.02, "E/IE = {ratio}");
    }

    #[test]
    fn ultra_elastic_overhead_is_about_17_percent() {
        let ie = pe_area_reference(CgraKind::Inelastic);
        let ue = pe_area_reference(CgraKind::UltraElastic);
        let ratio = ue / ie;
        assert!((ratio - 1.17).abs() < 0.02, "UE/IE = {ratio}");
    }

    #[test]
    fn ue_specific_logic_is_tiny() {
        // Paper: "The area for UE-CGRA-specific logic (e.g., unsafe
        // crossing suppression) is very small."
        let parts = component_areas(CgraKind::UltraElastic);
        let ue_specific = parts["suppress"] + parts["unsafe_gen"] + parts["clk_switcher"];
        let total = pe_area_reference(CgraKind::UltraElastic);
        assert!(ue_specific / total < 0.03, "{}", ue_specific / total);
    }

    #[test]
    fn area_grows_toward_aggressive_clocks() {
        for kind in CgraKind::ALL {
            let mut prev = f64::MAX;
            for &t in &FIG10_CYCLE_TIMES {
                let a = pe_area(kind, t);
                assert!(a < prev, "{kind:?}: area must fall as cycle time relaxes");
                prev = a;
            }
        }
    }

    #[test]
    fn fig10_range_is_plausible() {
        // The figure's y-axis spans roughly 3300–5000 µm².
        for kind in CgraKind::ALL {
            for &t in &FIG10_CYCLE_TIMES {
                let a = pe_area(kind, t);
                assert!(a > 2800.0 && a < 5400.0, "{kind:?}@{t}: {a}");
            }
        }
    }

    #[test]
    fn queues_dominate_the_elastic_overhead() {
        let parts = component_areas(CgraKind::Elastic);
        let queues: f64 = ["q_n", "q_e", "q_s", "q_w"].iter().map(|q| parts[*q]).sum();
        let ie_regs = component_areas(CgraKind::Inelastic)["pipeline_regs"];
        assert!(queues > ie_regs, "elastic queues outweigh plain registers");
    }

    #[test]
    #[should_panic(expected = "beyond technology reach")]
    fn absurd_cycle_target_panics() {
        pe_area(CgraKind::Elastic, 0.2);
    }
}
