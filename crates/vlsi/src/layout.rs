//! Full-array floorplan model (paper Figure 12).
//!
//! The paper's 8×8 post-PnR layouts measure 463×463 µm (IE-CGRA),
//! 495×495 µm (E-CGRA), and 528×528 µm (UE-CGRA) at 750 MHz in
//! TSMC 28 nm. The model composes per-PE areas with an array-level
//! overhead for shared infrastructure — negligible for the inelastic
//! array, small for the elastic one, and substantial for the
//! ultra-elastic one, which carries three global clock networks and
//! the global clock dividers.

use crate::area::{pe_area, CgraKind};
use uecgra_clock::NOMINAL_CYCLE_NS;

/// Array-level infrastructure area in µm² (clock spines, dividers,
/// hierarchical gating cells).
pub fn global_overhead_um2(kind: CgraKind) -> f64 {
    match kind {
        CgraKind::Inelastic => 0.0,
        CgraKind::Elastic => 1200.0,
        CgraKind::UltraElastic => 28_500.0,
    }
}

/// Total array area in µm² for an `n_pes`-PE array at a cycle-time
/// target.
pub fn array_area_um2(kind: CgraKind, n_pes: usize, cycle_ns: f64) -> f64 {
    n_pes as f64 * pe_area(kind, cycle_ns) + global_overhead_um2(kind)
}

/// Edge length in µm of the (square) 8×8 layout at 750 MHz — the
/// Figure 12 numbers.
pub fn edge_um(kind: CgraKind) -> f64 {
    array_area_um2(kind, 64, NOMINAL_CYCLE_NS).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure12_edge_lengths() {
        let ie = edge_um(CgraKind::Inelastic);
        let e = edge_um(CgraKind::Elastic);
        let ue = edge_um(CgraKind::UltraElastic);
        assert!((ie - 463.0).abs() < 6.0, "IE edge {ie}");
        assert!((e - 495.0).abs() < 6.0, "E edge {e}");
        assert!((ue - 528.0).abs() < 6.0, "UE edge {ue}");
    }

    #[test]
    fn full_array_overhead_is_about_14_percent() {
        // Paper Section VII-B: UE-CGRA has ~14% area over the E-CGRA.
        let e = array_area_um2(CgraKind::Elastic, 64, NOMINAL_CYCLE_NS);
        let ue = array_area_um2(CgraKind::UltraElastic, 64, NOMINAL_CYCLE_NS);
        let ratio = ue / e;
        assert!((ratio - 1.14).abs() < 0.02, "UE/E = {ratio}");
    }

    #[test]
    fn overhead_ordering() {
        assert!(global_overhead_um2(CgraKind::Inelastic) < global_overhead_um2(CgraKind::Elastic));
        assert!(
            global_overhead_um2(CgraKind::Elastic) < global_overhead_um2(CgraKind::UltraElastic)
        );
    }

    #[test]
    fn area_scales_with_pe_count() {
        let half = array_area_um2(CgraKind::Elastic, 32, NOMINAL_CYCLE_NS);
        let full = array_area_um2(CgraKind::Elastic, 64, NOMINAL_CYCLE_NS);
        assert!(full > 1.9 * half && full < 2.0 * half);
    }
}
