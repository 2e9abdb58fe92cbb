//! Per-operation PE energy tables (paper Figure 11-left).
//!
//! Absolute per-firing energies in picojoules for the E-CGRA and
//! UE-CGRA PEs at the nominal 750 MHz / 0.90 V operating point,
//! calibrated to the paper's relationships: the relative energies
//! across operations follow the α table (Section II-C, validated
//! against gate-level power estimation), the UE-CGRA PE averages ~21%
//! more energy per op than the E-CGRA PE — almost entirely the three
//! clock networks entering the PE, with the suppression logic
//! contributing only ~1.3% — and SRAM-touching ops add the subbank
//! access energy ([`uecgra_dfg::ALPHA_SRAM`]). Each energy scales with
//! the PE's supply as [`VfMode::dynamic_scale`].

use crate::area::CgraKind;
use uecgra_clock::VfMode;
use uecgra_dfg::Op;

/// Energy of one nominal `mul` firing in the E-CGRA PE (pJ).
///
/// Calibrated so the full-array power split matches the paper's
/// Table I (PE logic roughly on par with total clock power for the
/// dither mapping); the per-op *relative* energies follow the α table.
pub const E_MUL_PJ: f64 = 2.1;

/// Per-op *datapath* energy multiplier of the UE-CGRA PE over the
/// E-CGRA PE: the clock switcher and suppression logic only. The
/// paper's full 21% per-op overhead (Figure 11) is dominated by the
/// three clock networks entering the PE, which the system-level
/// accounting carries in the clock-power model (`clock_power`) so it
/// is not double-counted here; [`figure11_bars`] re-adds it for the
/// per-PE view.
pub const UE_DATAPATH_OVERHEAD: f64 = 1.03;

/// The paper's Figure 11 view: total per-op energy overhead of the
/// UE-CGRA PE including its share of the three intra-PE clock
/// networks.
pub const UE_PE_VIEW_OVERHEAD: f64 = 1.21;

/// Fraction of the UE overhead attributable to the suppression logic
/// (`unsafe_gen` + `suppress` in Figure 11): ~1.3% of PE energy.
pub const SUPPRESSION_FRACTION: f64 = 0.013;

/// Energy of a rising clock edge on an idle (stalled) PE, relative to
/// a nominal mul. Elastic PEs clock-gate their registers when no
/// handshake completes, so a stalled edge costs very little beyond
/// the local clock stub (which the clock-power model carries).
pub const STALL_ALPHA: f64 = 0.012;

/// Energy in pJ of one `op` firing at `mode` in a `kind` PE, including
/// the SRAM subbank access for memory ops.
///
/// The inelastic PE is modeled like the elastic one minus the queue
/// handshake energy (≈ 6%); the paper never reports IE per-op bars,
/// only area, so this value is used for rough full-array estimates.
pub fn op_energy_pj(kind: CgraKind, op: Op, mode: VfMode) -> f64 {
    let base = match kind {
        CgraKind::Inelastic => 0.94,
        CgraKind::Elastic => 1.0,
        CgraKind::UltraElastic => UE_DATAPATH_OVERHEAD,
    };
    op.alpha_with_sram() * E_MUL_PJ * base * mode.dynamic_scale()
}

/// Energy in pJ of a stalled rising edge (clock toggle, no fire).
pub fn stall_energy_pj(kind: CgraKind, mode: VfMode) -> f64 {
    let base = match kind {
        CgraKind::Inelastic => 0.94,
        CgraKind::Elastic => 1.0,
        CgraKind::UltraElastic => UE_DATAPATH_OVERHEAD,
    };
    STALL_ALPHA * E_MUL_PJ * base * mode.dynamic_scale()
}

/// Energy in pJ of forwarding one bypass token (the `bps` bar).
pub fn bypass_energy_pj(kind: CgraKind, mode: VfMode) -> f64 {
    op_energy_pj(kind, Op::Nop, mode)
}

/// The Figure 11 bar chart: `(mnemonic, e_cgra_pj, ue_cgra_pj)` per
/// configurable operation at nominal VF.
pub fn figure11_bars() -> Vec<(&'static str, f64, f64)> {
    let clock_share = UE_PE_VIEW_OVERHEAD / UE_DATAPATH_OVERHEAD;
    let mut rows: Vec<(&'static str, f64, f64)> = uecgra_dfg::PE_OPS
        .iter()
        .filter(|op| !matches!(op, Op::Phi | Op::Br | Op::Cp1))
        .map(|&op| {
            (
                op.mnemonic(),
                op_energy_pj(CgraKind::Elastic, op, VfMode::Nominal),
                op_energy_pj(CgraKind::UltraElastic, op, VfMode::Nominal) * clock_share,
            )
        })
        .collect();
    rows.push((
        "stall",
        stall_energy_pj(CgraKind::Elastic, VfMode::Nominal),
        stall_energy_pj(CgraKind::UltraElastic, VfMode::Nominal),
    ));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure11_view_shows_21_percent_overhead() {
        // The per-PE view (with the intra-PE clock share) reproduces
        // the paper's 21% average overhead.
        for (name, e, ue) in figure11_bars() {
            if name == "stall" {
                continue;
            }
            assert!((ue / e - 1.21).abs() < 1e-9, "{name}: {}", ue / e);
        }
    }

    #[test]
    fn system_accounting_charges_only_datapath_overhead() {
        // The clock networks are carried by the clock-power model, so
        // per-op accounting adds only the switcher/suppressor slice.
        for op in [Op::Mul, Op::Add, Op::Xor, Op::Load] {
            let e = op_energy_pj(CgraKind::Elastic, op, VfMode::Nominal);
            let ue = op_energy_pj(CgraKind::UltraElastic, op, VfMode::Nominal);
            assert!((ue / e - 1.03).abs() < 1e-9, "{op}: {}", ue / e);
        }
    }

    #[test]
    fn suppression_share_is_small() {
        // 1.3% of total PE energy (paper Section VII-A): an order of
        // magnitude under the full 21% per-op overhead.
        let overhead = UE_PE_VIEW_OVERHEAD - 1.0;
        assert!(
            SUPPRESSION_FRACTION < overhead / 10.0,
            "suppression is a small part of the 21% overhead"
        );
    }

    #[test]
    fn memory_ops_are_the_most_expensive() {
        let bars = figure11_bars();
        let (max_name, max_e, _) = bars
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .expect("bars nonempty");
        assert!(
            *max_name == "load" || *max_name == "store",
            "{max_name} ({max_e} pJ) should not beat SRAM ops"
        );
    }

    #[test]
    fn bars_span_the_figure_range() {
        // Figure 11's y-axis: roughly 0–5 pJ.
        for (name, e, ue) in figure11_bars() {
            assert!(e > 0.0 && e < 5.0, "{name}: {e}");
            assert!(ue > e && ue < 5.6, "{name}: {ue}");
        }
        let stall = figure11_bars()
            .into_iter()
            .find(|(n, _, _)| *n == "stall")
            .unwrap();
        assert!(stall.1 < 0.1, "stalled edges are nearly free");
    }

    #[test]
    fn resting_cuts_energy_sprinting_raises_it() {
        let nom = op_energy_pj(CgraKind::UltraElastic, Op::Add, VfMode::Nominal);
        let rest = op_energy_pj(CgraKind::UltraElastic, Op::Add, VfMode::Rest);
        let sprint = op_energy_pj(CgraKind::UltraElastic, Op::Add, VfMode::Sprint);
        assert!(rest < 0.5 * nom);
        assert!(sprint > 1.8 * nom);
    }

    #[test]
    fn stalls_cost_much_less_than_fires() {
        let stall = stall_energy_pj(CgraKind::Elastic, VfMode::Nominal);
        let add = op_energy_pj(CgraKind::Elastic, Op::Add, VfMode::Nominal);
        assert!(stall < add / 2.0);
    }
}
