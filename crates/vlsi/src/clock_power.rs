//! Clock-network power with hierarchical gating (paper Section V,
//! Table I).
//!
//! The UE-CGRA distributes three divided clocks (rest, nominal,
//! sprint) across the array. Ungated, the clock network accounts for
//! about half of total power; the paper recovers this with two
//! mechanisms that this model reproduces:
//!
//! * **P** — power gating unused PEs, which also removes their local
//!   clock load;
//! * **H** — hierarchical clock-network gating: PEs are clustered
//!   (4×4) and each cluster's slice of each global network is gated by
//!   a configuration bit, so a network toggles only in clusters that
//!   actually select it — and an entirely unselected network is gated
//!   wholesale.

use crate::area::CgraKind;
use uecgra_clock::{ClockSet, VfMode};

/// Calibrated clock/idle power constants (TSMC 28 nm, 750 MHz).
#[derive(Debug, Clone, PartialEq)]
pub struct ClockPowerParams {
    /// Local (intra-PE) clock power per clocked PE at nominal (mW).
    pub pe_clock_mw_nominal: f64,
    /// UE PE local-clock overhead (clock switcher + three clock stubs).
    pub ue_pe_clock_factor: f64,
    /// Full-tree global network power per network at its own frequency
    /// for the UE-CGRA, indexed by [`VfMode`] (mW).
    pub ue_global_net_mw: [f64; 3],
    /// Full-tree global network power of the E-CGRA's single nominal
    /// network (mW).
    pub e_global_net_mw: f64,
    /// Cluster edge for hierarchical gating (PEs).
    pub cluster: usize,
    /// Ungated idle-PE logic power (leakage + clock-induced, mW).
    pub idle_logic_mw: f64,
    /// Leakage power of an active (non-power-gated) PE at nominal
    /// voltage (mW); scales linearly with the supply.
    pub active_leak_mw: f64,
}

impl Default for ClockPowerParams {
    /// Calibrated to the paper's Table I.
    fn default() -> Self {
        ClockPowerParams {
            pe_clock_mw_nominal: 1.70 / 64.0,
            ue_pe_clock_factor: 1.10,
            ue_global_net_mw: [0.12, 0.36, 0.54],
            e_global_net_mw: 0.24,
            cluster: 4,
            idle_logic_mw: 0.72 / 44.0,
            active_leak_mw: 0.045,
        }
    }
}

/// Which gating mechanisms are enabled (the three rows per CGRA in
/// Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatingConfig {
    /// Power-gate unused PEs (removes their logic and local clock).
    pub power_gate: bool,
    /// Hierarchical global-clock-network gating.
    pub hierarchical: bool,
}

impl GatingConfig {
    /// No gating at all (Table I "w/o P+H").
    pub const NONE: GatingConfig = GatingConfig {
        power_gate: false,
        hierarchical: false,
    };
    /// Power gating only ("w/o H").
    pub const POWER_ONLY: GatingConfig = GatingConfig {
        power_gate: true,
        hierarchical: false,
    };
    /// Both mechanisms (the fully-optimized rows).
    pub const FULL: GatingConfig = GatingConfig {
        power_gate: true,
        hierarchical: true,
    };
}

/// Clock-power breakdown of one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ClockPowerBreakdown {
    /// Local PE clock power (mW).
    pub pe_clock_mw: f64,
    /// Global network power per network, indexed by [`VfMode`]
    /// (E-CGRA uses only the nominal slot).
    pub global_mw: [f64; 3],
    /// Logic power of idle-but-ungated PEs (mW); zero under P.
    pub idle_logic_mw: f64,
    /// Leakage power of active PEs (mW).
    pub leakage_mw: f64,
}

impl ClockPowerBreakdown {
    /// Total clock power (local + all global networks).
    pub fn total_clock_mw(&self) -> f64 {
        self.pe_clock_mw + self.global_mw.iter().sum::<f64>()
    }
}

/// Compute the clock-power breakdown for a per-PE clock-selection grid
/// (`None` = unused PE) on the clock plan `clocks`.
///
/// Local clock power scales with frequency only,
/// `clocks.frequency_ratio(m, Nominal)`: like the global networks, the
/// clock distribution is powered from the always-on nominal rail (the
/// paper's methodology scales logic to each PE's voltage but adds clock
/// energy "which is not voltage-scaled"), so under the 9:3:2 plan a
/// rested PE's clock burns 1/3 the power and a sprinting PE's 1.5×.
/// Active-PE leakage scales with [`VfMode::static_scale`].
#[allow(clippy::needless_range_loop)] // (x, y) grid indexing reads clearer
pub fn clock_power(
    kind: CgraKind,
    params: &ClockPowerParams,
    clocks: &ClockSet,
    clock_grid: &[Vec<Option<VfMode>>],
    gating: GatingConfig,
) -> ClockPowerBreakdown {
    let height = clock_grid.len();
    let width = clock_grid.first().map_or(0, |r| r.len());
    let pe_factor = if kind == CgraKind::UltraElastic {
        params.ue_pe_clock_factor
    } else {
        1.0
    };

    // Local PE clock power (f · V² per PE) and active-PE leakage (V).
    let mut pe_clock_mw = 0.0;
    let mut leakage_mw = 0.0;
    let mut idle = 0usize;
    for row in clock_grid {
        for &sel in row {
            match sel {
                Some(m) => {
                    let scale = clocks.frequency_ratio(m, VfMode::Nominal);
                    pe_clock_mw += params.pe_clock_mw_nominal * scale * pe_factor;
                    leakage_mw += params.active_leak_mw * m.static_scale();
                }
                None if !gating.power_gate => {
                    // Ungated unused PEs park on the nominal clock.
                    pe_clock_mw += params.pe_clock_mw_nominal * pe_factor;
                    leakage_mw += params.active_leak_mw;
                    idle += 1;
                }
                None => {}
            }
        }
    }

    // Global network power: fraction of clusters in which each network
    // toggles.
    let cl = params.cluster.max(1);
    let tiles_y = height.div_ceil(cl);
    let tiles_x = width.div_ceil(cl);
    let total_tiles = (tiles_x * tiles_y).max(1);
    let mut used_tiles = [0usize; 3];
    for ty in 0..tiles_y {
        for tx in 0..tiles_x {
            let mut seen = [false; 3];
            for y in (ty * cl)..((ty + 1) * cl).min(height) {
                for x in (tx * cl)..((tx + 1) * cl).min(width) {
                    match clock_grid[y][x] {
                        Some(m) => seen[m as usize] = true,
                        None if !gating.power_gate => seen[VfMode::Nominal as usize] = true,
                        None => {}
                    }
                }
            }
            for m in 0..3 {
                used_tiles[m] += seen[m] as usize;
            }
        }
    }

    let mut global_mw = [0.0; 3];
    match kind {
        CgraKind::UltraElastic => {
            for m in 0..3 {
                let fraction = if gating.hierarchical {
                    used_tiles[m] as f64 / total_tiles as f64
                } else {
                    1.0
                };
                global_mw[m] = params.ue_global_net_mw[m] * fraction;
            }
        }
        _ => {
            let fraction = if gating.hierarchical {
                used_tiles[VfMode::Nominal as usize] as f64 / total_tiles as f64
            } else {
                1.0
            };
            global_mw[VfMode::Nominal as usize] = params.e_global_net_mw * fraction;
        }
    }

    ClockPowerBreakdown {
        pe_clock_mw,
        global_mw,
        idle_logic_mw: if gating.power_gate {
            0.0
        } else {
            idle as f64 * params.idle_logic_mw
        },
        leakage_mw,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_all(mode: Option<VfMode>) -> Vec<Vec<Option<VfMode>>> {
        vec![vec![mode; 8]; 8]
    }

    fn sparse_grid() -> Vec<Vec<Option<VfMode>>> {
        // ~16 active PEs in the top-left cluster plus a sprint pocket.
        let mut g = grid_all(None);
        for row in &mut g[..4] {
            row[..4].fill(Some(VfMode::Nominal));
        }
        g[5][5] = Some(VfMode::Sprint);
        g[5][6] = Some(VfMode::Sprint);
        g
    }

    #[test]
    fn ungated_ecgra_matches_table1_row1() {
        // 64 PEs clocked at nominal: 1.70 mW local + 0.24 mW global.
        let b = clock_power(
            CgraKind::Elastic,
            &ClockPowerParams::default(),
            &ClockSet::default(),
            &grid_all(None),
            GatingConfig::NONE,
        );
        assert!((b.pe_clock_mw - 1.70).abs() < 0.01);
        assert!((b.global_mw[VfMode::Nominal as usize] - 0.24).abs() < 1e-9);
        assert!((b.total_clock_mw() - 1.94).abs() < 0.01);
    }

    #[test]
    fn ue_global_is_about_4x_e_global_ungated() {
        // Paper: "both UE-CGRAs have global clock power about 4x that
        // of the E-CGRA" before gating.
        let p = ClockPowerParams::default();
        let ue: f64 = p.ue_global_net_mw.iter().sum();
        assert!((ue / p.e_global_net_mw - 4.25).abs() < 0.1);
    }

    #[test]
    fn power_gating_cuts_local_clock_and_idle_logic() {
        let p = ClockPowerParams::default();
        let g = sparse_grid();
        let none = clock_power(
            CgraKind::Elastic,
            &p,
            &ClockSet::default(),
            &g,
            GatingConfig::NONE,
        );
        let pg = clock_power(
            CgraKind::Elastic,
            &p,
            &ClockSet::default(),
            &g,
            GatingConfig::POWER_ONLY,
        );
        assert!(pg.pe_clock_mw < none.pe_clock_mw / 2.0);
        assert!(none.idle_logic_mw > 0.0);
        assert_eq!(pg.idle_logic_mw, 0.0);
    }

    #[test]
    fn hierarchical_gating_prunes_unused_clusters() {
        let p = ClockPowerParams::default();
        let g = sparse_grid();
        let pg = clock_power(
            CgraKind::UltraElastic,
            &p,
            &ClockSet::default(),
            &g,
            GatingConfig::POWER_ONLY,
        );
        let full = clock_power(
            CgraKind::UltraElastic,
            &p,
            &ClockSet::default(),
            &g,
            GatingConfig::FULL,
        );
        // Without H all three networks are fully powered.
        assert_eq!(pg.global_mw, p.ue_global_net_mw);
        // With H the rest network (unused) is gated entirely, the
        // nominal network toggles in one of four clusters, the sprint
        // network in one.
        assert_eq!(full.global_mw[VfMode::Rest as usize], 0.0);
        assert!((full.global_mw[VfMode::Nominal as usize] - 0.36 / 4.0).abs() < 1e-9);
        assert!((full.global_mw[VfMode::Sprint as usize] - 0.54 / 4.0).abs() < 1e-9);
        assert!(full.total_clock_mw() < pg.total_clock_mw());
    }

    #[test]
    fn successive_gating_monotonically_reduces_power() {
        // The structure of Table I: each added mechanism reduces total
        // clock power.
        let p = ClockPowerParams::default();
        let g = sparse_grid();
        for kind in [CgraKind::Elastic, CgraKind::UltraElastic] {
            let a = clock_power(kind, &p, &ClockSet::default(), &g, GatingConfig::NONE)
                .total_clock_mw();
            let b = clock_power(kind, &p, &ClockSet::default(), &g, GatingConfig::POWER_ONLY)
                .total_clock_mw();
            let c = clock_power(kind, &p, &ClockSet::default(), &g, GatingConfig::FULL)
                .total_clock_mw();
            assert!(a > b && b > c, "{kind:?}: {a} > {b} > {c} violated");
        }
    }

    #[test]
    fn compiler_knowledge_gates_whole_networks() {
        // An all-nominal UE mapping can gate the sprint and rest trees
        // completely (the paper's "if no PEs use the sprint clock then
        // that entire network can be gated").
        let p = ClockPowerParams::default();
        let g = grid_all(Some(VfMode::Nominal));
        let b = clock_power(
            CgraKind::UltraElastic,
            &p,
            &ClockSet::default(),
            &g,
            GatingConfig::FULL,
        );
        assert_eq!(b.global_mw[VfMode::Sprint as usize], 0.0);
        assert_eq!(b.global_mw[VfMode::Rest as usize], 0.0);
        assert!(b.global_mw[VfMode::Nominal as usize] > 0.0);
    }
}
