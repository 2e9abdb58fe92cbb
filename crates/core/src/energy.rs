//! RTL-level energy accounting for fabric runs.
//!
//! Mirrors the paper's methodology (Section VI-C): per-PE energies
//! come from activity counts (fires, bypass forwards, stalled edges)
//! priced with the gate-level-calibrated tables of `uecgra_vlsi`, each
//! scaled to the PE's configured voltage; the clock-network energy is
//! added from the hierarchical-gating clock-power model over the run's
//! wall-clock time. Power-gated PEs consume nothing.

use crate::pipeline::{CgraRun, Policy};
use uecgra_clock::VfMode;
use uecgra_vlsi::area::CgraKind;
use uecgra_vlsi::clock_power::{clock_power, ClockPowerParams, GatingConfig};
use uecgra_vlsi::energy::{bypass_energy_pj, op_energy_pj, stall_energy_pj};
use uecgra_vlsi::ClockPowerBreakdown;

/// Full energy accounting of one run (picojoules).
#[derive(Debug, Clone, PartialEq)]
pub struct CgraEnergy {
    /// Per-PE logic energy (fires + bypasses + stalls), `[row][col]`.
    pub pe_logic_pj: Vec<Vec<f64>>,
    /// Clock power breakdown (mW) under the configured gating.
    pub clock: ClockPowerBreakdown,
    /// Clock + idle energy over the whole run.
    pub clock_pj: f64,
    /// Run wall-clock (ns).
    pub runtime_ns: f64,
    /// Iterations completed.
    pub iterations: u64,
}

impl CgraEnergy {
    /// Total energy (pJ).
    pub fn total_pj(&self) -> f64 {
        self.pe_logic_pj.iter().flatten().sum::<f64>() + self.clock_pj
    }

    /// Energy per iteration (pJ).
    ///
    /// # Panics
    ///
    /// Panics when the run completed zero iterations.
    pub fn per_iteration_pj(&self) -> f64 {
        assert!(self.iterations > 0, "no iterations to amortize over");
        self.total_pj() / self.iterations as f64
    }

    /// Average total power over the run (mW).
    pub fn average_power_mw(&self) -> f64 {
        self.total_pj() / self.runtime_ns
    }
}

/// The CGRA family a policy executes on.
pub fn kind_of(policy: Policy) -> CgraKind {
    match policy {
        Policy::ECgra => CgraKind::Elastic,
        _ => CgraKind::UltraElastic,
    }
}

/// Account the energy of a finished run under the given gating.
#[allow(clippy::needless_range_loop)] // (x, y) grid indexing reads clearer
pub fn cgra_energy(run: &CgraRun, gating: GatingConfig) -> CgraEnergy {
    use uecgra_compiler::bitstream::PeRole;
    let kind = kind_of(run.policy);
    let act = &run.activity;
    let h = run.bitstream.grid.len();
    let w = run.bitstream.grid.first().map_or(0, |r| r.len());

    let mut pe_logic_pj = vec![vec![0.0; w]; h];
    for y in 0..h {
        for x in 0..w {
            let cfg = &run.bitstream.grid[y][x];
            let mode = cfg.clk;
            match cfg.role {
                PeRole::Gated => {}
                PeRole::RouteOnly => {
                    pe_logic_pj[y][x] = act.bypass_tokens[y][x] as f64
                        * bypass_energy_pj(kind, mode)
                        + act.stall_edges(y, x) as f64 * stall_energy_pj(kind, mode);
                }
                PeRole::Compute(op) => {
                    pe_logic_pj[y][x] = act.fires[y][x] as f64 * op_energy_pj(kind, op, mode)
                        + act.bypass_tokens[y][x] as f64 * bypass_energy_pj(kind, mode)
                        + act.stall_edges(y, x) as f64 * stall_energy_pj(kind, mode);
                }
            }
        }
    }

    let clock = clock_power(
        kind,
        &ClockPowerParams::default(),
        &act.clocks,
        &run.bitstream.clock_grid(),
        gating,
    );
    let runtime_ns = run.runtime_ns();
    let clock_pj = (clock.total_clock_mw() + clock.idle_logic_mw + clock.leakage_mw) * runtime_ns;

    CgraEnergy {
        pe_logic_pj,
        clock,
        clock_pj,
        runtime_ns,
        iterations: act.iterations(),
    }
}

/// Analytic global-VF scaling of an E-CGRA run (the blue curves of
/// Figure 13): running the whole fabric at voltage `v` and frequency
/// multiplier `f` leaves the cycle count unchanged, stretches time by
/// `1/f`, and rescales dynamic energy by `(v/VN)²`.
///
/// Returns `(relative_performance, relative_efficiency)` versus the
/// same run at nominal.
pub fn global_scale_point(run: &CgraRun, gating: GatingConfig, v: f64, f: f64) -> (f64, f64) {
    let base = cgra_energy(run, gating);
    let dyn_pj: f64 = base.pe_logic_pj.iter().flatten().sum();
    let vn = VfMode::Nominal.voltage();
    let scaled_dyn = dyn_pj * (v / vn) * (v / vn);
    // Clock power scales like dynamic power (f × V²); over 1/f longer
    // runtime the energy scales by (V/VN)² only. Idle/static parts
    // scale with V and stretch with 1/f; fold them together with the
    // clock term for this first-order curve.
    let scaled_clock = base.clock_pj * (v / vn) * (v / vn);
    let perf = f;
    let eff = base.total_pj() / (scaled_dyn + scaled_clock);
    (perf, eff)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::RunRequest;
    use uecgra_dfg::kernels;

    fn dither_run(policy: Policy) -> CgraRun {
        let k = kernels::dither::build_with_pixels(60);
        RunRequest::new(&k).policy(policy).seed(7).run().unwrap()
    }

    #[test]
    fn energy_is_positive_and_finite() {
        let run = dither_run(Policy::ECgra);
        let e = cgra_energy(&run, GatingConfig::FULL);
        assert!(e.total_pj() > 0.0);
        assert!(e.per_iteration_pj() > 1.0);
        assert!(e.average_power_mw() > 0.0 && e.average_power_mw() < 50.0);
    }

    #[test]
    fn gating_strictly_reduces_energy() {
        let run = dither_run(Policy::UePerfOpt);
        let none = cgra_energy(&run, GatingConfig::NONE).total_pj();
        let p = cgra_energy(&run, GatingConfig::POWER_ONLY).total_pj();
        let full = cgra_energy(&run, GatingConfig::FULL).total_pj();
        assert!(none > p && p > full, "{none} > {p} > {full} violated");
    }

    #[test]
    fn eopt_beats_ecgra_efficiency() {
        // The heart of Table II's EOpt column.
        let e = cgra_energy(&dither_run(Policy::ECgra), GatingConfig::FULL);
        let eo = cgra_energy(&dither_run(Policy::UeEnergyOpt), GatingConfig::FULL);
        let gain = e.per_iteration_pj() / eo.per_iteration_pj();
        assert!(gain > 1.0, "EOpt efficiency gain {gain}");
    }

    #[test]
    fn gated_pes_consume_nothing() {
        let run = dither_run(Policy::ECgra);
        let e = cgra_energy(&run, GatingConfig::FULL);
        use uecgra_compiler::bitstream::PeRole;
        for (y, row) in run.bitstream.grid.iter().enumerate() {
            for (x, cfg) in row.iter().enumerate() {
                if cfg.role == PeRole::Gated {
                    assert_eq!(e.pe_logic_pj[y][x], 0.0);
                }
            }
        }
    }

    /// A 2x3 fabric whose bypass destinations never drain: X = (1, 0)
    /// adds 1 to phi A's stream while its bypass slot (South -> West,
    /// into A's unread East queue) is refused, and the route-only
    /// Y = (1, 1) has both slots refused (West -> North into X's full
    /// South queue, East -> West into phi C's unread East queue).
    fn refused_bypass_run() -> CgraRun {
        use uecgra_compiler::bitstream::{Bitstream, Bypass, Dir, OperandSel, PeConfig, PeRole};
        use uecgra_dfg::Op;
        use uecgra_rtl::{Fabric, FabricConfig};
        let mask = |d: Dir| {
            let mut m = [false; 4];
            m[d as usize] = true;
            m
        };
        let phi = |out: Dir| PeConfig {
            role: PeRole::Compute(Op::Phi),
            operands: [OperandSel::Reg, OperandSel::None],
            alu_true_mask: mask(out),
            reg_write: true,
            init: Some(1),
            ..PeConfig::default()
        };
        let bypass = |src: Dir, dst: Dir| {
            Some(Bypass {
                src,
                dst_mask: mask(dst),
            })
        };
        let x = PeConfig {
            role: PeRole::Compute(Op::Add),
            operands: [OperandSel::Queue(Dir::West), OperandSel::Const],
            constant: Some(1),
            alu_true_mask: mask(Dir::East),
            bypass: [bypass(Dir::South, Dir::West), None],
            ..PeConfig::default()
        };
        let sink = PeConfig {
            role: PeRole::Compute(Op::Nop),
            operands: [OperandSel::Queue(Dir::West), OperandSel::None],
            ..PeConfig::default()
        };
        let y = PeConfig {
            role: PeRole::RouteOnly,
            bypass: [bypass(Dir::West, Dir::North), bypass(Dir::East, Dir::West)],
            ..PeConfig::default()
        };
        let bitstream = Bitstream {
            grid: vec![
                vec![phi(Dir::East), x, sink],
                vec![phi(Dir::East), y, phi(Dir::West)],
            ],
        };
        let config = FabricConfig {
            marker: Some((1, 0)),
            max_marker_fires: Some(50),
            ..FabricConfig::default()
        };
        let activity = Fabric::new(&bitstream, vec![], config).run();
        // Only the bitstream and the activity are priced.
        CgraRun {
            bitstream,
            activity,
            ..dither_run(Policy::ECgra)
        }
    }

    #[test]
    fn stall_energy_is_paid_once_per_stalled_edge() {
        let run = refused_bypass_run();
        let act = &run.activity;
        let e = cgra_energy(&run, GatingConfig::FULL);
        let kind = kind_of(run.policy);
        let stall_pj = stall_energy_pj(kind, VfMode::Nominal);
        let bypass_pj = bypass_energy_pj(kind, VfMode::Nominal);
        // X forwarded two tokens before A's East queue filled, then
        // fired with its bypass refused: those edges cost no stall.
        assert_eq!((act.fires[0][1], act.bypass_tokens[0][1]), (50, 2));
        let x_stall = e.pe_logic_pj[0][1]
            - 50.0 * op_energy_pj(kind, uecgra_dfg::Op::Add, VfMode::Nominal)
            - 2.0 * bypass_pj;
        let x_stalled = act.rising_edges[0][1] - act.fire_edges[0][1];
        assert!(
            x_stalled < 10,
            "X fires almost every edge: {x_stalled} stalls"
        );
        assert!(
            (x_stall - x_stalled as f64 * stall_pj).abs() < 1e-6,
            "{x_stall}"
        );
        // Y has both slots refused on most edges; each costs one stall.
        let y_stall = e.pe_logic_pj[1][1] - act.bypass_tokens[1][1] as f64 * bypass_pj;
        let y_edges = act.rising_edges[1][1];
        assert!(act.backpressure_stalls[1][1] * 2 > y_edges, "{act:?}");
        assert!((y_stall - act.stall_edges(1, 1) as f64 * stall_pj).abs() < 1e-6);
        assert!(y_stall <= y_edges as f64 * stall_pj, "{y_stall}");
    }

    #[test]
    fn global_scaling_trades_axes() {
        let run = dither_run(Policy::ECgra);
        // Full-fabric rest: slower but more efficient.
        let (perf_r, eff_r) = global_scale_point(&run, GatingConfig::FULL, 0.61, 1.0 / 3.0);
        assert!(perf_r < 0.5 && eff_r > 1.5, "rest: {perf_r}, {eff_r}");
        // Full-fabric sprint: faster but less efficient.
        let (perf_s, eff_s) = global_scale_point(&run, GatingConfig::FULL, 1.23, 1.5);
        assert!(perf_s == 1.5 && eff_s < 0.8, "sprint: {perf_s}, {eff_s}");
        // Nominal is the identity.
        let (p1, e1) = global_scale_point(&run, GatingConfig::FULL, 0.90, 1.0);
        assert!((p1 - 1.0).abs() < 1e-12 && (e1 - 1.0).abs() < 1e-9);
    }
}
