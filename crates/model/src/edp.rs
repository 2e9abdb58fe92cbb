//! Energy-delay estimation — the `MeasureEnergyDelay()` primitive of
//! the compiler's power-mapping pass (paper Figure 5).
//!
//! An [`EnergyDelayEstimator`] wraps one DFG (with its memory image and
//! iteration marker) and evaluates candidate power mappings by running
//! the discrete-event simulator for a bounded number of iterations and
//! accounting energy with the first-order power model.

use crate::power::energy;
use crate::sim::{DfgSimulator, PortTables, SimConfig, SimResult};
use uecgra_clock::VfMode;
use uecgra_dfg::{Dfg, NodeId};

/// Performance and energy of one power mapping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyDelay {
    /// Iterations per nominal cycle.
    pub throughput: f64,
    /// Normalized energy per iteration.
    pub energy_per_iter: f64,
}

impl EnergyDelay {
    /// Energy-delay product per iteration (lower is better).
    pub fn edp(&self) -> f64 {
        self.energy_per_iter / self.throughput
    }

    /// Speedup over a baseline (`>1` is faster).
    pub fn speedup_over(&self, base: &EnergyDelay) -> f64 {
        self.throughput / base.throughput
    }

    /// Energy-efficiency gain over a baseline in iterations/J (`>1` is
    /// more efficient).
    pub fn efficiency_over(&self, base: &EnergyDelay) -> f64 {
        base.energy_per_iter / self.energy_per_iter
    }

    /// Relative energy-delay figure of merit versus a baseline: `>1`
    /// means this mapping is better (lower EDP). This is the quantity
    /// the paper's `MeasureEnergyDelay(CGRA) < 1.0` test compares.
    pub fn edp_gain_over(&self, base: &EnergyDelay) -> f64 {
        base.edp() / self.edp()
    }
}

/// Bound simulator + power model for evaluating power mappings of one
/// DFG. The graph is validated and its port tables are built once, when
/// the estimator is made, not on every measurement.
///
/// # Examples
///
/// ```
/// use uecgra_model::EnergyDelayEstimator;
/// use uecgra_clock::VfMode;
/// use uecgra_dfg::kernels::synthetic;
///
/// let toy = synthetic::fig2_toy();
/// let est = EnergyDelayEstimator::new(&toy.dfg, vec![0; 2048], toy.iter_marker);
/// let nominal = est.measure(&vec![VfMode::Nominal; toy.dfg.node_count()]);
/// assert!(nominal.throughput > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct EnergyDelayEstimator<'a> {
    dfg: &'a Dfg,
    mem: Vec<u32>,
    marker: NodeId,
    edge_extra_latency: Vec<u32>,
    ports: PortTables,
}

impl<'a> EnergyDelayEstimator<'a> {
    /// The measurement window: iterations simulated per measurement.
    pub const WINDOW: u64 = 96;

    /// Marker fires skipped before the steady-state window.
    const WARMUP: usize = 16;

    /// Create an estimator on the default clock plan with a
    /// [`WINDOW`](Self::WINDOW)-iteration measurement window.
    ///
    /// # Panics
    ///
    /// Panics if the graph fails validation.
    pub fn new(dfg: &'a Dfg, mem: Vec<u32>, marker: NodeId) -> Self {
        dfg.validate().expect("simulated graphs must be valid");
        EnergyDelayEstimator {
            dfg,
            mem,
            marker,
            edge_extra_latency: Vec::new(),
            ports: PortTables::build(dfg),
        }
    }

    /// Make the estimator routing-aware: per-edge extra latency in
    /// receiver cycles (one per bypass hop of the routed design). The
    /// paper's power mapper uses the purely logical model and defers
    /// "mapping iteratively with physical constraints" to future work;
    /// feeding routed latencies back into `MeasureEnergyDelay` is the
    /// minimal version of that and lets the pass exploit routed slack.
    pub fn with_edge_latency(mut self, extra: Vec<u32>) -> Self {
        self.edge_extra_latency = extra;
        self
    }

    /// Simulate `modes` and return its raw simulation result.
    pub fn simulate(&self, modes: &[VfMode]) -> SimResult {
        let config = SimConfig {
            marker: Some(self.marker),
            max_marker_fires: Some(Self::WINDOW),
            edge_extra_latency: self.edge_extra_latency.clone(),
            ..SimConfig::default()
        };
        DfgSimulator::new_validated(self.dfg, modes.to_vec(), self.mem.clone(), config)
            .run_on(&self.ports)
    }

    /// Measure throughput and energy of one power mapping — the
    /// paper's `MeasureEnergyDelay`.
    ///
    /// # Panics
    ///
    /// Panics if the mapping deadlocks (no steady state within the
    /// measurement window).
    pub fn measure(&self, modes: &[VfMode]) -> EnergyDelay {
        let result = self.simulate(modes);
        // Short-trip-count kernels may quiesce before the configured
        // window; shrink the warmup so a steady II is still measurable.
        let warmup = Self::WARMUP.min(result.marker_times.len().saturating_sub(2) / 2);
        let ii = result
            .steady_ii(warmup)
            .unwrap_or_else(|| panic!("mapping reached no steady state: {:?}", result.stop));
        EnergyDelay {
            throughput: 1.0 / ii,
            energy_per_iter: energy(self.dfg, modes, &result).per_iteration(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uecgra_dfg::kernels::synthetic;

    #[test]
    fn nominal_baseline_is_self_relative_unity() {
        let toy = synthetic::fig2_toy();
        let est = EnergyDelayEstimator::new(&toy.dfg, vec![0; 2048], toy.iter_marker);
        let nom = est.measure(&vec![VfMode::Nominal; toy.dfg.node_count()]);
        assert_eq!(nom.speedup_over(&nom), 1.0);
        assert_eq!(nom.efficiency_over(&nom), 1.0);
        assert_eq!(nom.edp_gain_over(&nom), 1.0);
    }

    #[test]
    fn resting_feeders_improves_edp() {
        let toy = synthetic::fig2_toy();
        let est = EnergyDelayEstimator::new(&toy.dfg, vec![0; 2048], toy.iter_marker);
        let nom = est.measure(&vec![VfMode::Nominal; toy.dfg.node_count()]);
        let mut rested = vec![VfMode::Nominal; toy.dfg.node_count()];
        for a in toy.a_chain {
            rested[a.index()] = VfMode::Rest;
        }
        let r = est.measure(&rested);
        assert!(r.edp_gain_over(&nom) > 1.0, "resting feeders must win EDP");
        assert!((r.speedup_over(&nom) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn throughput_matches_recurrence() {
        let s = synthetic::cycle_n(5);
        let est = EnergyDelayEstimator::new(&s.dfg, vec![], s.iter_marker);
        let nom = est.measure(&vec![VfMode::Nominal; s.dfg.node_count()]);
        assert!((nom.throughput - 0.2).abs() < 1e-9, "II 5 → throughput 0.2");
    }

    #[test]
    fn edp_combines_both_axes() {
        let fast_hungry = EnergyDelay {
            throughput: 0.5,
            energy_per_iter: 4.0,
        };
        let slow_lean = EnergyDelay {
            throughput: 0.25,
            energy_per_iter: 1.0,
        };
        // EDPs: 8 vs 4 → the lean point wins EDP despite half the speed.
        assert!(slow_lean.edp() < fast_hungry.edp());
        assert!(slow_lean.edp_gain_over(&fast_hungry) == 2.0);
    }
}
