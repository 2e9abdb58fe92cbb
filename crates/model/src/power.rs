//! First-order energy model (paper Section II-B).
//!
//! Energy is normalized so that one `mul` firing at nominal voltage
//! costs exactly 1.0 unit. Per-node dynamic energy is
//! `fires × α_op × (V/VN)²`; memory ops additionally pay
//! `α_sram × (V/VN)²` per SRAM subbank access. Static energy accrues
//! per active PE (and per active SRAM subbank, scaled by β) over the
//! run's wall-clock duration at `V/VN`-scaled leakage power, with the
//! nominal leakage power derived from the paper's γ definition.
//! Power-gated (inactive) PEs and banks consume nothing.

use crate::params::{pe_leak_power_nominal, sram_leak_power_nominal};
use crate::sim::SimResult;
use uecgra_clock::VfMode;
use uecgra_dfg::{Dfg, ALPHA_SRAM};

/// Per-run energy accounting, in normalized units (1.0 = one `mul`
/// firing at nominal voltage).
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyBreakdown {
    /// Dynamic energy per node.
    pub node_dynamic: Vec<f64>,
    /// Static (leakage) energy per node.
    pub node_static: Vec<f64>,
    /// Dynamic energy spent in SRAM subbanks (attributed to the memory
    /// nodes that accessed them).
    pub sram_dynamic: f64,
    /// Static energy of active SRAM subbanks.
    pub sram_static: f64,
    /// Iterations completed during the accounted run.
    pub iterations: u64,
}

impl EnergyBreakdown {
    /// Total energy of the run.
    pub fn total(&self) -> f64 {
        self.node_dynamic.iter().sum::<f64>()
            + self.node_static.iter().sum::<f64>()
            + self.sram_dynamic
            + self.sram_static
    }

    /// Energy per iteration (total / iterations).
    ///
    /// # Panics
    ///
    /// Panics if the run completed zero iterations.
    pub fn per_iteration(&self) -> f64 {
        assert!(self.iterations > 0, "no iterations to amortize over");
        self.total() / self.iterations as f64
    }
}

/// Account the energy of a finished run with the first-order power
/// model.
///
/// A node is *active* (and leaks) iff it fired at least once;
/// unused nodes model power-gated PEs. Pseudo-ops (`source`/`sink`)
/// represent the outside world and consume nothing.
///
/// # Examples
///
/// ```
/// use uecgra_model::{energy, DfgSimulator, SimConfig};
/// use uecgra_clock::VfMode;
/// use uecgra_dfg::kernels::synthetic;
///
/// let toy = synthetic::fig1_dep_chain();
/// let modes = vec![VfMode::Nominal; toy.dfg.node_count()];
/// let config = SimConfig {
///     marker: Some(toy.iter_marker),
///     max_marker_fires: Some(20),
///     ..SimConfig::default()
/// };
/// let result = DfgSimulator::new(&toy.dfg, modes.clone(), vec![], config).run();
/// let breakdown = energy(&toy.dfg, &modes, &result);
/// assert!(breakdown.per_iteration() > 0.0);
/// ```
pub fn energy(dfg: &Dfg, modes: &[VfMode], result: &SimResult) -> EnergyBreakdown {
    assert_eq!(modes.len(), dfg.node_count(), "one mode per node");
    let duration_cycles = result.nominal_cycles();

    let mut node_dynamic = vec![0.0; dfg.node_count()];
    let mut node_static = vec![0.0; dfg.node_count()];
    let mut sram_dynamic = 0.0;
    let mut sram_static = 0.0;
    let leak_nominal_per_cycle = pe_leak_power_nominal();

    for (id, node) in dfg.nodes() {
        if node.op.is_pseudo() {
            continue;
        }
        let i = id.index();
        let mode = modes[i];
        let fires = result.fires[i] as f64;
        let active = result.fires[i] > 0;
        node_dynamic[i] = fires * node.op.alpha() * mode.dynamic_scale();
        if active {
            node_static[i] = duration_cycles * leak_nominal_per_cycle * mode.static_scale();
        }
        if node.op.is_memory() {
            sram_dynamic += fires * ALPHA_SRAM * mode.dynamic_scale();
            if active {
                sram_static += duration_cycles * sram_leak_power_nominal() * mode.static_scale();
            }
        }
    }

    EnergyBreakdown {
        node_dynamic,
        node_static,
        sram_dynamic,
        sram_static,
        iterations: result.iterations(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{DfgSimulator, SimConfig};
    use uecgra_dfg::kernels::synthetic;

    fn run_fig2(modes_fn: impl Fn(&synthetic::Fig2Toy) -> Vec<VfMode>) -> (f64, f64) {
        let toy = synthetic::fig2_toy();
        let modes = modes_fn(&toy);
        let config = SimConfig {
            marker: Some(toy.iter_marker),
            max_marker_fires: Some(120),
            ..SimConfig::default()
        };
        let result = DfgSimulator::new(&toy.dfg, modes.clone(), vec![0; 256], config).run();
        let ii = result.steady_ii(20).expect("steady state reached");
        let e = energy(&toy.dfg, &modes, &result).per_iteration();
        (ii, e)
    }

    #[test]
    fn resting_noncritical_nodes_saves_energy_at_same_throughput() {
        // Figure 2(b): rest the A-chain; throughput unchanged, energy down.
        let (ii_nom, e_nom) = run_fig2(|t| vec![VfMode::Nominal; t.dfg.node_count()]);
        let (ii_rest, e_rest) = run_fig2(|t| {
            let mut m = vec![VfMode::Nominal; t.dfg.node_count()];
            for a in t.a_chain {
                m[a.index()] = VfMode::Rest;
            }
            m
        });
        assert_eq!(ii_nom, ii_rest, "resting must not hurt throughput");
        assert!(
            e_rest < e_nom,
            "rest energy {e_rest} must beat nominal {e_nom}"
        );
    }

    #[test]
    fn sprinting_everything_costs_energy() {
        let (ii_nom, e_nom) = run_fig2(|t| vec![VfMode::Nominal; t.dfg.node_count()]);
        let (ii_spr, e_spr) = run_fig2(|t| {
            let mut m = vec![VfMode::Sprint; t.dfg.node_count()];
            for (id, n) in t.dfg.nodes() {
                if n.op.is_pseudo() {
                    m[id.index()] = VfMode::Nominal;
                }
            }
            m
        });
        assert!(
            ii_spr < ii_nom,
            "sprint must speed up ({ii_spr} vs {ii_nom})"
        );
        assert!(
            e_spr > e_nom,
            "sprint must cost energy ({e_spr} vs {e_nom})"
        );
    }

    #[test]
    fn sram_energy_attributed_to_memory_nodes() {
        let toy = synthetic::fig2_toy(); // A1 is a load
        let modes = vec![VfMode::Nominal; toy.dfg.node_count()];
        let config = SimConfig {
            marker: Some(toy.iter_marker),
            max_marker_fires: Some(30),
            ..SimConfig::default()
        };
        let result = DfgSimulator::new(&toy.dfg, modes.clone(), vec![0; 256], config).run();
        let b = energy(&toy.dfg, &modes, &result);
        assert!(b.sram_dynamic > 0.0);
        assert!(b.sram_static > 0.0);
        // Active PEs leak; only the one load has an active SRAM subbank.
        let active = |i: usize| b.node_static[i] > 0.0;
        let pes = toy.dfg.nodes().filter(|(id, _)| active(id.index())).count();
        let srams = toy
            .dfg
            .nodes()
            .filter(|(id, n)| active(id.index()) && n.op.is_memory())
            .count();
        assert_eq!(srams, 1);
        assert!(pes >= 5);
    }

    #[test]
    fn inactive_nodes_consume_nothing() {
        // A graph where one branch side never fires.
        use uecgra_dfg::{Dfg, Op};
        let mut g = Dfg::new();
        let src = g.add_node(Op::Source, "s").id();
        let cond = g.add_node(Op::Source, "c").id();
        let br = g.add_node(Op::Br, "br").id();
        let taken = g.add_node(Op::Add, "taken").constant(0).id();
        let never = g.add_node(Op::Add, "never").constant(0).id();
        g.connect_ports(src, 0, br, 0);
        g.connect_ports(cond, 0, br, 1);
        g.connect_ports(br, 1, taken, 0); // cond emits 0 first: false path
        g.connect_ports(br, 0, never, 0);
        let modes = vec![VfMode::Nominal; g.node_count()];
        let config = SimConfig {
            source_limit: Some(1),
            ..SimConfig::default()
        };
        let result = DfgSimulator::new(&g, modes.clone(), vec![], config).run();
        let b = energy(&g, &modes, &result);
        assert_eq!(result.fires[taken.index()], 1, "false path taken once");
        assert_eq!(result.fires[never.index()], 0);
        let node_total = |i: usize| b.node_dynamic[i] + b.node_static[i];
        assert_eq!(node_total(never.index()), 0.0, "power-gated PE is free");
        assert!(node_total(taken.index()) > 0.0);
    }

    #[test]
    fn gamma_sets_leakage_power_level() {
        // A two-node ring: the mul fires every other nominal cycle; its
        // static power must equal the γ-derived nominal leakage exactly.
        use uecgra_dfg::{Dfg, Op};
        let mut g = Dfg::new();
        let phi = g.add_node(Op::Phi, "acc").init(1).id();
        let mul = g.add_node(Op::Mul, "mul").constant(1).id();
        g.connect(phi, mul);
        g.connect(mul, phi);
        let modes = vec![VfMode::Nominal; 2];
        let config = SimConfig {
            marker: Some(phi),
            max_marker_fires: Some(1000),
            ..SimConfig::default()
        };
        let result = DfgSimulator::new(&g, modes.clone(), vec![], config).run();
        let b = energy(&g, &modes, &result);
        let i = mul.index();
        let dyn_per_cycle = b.node_dynamic[i] / result.nominal_cycles();
        let static_per_cycle = b.node_static[i] / result.nominal_cycles();
        assert!((static_per_cycle - pe_leak_power_nominal()).abs() < 1e-9);
        assert!(
            (dyn_per_cycle - 0.5).abs() < 0.01,
            "mul fires every 2nd cycle"
        );
    }
}
