//! Discrete-event performance simulator for dataflow graphs on an
//! (ultra-)elastic CGRA (paper Section II-A).
//!
//! Every DFG node is assigned a [`VfMode`]; a node may fire only on the
//! rising edges of its own rational clock. A node fires when all of its
//! input tokens are *visible* (enqueued at least `hop_latency` receiver
//! cycles earlier — the elastic queue + wire delay) and all of its
//! output queues have space. Per-edge queues default to two entries,
//! matching the paper's elastic buffers.
//!
//! The simulator is functional: tokens carry 32-bit values, and
//! `load`/`store` nodes access a scratchpad memory image, so kernel
//! results can be checked against host references.

use std::collections::VecDeque;
use uecgra_clock::{ClockSet, VfMode};
use uecgra_dfg::{Dfg, NodeId, Op};

/// A token in flight: its value and the PLL tick at which it was
/// enqueued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Token {
    value: u32,
    written: u64,
}

/// Configuration of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// The rational clock plan.
    pub clocks: ClockSet,
    /// Per-edge queue capacity (paper default: 2).
    pub queue_capacity: usize,
    /// Wire/synchronization latency per hop in receiver cycles (paper
    /// default: 1; Figure 7(a) sweeps 1–3 to model asynchronous FIFOs).
    pub hop_latency: u32,
    /// Hard tick limit (safety net against deadlock).
    pub max_ticks: u64,
    /// Stop once the marker node has fired this many times.
    pub max_marker_fires: Option<u64>,
    /// Node whose firings are counted as iterations.
    pub marker: Option<NodeId>,
    /// Maximum number of tokens each source produces (None = unlimited).
    pub source_limit: Option<u64>,
    /// Extra per-edge latency in receiver cycles (indexed by
    /// `EdgeId::index`), modeling routed bypass hops. Empty = none.
    pub edge_extra_latency: Vec<u32>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            clocks: ClockSet::default(),
            queue_capacity: 2,
            hop_latency: 1,
            max_ticks: 10_000_000,
            max_marker_fires: None,
            marker: None,
            source_limit: None,
            edge_extra_latency: Vec::new(),
        }
    }
}

/// Why a simulation run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The marker reached its configured fire count.
    MarkerDone,
    /// No node fired for a full settling window: the graph quiesced
    /// (sources exhausted or control flow terminated the loop).
    Quiesced,
    /// The tick limit was hit (likely a deadlock or unbounded run).
    TickLimit,
}

/// Results of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Firings per node (indexed by `NodeId::index`).
    pub fires: Vec<u64>,
    /// PLL ticks at which the marker fired.
    pub marker_times: Vec<u64>,
    /// Total PLL ticks simulated.
    pub ticks: u64,
    /// Why the run stopped.
    pub stop: StopReason,
    /// Final memory image.
    pub mem: Vec<u32>,
    /// The clock plan used (for unit conversions).
    pub clocks: ClockSet,
}

impl SimResult {
    /// Steady-state initiation interval in nominal cycles, measured
    /// from marker firings with the first `skip` intervals discarded
    /// as warmup. Returns `None` with fewer than two post-warmup fires.
    pub fn steady_ii(&self, skip: usize) -> Option<f64> {
        let times = &self.marker_times;
        if times.len() < skip + 2 {
            return None;
        }
        let t0 = times[skip];
        let t1 = *times.last().expect("len checked above");
        let n = (times.len() - 1 - skip) as f64;
        Some(self.clocks.pll_to_nominal_cycles(t1 - t0) / n)
    }

    /// Throughput in iterations per nominal cycle (inverse of
    /// [`SimResult::steady_ii`]).
    pub fn throughput(&self, skip: usize) -> Option<f64> {
        self.steady_ii(skip).map(|ii| 1.0 / ii)
    }

    /// Total run length in nominal cycles.
    pub fn nominal_cycles(&self) -> f64 {
        self.clocks.pll_to_nominal_cycles(self.ticks)
    }

    /// Number of iterations completed (marker firings).
    pub fn iterations(&self) -> u64 {
        self.marker_times.len() as u64
    }
}

/// The discrete-event simulator. Construct with [`DfgSimulator::new`],
/// then [`DfgSimulator::run`].
///
/// # Examples
///
/// Reproduce Figure 1(d): a four-op dependency chain iterates once
/// every four cycles on an elastic CGRA:
///
/// ```
/// use uecgra_model::sim::{DfgSimulator, SimConfig};
/// use uecgra_clock::VfMode;
/// use uecgra_dfg::kernels::synthetic;
///
/// let toy = synthetic::fig1_dep_chain();
/// let config = SimConfig {
///     marker: Some(toy.iter_marker),
///     max_marker_fires: Some(50),
///     ..SimConfig::default()
/// };
/// let modes = vec![VfMode::Nominal; toy.dfg.node_count()];
/// let result = DfgSimulator::new(&toy.dfg, modes, vec![], config).run();
/// assert_eq!(result.steady_ii(4), Some(4.0));
/// ```
#[derive(Debug)]
pub struct DfgSimulator<'a> {
    dfg: &'a Dfg,
    modes: Vec<VfMode>,
    config: SimConfig,
    mem: Vec<u32>,
    queues: Vec<VecDeque<Token>>,
    init_pending: Vec<bool>,
    source_count: Vec<u64>,
}

/// What a node decided to do on one of its rising edges.
#[derive(Debug, Clone)]
enum Action {
    Fire {
        node: usize,
        /// Edge indices to pop.
        pops: Vec<usize>,
        /// (edge index, value) pairs to push.
        pushes: Vec<(usize, u32)>,
        /// Memory write, if any.
        mem_write: Option<(u32, u32)>,
    },
    Idle,
}

impl<'a> DfgSimulator<'a> {
    /// Create a simulator for `dfg` with per-node VF `modes` and an
    /// initial memory image.
    ///
    /// # Panics
    ///
    /// Panics if `modes.len() != dfg.node_count()` or the graph fails
    /// validation.
    pub fn new(dfg: &'a Dfg, modes: Vec<VfMode>, mem: Vec<u32>, config: SimConfig) -> Self {
        assert_eq!(modes.len(), dfg.node_count(), "one mode per node");
        dfg.validate().expect("simulated graphs must be valid");
        let queues = (0..dfg.edge_count()).map(|_| VecDeque::new()).collect();
        let init_pending = dfg.nodes().map(|(_, n)| n.init.is_some()).collect();
        DfgSimulator {
            source_count: vec![0; dfg.node_count()],
            dfg,
            modes,
            config,
            mem,
            queues,
            init_pending,
        }
    }

    /// Run to completion and return the results.
    pub fn run(mut self) -> SimResult {
        let n = self.dfg.node_count();
        let mut fires = vec![0u64; n];
        let mut marker_times = Vec::new();
        let hyper = self.config.clocks.hyperperiod();
        // The quiesce window must outlast the largest possible
        // visibility delay (a slow consumer on a long routed edge),
        // otherwise an aging token reads as a dead machine.
        let max_extra = self
            .config
            .edge_extra_latency
            .iter()
            .copied()
            .max()
            .unwrap_or(0);
        let quiesce_window =
            hyper * (2 + u64::from(self.config.hop_latency) + u64::from(max_extra));
        let mut last_fire_tick = 0u64;
        let mut stop = StopReason::TickLimit;

        let mut t = 0u64;
        while t < self.config.max_ticks {
            // Phase 1: decide, against the state at tick start.
            let mut actions = Vec::new();
            for node in 0..n {
                let mode = self.modes[node];
                if !self.config.clocks.is_rising(mode, t) {
                    continue;
                }
                actions.push(self.decide(node, t));
            }

            // Phase 2: apply.
            let mut fired = false;
            for action in actions {
                match action {
                    Action::Fire {
                        node,
                        pops,
                        pushes,
                        mem_write,
                    } => {
                        fired = true;
                        fires[node] += 1;
                        if self.dfg.node(NodeId::from_index(node)).op == Op::Source {
                            self.source_count[node] += 1;
                        }
                        self.init_pending[node] = false;
                        for e in pops {
                            self.queues[e].pop_front();
                        }
                        for (e, value) in pushes {
                            self.queues[e].push_back(Token { value, written: t });
                        }
                        if let Some((addr, value)) = mem_write {
                            let a = addr as usize;
                            assert!(a < self.mem.len(), "store to {a} out of bounds");
                            self.mem[a] = value;
                        }
                        if self.config.marker == Some(NodeId::from_index(node)) {
                            marker_times.push(t);
                        }
                    }
                    Action::Idle => {}
                }
            }

            if fired {
                last_fire_tick = t;
            }
            if let (Some(max), Some(marker)) = (self.config.max_marker_fires, self.config.marker) {
                if fires[marker.index()] >= max {
                    stop = StopReason::MarkerDone;
                    t += 1;
                    break;
                }
            }
            if t >= last_fire_tick + quiesce_window {
                stop = StopReason::Quiesced;
                break;
            }
            t += 1;
        }

        SimResult {
            fires,
            marker_times,
            ticks: t,
            stop,
            mem: self.mem,
            clocks: self.config.clocks.clone(),
        }
    }

    /// A token at the front of `edge` is visible to consumer `node` at
    /// tick `t` if it has aged at least `hop_latency` receiver periods
    /// (plus any routed extra hops configured for the edge).
    fn front_visible(&self, edge: usize, node: usize, t: u64) -> Option<u32> {
        let extra = self
            .config
            .edge_extra_latency
            .get(edge)
            .copied()
            .unwrap_or(0);
        let budget = self.config.clocks.period(self.modes[node])
            * u64::from(self.config.hop_latency + extra);
        self.queues[edge]
            .front()
            .filter(|tok| t >= tok.written + budget)
            .map(|tok| tok.value)
    }

    /// Capacity of an edge's queueing: each routed bypass hop carries
    /// its own elastic buffer, so a long edge buffers proportionally
    /// more tokens in flight.
    fn edge_capacity(&self, edge: usize) -> usize {
        let extra = self
            .config
            .edge_extra_latency
            .get(edge)
            .copied()
            .unwrap_or(0) as usize;
        self.config.queue_capacity * (1 + extra)
    }

    /// Can `value` be pushed on all edges leaving `node` via `port`?
    fn port_has_space(&self, node: usize, port: u8) -> bool {
        self.dfg
            .outputs(NodeId::from_index(node))
            .filter(|(_, e)| e.src_port == port)
            .all(|(id, _)| self.queues[id.index()].len() < self.edge_capacity(id.index()))
    }

    fn pushes_for_port(&self, node: usize, port: u8, value: u32) -> Vec<(usize, u32)> {
        self.dfg
            .outputs(NodeId::from_index(node))
            .filter(|(_, e)| e.src_port == port)
            .map(|(id, _)| (id.index(), value))
            .collect()
    }

    fn decide(&self, node: usize, t: u64) -> Action {
        let data = self.dfg.node(NodeId::from_index(node));
        let op = data.op;

        // Source: emit the next value in sequence while under the limit.
        if op == Op::Source {
            if let Some(limit) = self.config.source_limit {
                if self.source_count[node] >= limit {
                    return Action::Idle;
                }
            }
            if !self.port_has_space(node, 0) {
                return Action::Idle;
            }
            // Source values count upward (a useful address stream); the
            // counter is bumped when the fire is applied.
            let value = self.source_count[node] as u32;
            let pushes = self.pushes_for_port(node, 0, value);
            return Action::Fire {
                node,
                pops: Vec::new(),
                pushes,
                mem_write: None,
            };
        }

        // Phi bootstrap: emit the initial token once after reset.
        if self.init_pending[node] {
            return if self.port_has_space(node, 0) {
                Action::Fire {
                    node,
                    pops: Vec::new(),
                    pushes: self.pushes_for_port(
                        node,
                        0,
                        data.init.expect("init_pending implies init"),
                    ),
                    mem_write: None,
                }
            } else {
                Action::Idle
            };
        }

        // Gather visible operands per input port.
        let in_edges: Vec<(usize, u8)> = self
            .dfg
            .inputs(NodeId::from_index(node))
            .map(|(id, e)| (id.index(), e.dst_port))
            .collect();

        if op == Op::Phi {
            // Merge: fire on the first visible input (lowest edge id).
            let Some(&(edge, _)) = in_edges
                .iter()
                .find(|(e, _)| self.front_visible(*e, node, t).is_some())
            else {
                return Action::Idle;
            };
            let value = self
                .front_visible(edge, node, t)
                .expect("edge chosen as visible");
            if !self.port_has_space(node, 0) {
                return Action::Idle;
            }
            return Action::Fire {
                node,
                pops: vec![edge],
                pushes: self.pushes_for_port(node, 0, value),
                mem_write: None,
            };
        }

        // All-input ops: each driven port must have a visible token;
        // undriven ports fall back to the configured constant.
        let arity = op.arity().max(1);
        let mut operands = vec![None::<u32>; arity];
        let mut pops = Vec::new();
        for port in 0..arity as u8 {
            if let Some(&(edge, _)) = in_edges.iter().find(|(_, p)| *p == port) {
                match self.front_visible(edge, node, t) {
                    Some(v) => {
                        operands[port as usize] = Some(v);
                        pops.push(edge);
                    }
                    None => return Action::Idle,
                }
            } else {
                operands[port as usize] = data.constant;
            }
        }
        let a = operands[0].expect("validated graphs have all operands");
        let b = if arity > 1 {
            operands[1].expect("validated graphs have all operands")
        } else {
            0
        };

        match op {
            Op::Sink => Action::Fire {
                node,
                pops,
                pushes: Vec::new(),
                mem_write: None,
            },
            Op::Br => {
                let out_port = if b != 0 { 0 } else { 1 };
                if !self.port_has_space(node, out_port) {
                    return Action::Idle;
                }
                Action::Fire {
                    node,
                    pops,
                    pushes: self.pushes_for_port(node, out_port, a),
                    mem_write: None,
                }
            }
            Op::Load => {
                if !self.port_has_space(node, 0) {
                    return Action::Idle;
                }
                let addr = a as usize;
                assert!(addr < self.mem.len(), "load from {addr} out of bounds");
                Action::Fire {
                    node,
                    pops,
                    pushes: self.pushes_for_port(node, 0, self.mem[addr]),
                    mem_write: None,
                }
            }
            Op::Store => {
                if !self.port_has_space(node, 0) {
                    return Action::Idle;
                }
                Action::Fire {
                    node,
                    pops,
                    pushes: self.pushes_for_port(node, 0, b),
                    mem_write: Some((a, b)),
                }
            }
            _ => {
                if !self.port_has_space(node, 0) {
                    return Action::Idle;
                }
                Action::Fire {
                    node,
                    pops,
                    pushes: self.pushes_for_port(node, 0, op.eval(a, b)),
                    mem_write: None,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uecgra_dfg::kernels::{self, synthetic};

    fn nominal_modes(dfg: &Dfg) -> Vec<VfMode> {
        vec![VfMode::Nominal; dfg.node_count()]
    }

    fn run_synthetic(s: &synthetic::Synthetic, config: SimConfig) -> SimResult {
        let modes = nominal_modes(&s.dfg);
        DfgSimulator::new(&s.dfg, modes, vec![], config).run()
    }

    #[test]
    fn chain_reaches_full_throughput_with_depth_two() {
        let s = synthetic::chain(6);
        let config = SimConfig {
            marker: Some(s.iter_marker),
            max_marker_fires: Some(100),
            ..SimConfig::default()
        };
        let r = run_synthetic(&s, config);
        assert_eq!(r.steady_ii(8), Some(1.0), "regular chain runs 1 iter/cycle");
    }

    #[test]
    fn chain_halves_throughput_with_depth_one() {
        // Paper Figure 7(b): regular kernels require queue depth >= 2;
        // a single-entry queue forces a bubble between tokens.
        let s = synthetic::chain(6);
        let config = SimConfig {
            marker: Some(s.iter_marker),
            max_marker_fires: Some(100),
            queue_capacity: 1,
            ..SimConfig::default()
        };
        let r = run_synthetic(&s, config);
        assert_eq!(r.steady_ii(8), Some(2.0));
    }

    #[test]
    fn cycle_n_ii_equals_n() {
        for n in 2..8 {
            let s = synthetic::cycle_n(n);
            let config = SimConfig {
                marker: Some(s.iter_marker),
                max_marker_fires: Some(50),
                ..SimConfig::default()
            };
            let r = run_synthetic(&s, config);
            assert_eq!(r.steady_ii(4), Some(n as f64), "cycle-{n}");
        }
    }

    #[test]
    fn irregular_kernels_insensitive_to_queue_depth() {
        // Paper Figure 7(b): no amount of deeper queuing changes the
        // throughput of a recurrence-bound DFG.
        for depth in [1usize, 2, 4, 8] {
            let s = synthetic::cycle_n(4);
            let config = SimConfig {
                marker: Some(s.iter_marker),
                max_marker_fires: Some(50),
                queue_capacity: depth,
                ..SimConfig::default()
            };
            let r = run_synthetic(&s, config);
            assert_eq!(r.steady_ii(4), Some(4.0), "depth {depth}");
        }
    }

    #[test]
    fn hop_latency_multiplies_cycle_ii() {
        // Paper Figure 7(a): throughput of the critical cycle scales
        // inversely with cycles-per-hop; 2-cycle hops (as with
        // asynchronous FIFOs) are ruinous.
        for hop in [1u32, 2, 3] {
            let s = synthetic::cycle_n(3);
            let config = SimConfig {
                marker: Some(s.iter_marker),
                max_marker_fires: Some(50),
                hop_latency: hop,
                ..SimConfig::default()
            };
            let r = run_synthetic(&s, config);
            assert_eq!(r.steady_ii(4), Some(3.0 * hop as f64), "hop {hop}");
        }
    }

    #[test]
    fn fig2b_resting_feeders_does_not_hurt() {
        // Paper Figure 2(b): resting A1/A2 to 1/3 frequency keeps the
        // kernel at one iteration every three cycles.
        let toy = synthetic::fig2_toy();
        let mut modes = nominal_modes(&toy.dfg);
        for a in toy.a_chain {
            modes[a.index()] = VfMode::Rest;
        }
        let config = SimConfig {
            marker: Some(toy.iter_marker),
            max_marker_fires: Some(60),
            ..SimConfig::default()
        };
        let r = DfgSimulator::new(&toy.dfg, modes, vec![0; 256], config).run();
        assert_eq!(r.steady_ii(10), Some(3.0));
    }

    #[test]
    fn fig2c_sprint_cycle_rest_feeders_boosts_throughput() {
        // Paper Figure 2(c): with a half-rate rest level (clock plan
        // 6:3:2), resting A1/A2 to 1/2 and sprinting B/C/D by 1.5x
        // boosts throughput to one iteration every two cycles.
        let toy = synthetic::fig2_toy();
        let clocks = ClockSet::new([6, 3, 2]).unwrap();
        let mut modes = nominal_modes(&toy.dfg);
        for a in toy.a_chain {
            modes[a.index()] = VfMode::Rest;
        }
        for c in toy.cycle {
            modes[c.index()] = VfMode::Sprint;
        }
        let config = SimConfig {
            clocks,
            marker: Some(toy.iter_marker),
            max_marker_fires: Some(60),
            ..SimConfig::default()
        };
        let r = DfgSimulator::new(&toy.dfg, modes, vec![0; 256], config).run();
        assert_eq!(r.steady_ii(10), Some(2.0));
    }

    #[test]
    fn source_limit_quiesces() {
        let s = synthetic::chain(3);
        let config = SimConfig {
            marker: Some(s.iter_marker),
            source_limit: Some(10),
            ..SimConfig::default()
        };
        let r = run_synthetic(&s, config);
        assert_eq!(r.stop, StopReason::Quiesced);
        assert_eq!(r.iterations(), 10);
    }

    #[test]
    fn tick_limit_catches_unbounded_runs() {
        let s = synthetic::cycle_n(3);
        let config = SimConfig {
            max_ticks: 500,
            ..SimConfig::default()
        };
        let r = run_synthetic(&s, config);
        assert_eq!(r.stop, StopReason::TickLimit);
    }

    #[test]
    fn kernels_compute_correct_memory_at_nominal() {
        for k in kernels::all_kernels() {
            if k.iters > 200 {
                continue; // covered by the smaller builds below
            }
            check_kernel(&k);
        }
        check_kernel(&kernels::llist::build_with_hops(50));
        check_kernel(&kernels::dither::build_with_pixels(50));
        check_kernel(&kernels::susan::build_with_iters(50));
        check_kernel(&kernels::fft::build_with_group(50));
        check_kernel(&kernels::bf::build_with_rounds(16));
    }

    fn check_kernel(k: &kernels::Kernel) {
        let config = SimConfig {
            marker: Some(k.iter_marker),
            ..SimConfig::default()
        };
        let modes = nominal_modes(&k.dfg);
        let r = DfgSimulator::new(&k.dfg, modes, k.mem.clone(), config).run();
        assert_eq!(r.stop, StopReason::Quiesced, "{} must terminate", k.name);
        assert_eq!(r.mem, k.reference_memory(), "{} memory mismatch", k.name);
    }

    #[test]
    fn kernel_ii_matches_ideal_recurrence_at_nominal() {
        // With every node on its own PE and single-cycle hops, the
        // analytical model's II equals the DFG recurrence bound.
        for (k, expect) in [
            (kernels::llist::build_with_hops(60), 5.0),
            (kernels::dither::build_with_pixels(60), 5.0),
            (kernels::susan::build_with_iters(60), 5.0),
            (kernels::fft::build_with_group(60), 4.0),
            (kernels::bf::build_with_rounds(24), 12.0),
        ] {
            let config = SimConfig {
                marker: Some(k.iter_marker),
                ..SimConfig::default()
            };
            let modes = nominal_modes(&k.dfg);
            let r = DfgSimulator::new(&k.dfg, modes, k.mem.clone(), config).run();
            let ii = r
                .steady_ii(10)
                .unwrap_or_else(|| panic!("{} no II", k.name));
            // The ideal recurrence is the worst-case static bound; DFGs
            // whose critical cycle runs through a data-dependent branch
            // (dither's error path) iterate slightly faster on average.
            assert!(
                ii <= expect + 0.35 && ii >= 0.8 * expect,
                "{}: II {} vs ideal {}",
                k.name,
                ii,
                expect
            );
        }
    }

    #[test]
    fn sprinting_kernel_critical_cycle_speeds_it_up() {
        // Sprint every node of llist's recurrence SCC (sprinting only
        // the longest cycle would leave the parallel liveness-check
        // cycle at nominal, which would then become critical): II drops
        // by ~1.5x.
        use uecgra_dfg::analysis::SccDecomposition;
        let k = kernels::llist::build_with_hops(60);
        let scc = SccDecomposition::compute(&k.dfg);
        let mut modes = nominal_modes(&k.dfg);
        for comp in scc.cyclic_components(&k.dfg) {
            for n in comp {
                modes[n.index()] = VfMode::Sprint;
            }
        }
        let config = SimConfig {
            marker: Some(k.iter_marker),
            ..SimConfig::default()
        };
        let r = DfgSimulator::new(&k.dfg, modes, k.mem.clone(), config).run();
        let ii = r.steady_ii(10).unwrap();
        assert!(ii < 4.0, "sprinted llist II {ii} should beat 5.0 by ~1.5x");
        // Functionality is preserved under DVFS.
        assert_eq!(r.mem, k.reference_memory());
    }
}
