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
//!
//! # One stepper, one oracle
//!
//! [`DfgSimulator::run`] is the stepper every caller uses (the
//! estimator, the power mapper, the DSE and the figure binaries):
//!
//! * **Port tables**: each node's op, constant, initial token, driving
//!   edge per input port (a Phi's in-edges in input order) and
//!   out-edges per source port, and each edge's producer and consumer.
//!   They depend on the graph alone; the estimator builds them once.
//!   Each run lists the nodes per set of rising modes, so a tick only
//!   walks the nodes whose clock rises.
//! * **One token slab**: every edge's queue is a ring in one `Vec`,
//!   sized to the edge's capacity, with the edge's visibility budget
//!   beside its head and length.
//! * **No allocation per decision**: a tick decides into one reused
//!   buffer of fixed-size fire records and applies them in ascending
//!   node order.
//! * **Sleeping nodes**: a node is decided only from its wake tick on,
//!   the earliest tick its decision could differ from the idle one it
//!   last made. Three rules keep the wake exact:
//!   1. *Push.* A push into edge `e` at tick `t` lowers the consumer's
//!      wake to `t + budget(e)`: the token cannot be visible earlier,
//!      and a push behind a front token leaves the front as it was.
//!   2. *Pop.* A pop wakes the producer only if its last decision was
//!      `Full` (inputs ready, an output queue full). A node that was
//!      starved of inputs stays asleep: space only grows between its
//!      fires, and it checks space when its inputs are ready.
//!   3. *After a fire.* A node that popped sleeps until its inputs
//!      could all be visible again, read from its queues after the
//!      tick's fires are applied: the latest front over its driven
//!      ports, the earliest for a Phi, never while one it needs is
//!      empty. Until then only its own pops move those fronts, and a
//!      push into an empty queue wakes it by rule 1. A node that
//!      popped nothing (a source, a Phi's initial token) stays awake.
//!
//!   A starved decision sleeps by the same reckoning as rule 3.
//! * **Tick jump**: after a tick, `t` jumps to the next rising edge of
//!   any mode a node uses, capped by the quiesce deadline and the tick
//!   limit. No node has a rising edge on the skipped ticks, so no state
//!   changes there and the result is exact.
//!
//! [`DfgSimulator::run_reference`] is the original tick-by-tick
//! stepper, kept as the test oracle: `run` must return an equal
//! [`SimResult`] (or panic with the same message) on every input. Only
//! tests call it (`tests/differential.rs` here, and the compiler's
//! random-loop and DSE-shaped differentials).

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
    /// as warmup ([`ClockSet::steady_ii`]).
    pub fn steady_ii(&self, skip: usize) -> Option<f64> {
        self.clocks.steady_ii(&self.marker_times, skip)
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
    /// The oracle's queues; [`DfgSimulator::run`] keeps its own slab.
    queues: Vec<VecDeque<Token>>,
    init_pending: Vec<bool>,
    source_count: Vec<u64>,
}

/// A fire decided by [`DfgSimulator::run`]: a fixed-size record, so
/// deciding never allocates.
#[derive(Debug, Clone, Copy)]
struct Fire {
    node: usize,
    /// Input edges to pop (a validated node has at most two inputs).
    pops: [Option<u32>; 2],
    /// Output port whose edges all receive `value` (`None` for a sink).
    out_port: Option<u8>,
    value: u32,
    /// Memory write, if any.
    mem_write: Option<(u32, u32)>,
}

/// What [`DfgSimulator::decide_fast`] decided for one node.
#[derive(Debug, Clone, Copy)]
enum Decision {
    Fire(Fire),
    /// Idle for want of inputs: no fire before this tick unless a push
    /// into one of the node's input queues comes first (`u64::MAX`:
    /// only a push can help).
    Starved(u64),
    /// Idle with its inputs ready but an output queue full: only a pop
    /// from one of its output queues can help.
    Full,
}

/// What the stepper reads of a node, copied out of the graph once.
#[derive(Debug, Clone, Copy)]
struct NodeRec {
    op: Op,
    constant: Option<u32>,
    init: Option<u32>,
    /// A Phi's in-edges in input order; for every other op, the edge
    /// driving each input port. Validation caps both at two.
    ins: [Option<u32>; 2],
}

/// The graph as [`DfgSimulator::run`] reads it, built once so the
/// per-tick work never walks the graph's adjacency lists. It depends on
/// the graph alone, so an estimator that measures many mode
/// assignments of one graph builds it once.
#[derive(Debug, Clone)]
pub(crate) struct PortTables {
    nodes: Vec<NodeRec>,
    /// Out-edges grouped by `(node, source port)`; the group of
    /// `node * 2 + port` is `outs[out_start[i]..out_start[i + 1]]`.
    outs: Vec<u32>,
    out_start: Vec<usize>,
    /// Per edge: producer and consumer node.
    src: Vec<u32>,
    dst: Vec<u32>,
}

impl PortTables {
    pub(crate) fn build(dfg: &Dfg) -> PortTables {
        let n = dfg.node_count();
        let nodes = dfg
            .nodes()
            .map(|(id, node)| {
                let mut ins = [None; 2];
                for (i, (e, edge)) in dfg.inputs(id).enumerate() {
                    let k = if node.op == Op::Phi {
                        i
                    } else {
                        usize::from(edge.dst_port)
                    };
                    if ins[k].is_none() {
                        ins[k] = Some(e.index() as u32);
                    }
                }
                NodeRec {
                    op: node.op,
                    constant: node.constant,
                    init: node.init,
                    ins,
                }
            })
            .collect();
        let mut outs = Vec::with_capacity(dfg.edge_count());
        let mut out_start = Vec::with_capacity(2 * n + 1);
        for id in dfg.node_ids() {
            for port in 0..2 {
                out_start.push(outs.len());
                outs.extend(
                    dfg.outputs(id)
                        .filter(|(_, e)| e.src_port == port)
                        .map(|(e, _)| e.index() as u32),
                );
            }
        }
        out_start.push(outs.len());
        PortTables {
            nodes,
            outs,
            out_start,
            src: dfg.edges().map(|(_, e)| e.src.index() as u32).collect(),
            dst: dfg.edges().map(|(_, e)| e.dst.index() as u32).collect(),
        }
    }

    fn outs(&self, node: usize, port: u8) -> &[u32] {
        let i = node * 2 + usize::from(port);
        &self.outs[self.out_start[i]..self.out_start[i + 1]]
    }

    /// Can a token be pushed on every edge leaving `node` via `port`?
    fn has_space(&self, queues: &Queues, node: usize, port: u8) -> bool {
        self.outs(node, port)
            .iter()
            .all(|&e| queues.has_space(e as usize))
    }

    /// The earliest tick `node`'s inputs could all be visible with no
    /// push into one of its queues: the latest front's visibility over
    /// its driven ports (any, the earliest, for a Phi). `u64::MAX` if a
    /// queue it needs is empty, and 0 if it has no driven port.
    fn ready_at(&self, queues: &Queues, node: usize) -> u64 {
        let rec = &self.nodes[node];
        // An undriven port counts as never visible for a Phi and as
        // always visible for every other op.
        let undriven = if rec.op == Op::Phi { u64::MAX } else { 0 };
        let [a, b] = rec
            .ins
            .map(|e| e.map_or(undriven, |e| queues.visible_at(e as usize)));
        if rec.op == Op::Phi {
            a.min(b)
        } else {
            a.max(b)
        }
    }
}

/// Every edge's queue for one [`DfgSimulator::run`]: one ring per
/// edge, all in one slab, each sized to its edge's capacity
/// (`queue_capacity × (1 + extra)`).
#[derive(Debug)]
struct Queues {
    slab: Vec<Token>,
    rings: Vec<Ring>,
}

/// One edge's ring in the slab: `len` tokens from `base + head`,
/// wrapping at `base + cap`.
#[derive(Debug, Clone, Copy)]
struct Ring {
    base: u32,
    cap: u32,
    head: u32,
    len: u32,
    /// Ticks a token ages before the consumer sees it
    /// (`period(consumer mode) × (hop_latency + extra)`).
    budget: u64,
}

impl Queues {
    fn new(dfg: &Dfg, modes: &[VfMode], config: &SimConfig) -> Queues {
        let mut base = 0usize;
        let rings = dfg
            .edges()
            .map(|(e, edge)| {
                let extra = config
                    .edge_extra_latency
                    .get(e.index())
                    .copied()
                    .unwrap_or(0);
                let cap = config.queue_capacity * (1 + extra as usize);
                let ring = Ring {
                    base: u32::try_from(base).expect("queue slab fits u32 indices"),
                    cap: u32::try_from(cap).expect("queue capacity fits u32"),
                    head: 0,
                    len: 0,
                    budget: config.clocks.period(modes[edge.dst.index()])
                        * u64::from(config.hop_latency + extra),
                };
                base += cap;
                ring
            })
            .collect();
        let empty = Token {
            value: 0,
            written: 0,
        };
        Queues {
            slab: vec![empty; base],
            rings,
        }
    }

    fn has_space(&self, edge: usize) -> bool {
        let r = &self.rings[edge];
        r.len < r.cap
    }

    fn front(&self, edge: usize) -> Option<Token> {
        let r = &self.rings[edge];
        (r.len > 0).then(|| self.slab[(r.base + r.head) as usize])
    }

    /// The front value of `edge` if its consumer can see it at tick `t`.
    fn visible(&self, edge: usize, t: u64) -> Option<u32> {
        self.front(edge)
            .filter(|tok| t >= tok.written + self.rings[edge].budget)
            .map(|tok| tok.value)
    }

    /// The tick the front of `edge` turns visible (`u64::MAX` if empty).
    fn visible_at(&self, edge: usize) -> u64 {
        self.front(edge)
            .map_or(u64::MAX, |tok| tok.written + self.rings[edge].budget)
    }

    /// Push onto a queue with space (every push follows a decision
    /// that checked it).
    fn push(&mut self, edge: usize, tok: Token) {
        let r = &mut self.rings[edge];
        assert!(r.len < r.cap, "push into a full queue");
        let mut i = r.head + r.len;
        if i >= r.cap {
            i -= r.cap;
        }
        self.slab[(r.base + i) as usize] = tok;
        r.len += 1;
    }

    /// Pop from a non-empty queue (every pop follows a decision that
    /// read its front).
    fn pop(&mut self, edge: usize) {
        let r = &mut self.rings[edge];
        assert!(r.len > 0, "pop from an empty queue");
        r.head += 1;
        if r.head == r.cap {
            r.head = 0;
        }
        r.len -= 1;
    }
}

/// What a node decided to do on one of its rising edges
/// ([`DfgSimulator::run_reference`]).
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
        dfg.validate().expect("simulated graphs must be valid");
        Self::new_validated(dfg, modes, mem, config)
    }

    /// [`DfgSimulator::new`] for a graph the caller has validated.
    pub(crate) fn new_validated(
        dfg: &'a Dfg,
        modes: Vec<VfMode>,
        mem: Vec<u32>,
        config: SimConfig,
    ) -> Self {
        assert_eq!(modes.len(), dfg.node_count(), "one mode per node");
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
    ///
    /// Visits only the ticks on which a used clock rises (plus the
    /// quiesce deadline and the tick limit), decides only the nodes
    /// that are awake, and allocates nothing per decision; see the
    /// module docs. Returns the same [`SimResult`] as
    /// [`DfgSimulator::run_reference`].
    pub fn run(self) -> SimResult {
        let ports = PortTables::build(self.dfg);
        self.run_counted(&ports).0
    }

    /// [`DfgSimulator::run`] on port tables built from this graph.
    pub(crate) fn run_on(self, ports: &PortTables) -> SimResult {
        self.run_counted(ports).0
    }

    /// [`DfgSimulator::run`], also returning how many decisions it made
    /// (`decide_fast` calls): a work counter kept out of [`SimResult`]
    /// so the oracle equality and every report are unaffected.
    fn run_counted(mut self, ports: &PortTables) -> (SimResult, u64) {
        let n = self.dfg.node_count();
        let mut fires = vec![0u64; n];
        let mut marker_times = Vec::new();
        let quiesce_window = self.quiesce_window();
        let mut last_fire_tick = 0u64;

        // Next rising edge of each mode some node uses (`u64::MAX` for
        // unused modes). Every clock rises at t = 0.
        let periods = VfMode::ALL.map(|m| self.config.clocks.period(m));
        let mut next_edge = [u64::MAX; 3];
        for &mode in &self.modes {
            next_edge[mode as usize] = 0;
        }
        // For each set of rising modes (a bit per mode), the nodes
        // clocked by one of them, in ascending order.
        let by_rising: [Vec<u32>; 8] = std::array::from_fn(|set| {
            (0..n as u32)
                .filter(|&node| set & (1 << self.modes[node as usize] as usize) != 0)
                .collect()
        });
        let mut queues = Queues::new(self.dfg, &self.modes, &self.config);
        let mut decided: Vec<Fire> = Vec::with_capacity(n);
        // A node is decided only at rising edges at or after its wake
        // tick, the earliest tick its decision could differ from the
        // idle one it last made (see the module docs for the rules).
        // `full` marks the nodes whose last decision was `Full`: only
        // those wake on a pop from one of their output queues.
        let mut wake = vec![0u64; n];
        let mut full = vec![false; n];
        let mut decisions = 0u64;

        let mut t = 0u64;
        let stop = loop {
            if t >= self.config.max_ticks {
                break StopReason::TickLimit;
            }
            let mut rising = 0;
            for m in 0..3 {
                if next_edge[m] == t {
                    rising |= 1 << m;
                    next_edge[m] += periods[m];
                }
            }

            // Phase 1: decide, against the state at tick start.
            for &node in &by_rising[rising] {
                let node = node as usize;
                if t < wake[node] {
                    continue;
                }
                decisions += 1;
                let decision = self.decide_fast(ports, &queues, node, t);
                full[node] = matches!(decision, Decision::Full);
                match decision {
                    Decision::Fire(fire) => decided.push(fire),
                    Decision::Starved(at) => wake[node] = at,
                    Decision::Full => wake[node] = u64::MAX,
                }
            }

            // Phase 2: apply, in ascending node order.
            if !decided.is_empty() {
                last_fire_tick = t;
            }
            for fire in &decided {
                let node = fire.node;
                fires[node] += 1;
                if ports.nodes[node].op == Op::Source {
                    self.source_count[node] += 1;
                }
                self.init_pending[node] = false;
                for e in fire.pops.into_iter().flatten() {
                    let e = e as usize;
                    queues.pop(e);
                    let producer = ports.src[e] as usize;
                    if full[producer] {
                        wake[producer] = 0;
                    }
                }
                if let Some(port) = fire.out_port {
                    for &e in ports.outs(node, port) {
                        let e = e as usize;
                        queues.push(
                            e,
                            Token {
                                value: fire.value,
                                written: t,
                            },
                        );
                        let consumer = ports.dst[e] as usize;
                        wake[consumer] = wake[consumer].min(t + queues.rings[e].budget);
                    }
                }
                if let Some((addr, value)) = fire.mem_write {
                    let a = addr as usize;
                    assert!(a < self.mem.len(), "store to {a} out of bounds");
                    self.mem[a] = value;
                }
                if self.config.marker == Some(NodeId::from_index(node)) {
                    marker_times.push(t);
                }
            }
            // A node that popped sleeps until its inputs could all be
            // visible again; one that popped nothing (a source, a Phi's
            // initial token, an op on constants only) stays awake.
            for fire in decided.drain(..) {
                if fire.pops != [None; 2] {
                    wake[fire.node] = ports.ready_at(&queues, fire.node);
                }
            }

            if let (Some(max), Some(marker)) = (self.config.max_marker_fires, self.config.marker) {
                if fires[marker.index()] >= max {
                    t += 1;
                    break StopReason::MarkerDone;
                }
            }
            let deadline = last_fire_tick + quiesce_window;
            if t >= deadline {
                break StopReason::Quiesced;
            }
            // No clock a node uses rises strictly between `t` and the
            // next edge, so nothing can fire there and no stop test can
            // change its answer before the deadline: jump.
            t = next_edge
                .into_iter()
                .min()
                .expect("three modes")
                .min(deadline)
                .min(self.config.max_ticks);
        };

        let result = SimResult {
            fires,
            marker_times,
            ticks: t,
            stop,
            mem: self.mem,
            clocks: self.config.clocks.clone(),
        };
        (result, decisions)
    }

    /// The quiesce window must outlast the largest possible visibility
    /// delay (a slow consumer on a long routed edge), otherwise an
    /// aging token reads as a dead machine.
    fn quiesce_window(&self) -> u64 {
        let max_extra = self
            .config
            .edge_extra_latency
            .iter()
            .copied()
            .max()
            .unwrap_or(0);
        self.config.clocks.hyperperiod()
            * (2 + u64::from(self.config.hop_latency) + u64::from(max_extra))
    }

    /// [`DfgSimulator::decide`] on the port tables and the queue slab,
    /// without allocating: what `node` does on its rising edge at tick
    /// `t`, and if it idles, what it waits for.
    fn decide_fast(&self, ports: &PortTables, queues: &Queues, node: usize, t: u64) -> Decision {
        let rec = &ports.nodes[node];
        let op = rec.op;
        let push = |port: u8, value: u32| {
            if ports.has_space(queues, node, port) {
                Decision::Fire(Fire {
                    node,
                    pops: [None; 2],
                    out_port: Some(port),
                    value,
                    mem_write: None,
                })
            } else {
                Decision::Full
            }
        };

        // Source: emit the next value in sequence while under the limit.
        if op == Op::Source {
            if let Some(limit) = self.config.source_limit {
                if self.source_count[node] >= limit {
                    return Decision::Starved(u64::MAX);
                }
            }
            return push(0, self.source_count[node] as u32);
        }

        // Phi bootstrap: emit the initial token once after reset.
        if self.init_pending[node] {
            return push(0, rec.init.expect("init_pending implies init"));
        }

        if op == Op::Phi {
            // Merge: fire on the first visible input (in input order).
            let chosen = rec
                .ins
                .into_iter()
                .flatten()
                .find_map(|e| Some((e, queues.visible(e as usize, t)?)));
            let Some((edge, value)) = chosen else {
                return Decision::Starved(ports.ready_at(queues, node));
            };
            return match push(0, value) {
                Decision::Fire(fire) => Decision::Fire(Fire {
                    pops: [Some(edge), None],
                    ..fire
                }),
                idle => idle,
            };
        }

        // All-input ops: each driven port must have a visible token;
        // undriven ports fall back to the configured constant.
        let arity = op.arity().max(1);
        let mut operands = [None::<u32>; 2];
        let mut pops = [None; 2];
        for port in 0..arity {
            if let Some(edge) = rec.ins[port] {
                let Some(value) = queues.visible(edge as usize, t) else {
                    return Decision::Starved(ports.ready_at(queues, node));
                };
                operands[port] = Some(value);
                pops[port] = Some(edge);
            } else {
                operands[port] = rec.constant;
            }
        }
        let a = operands[0].expect("validated graphs have all operands");
        let b = if arity > 1 {
            operands[1].expect("validated graphs have all operands")
        } else {
            0
        };

        let out_port = match op {
            Op::Sink => None,
            Op::Br => Some(if b != 0 { 0 } else { 1 }),
            _ => Some(0),
        };
        if let Some(port) = out_port {
            if !ports.has_space(queues, node, port) {
                return Decision::Full;
            }
        }
        let (value, mem_write) = match op {
            Op::Load => {
                let addr = a as usize;
                assert!(addr < self.mem.len(), "load from {addr} out of bounds");
                (self.mem[addr], None)
            }
            Op::Store => (b, Some((a, b))),
            _ => (op.eval(a, b), None),
        };
        Decision::Fire(Fire {
            node,
            pops,
            out_port,
            value,
            mem_write,
        })
    }

    /// Run to completion with the original tick-by-tick stepper: every
    /// node is examined on every PLL tick. This is the test oracle that
    /// [`DfgSimulator::run`] must match exactly.
    pub fn run_reference(mut self) -> SimResult {
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

    /// The stepper's work counter: decisions per run of the paper
    /// kernels at small scale under each uniform assignment (rest,
    /// nominal, sprint) and one mixed assignment (node `i` in mode
    /// `i % 3`), pinned exactly. A change in these numbers is a change
    /// in how much work `run` does, not in what it computes.
    #[test]
    fn decide_calls_are_pinned() {
        let pinned: [(&str, [u64; 4]); 5] = [
            ("llist", [329, 329, 329, 329]),
            ("dither", [839, 839, 839, 766]),
            ("susan", [1_352, 1_352, 1_352, 1_407]),
            ("fft", [1_270, 1_270, 1_270, 1_310]),
            ("bf", [753, 753, 753, 723]),
        ];
        let ks = [
            kernels::llist::build_with_hops(40),
            kernels::dither::build_with_pixels(40),
            kernels::susan::build_with_iters(40),
            kernels::fft::build_with_group(40),
            kernels::bf::build_with_rounds(16),
        ];
        for (k, (name, want)) in ks.iter().zip(pinned) {
            assert_eq!(k.name, name);
            let n = k.dfg.node_count();
            let got = [0, 1, 2, 3].map(|a| {
                let modes = (0..n).map(|i| VfMode::ALL[if a < 3 { a } else { i % 3 }]);
                let config = SimConfig {
                    marker: Some(k.iter_marker),
                    ..SimConfig::default()
                };
                let sim = DfgSimulator::new(&k.dfg, modes.collect(), k.mem.clone(), config);
                sim.run_counted(&PortTables::build(&k.dfg)).1
            });
            assert_eq!(
                got, want,
                "{name}: decisions under rest, nominal, sprint, mixed"
            );
        }
    }
}
