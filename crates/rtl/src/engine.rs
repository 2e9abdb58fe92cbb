//! The event-driven fabric engine.
//!
//! The dense stepper in [`crate::fabric`] sweeps every PE on every PLL
//! tick even though irregular loops leave most PEs stalled most of the
//! time. This module exploits the elasticity of the fabric: a PE's
//! decision (`fire` / `backpressure` / `suppressed` / `operand` /
//! `gated`) can only change when one of its *wakeup edges* occurs —
//! a token arrives in an input queue, a downstream queue it multicasts
//! into frees a slot, a suppressed token finishes aging, or (under the
//! traditional suppressor) the safe-edge phase of a crossing flips.
//! Between wakeups the PE's rising edges all replay its last recorded
//! outcome, so the engine accounts for them in closed form instead of
//! re-evaluating.
//!
//! This is the only runtime engine: [`Fabric::run`] calls it. The
//! dense stepper is retained verbatim as [`Fabric::run_reference`],
//! the test oracle: both must produce bit-identical [`Activity`] (and
//! therefore `RunReport`s) on every kernel. The contract is enforced
//! by the differential suite (`tests/differential.rs`) over the paper
//! kernels and seeded random fabrics, by the fault suite, and by the
//! DSE's parity test (`crates/dse/tests/engine_parity.rs`) over the
//! assignments the search recommends.
//!
//! # Scheduling model
//!
//! Per clock domain the engine keeps a *ready set* (a bitset over PE
//! indices in row-major order). A PE is *armed* when its next rising
//! edge must be genuinely evaluated, and *disarmed* when its outcome is
//! provably static until a wakeup:
//!
//! * **suppressed** edges re-arm (aging resolves within one period);
//! * under [`SuppressorKind::Traditional`], any PE holding a token in a
//!   used input queue stays armed (the safe-edge LUT flips visibility
//!   with clock phase, so its class is time-varying);
//! * **fired** edges re-arm once phase 2 has applied the PE's own pops
//!   and writes — unless that left it *idle* (every used input queue
//!   empty, register empty, no init pending) and `decide` has already
//!   returned its idle outcome once. In that state the outcome depends
//!   only on the PE's configuration, so the PE replays the stored one;
//! * everything else — backpressured, operand-starved, or gateable
//!   edges — is static until a queue it observes changes. A pop of a
//!   queue it multicasts into re-arms it only if its outcome had an
//!   output stall (a pop only adds credit); a push into one of its
//!   input queues re-arms it only if its outcome found that queue
//!   without a visible token (a push behind a front token leaves the
//!   front unchanged).
//!
//! The simulated clock then jumps straight to the earliest rising edge
//! of any non-empty ready set (or to the quiesce deadline / tick
//! limit, whichever is sooner). Before any queue mutation the affected
//! PE is *caught up*: the rising edges it skipped are replayed in bulk
//! into the same counters the dense engine maintains per tick. A push
//! catches its receiver up even when it does not re-arm it, because the
//! queue's occupancy flush credits the skipped edges at the old length.
//!
//! # Data layout
//!
//! A run allocates nothing per fire; the scheduler divides nothing. PEs
//! sit in one row-major array, each with a link table (neighbour index
//! and facing-back queue per direction); plans are fixed-size records;
//! counters are flat per-PE arrays, nested once for [`Activity`];
//! `SimClock` advances domain edges by addition; queues are fixed
//! rings; and a queue's occupancy samples are credited in one step
//! whenever its length is about to change (`Counters::flush_occupancy`),
//! not on every edge.
//!
//! # Two builds
//!
//! [`Fabric::run`] runs one of two builds of the same source, chosen per
//! run by a const generic (`PLAIN`) on the engine loop and on the
//! `Fabric` methods it calls (`decide`, `plan_edge`, `queue_visible`,
//! `mask_ready`, `take_checked`, `push_checked`):
//!
//! * the **plain** build takes a run with an empty fault plan under
//!   the elasticity-aware suppressor: every paper, Table II and
//!   benchmark run. It compiles out the fault hooks and the traditional
//!   suppressor's branches, and accounts each delivered token with one
//!   checker update;
//! * the **general** build takes every other run: runs with faults
//!   (every PE stays armed; see `run_event`) and runs under
//!   [`SuppressorKind::Traditional`]. `Fabric::run_reference` calls
//!   the general build of the shared methods.
//!
//! Both builds run every protocol check: overflow, take errors,
//! suppressor safety, memory bounds and the end-of-run conservation
//! checks.

use crate::fabric::{
    Activity, DirBits, EdgeClass, Fabric, FabricStop, FireEvent, Outcome, Plan, SuppressorKind,
};
use crate::queue::Token;
use uecgra_clock::{ClockSet, VfMode};
use uecgra_compiler::bitstream::{Dir, PeRole};
use uecgra_dfg::Op;

/// Per-PE scheduling state. (How many of its rising edges are already
/// accounted for is `Counters::rising_edges`.)
#[derive(Debug, Clone, Copy)]
struct PeSched {
    clk: VfMode,
    gated: bool,
    /// The outcome its skipped edges replay.
    last: Outcome,
    /// The outcome `decide` returned the first time it found the PE
    /// idle (see [`is_idle`]); in that state the outcome depends only
    /// on the PE's configuration.
    idle: Option<Outcome>,
}

/// Per-clock-domain ready sets: bitsets over row-major PE indices, so
/// draining in ascending bit order reproduces the dense stepper's
/// row-major evaluation (and therefore its plan order exactly).
struct ReadySets {
    /// `n_words` words per domain, domain `m` at `m * n_words ..`.
    words: Vec<u64>,
    n_words: usize,
    /// Membership per PE, mirroring the bitsets (a wakeup tests one
    /// flag without looking up the PE's domain).
    armed: Vec<bool>,
}

impl ReadySets {
    fn new(n: usize) -> ReadySets {
        let n_words = n.div_ceil(64);
        ReadySets {
            words: vec![0u64; 3 * n_words],
            n_words,
            armed: vec![false; n],
        }
    }

    fn insert(&mut self, mode: VfMode, idx: usize) {
        self.words[mode as usize * self.n_words + idx / 64] |= 1u64 << (idx % 64);
        self.armed[idx] = true;
    }

    /// Is `idx` currently armed? Armed PEs have no unaccounted edges,
    /// so wakeups can skip them entirely — the hot path on busy
    /// fabrics, where most neighbors are already armed.
    fn contains(&self, idx: usize) -> bool {
        self.armed[idx]
    }

    fn domain(&self, mode: VfMode) -> &[u64] {
        let m = mode as usize;
        &self.words[m * self.n_words..(m + 1) * self.n_words]
    }

    /// Drain every armed PE whose domain rises at the clock's tick
    /// into `out`, in ascending (row-major) index order.
    fn drain_rising(&mut self, clock: &SimClock, out: &mut Vec<usize>) {
        out.clear();
        let rising: [bool; 3] = core::array::from_fn(|m| clock.rising(m));
        for wi in 0..self.n_words {
            let mut merged = 0u64;
            for (m, &rises) in rising.iter().enumerate() {
                if rises {
                    merged |= std::mem::take(&mut self.words[m * self.n_words + wi]);
                }
            }
            while merged != 0 {
                let idx = wi * 64 + merged.trailing_zeros() as usize;
                self.armed[idx] = false;
                out.push(idx);
                merged &= merged - 1;
            }
        }
    }

    /// The earliest rising edge after the clock's tick of any domain
    /// with at least one armed PE (`None` when everything is
    /// disarmed).
    fn next_event(&self, clock: &SimClock) -> Option<u64> {
        VfMode::ALL
            .into_iter()
            .filter(|&m| self.domain(m).iter().any(|&w| w != 0))
            .map(|m| clock.next_rising(m as usize))
            .min()
    }
}

/// The simulated clock: the current PLL tick and, per domain, its
/// latest rising edge and its rising-edge count through that tick,
/// advanced by adding periods (each step moves a few periods at most).
struct SimClock {
    t: u64,
    period: [u64; 3],
    last: [u64; 3],
    /// Rising edges in `[0, t]` per domain (the edge at 0 counts).
    edges: [u64; 3],
}

impl SimClock {
    fn new(clocks: &ClockSet) -> SimClock {
        SimClock {
            t: 0,
            period: VfMode::ALL.map(|m| clocks.period(m)),
            last: [0; 3],
            edges: [1; 3],
        }
    }

    fn advance(&mut self, t: u64) {
        self.t = t;
        for m in 0..3 {
            while self.last[m] + self.period[m] <= t {
                self.last[m] += self.period[m];
                self.edges[m] += 1;
            }
        }
    }

    fn rising(&self, m: usize) -> bool {
        self.last[m] == self.t
    }

    fn next_rising(&self, m: usize) -> u64 {
        self.last[m] + self.period[m]
    }
}

/// The per-PE counter arrays the dense stepper maintains tick by tick,
/// stored flat (indexed by row-major PE index) so the hot eval and
/// catch-up paths touch one allocation instead of chasing nested Vecs.
/// [`Counters::into_nested`] restores the `[y][x]` layout `Activity`
/// exposes.
struct Counters {
    fires: Vec<u64>,
    bypass_tokens: Vec<u64>,
    rising_edges: Vec<u64>,
    fire_edges: Vec<u64>,
    operand_stalls: Vec<u64>,
    suppressed_stalls: Vec<u64>,
    backpressure_stalls: Vec<u64>,
    gated_ticks: Vec<u64>,
    /// `buckets` slots per PE, at `idx * buckets ..`.
    queue_occupancy: Vec<u64>,
    buckets: usize,
    /// Per input queue (`idx * 4 + dir`): `rising_edges[idx]` at the
    /// queue's last occupancy flush.
    occupancy_since: Vec<u64>,
    domain_gated_ticks: [u64; 3],
    marker_times: Vec<u64>,
    events: Vec<FireEvent>,
}

impl Counters {
    fn new(n: usize, occupancy_buckets: usize) -> Counters {
        Counters {
            fires: vec![0; n],
            bypass_tokens: vec![0; n],
            rising_edges: vec![0; n],
            fire_edges: vec![0; n],
            operand_stalls: vec![0; n],
            suppressed_stalls: vec![0; n],
            backpressure_stalls: vec![0; n],
            gated_ticks: vec![0; n],
            queue_occupancy: vec![0; n * occupancy_buckets],
            buckets: occupancy_buckets,
            occupancy_since: vec![0; n * 4],
            domain_gated_ticks: [0; 3],
            marker_times: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Credit queue `dir` of PE `idx`, at its current length, with the
    /// PE's rising edges accounted since the last flush. Called before
    /// each push or take (after the PE is caught up) and once at the
    /// end, this sums to the dense stepper's per-edge samples.
    fn flush_occupancy(&mut self, fab: &Fabric, idx: usize, dir: usize) {
        let since = &mut self.occupancy_since[idx * 4 + dir];
        let edges = self.rising_edges[idx];
        if edges == *since {
            return;
        }
        let len = fab.grid[idx].queues[dir].len().min(self.buckets - 1);
        self.queue_occupancy[idx * self.buckets + len] += edges - *since;
        *since = edges;
    }
}

/// Re-shape a flat row-major counter array into the `[y][x]` nesting
/// used by [`Activity`].
fn into_nested(flat: Vec<u64>, w: usize) -> Vec<Vec<u64>> {
    flat.chunks(w).map(<[u64]>::to_vec).collect()
}

/// Replay the rising edges PE `idx` skipped while disarmed, up to
/// `edges[domain]` rising edges in all. Must run *before* any of the
/// PE's queues changes length, so the occupancy flush credits the
/// replayed edges to the lengths they saw. A no-op on armed PEs (they
/// have no unaccounted edges) and on gated PEs.
fn catch_up(sched: &[PeSched], c: &mut Counters, idx: usize, edges: &[u64; 3]) {
    let s = &sched[idx];
    if s.gated {
        return;
    }
    let target = edges[s.clk as usize];
    if target <= c.rising_edges[idx] {
        return;
    }
    let k = target - c.rising_edges[idx];
    c.rising_edges[idx] = target;
    match s.last.class {
        // A suppressed edge re-arms its PE and a fired one re-arms it
        // or replays its idle outcome, so a disarmed PE can only be
        // replaying a static stall class.
        EdgeClass::Fire | EdgeClass::Suppressed => {
            unreachable!("fire/suppressed outcomes re-arm; they are never replayed")
        }
        EdgeClass::Backpressure => c.backpressure_stalls[idx] += k,
        EdgeClass::Operand => c.operand_stalls[idx] += k,
        EdgeClass::Gated => {
            c.gated_ticks[idx] += k;
            c.domain_gated_ticks[s.clk as usize] += k;
        }
    }
}

/// A pop freed a slot in queue `dir` of PE `pe`: the (unique)
/// producer feeding that queue may unblock, so catch it up and re-arm
/// it — unless its recorded outcome had no output stall. Then its
/// `decide` either never asked for output credit or got it, and more
/// credit cannot change the answer.
fn wake_producer(
    fab: &Fabric,
    sched: &[PeSched],
    c: &mut Counters,
    ready: &mut ReadySets,
    pe: usize,
    dir: Dir,
    clock: &SimClock,
) {
    if let Some(link) = fab.grid[pe].links[dir as usize] {
        let idx = link.pe;
        if ready.contains(idx) || !sched[idx].last.out_stalled {
            return;
        }
        catch_up(sched, c, idx, &clock.edges);
        ready.insert(sched[idx].clk, idx);
    }
}

/// `Fabric::deliver` with wakeup hooks: each receiving PE is caught up
/// and its queue's occupancy flushed *before* the queue grows (every
/// push, since the flush credits the skipped edges at the old length),
/// then the PE is re-armed if its recorded outcome found the receiving
/// queue starved. A push into any other queue leaves that queue's
/// front token, and so the outcome, unchanged.
#[allow(clippy::too_many_arguments)] // mirrors the dense phase-2 call site
fn deliver_and_wake<const PLAIN: bool>(
    fab: &mut Fabric,
    sched: &[PeSched],
    c: &mut Counters,
    ready: &mut ReadySets,
    pe: usize,
    out: u8,
    value: u32,
    clock: &SimClock,
) {
    for d in DirBits(out) {
        if let Some(link) = fab.grid[pe].links[d] {
            let idx = link.pe;
            let disarmed = !ready.contains(idx);
            if disarmed {
                catch_up(sched, c, idx, &clock.edges);
            }
            c.flush_occupancy(fab, idx, link.back as usize);
            fab.push_checked::<PLAIN>(link, value, clock.t);
            if disarmed && sched[idx].last.starved & (1 << link.back as u8) != 0 {
                ready.insert(sched[idx].clk, idx);
            }
        }
    }
}

/// Under the traditional suppressor a held token's visibility flips
/// with the safe-edge LUT phase, so any PE with a token in a *used*
/// input queue has a time-varying outcome and must stay armed.
fn has_pending_input(fab: &Fabric, idx: usize) -> bool {
    let state = &fab.grid[idx];
    (0..4).any(|d| state.queue_users[d].iter().any(|&u| u) && !state.queues[d].is_empty())
}

/// A PE is idle when every used input queue is empty, its register is
/// empty and no init is pending. Then every operand `decide` reads is
/// a starved queue or register or a configured constant, so its
/// outcome depends only on the PE's configuration.
fn is_idle(fab: &Fabric, idx: usize) -> bool {
    let state = &fab.grid[idx];
    state.reg.is_none() && !state.init_pending && !has_pending_input(fab, idx)
}

/// Run `fab` to completion with the event-driven scheduler, producing
/// an [`Activity`] bit-identical to `Fabric::run_reference`, and the
/// number of edges the run evaluated (`Fabric::decide` calls). The
/// count is the engine's work counter: it is pinned by unit test and
/// kept out of `Activity`, whose fields both engines must agree on.
///
/// A run with an empty fault plan and the elasticity-aware suppressor
/// takes the plain build; every other run takes the general build.
pub(crate) fn run_event(fab: Fabric) -> (Activity, u64) {
    if fab.faults.is_empty() && fab.config.suppressor == SuppressorKind::ElasticityAware {
        run::<true>(fab)
    } else {
        run::<false>(fab)
    }
}

/// [`run_event`] in one build: `PLAIN` compiles out the fault hooks
/// and the traditional suppressor (see the module docs).
fn run<const PLAIN: bool>(mut fab: Fabric) -> (Activity, u64) {
    let (w, h) = (fab.width, fab.height);
    let n = w * h;
    let clocks = fab.config.clocks.clone();
    let quiesce_window = clocks.hyperperiod() * 3;
    let buckets = fab.config.queue_capacity + 1;
    let traditional = !PLAIN && fab.config.suppressor == SuppressorKind::Traditional;
    // Injected faults (stuck handshakes, domain stalls) change PE
    // outcomes at fault-plan boundaries with no queue mutation to hook
    // a wakeup on, so the skip optimization is unsound under them.
    // With a non-empty plan every evaluated PE simply re-arms: the
    // engine degrades to dense-equivalent evaluation while keeping the
    // bit-identical contract (re-evaluating an unchanged PE reproduces
    // exactly the counters a replay would).
    let always_armed = !PLAIN && !fab.faults.is_empty();
    let marker = fab.config.marker.map(|(x, y)| y * w + x);

    let mut c = Counters::new(n, buckets);
    let mut sched: Vec<PeSched> = (0..n)
        .map(|idx| {
            let cfg = &fab.grid[idx].config;
            PeSched {
                clk: cfg.clk,
                gated: cfg.role == PeRole::Gated,
                // Placeholder: every non-gated PE is evaluated at t=0
                // (all domains rise there) before any replay happens.
                // Gated PEs keep it: no output stall and nothing
                // starved, so no wake ever arms them.
                last: Outcome::default(),
                idle: None,
            }
        })
        .collect();
    let mut ready = ReadySets::new(n.max(1));
    let mut decides = 0u64;

    // `end` is the last PLL tick whose phase-1 accounting the dense
    // reference performs (None when max_ticks == 0 and the dense loop
    // never runs at all).
    let (stop, end, ticks) = if fab.config.max_ticks == 0 {
        (FabricStop::TickLimit, None, 0)
    } else {
        for (idx, s) in sched.iter().enumerate() {
            if !s.gated {
                ready.insert(s.clk, idx);
            }
        }
        let mut clock = SimClock::new(&clocks);
        let mut last_act = 0u64;
        let mut evaluated: Vec<usize> = Vec::new();
        let mut fired: Vec<usize> = Vec::new();
        // Scratch buffers reused across ticks (the dense stepper's
        // per-tick allocations are a measurable cost at this rate).
        let mut plans: Vec<Plan> = Vec::new();
        let mut pushes: Vec<(usize, u8, u32)> = Vec::new();
        let mut reg_writes: Vec<(usize, u32)> = Vec::new();
        let mut stores: Vec<(usize, u32, u32)> = Vec::new();
        loop {
            let t = clock.t;
            // Phase 1: evaluate armed PEs of the domains rising at `t`,
            // in row-major order (matching the dense sweep; skipped PEs
            // provably contribute no plans).
            plans.clear();
            fired.clear();
            ready.drain_rising(&clock, &mut evaluated);
            for &idx in &evaluated {
                c.rising_edges[idx] += 1;
                let outcome = fab.decide::<PLAIN>(idx, t, &mut plans);
                decides += 1;
                let class = outcome.class;
                match class {
                    EdgeClass::Fire => c.fire_edges[idx] += 1,
                    EdgeClass::Backpressure => c.backpressure_stalls[idx] += 1,
                    EdgeClass::Suppressed => c.suppressed_stalls[idx] += 1,
                    EdgeClass::Operand => c.operand_stalls[idx] += 1,
                    EdgeClass::Gated => {
                        c.gated_ticks[idx] += 1;
                        c.domain_gated_ticks[sched[idx].clk as usize] += 1;
                    }
                }
                let s = &mut sched[idx];
                s.last = outcome;
                if always_armed
                    || outcome.suppressed
                    || (traditional && has_pending_input(&fab, idx))
                {
                    ready.insert(s.clk, idx);
                } else if class == EdgeClass::Fire {
                    // Re-armed (or not) once its own pops and writes
                    // have landed, after phase 2.
                    fired.push(idx);
                } else if matches!(class, EdgeClass::Operand | EdgeClass::Gated)
                    && s.idle.is_none()
                    && is_idle(&fab, idx)
                {
                    s.idle = Some(outcome);
                }
            }

            // Phase 2: apply plans exactly as the dense stepper does —
            // pops first, then computes (loads read pre-store memory),
            // register writes, pushes, stores — with wakeup hooks on
            // every queue mutation.
            let acted = !plans.is_empty();
            pushes.clear();
            reg_writes.clear();
            stores.clear();

            for plan in &plans {
                match plan {
                    Plan::Compute {
                        pe,
                        pops,
                        consume_reg,
                        ..
                    } => {
                        for &d in pops.iter().flatten() {
                            c.flush_occupancy(&fab, *pe, d as usize);
                            if fab.take_checked::<PLAIN>(*pe, d, 0, t) {
                                wake_producer(&fab, &sched, &mut c, &mut ready, *pe, d, &clock);
                            }
                        }
                        if *consume_reg {
                            fab.grid[*pe].reg = None;
                        }
                    }
                    Plan::Bypass { pe, src, slot, .. } => {
                        c.flush_occupancy(&fab, *pe, *src as usize);
                        if fab.take_checked::<PLAIN>(*pe, *src, slot + 1, t) {
                            wake_producer(&fab, &sched, &mut c, &mut ready, *pe, *src, &clock);
                        }
                    }
                }
            }

            for plan in plans.drain(..) {
                match plan {
                    Plan::Compute {
                        pe,
                        operands,
                        op,
                        out_port,
                        is_init,
                        init_value,
                        ..
                    } => {
                        c.fires[pe] += 1;
                        if fab.config.record_events {
                            c.events.push(FireEvent {
                                tick: t,
                                pe: fab.grid[pe].pos,
                                is_fire: true,
                            });
                        }
                        if marker == Some(pe) {
                            c.marker_times.push(t);
                        }
                        if is_init {
                            fab.grid[pe].init_pending = false;
                        }
                        let value = if is_init {
                            init_value
                        } else {
                            match op {
                                Op::Load => fab.load_checked(pe, operands[0], t),
                                Op::Store => {
                                    stores.push((pe, operands[0], operands[1]));
                                    operands[1]
                                }
                                _ => op.eval(operands[0], operands[1]),
                            }
                        };
                        let state = &fab.grid[pe];
                        pushes.push((pe, state.outputs[out_port as usize], value));
                        if state.config.reg_write && out_port == 0 {
                            reg_writes.push((pe, value));
                        }
                    }
                    Plan::Bypass {
                        pe, slot, value, ..
                    } => {
                        c.bypass_tokens[pe] += 1;
                        if fab.config.record_events {
                            c.events.push(FireEvent {
                                tick: t,
                                pe: fab.grid[pe].pos,
                                is_fire: false,
                            });
                        }
                        pushes.push((pe, fab.grid[pe].outputs[2 + slot], value));
                    }
                }
            }

            for (pe, value) in reg_writes.drain(..) {
                fab.grid[pe].reg = Some(Token { value, written: t });
            }
            for (pe, out, value) in pushes.drain(..) {
                deliver_and_wake::<PLAIN>(
                    &mut fab, &sched, &mut c, &mut ready, pe, out, value, &clock,
                );
            }
            for (pe, addr, value) in stores.drain(..) {
                fab.store_checked(pe, addr, value, t);
            }
            // A PE that fired mutated its own queues and register, so
            // it re-arms — unless that left it idle in a state whose
            // outcome `decide` has already returned: it replays that.
            for &idx in &fired {
                if ready.contains(idx) {
                    continue; // a phase-2 wake already armed it
                }
                match sched[idx].idle {
                    Some(idle) if is_idle(&fab, idx) => sched[idx].last = idle,
                    _ => ready.insert(sched[idx].clk, idx),
                }
            }

            if fab.protocol.is_fatal() {
                break (FabricStop::ProtocolViolation, Some(t), t + 1);
            }
            if acted {
                last_act = t;
            }
            if let (Some(max), Some(m)) = (fab.config.max_marker_fires, marker) {
                if c.fires[m] >= max {
                    break (FabricStop::MarkerDone, Some(t), t + 1);
                }
            }
            if t >= last_act + quiesce_window {
                break (FabricStop::Quiesced, Some(t), t);
            }

            // Jump to the next interesting tick: the earliest rising
            // edge of an armed domain, unless the quiesce deadline or
            // the tick limit comes first. Every tick in between would
            // run an empty phase 1 in the dense engine (no armed PE
            // rises), so nothing is skipped — the skipped edges of
            // disarmed PEs are replayed by `catch_up` at the end.
            let t_quiesce = last_act + quiesce_window;
            let t_event = ready.next_event(&clock);
            let next = t_event.map_or(t_quiesce, |e| e.min(t_quiesce));
            if next >= fab.config.max_ticks {
                break (
                    FabricStop::TickLimit,
                    Some(fab.config.max_ticks - 1),
                    fab.config.max_ticks,
                );
            }
            if t_event.is_none_or(|e| t_quiesce < e) {
                break (FabricStop::Quiesced, Some(t_quiesce), t_quiesce);
            }
            clock.advance(next);
        }
    };

    let mut domain_edges = [0u64; 3];
    if let Some(end) = end {
        for m in VfMode::ALL {
            domain_edges[m as usize] = clocks.rising_edges_through(m, end);
        }
        for idx in 0..n {
            catch_up(&sched, &mut c, idx, &domain_edges);
        }
    }
    for idx in 0..n {
        for dir in 0..4 {
            c.flush_occupancy(&fab, idx, dir);
        }
    }

    let sram_accesses = into_nested((0..n).map(|idx| fab.scratch.accesses(idx)).collect(), w);
    let mem_len = fab.scratch.len();
    let protocol = fab.protocol_report(ticks);
    let queue_occupancy = c
        .queue_occupancy
        .chunks(buckets * w)
        .map(|row| row.chunks(buckets).map(<[u64]>::to_vec).collect())
        .collect();
    let activity = Activity {
        fires: into_nested(c.fires, w),
        bypass_tokens: into_nested(c.bypass_tokens, w),
        rising_edges: into_nested(c.rising_edges, w),
        fire_edges: into_nested(c.fire_edges, w),
        operand_stalls: into_nested(c.operand_stalls, w),
        suppressed_stalls: into_nested(c.suppressed_stalls, w),
        backpressure_stalls: into_nested(c.backpressure_stalls, w),
        gated_ticks: into_nested(c.gated_ticks, w),
        queue_occupancy,
        domain_edges,
        domain_gated_ticks: c.domain_gated_ticks,
        sram_accesses,
        marker_times: c.marker_times,
        ticks,
        stop,
        clocks,
        mem: fab.scratch.image(mem_len),
        events: c.events,
        protocol,
    };
    (activity, decides)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::FabricConfig;
    use crate::faults::{Fault, FaultKind, FaultPlan};
    use uecgra_compiler::bitstream::Bitstream;
    use uecgra_compiler::mapping::{ArrayShape, MappedKernel};
    use uecgra_compiler::power_map::{power_map, Objective};
    use uecgra_dfg::kernels;

    /// The five paper kernels at small scale.
    fn small_kernels() -> [kernels::Kernel; 5] {
        [
            kernels::llist::build_with_hops(40),
            kernels::dither::build_with_pixels(40),
            kernels::susan::build_with_iters(40),
            kernels::fft::build_with_group(40),
            kernels::bf::build_with_rounds(16),
        ]
    }

    const OBJECTIVES: [Option<Objective>; 3] =
        [None, Some(Objective::Energy), Some(Objective::Performance)];

    /// One run of kernel `k` (mapping seed 7) under objective `obj`
    /// (`None` = E-CGRA), with `config`'s suppressor and fault plan:
    /// its `Activity` and its `decide()` calls.
    fn run_kernel(
        k: &kernels::Kernel,
        obj: Option<Objective>,
        config: FabricConfig,
    ) -> (Activity, u64) {
        let mapped = MappedKernel::map(&k.dfg, ArrayShape::default(), 7).expect("maps");
        let modes = match obj {
            None => vec![VfMode::Nominal; k.dfg.node_count()],
            Some(o) => power_map(&k.dfg, k.mem.clone(), k.iter_marker, o).node_modes,
        };
        let bs = Bitstream::assemble(&k.dfg, &mapped, &modes).expect("assembles");
        let config = FabricConfig {
            marker: Some(mapped.coord_of(k.iter_marker)),
            ..config
        };
        run_event(Fabric::new(&bs, k.mem.clone(), config))
    }

    /// The engine's work counter: `decide()` calls per run of the five
    /// paper kernels at small scale (mapping seed 7) under E-CGRA,
    /// EOpt and POpt. The runs' `Activity` is pinned separately
    /// (`tests/golden_activity.rs`); these pins show how much of it
    /// the engine had to evaluate rather than replay, so a change to
    /// the wake rules shows up here as a changed count.
    #[test]
    fn decide_calls_are_pinned() {
        let pinned: [(&str, [u64; 3]); 5] = [
            ("llist", [327, 328, 328]),
            ("dither", [1_541, 1_538, 1_649]),
            ("susan", [1_908, 2_069, 2_110]),
            ("fft", [4_171, 4_171, 4_435]),
            ("bf", [1_309, 1_196, 1_334]),
        ];
        let ks = small_kernels();
        for (k, (name, want)) in ks.iter().zip(pinned) {
            assert_eq!(k.name, name);
            let got = OBJECTIVES.map(|obj| run_kernel(k, obj, FabricConfig::default()).1);
            assert_eq!(got, want, "{name}: decide() calls under E, EOpt, POpt");
        }
        // Under the traditional suppressor a PE holding a token stays
        // armed, so this run takes the engine's general build.
        let traditional = FabricConfig {
            suppressor: SuppressorKind::Traditional,
            ..FabricConfig::default()
        };
        assert_eq!(
            run_kernel(&ks[1], Some(Objective::Performance), traditional).1,
            286,
            "dither: decide() calls under POpt with the traditional suppressor"
        );
    }

    /// The plain and general builds agree. A fault whose window opens
    /// after the tick limit never fires, but its plan is not empty, so
    /// the run takes the general build, all-armed: the same `Activity`
    /// (its `ProtocolReport` included) from more `decide()` calls.
    #[test]
    fn plain_and_general_builds_agree() {
        let never = FabricConfig::default().max_ticks;
        let unfired = FaultPlan::single(Fault {
            pe: (0, 0),
            dir: Dir::North,
            kind: FaultKind::StickValid {
                from: never,
                ticks: 1,
            },
        });
        for k in &small_kernels() {
            for obj in OBJECTIVES {
                let (plain, plain_calls) = run_kernel(k, obj, FabricConfig::default());
                let faulted = FabricConfig {
                    faults: unfired.clone(),
                    ..FabricConfig::default()
                };
                let (general, general_calls) = run_kernel(k, obj, faulted);
                assert_eq!(plain, general, "{} {obj:?}: Activity", k.name);
                assert!(
                    general_calls > plain_calls,
                    "{} {obj:?}: the all-armed general build made {general_calls} \
                     decide() calls, the plain build {plain_calls}",
                    k.name
                );
            }
        }
    }

    #[test]
    fn ready_sets_drain_row_major() {
        let clocks = ClockSet::default();
        let mut r = ReadySets::new(130);
        r.insert(VfMode::Sprint, 129);
        r.insert(VfMode::Nominal, 3);
        r.insert(VfMode::Rest, 64);
        let mut out = Vec::new();
        // t=0: every domain rises.
        let mut clock = SimClock::new(&clocks);
        r.drain_rising(&clock, &mut out);
        assert_eq!(out, vec![3, 64, 129]);
        assert!(r.next_event(&clock).is_none());
        // t=2: only sprint rises; nominal member stays armed.
        r.insert(VfMode::Sprint, 7);
        r.insert(VfMode::Nominal, 1);
        clock.advance(2);
        r.drain_rising(&clock, &mut out);
        assert_eq!(out, vec![7]);
        assert_eq!(r.next_event(&clock), Some(3));
    }

    #[test]
    fn sim_clock_matches_the_clock_set() {
        let clocks = ClockSet::new([9, 4, 3]).expect("valid divisors");
        let mut clock = SimClock::new(&clocks);
        for t in [0, 1, 2, 3, 8, 9, 10, 35, 36, 100] {
            clock.advance(t);
            for m in VfMode::ALL {
                let i = m as usize;
                assert_eq!(clock.rising(i), clocks.is_rising(m, t), "{m:?} at {t}");
                assert_eq!(
                    clock.next_rising(i),
                    clocks.next_rising(m, t),
                    "{m:?} at {t}"
                );
                assert_eq!(
                    clock.edges[i],
                    clocks.rising_edges_through(m, t),
                    "{m:?} at {t}"
                );
            }
        }
    }
}
