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
//! kernels and seeded random fabrics, by the fault suite, and by
//! `uecgra_dse::rtl_check`.
//!
//! # Scheduling model
//!
//! Per clock domain the engine keeps a *ready set* (a bitset over PE
//! indices in row-major order). A PE is *armed* when its next rising
//! edge must be genuinely evaluated, and *disarmed* when its outcome is
//! provably static until a wakeup:
//!
//! * **fired** edges re-arm (the PE mutated its own queues/register);
//! * **suppressed** edges re-arm (aging resolves within one period);
//! * under [`SuppressorKind::Traditional`], any PE holding a token in a
//!   used input queue stays armed (the safe-edge LUT flips visibility
//!   with clock phase, so its class is time-varying);
//! * everything else — backpressured, operand-starved, or gateable
//!   edges — is static until a queue it observes changes, which only
//!   happens via a push into one of its input queues or a pop of a
//!   queue it multicasts into (both hooked below).
//!
//! The simulated clock then jumps straight to the earliest rising edge
//! of any non-empty ready set (or to the quiesce deadline / tick
//! limit, whichever is sooner). Before any queue mutation the affected
//! PE is *caught up*: the rising edges it skipped are replayed in bulk
//! into the same counters the dense engine maintains per tick.

use crate::fabric::{Activity, EdgeTally, Fabric, FabricStop, FireEvent, Plan, SuppressorKind};
use crate::queue::Token;
use uecgra_clock::{ClockSet, VfMode};
use uecgra_compiler::bitstream::{Dir, PeRole};
use uecgra_compiler::mapping::Coord;
use uecgra_dfg::Op;

/// The five-way disposition of one local rising edge (mirrors the
/// classification priority in the dense stepper's phase 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EdgeClass {
    Fire,
    Backpressure,
    Suppressed,
    Operand,
    Gated,
}

/// Per-PE scheduling state: how many of its rising edges are already
/// accounted for, and the outcome its skipped edges replay.
#[derive(Debug, Clone, Copy)]
struct PeSched {
    clk: VfMode,
    gated: bool,
    /// Rising edges accounted so far; after accounting through tick
    /// `t` this equals `t / period + 1` (edge at 0 always counts).
    edges_seen: u64,
    class: EdgeClass,
    in_stalls: u64,
    out_stalls: u64,
}

/// Per-clock-domain ready sets: bitsets over row-major PE indices, so
/// draining in ascending bit order reproduces the dense stepper's
/// row-major evaluation (and therefore its plan order exactly).
struct ReadySets {
    words: [Vec<u64>; 3],
    n_words: usize,
}

impl ReadySets {
    fn new(n: usize) -> ReadySets {
        let n_words = n.div_ceil(64);
        ReadySets {
            words: core::array::from_fn(|_| vec![0u64; n_words]),
            n_words,
        }
    }

    fn insert(&mut self, mode: VfMode, idx: usize) {
        self.words[mode as usize][idx / 64] |= 1u64 << (idx % 64);
    }

    /// Is `idx` currently armed in its domain? Armed PEs have no
    /// unaccounted edges, so wakeups can skip them entirely — the hot
    /// path on busy fabrics, where most neighbors are already armed.
    fn contains(&self, mode: VfMode, idx: usize) -> bool {
        self.words[mode as usize][idx / 64] & (1u64 << (idx % 64)) != 0
    }

    fn domain_empty(&self, mode: VfMode) -> bool {
        self.words[mode as usize].iter().all(|&w| w == 0)
    }

    /// Drain every armed PE whose domain rises at `t` into `out`, in
    /// ascending (row-major) index order.
    fn drain_rising(&mut self, clocks: &ClockSet, t: u64, out: &mut Vec<usize>) {
        out.clear();
        let rising: [bool; 3] = core::array::from_fn(|m| clocks.is_rising(VfMode::ALL[m], t));
        for wi in 0..self.n_words {
            let mut merged = 0u64;
            for (m, &rises) in rising.iter().enumerate() {
                if rises {
                    merged |= self.words[m][wi];
                    self.words[m][wi] = 0;
                }
            }
            while merged != 0 {
                out.push(wi * 64 + merged.trailing_zeros() as usize);
                merged &= merged - 1;
            }
        }
    }

    /// The earliest rising edge strictly after `t` of any domain with
    /// at least one armed PE (`None` when everything is disarmed).
    fn next_event(&self, clocks: &ClockSet, t: u64) -> Option<u64> {
        VfMode::ALL
            .into_iter()
            .filter(|&m| !self.domain_empty(m))
            .map(|m| clocks.next_rising(m, t))
            .min()
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
    input_stalls: Vec<u64>,
    output_stalls: Vec<u64>,
    rising_edges: Vec<u64>,
    fire_edges: Vec<u64>,
    operand_stalls: Vec<u64>,
    suppressed_stalls: Vec<u64>,
    backpressure_stalls: Vec<u64>,
    gated_ticks: Vec<u64>,
    /// `buckets` slots per PE, at `idx * buckets ..`.
    queue_occupancy: Vec<u64>,
    buckets: usize,
    domain_gated_ticks: [u64; 3],
    marker_times: Vec<u64>,
    events: Vec<FireEvent>,
}

impl Counters {
    fn new(n: usize, occupancy_buckets: usize) -> Counters {
        Counters {
            fires: vec![0; n],
            bypass_tokens: vec![0; n],
            input_stalls: vec![0; n],
            output_stalls: vec![0; n],
            rising_edges: vec![0; n],
            fire_edges: vec![0; n],
            operand_stalls: vec![0; n],
            suppressed_stalls: vec![0; n],
            backpressure_stalls: vec![0; n],
            gated_ticks: vec![0; n],
            queue_occupancy: vec![0; n * occupancy_buckets],
            buckets: occupancy_buckets,
            domain_gated_ticks: [0; 3],
            marker_times: Vec::new(),
            events: Vec::new(),
        }
    }
}

/// Re-shape a flat row-major counter array into the `[y][x]` nesting
/// used by [`Activity`].
fn into_nested(flat: Vec<u64>, w: usize) -> Vec<Vec<u64>> {
    flat.chunks(w).map(<[u64]>::to_vec).collect()
}

/// Replay the rising edges PE `idx` skipped while disarmed, through
/// PLL tick `through` inclusive. Must run *before* any queue visible
/// to the PE mutates — the replayed occupancy samples read the current
/// queue lengths, which are exactly the lengths at the PE's last
/// evaluation as long as nothing changed since. A no-op on armed PEs
/// (they have no unaccounted edges) and on gated PEs.
fn catch_up(fab: &Fabric, sched: &mut [PeSched], c: &mut Counters, idx: usize, through: u64) {
    let s = &mut sched[idx];
    if s.gated {
        return;
    }
    let target = fab.config.clocks.rising_edges_through(s.clk, through);
    if target <= s.edges_seen {
        return;
    }
    let k = target - s.edges_seen;
    s.edges_seen = target;
    let (x, y) = (idx % fab.width, idx / fab.width);
    c.rising_edges[idx] += k;
    let occ = &mut c.queue_occupancy[idx * c.buckets..(idx + 1) * c.buckets];
    for q in &fab.grid[y][x].queues {
        occ[q.len().min(c.buckets - 1)] += k;
    }
    c.input_stalls[idx] += k * s.in_stalls;
    c.output_stalls[idx] += k * s.out_stalls;
    match s.class {
        // Fired and suppressed edges always re-arm their PE, so a
        // disarmed PE can only be replaying a static stall class.
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

/// A pop freed a slot in queue `dir` of `pe`: the (unique) producer
/// feeding that queue may unblock, so catch it up and re-arm it.
fn wake_producer(
    fab: &Fabric,
    sched: &mut [PeSched],
    c: &mut Counters,
    ready: &mut ReadySets,
    pe: Coord,
    dir: Dir,
    t: u64,
) {
    if let Some((px, py)) = fab.neighbor(pe, dir) {
        let idx = py * fab.width + px;
        if sched[idx].gated || ready.contains(sched[idx].clk, idx) {
            return;
        }
        catch_up(fab, sched, c, idx, t);
        ready.insert(sched[idx].clk, idx);
    }
}

/// `Fabric::deliver` with wakeup hooks: each receiving PE is caught up
/// *before* its queue grows, then re-armed.
#[allow(clippy::too_many_arguments)] // mirrors the dense phase-2 call site
fn deliver_and_wake(
    fab: &mut Fabric,
    sched: &mut [PeSched],
    c: &mut Counters,
    ready: &mut ReadySets,
    pe: Coord,
    mask: [bool; 4],
    value: u32,
    t: u64,
) {
    for (i, &dir) in Dir::ALL.iter().enumerate() {
        if !mask[i] {
            continue;
        }
        if let Some((nx, ny)) = fab.neighbor(pe, dir) {
            let idx = ny * fab.width + nx;
            let wake = !sched[idx].gated && !ready.contains(sched[idx].clk, idx);
            if wake {
                catch_up(fab, sched, c, idx, t);
            }
            let back = Dir::between((nx, ny), pe);
            fab.push_checked((nx, ny), back, value, t);
            if wake {
                ready.insert(sched[idx].clk, idx);
            }
        }
    }
}

/// Under the traditional suppressor a held token's visibility flips
/// with the safe-edge LUT phase, so any PE with a token in a *used*
/// input queue has a time-varying outcome and must stay armed.
fn has_pending_input(fab: &Fabric, (x, y): Coord) -> bool {
    let state = &fab.grid[y][x];
    (0..4).any(|d| state.queue_users[d].iter().any(|&u| u) && !state.queues[d].is_empty())
}

/// Run `fab` to completion with the event-driven scheduler, producing
/// an [`Activity`] bit-identical to `Fabric::run`.
pub(crate) fn run_event(mut fab: Fabric) -> Activity {
    let (w, h) = (fab.width, fab.height);
    let n = w * h;
    let clocks = fab.config.clocks.clone();
    let hyper = clocks.hyperperiod();
    let quiesce_window = hyper * 3;
    let buckets = fab.config.queue_capacity + 1;
    let traditional = fab.config.suppressor == SuppressorKind::Traditional;
    // Injected faults (stuck handshakes, domain stalls) change PE
    // outcomes at fault-plan boundaries with no queue mutation to hook
    // a wakeup on, so the skip optimization is unsound under them.
    // With a non-empty plan every evaluated PE simply re-arms: the
    // engine degrades to dense-equivalent evaluation while keeping the
    // bit-identical contract (re-evaluating an unchanged PE reproduces
    // exactly the counters a replay would).
    let always_armed = !fab.faults.is_empty();

    let mut c = Counters::new(n, buckets);
    let mut sched: Vec<PeSched> = (0..n)
        .map(|idx| {
            let cfg = &fab.grid[idx / w][idx % w].config;
            PeSched {
                clk: cfg.clk,
                gated: cfg.role == PeRole::Gated,
                edges_seen: 0,
                // Placeholder: every non-gated PE is evaluated at t=0
                // (all domains rise there) before any replay happens.
                class: EdgeClass::Gated,
                in_stalls: 0,
                out_stalls: 0,
            }
        })
        .collect();
    let mut ready = ReadySets::new(n.max(1));

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
        let mut t = 0u64;
        let mut last_act = 0u64;
        let mut evaluated: Vec<usize> = Vec::new();
        // Scratch buffers reused across ticks (the dense stepper's
        // per-tick allocations are a measurable cost at this rate).
        let mut plans: Vec<Plan> = Vec::new();
        let mut pushes: Vec<(Coord, [bool; 4], u32)> = Vec::new();
        let mut reg_writes: Vec<(Coord, u32)> = Vec::new();
        let mut stores: Vec<(Coord, u32, u32)> = Vec::new();
        loop {
            // Phase 1: evaluate armed PEs of the domains rising at `t`,
            // in row-major order (matching the dense sweep; skipped PEs
            // provably contribute no plans).
            plans.clear();
            ready.drain_rising(&clocks, t, &mut evaluated);
            for &idx in &evaluated {
                let (x, y) = (idx % w, idx / w);
                c.rising_edges[idx] += 1;
                sched[idx].edges_seen += 1;
                let occ = &mut c.queue_occupancy[idx * buckets..(idx + 1) * buckets];
                for q in &fab.grid[y][x].queues {
                    occ[q.len().min(buckets - 1)] += 1;
                }
                let planned_before = plans.len();
                let mut tally = EdgeTally::default();
                fab.decide((x, y), t, &mut plans, &mut tally);
                c.input_stalls[idx] += tally.input_stalls;
                c.output_stalls[idx] += tally.output_stalls;
                let fired = plans.len() > planned_before;
                let class = if fired {
                    EdgeClass::Fire
                } else if tally.output_stalls > 0 {
                    EdgeClass::Backpressure
                } else if tally.suppressed {
                    EdgeClass::Suppressed
                } else if tally.input_stalls > 0 {
                    EdgeClass::Operand
                } else {
                    EdgeClass::Gated
                };
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
                sched[idx].class = class;
                sched[idx].in_stalls = tally.input_stalls;
                sched[idx].out_stalls = tally.output_stalls;
                if always_armed
                    || fired
                    || tally.suppressed
                    || (traditional && has_pending_input(&fab, (x, y)))
                {
                    ready.insert(sched[idx].clk, idx);
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
                        for &d in pops {
                            if fab.take_checked(*pe, d, 0, t) {
                                wake_producer(&fab, &mut sched, &mut c, &mut ready, *pe, d, t);
                            }
                        }
                        if *consume_reg {
                            fab.grid[pe.1][pe.0].reg = None;
                        }
                    }
                    Plan::Bypass { pe, src, slot, .. } => {
                        if fab.take_checked(*pe, *src, slot + 1, t) {
                            wake_producer(&fab, &mut sched, &mut c, &mut ready, *pe, *src, t);
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
                        let (x, y) = pe;
                        c.fires[y * w + x] += 1;
                        if fab.config.record_events {
                            c.events.push(FireEvent {
                                tick: t,
                                pe,
                                is_fire: true,
                            });
                        }
                        if fab.config.marker == Some(pe) {
                            c.marker_times.push(t);
                        }
                        if is_init {
                            fab.grid[y][x].init_pending = false;
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
                        let cfg = fab.grid[y][x].config;
                        let mask = if out_port == 0 {
                            cfg.alu_true_mask
                        } else {
                            cfg.alu_false_mask
                        };
                        pushes.push((pe, mask, value));
                        if cfg.reg_write && out_port == 0 {
                            reg_writes.push((pe, value));
                        }
                    }
                    Plan::Bypass {
                        pe,
                        dst_mask,
                        value,
                        ..
                    } => {
                        let (x, y) = pe;
                        c.bypass_tokens[y * w + x] += 1;
                        if fab.config.record_events {
                            c.events.push(FireEvent {
                                tick: t,
                                pe,
                                is_fire: false,
                            });
                        }
                        pushes.push((pe, dst_mask, value));
                    }
                }
            }

            for (pe, value) in reg_writes.drain(..) {
                fab.grid[pe.1][pe.0].reg = Some(Token { value, written: t });
            }
            for (pe, mask, value) in pushes.drain(..) {
                deliver_and_wake(&mut fab, &mut sched, &mut c, &mut ready, pe, mask, value, t);
            }
            for (pe, addr, value) in stores.drain(..) {
                fab.store_checked(pe, addr, value, t);
            }

            if fab.protocol.is_fatal() {
                break (FabricStop::ProtocolViolation, Some(t), t + 1);
            }
            if acted {
                last_act = t;
            }
            if let (Some(max), Some((mx, my))) = (fab.config.max_marker_fires, fab.config.marker) {
                if c.fires[my * w + mx] >= max {
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
            let t_event = ready.next_event(&clocks, t);
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
            t = next;
        }
    };

    let mut domain_edges = [0u64; 3];
    let mut domain_edges_hyper = [0u64; 3];
    if let Some(end) = end {
        for idx in 0..n {
            catch_up(&fab, &mut sched, &mut c, idx, end);
        }
        for m in VfMode::ALL {
            domain_edges[m as usize] = clocks.rising_edges_through(m, end);
            domain_edges_hyper[m as usize] = clocks.rising_edges_through(m, end.min(hyper - 1));
        }
    }

    let mut sram_accesses = vec![vec![0u64; w]; h];
    for (y, row) in sram_accesses.iter_mut().enumerate() {
        for (x, cell) in row.iter_mut().enumerate() {
            *cell = fab.scratch.accesses((x, y));
        }
    }
    let mem_len = fab.scratch.len();
    let protocol = fab.protocol_report(ticks);
    let queue_occupancy = c
        .queue_occupancy
        .chunks(buckets * w)
        .map(|row| row.chunks(buckets).map(<[u64]>::to_vec).collect())
        .collect();
    Activity {
        fires: into_nested(c.fires, w),
        bypass_tokens: into_nested(c.bypass_tokens, w),
        input_stalls: into_nested(c.input_stalls, w),
        output_stalls: into_nested(c.output_stalls, w),
        rising_edges: into_nested(c.rising_edges, w),
        fire_edges: into_nested(c.fire_edges, w),
        operand_stalls: into_nested(c.operand_stalls, w),
        suppressed_stalls: into_nested(c.suppressed_stalls, w),
        backpressure_stalls: into_nested(c.backpressure_stalls, w),
        gated_ticks: into_nested(c.gated_ticks, w),
        queue_occupancy,
        domain_edges,
        domain_edges_hyper,
        domain_gated_ticks: c.domain_gated_ticks,
        sram_accesses,
        marker_times: c.marker_times,
        ticks,
        stop,
        clocks,
        mem: fab.scratch.image(mem_len),
        events: c.events,
        protocol,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ready_sets_drain_row_major() {
        let clocks = ClockSet::default();
        let mut r = ReadySets::new(130);
        r.insert(VfMode::Sprint, 129);
        r.insert(VfMode::Nominal, 3);
        r.insert(VfMode::Rest, 64);
        let mut out = Vec::new();
        // t=0: every domain rises.
        r.drain_rising(&clocks, 0, &mut out);
        assert_eq!(out, vec![3, 64, 129]);
        assert!(r.next_event(&clocks, 0).is_none());
        // t=2: only sprint rises; nominal member stays armed.
        r.insert(VfMode::Sprint, 7);
        r.insert(VfMode::Nominal, 1);
        r.drain_rising(&clocks, 2, &mut out);
        assert_eq!(out, vec![7]);
        assert_eq!(r.next_event(&clocks, 2), Some(3));
    }
}
