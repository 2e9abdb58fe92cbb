//! The end-to-end UE-CGRA pipeline: kernel → map → power-map →
//! bitstream → cycle-level execution.
//!
//! [`RunRequest`] is the entry point: it compiles a kernel for the
//! 8×8 array under one of three policies — the all-nominal elastic
//! baseline (**E-CGRA**), or the ultra-elastic fabric with the
//! performance- or energy-optimized power mapping (**UE-CGRA POpt /
//! EOpt**) — and executes it to completion on the spatial simulator:
//!
//! ```
//! use uecgra_core::pipeline::{Policy, RunRequest};
//! use uecgra_dfg::kernels;
//!
//! let kernel = kernels::llist::build_with_hops(40);
//! let run = RunRequest::new(&kernel)
//!     .policy(Policy::UePerfOpt)
//!     .seed(7)
//!     .run()
//!     .unwrap();
//! assert!(run.try_ii().unwrap() > 0.0);
//! ```
//!
//! The builder exposes the knobs the harnesses need (queue depth,
//! event recording, fault injection, a [`ProbeSink`] for phase
//! timings). [`RunRequest::new`] takes a paper [`Kernel`];
//! [`RunRequest::for_graph`] takes a bare graph, which is how the
//! `uecgra` CLI runs a lowered loop. [`RunRequest::compile`] stops
//! after the bitstream; [`RunRequest::run`] also executes it on
//! [`Fabric::run`], the event-driven engine.
//!
//! The compile step has two stages. Placement and routing depend only
//! on the graph and the seed, never on the policy; the per-policy step
//! (`RunRequest::compile_mapped`) power-maps on the mapping's per-edge
//! extra hops and assembles. `run_all_policies_many` in
//! [`crate::experiments`] places each kernel once and finishes all
//! three policies from that mapping.

use crate::error::Error;
use uecgra_clock::VfMode;
use uecgra_compiler::bitstream::Bitstream;
use uecgra_compiler::mapping::{ArrayShape, MappedKernel};
use uecgra_compiler::power_map::{power_map_routed, Objective};
use uecgra_dfg::{Dfg, Kernel, NodeId};
use uecgra_probe::{Phase, ProbeSink};
use uecgra_rtl::fabric::{Fabric, FabricConfig, FabricStop};
use uecgra_rtl::Activity;
pub use uecgra_rtl::FaultPlan;

/// Which machine/policy a kernel is compiled for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Elastic CGRA: every PE at nominal voltage and frequency.
    ECgra,
    /// UE-CGRA with the energy-optimized power mapping.
    UeEnergyOpt,
    /// UE-CGRA with the performance-optimized power mapping.
    UePerfOpt,
}

impl Policy {
    /// All three policies in the paper's comparison order.
    pub const ALL: [Policy; 3] = [Policy::ECgra, Policy::UeEnergyOpt, Policy::UePerfOpt];

    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            Policy::ECgra => "E-CGRA",
            Policy::UeEnergyOpt => "UE-CGRA EOpt",
            Policy::UePerfOpt => "UE-CGRA POpt",
        }
    }
}

/// A completed compile-and-execute run.
#[derive(Debug, Clone)]
pub struct CgraRun {
    /// The policy used.
    pub policy: Policy,
    /// The placed-and-routed kernel.
    pub mapped: MappedKernel,
    /// The assembled configuration.
    pub bitstream: Bitstream,
    /// Per-DFG-node DVFS modes.
    pub modes: Vec<VfMode>,
    /// Cycle-level execution results.
    pub activity: Activity,
    /// Iterations the kernel was built for.
    pub iterations: u64,
}

impl CgraRun {
    /// Steady-state initiation interval in nominal cycles.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoSteadyState`] when the run produced too few
    /// iterations for the skip-8 steady-state window (e.g. a kernel
    /// built for only a few iterations, or a faulty run that was
    /// stopped early).
    pub fn try_ii(&self) -> Result<f64, Error> {
        self.activity.steady_ii(8).ok_or(Error::NoSteadyState {
            iterations: self.activity.iterations(),
        })
    }

    /// Wall-clock compute time in nanoseconds (750 MHz nominal).
    pub fn runtime_ns(&self) -> f64 {
        self.activity.nominal_cycles() * (4.0 / 3.0)
    }
}

/// Run `f`, reporting its wall-clock duration to `sink` when one is
/// attached. With no sink this is just a call — no clock reads, no
/// allocation — which keeps the hot fan-out paths cheap.
fn timed<T>(sink: &mut Option<&mut dyn ProbeSink>, phase: Phase, f: impl FnOnce() -> T) -> T {
    match sink {
        None => f(),
        Some(s) => {
            let start = std::time::Instant::now();
            let out = f();
            s.phase_done(phase, start.elapsed().as_nanos() as u64);
            out
        }
    }
}

/// A configured compile-and-execute request.
///
/// Defaults: E-CGRA policy, seed 7, paper-default queue depth 2, run
/// to quiescence, no event recording, no faults, no probe.
pub struct RunRequest<'a> {
    dfg: &'a Dfg,
    mem: &'a [u32],
    marker: NodeId,
    iterations: u64,
    policy: Policy,
    seed: u64,
    queue_depth: usize,
    record_events: bool,
    faults: FaultPlan,
    sink: Option<&'a mut dyn ProbeSink>,
}

impl<'a> RunRequest<'a> {
    /// Start a request for `kernel` with default settings.
    pub fn new(kernel: &'a Kernel) -> RunRequest<'a> {
        RunRequest::for_graph(
            &kernel.dfg,
            &kernel.mem,
            kernel.iter_marker,
            kernel.iters as u64,
        )
    }

    /// Start a request for a bare dataflow graph: its initial memory
    /// image, the node whose firings count iterations, and the trip
    /// count the no-progress watchdog holds a faulty run to.
    pub fn for_graph(
        dfg: &'a Dfg,
        mem: &'a [u32],
        marker: NodeId,
        iterations: u64,
    ) -> RunRequest<'a> {
        RunRequest {
            dfg,
            mem,
            marker,
            iterations,
            policy: Policy::ECgra,
            seed: 7,
            queue_depth: 2,
            record_events: false,
            faults: FaultPlan::none(),
            sink: None,
        }
    }

    /// Select the machine/policy (default: [`Policy::ECgra`]).
    pub fn policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Set the mapping seed (default: 7).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Input-queue capacity (default: 2, the paper's). Zero is
    /// rejected with [`Error::ZeroQueueDepth`] before placement.
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth;
        self
    }

    /// Record per-event (tick, PE) firings for waveform dumping.
    pub fn record_events(mut self, on: bool) -> Self {
        self.record_events = on;
        self
    }

    /// Inject a [`FaultPlan`] into the fabric (default: none). The
    /// always-on protocol checker converts any resulting invariant
    /// violation into [`Error::Protocol`]. A non-empty plan also arms
    /// the no-progress watchdog: a faulty run that quiesces short of
    /// its iteration target becomes [`Error::Stalled`] with stall
    /// attribution. Fault-free runs (e.g. the deliberately deadlocking
    /// traditional-suppressor ablation) keep their natural stop.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Attach a [`ProbeSink`] to receive wall-clock phase timings.
    pub fn probe(mut self, sink: &'a mut dyn ProbeSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// The compile step: place and route, power-map for the policy,
    /// assemble and validate the bitstream.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ZeroQueueDepth`] for a queue depth of zero,
    /// [`Error::NoSteadyState`] when the policy power-maps a loop of
    /// fewer than two iterations (see [`require_steady_state`]),
    /// otherwise [`Error::Map`] or [`Error::Assemble`] from the first
    /// failing stage.
    pub fn compile(mut self) -> Result<Compiled<'a>, Error> {
        // Reject a request the fabric cannot run, or a loop too short
        // to power-map, before placing it.
        self.preflight()?;
        let (dfg, seed) = (self.dfg, self.seed);
        let mapped = timed(&mut self.sink, Phase::PlaceRoute, || {
            MappedKernel::map(dfg, ArrayShape::default(), seed)
        })?;
        self.compile_mapped(mapped)
    }

    /// The per-policy half of the compile step: power-map for the
    /// policy, then assemble and validate the bitstream on `mapped`,
    /// which must be this request's graph placed and routed with its
    /// seed. Placement does not depend on the policy, so the three
    /// policies can share one mapping.
    pub(crate) fn compile_mapped(mut self, mapped: MappedKernel) -> Result<Compiled<'a>, Error> {
        let objective = self.preflight()?;
        let dfg = self.dfg;
        // Routing-aware power mapping: feed the routed per-edge hop
        // counts into MeasureEnergyDelay so rest/sprint decisions see
        // physical recurrence lengths.
        let extra = mapped.edge_extra_hops();
        let modes = timed(&mut self.sink, Phase::PowerMap, || match objective {
            None => vec![VfMode::Nominal; dfg.node_count()],
            Some(objective) => {
                power_map_routed(dfg, self.mem.to_vec(), self.marker, objective, &extra).node_modes
            }
        });
        let bitstream = timed(&mut self.sink, Phase::Assemble, || {
            Bitstream::assemble(dfg, &mapped, &modes)
        })?;
        bitstream.validate()?;
        Ok(Compiled {
            mapped,
            bitstream,
            modes,
            request: self,
        })
    }

    /// The checks that need no placement, then the power-mapping
    /// objective of the policy (`None` for E-CGRA).
    fn preflight(&self) -> Result<Option<Objective>, Error> {
        if self.queue_depth == 0 {
            return Err(Error::ZeroQueueDepth);
        }
        let objective = match self.policy {
            Policy::ECgra => None,
            Policy::UeEnergyOpt => Some(Objective::Energy),
            Policy::UePerfOpt => Some(Objective::Performance),
        };
        if objective.is_some() {
            require_steady_state(self.iterations)?;
        }
        Ok(objective)
    }

    /// Compile and execute: [`RunRequest::compile`] followed by
    /// [`Compiled::execute`].
    ///
    /// # Errors
    ///
    /// Returns the pipeline [`Error`] of the first failing stage.
    pub fn run(self) -> Result<CgraRun, Error> {
        self.compile()?.execute()
    }
}

/// The power mapper and the DSE judge a mode assignment by its
/// steady-state II on the analytical model, which needs at least two
/// iterations of the loop.
///
/// # Errors
///
/// Returns [`Error::NoSteadyState`] for a trip count below two.
pub fn require_steady_state(iterations: u64) -> Result<(), Error> {
    if iterations < 2 {
        return Err(Error::NoSteadyState { iterations });
    }
    Ok(())
}

/// A request whose compile step has finished, ready to execute.
pub struct Compiled<'a> {
    /// The placed-and-routed graph.
    pub mapped: MappedKernel,
    /// The assembled, validated configuration.
    pub bitstream: Bitstream,
    /// Per-DFG-node DVFS modes.
    pub modes: Vec<VfMode>,
    request: RunRequest<'a>,
}

impl Compiled<'_> {
    /// The execute step: run the bitstream on the fabric (the
    /// event-driven [`Fabric::run`]) to completion.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DidNotTerminate`] for a run that hits its tick
    /// limit, [`Error::Protocol`] for a fatal elastic-protocol
    /// violation, or — with the watchdog armed by a non-empty fault
    /// plan — [`Error::Stalled`] for a run that quiesced short of its
    /// iteration target.
    pub fn execute(self) -> Result<CgraRun, Error> {
        let mut request = self.request;
        let watchdog = !request.faults.is_empty();
        let config = FabricConfig {
            marker: Some(self.mapped.coord_of(request.marker)),
            queue_capacity: request.queue_depth,
            record_events: request.record_events,
            faults: request.faults,
            ..FabricConfig::default()
        };
        let activity = timed(&mut request.sink, Phase::Simulate, || {
            Fabric::new(&self.bitstream, request.mem.to_vec(), config).run()
        });
        if activity.stop == FabricStop::ProtocolViolation {
            let v = *activity
                .protocol
                .first_fatal()
                .expect("a protocol stop carries its fatal violation");
            return Err(Error::Protocol(v));
        }
        if activity.stop == FabricStop::TickLimit {
            return Err(Error::DidNotTerminate);
        }
        // No-progress watchdog: a quiesced fabric that delivered fewer
        // marker fires than the iteration target has live- or
        // deadlocked (under faults this is the expected failure mode of
        // a permanently stuck handshake or stalled domain). Attribute
        // the stall to the PE with the most blocked edges.
        if watchdog && activity.iterations() < request.iterations {
            return Err(Error::Stalled {
                cycle: activity.ticks,
                pe: worst_stalled_pe(&activity),
            });
        }

        Ok(CgraRun {
            policy: request.policy,
            mapped: self.mapped,
            bitstream: self.bitstream,
            modes: self.modes,
            activity,
            iterations: request.iterations,
        })
    }
}

/// The PE with the largest summed stall attribution (operand +
/// suppressed + backpressure edges, the probe layer's partition) —
/// first in row-major order on ties, so the choice is deterministic.
fn worst_stalled_pe(act: &Activity) -> (usize, usize) {
    let mut best = (0usize, 0usize);
    let mut best_stalls = 0u64;
    for (y, row) in act.operand_stalls.iter().enumerate() {
        for (x, &op) in row.iter().enumerate() {
            let total = op + act.suppressed_stalls[y][x] + act.backpressure_stalls[y][x];
            if total > best_stalls {
                best_stalls = total;
                best = (x, y);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use uecgra_dfg::kernels;

    #[test]
    fn pipeline_runs_all_policies_on_llist() {
        let k = kernels::llist::build_with_hops(60);
        for policy in Policy::ALL {
            let run = RunRequest::new(&k).policy(policy).run().unwrap();
            let expect = k.reference_memory();
            assert_eq!(
                &run.activity.mem[..expect.len()],
                &expect[..],
                "{}: wrong result",
                policy.label()
            );
            assert!(run.try_ii().unwrap() > 0.0);
        }
    }

    #[test]
    fn popt_is_fastest_policy() {
        let k = kernels::dither::build_with_pixels(60);
        let e = RunRequest::new(&k).run().unwrap();
        let p = RunRequest::new(&k).policy(Policy::UePerfOpt).run().unwrap();
        let (p, e) = (p.try_ii().unwrap(), e.try_ii().unwrap());
        assert!(p < e, "POpt {p} vs E {e}");
    }

    #[test]
    fn short_runs_surface_no_steady_state() {
        let k = kernels::llist::build_with_hops(3);
        let run = RunRequest::new(&k).run().unwrap();
        match run.try_ii() {
            Err(Error::NoSteadyState { iterations }) => assert_eq!(iterations, 3),
            other => panic!("expected NoSteadyState, got {other:?}"),
        }
    }

    #[test]
    fn permanent_domain_stall_trips_the_watchdog() {
        use uecgra_clock::VfMode;
        use uecgra_compiler::bitstream::Dir;
        use uecgra_rtl::{Fault, FaultKind};

        let k = kernels::llist::build_with_hops(30);
        let fault = Fault {
            pe: (0, 0),
            dir: Dir::North,
            kind: FaultKind::StallDomain {
                domain: VfMode::Nominal,
                from: 0,
                ticks: u64::MAX,
            },
        };
        // E-CGRA runs everything at nominal, so a permanent nominal
        // stall freezes the whole fabric: the watchdog (armed by the
        // non-empty plan) must convert the quiesce into `Stalled`.
        let err = RunRequest::new(&k)
            .faults(FaultPlan::single(fault))
            .run()
            .unwrap_err();
        assert!(matches!(err, Error::Stalled { .. }), "{err:?}");
    }

    #[test]
    fn runtime_uses_750mhz_nominal() {
        let k = kernels::llist::build_with_hops(30);
        let run = RunRequest::new(&k).run().unwrap();
        let expect = run.activity.nominal_cycles() * (4.0 / 3.0);
        assert_eq!(run.runtime_ns(), expect);
    }
}
