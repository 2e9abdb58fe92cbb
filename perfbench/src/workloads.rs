//! The workloads: set-up, one timed pass, and the untimed checks after
//! the last pass. Every call into a layer goes through its public
//! function, inside a span of the [`Trace`].

use crate::inputs::{self, Scale};
use crate::trace::{PhaseSpans, Trace};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use uecgra_clock::VfMode;
use uecgra_compiler::bitstream::Bitstream;
use uecgra_compiler::mapping::{ArrayShape, MappedKernel};
use uecgra_compiler::power_map::{power_map_routed, Objective};
use uecgra_core::experiments::{run_all_policies_many, KernelRuns, SEED};
use uecgra_core::pipeline::{CgraRun, Policy, RunRequest};
use uecgra_dfg::Kernel;
use uecgra_dse::{digest_bytes, explore, modes_string, DseConfig, DseOutcome, EvalCache};
use uecgra_rtl::{Activity, Fabric, FabricConfig, FabricStop};

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table II: five kernels x three policies through the pipeline.
    Table2,
    /// The Table II DSE sweep, cold on a fresh evaluation cache and
    /// then warm on the same cache.
    DseSweep,
    /// Fabric runs of precompiled kernels at a long trip count.
    FabricLong,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::Table2, Workload::DseSweep, Workload::FabricLong];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table2 => "table2",
            Workload::DseSweep => "dse_sweep",
            Workload::FabricLong => "fabric_long",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Inputs and sizes shared by the workloads.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Workload seed: kernel input data and `DseConfig::seed`.
    pub seed: u64,
    /// Kernel scale of `table2` and the DSE workloads.
    pub table2: Scale,
    /// Kernel scale of `fabric_long`.
    pub long: Scale,
    /// Unique-evaluation budget of each `dse::explore` call.
    pub dse_budget: usize,
}

impl Config {
    /// The benchmark's own sizes.
    pub fn full(seed: u64) -> Config {
        Config {
            seed,
            table2: Scale::TABLE2,
            long: Scale::LONG,
            dse_budget: 256,
        }
    }

    /// Small sizes for a quick check that everything runs.
    pub fn smoke(seed: u64) -> Config {
        Config {
            seed,
            table2: Scale {
                iters: 60,
                bf_rounds: 24,
            },
            long: Scale {
                iters: 200,
                bf_rounds: 200,
            },
            dse_budget: 24,
        }
    }

    fn dse(&self) -> DseConfig {
        DseConfig {
            seed: self.seed,
            budget: self.dse_budget,
            ..DseConfig::default()
        }
    }
}

/// Operations attempted and failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: an error, a panic, or a wrong output.
    pub failed: u64,
}

impl Tally {
    fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Add another tally.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// One kernel's simulated Table II ratios against the all-nominal
/// baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratios {
    /// POpt speedup.
    pub popt_speedup: f64,
    /// POpt energy efficiency.
    pub popt_efficiency: f64,
    /// EOpt speedup.
    pub eopt_speedup: f64,
    /// EOpt energy efficiency.
    pub eopt_efficiency: f64,
    /// All-nominal EDP over the best EDP found.
    pub edp_gain: f64,
}

/// What one timed pass produced.
#[derive(Debug, Clone)]
pub struct PassOut {
    /// Operations of the pass.
    pub tally: Tally,
    /// Digest of every simulated statistic of the pass.
    pub digest: String,
    /// Per-kernel ratios (empty when the pass yields none).
    pub ratios: Vec<(&'static str, Ratios)>,
    /// Host seconds of each separately timed part of an untraced pass,
    /// in the same order on every pass: a kernel's product run on
    /// `table2`, an `explore` call on `dse_sweep`, a fabric run on
    /// `fabric_long`.
    pub parts: Vec<f64>,
}

/// What the checks after the last pass produced.
#[derive(Debug, Clone, Default)]
pub struct Finish {
    /// Operations of the checks.
    pub tally: Tally,
    /// Per-kernel ratios (`dse_sweep` only).
    pub ratios: Vec<(&'static str, Ratios)>,
    /// Host seconds of the greedy power-map baselines the DSE runs
    /// inside each `explore` call, replayed here (`dse_sweep` only).
    pub greedy_s: f64,
}

/// A workload after set-up.
pub trait Bench {
    /// The kernels the workload runs.
    fn kernels(&self) -> &[Kernel];
    /// One timed pass.
    fn pass(&mut self, trace: &mut Trace) -> PassOut;
    /// Untimed checks after the last pass.
    fn finish(&mut self, _trace: &mut Trace) -> Finish {
        Finish::default()
    }
}

/// Set a workload up.
pub fn setup(w: Workload, cfg: &Config) -> Box<dyn Bench> {
    match w {
        Workload::Table2 => Box::new(Table2::new(cfg)),
        Workload::DseSweep => Box::new(Dse::new(cfg)),
        Workload::FabricLong => Box::new(FabricLong::new(cfg)),
    }
}

/// Check one fabric run against the host reference: it must stop
/// normally, leave the reference memory image, and reach a steady state.
pub fn check_activity(act: &Activity, expect: &[u32]) -> Result<(), String> {
    if matches!(
        act.stop,
        FabricStop::TickLimit | FabricStop::ProtocolViolation
    ) {
        return Err(format!("fabric stopped with {:?}", act.stop));
    }
    if act.mem.get(..expect.len()) != Some(expect) {
        return Err("memory image differs from the host reference".into());
    }
    if act.steady_ii(8).is_none() {
        return Err("no steady state".into());
    }
    Ok(())
}

fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .map_or("panic".into(), |s| format!("panic: {s}"))
}

fn mem_digest(mem: &[u32]) -> String {
    let bytes: Vec<u8> = mem.iter().flat_map(|w| w.to_le_bytes()).collect();
    digest_bytes(&bytes).to_string()
}

fn sum(grid: &[Vec<u64>]) -> f64 {
    grid.iter().flatten().sum::<u64>() as f64
}

fn count_mapping(trace: &mut Trace, k: &Kernel, mapped: &MappedKernel) {
    trace.count("mapping.wirelength", mapped.wirelength() as f64);
    let hops: u32 = extra_hops(k, mapped).iter().sum();
    trace.count("mapping.extra_hops", hops as f64);
}

fn count_modes(trace: &mut Trace, modes: &[VfMode]) {
    let n = |m: VfMode| modes.iter().filter(|&&x| x == m).count() as f64;
    trace.count("power_map.sprint_nodes", n(VfMode::Sprint));
    trace.count("power_map.rest_nodes", n(VfMode::Rest));
}

fn count_activity(trace: &mut Trace, act: &Activity) {
    trace.count("rtl.calls", 1.0);
    trace.count("rtl.ticks", act.ticks as f64);
    trace.count("rtl.rising_edges", sum(&act.rising_edges));
    trace.count("rtl.fires", sum(&act.fires));
    let stalls =
        sum(&act.operand_stalls) + sum(&act.suppressed_stalls) + sum(&act.backpressure_stalls);
    trace.count("rtl.stall_edges", stalls);
}

/// Routed bypass hops per DFG edge, as `power_map_routed` takes them.
pub(crate) fn extra_hops(k: &Kernel, mapped: &MappedKernel) -> Vec<u32> {
    k.dfg.edges().map(|(id, _)| mapped.extra_hops(id)).collect()
}

/// Place and route with the fixed mapping seed (see `inputs`).
fn map(k: &Kernel) -> MappedKernel {
    MappedKernel::map(&k.dfg, ArrayShape::default(), SEED)
        .unwrap_or_else(|e| panic!("{}: mapping failed in set-up: {e}", k.name))
}

/// Table II ratios of one kernel's three runs.
fn table2_ratios(runs: &KernelRuns) -> Ratios {
    let row = runs.table2_row();
    Ratios {
        popt_speedup: row.popt_perf,
        popt_efficiency: row.popt_eff,
        eopt_speedup: row.eopt_perf,
        eopt_efficiency: row.eopt_eff,
        edp_gain: (row.eopt_perf * row.eopt_eff).max(row.popt_perf * row.popt_eff),
    }
}

/// Check, digest and count one kernel's three policy runs, then derive
/// its ratios when all three are correct.
fn settle_runs(
    trace: &mut Trace,
    kernel: &Kernel,
    expect: &[u32],
    runs: Vec<Result<CgraRun, String>>,
    out: &mut PassOut,
    text: &mut String,
) {
    let mut good = Vec::new();
    for (policy, run) in Policy::ALL.into_iter().zip(runs) {
        let run = run.and_then(|r| check_activity(&r.activity, expect).map(|()| r));
        out.tally.op(run.is_ok());
        match run {
            Ok(r) => {
                text.push_str(&format!(
                    "{} {} ii={:016x} modes={} ticks={} mem={}\n",
                    kernel.name,
                    policy.label(),
                    r.try_ii().map_or(0, f64::to_bits),
                    modes_string(&r.modes),
                    r.activity.ticks,
                    mem_digest(&r.activity.mem)
                ));
                count_mapping(trace, kernel, &r.mapped);
                count_modes(trace, &r.modes);
                count_activity(trace, &r.activity);
                good.push(r);
            }
            Err(e) => text.push_str(&format!("{} {} failed: {e}\n", kernel.name, policy.label())),
        }
    }
    if let Ok([e, eopt, popt]) = <[CgraRun; 3]>::try_from(good) {
        let runs = KernelRuns {
            kernel: kernel.clone(),
            e,
            eopt,
            popt,
        };
        match catch_unwind(AssertUnwindSafe(|| table2_ratios(&runs))) {
            Ok(r) => out.ratios.push((kernel.name, r)),
            Err(p) => {
                out.tally.op(false);
                text.push_str(&format!(
                    "{} ratios failed: {}\n",
                    kernel.name,
                    panic_text(p)
                ));
            }
        }
    }
}

struct Table2 {
    kernels: Vec<Kernel>,
    expect: Vec<Vec<u32>>,
}

impl Table2 {
    fn new(cfg: &Config) -> Table2 {
        let kernels = inputs::kernels(cfg.table2, cfg.seed);
        let expect = kernels.iter().map(Kernel::reference_memory).collect();
        Table2 { kernels, expect }
    }

    /// The grid through `RunRequest`, one request at a time, with each
    /// phase recorded as a layer span.
    fn traced_grid(&self, trace: &mut Trace) -> Vec<Vec<Result<CgraRun, String>>> {
        let mut grid = Vec::new();
        for k in &self.kernels {
            let mut row = Vec::new();
            for policy in Policy::ALL {
                let id = trace.open("pipeline", k.name);
                let run = catch_unwind(AssertUnwindSafe(|| {
                    let mut sink = PhaseSpans {
                        trace: &mut *trace,
                        kernel: k.name,
                    };
                    RunRequest::new(k)
                        .policy(policy)
                        .seed(SEED)
                        .probe(&mut sink)
                        .run()
                }));
                trace.close(id);
                row.push(match run {
                    Ok(r) => r.map_err(|e| e.to_string()),
                    Err(p) => Err(panic_text(p)),
                });
            }
            grid.push(row);
        }
        grid
    }

    /// The grid through `run_all_policies_many`, the path behind
    /// `table2_kernels`, one kernel per call; each call's host seconds go
    /// to `parts`. One error or panic fails the kernel's whole row.
    fn product_grid(&self, parts: &mut Vec<f64>) -> Vec<Vec<Result<CgraRun, String>>> {
        let failed = |e: String| Policy::ALL.iter().map(|_| Err(e.clone())).collect();
        let mut grid = Vec::new();
        for k in self.kernels.chunks(1) {
            let start = Instant::now();
            let row = catch_unwind(AssertUnwindSafe(|| run_all_policies_many(k, SEED)));
            parts.push(start.elapsed().as_secs_f64());
            grid.push(match row {
                Ok(Ok(mut all)) => {
                    let r = all.remove(0);
                    vec![Ok(r.e), Ok(r.eopt), Ok(r.popt)]
                }
                Ok(Err(e)) => failed(e.to_string()),
                Err(p) => failed(panic_text(p)),
            });
        }
        grid
    }
}

impl Bench for Table2 {
    fn kernels(&self) -> &[Kernel] {
        &self.kernels
    }

    fn pass(&mut self, trace: &mut Trace) -> PassOut {
        let mut parts = Vec::new();
        let grid = if trace.is_on() {
            self.traced_grid(trace)
        } else {
            self.product_grid(&mut parts)
        };
        let mut out = PassOut {
            tally: Tally::default(),
            digest: String::new(),
            ratios: Vec::new(),
            parts,
        };
        let mut text = String::new();
        for ((k, expect), runs) in self.kernels.iter().zip(&self.expect).zip(grid) {
            trace.count("mapping.calls", 3.0);
            trace.count("power_map.calls", 2.0);
            trace.count("assemble.calls", 3.0);
            settle_runs(trace, k, expect, runs, &mut out, &mut text);
        }
        out.digest = digest_bytes(text.as_bytes()).to_string();
        out
    }
}

/// One kernel compiled for one policy.
struct Compiled {
    policy: Policy,
    modes: Vec<VfMode>,
    bitstream: Bitstream,
}

struct FabricLong {
    kernels: Vec<Kernel>,
    expect: Vec<Vec<u32>>,
    mapped: Vec<MappedKernel>,
    compiled: Vec<Vec<Compiled>>,
}

impl FabricLong {
    fn new(cfg: &Config) -> FabricLong {
        let kernels = inputs::kernels(cfg.long, cfg.seed);
        let expect = kernels.iter().map(Kernel::reference_memory).collect();
        let mapped: Vec<MappedKernel> = kernels.iter().map(map).collect();
        let compiled = kernels
            .iter()
            .zip(&mapped)
            .map(|(k, m)| {
                let extra = extra_hops(k, m);
                Policy::ALL
                    .into_iter()
                    .map(|policy| {
                        let greedy = |obj| {
                            power_map_routed(&k.dfg, k.mem.clone(), k.iter_marker, obj, &extra)
                                .node_modes
                        };
                        let modes = match policy {
                            Policy::ECgra => vec![VfMode::Nominal; k.dfg.node_count()],
                            Policy::UeEnergyOpt => greedy(Objective::Energy),
                            Policy::UePerfOpt => greedy(Objective::Performance),
                        };
                        let bitstream =
                            Bitstream::assemble(&k.dfg, m, &modes).unwrap_or_else(|e| {
                                panic!("{}: assembly failed in set-up: {e}", k.name)
                            });
                        Compiled {
                            policy,
                            modes,
                            bitstream,
                        }
                    })
                    .collect()
            })
            .collect();
        FabricLong {
            kernels,
            expect,
            mapped,
            compiled,
        }
    }
}

fn fabric_config(k: &Kernel, mapped: &MappedKernel) -> FabricConfig {
    FabricConfig {
        marker: Some(mapped.coord_of(k.iter_marker)),
        ..FabricConfig::default()
    }
}

fn run_fabric(
    trace: &mut Trace,
    k: &Kernel,
    bs: &Bitstream,
    config: FabricConfig,
) -> Result<Activity, String> {
    trace
        .time("rtl", k.name, || {
            catch_unwind(AssertUnwindSafe(|| {
                Fabric::new(bs, k.mem.clone(), config).run()
            }))
        })
        .map_err(panic_text)
}

impl Bench for FabricLong {
    fn kernels(&self) -> &[Kernel] {
        &self.kernels
    }

    fn pass(&mut self, trace: &mut Trace) -> PassOut {
        let mut out = PassOut {
            tally: Tally::default(),
            digest: String::new(),
            ratios: Vec::new(),
            parts: Vec::new(),
        };
        let mut text = String::new();
        for (i, k) in self.kernels.iter().enumerate() {
            let mapped = &self.mapped[i];
            let runs = self.compiled[i]
                .iter()
                .map(|c| {
                    let start = Instant::now();
                    let act = run_fabric(trace, k, &c.bitstream, fabric_config(k, mapped));
                    out.parts.push(start.elapsed().as_secs_f64());
                    Ok(CgraRun {
                        policy: c.policy,
                        mapped: mapped.clone(),
                        bitstream: c.bitstream.clone(),
                        modes: c.modes.clone(),
                        activity: act?,
                        iterations: k.iters as u64,
                    })
                })
                .collect();
            settle_runs(trace, k, &self.expect[i], runs, &mut out, &mut text);
        }
        out.digest = digest_bytes(text.as_bytes()).to_string();
        out
    }
}

struct Dse {
    kernels: Vec<Kernel>,
    expect: Vec<Vec<u32>>,
    mapped: Vec<MappedKernel>,
    extra: Vec<Vec<u32>>,
    cfg: DseConfig,
    /// The last pass's outcome per kernel.
    last: Vec<Option<DseOutcome>>,
}

impl Dse {
    fn new(cfg: &Config) -> Dse {
        let kernels = inputs::kernels(cfg.table2, cfg.seed);
        let expect = kernels.iter().map(Kernel::reference_memory).collect();
        let mapped: Vec<MappedKernel> = kernels.iter().map(map).collect();
        let extra = kernels
            .iter()
            .zip(&mapped)
            .map(|(k, m)| extra_hops(k, m))
            .collect();
        Dse {
            last: vec![None; kernels.len()],
            kernels,
            expect,
            mapped,
            extra,
            cfg: cfg.dse(),
        }
    }

    /// One `explore` call per kernel on `cache`, inside `span` spans;
    /// each call's host seconds go to `parts`.
    fn sweep(
        &self,
        trace: &mut Trace,
        span: &'static str,
        cache: &EvalCache,
        parts: &mut Vec<f64>,
    ) -> Vec<Result<DseOutcome, String>> {
        let mut found = Vec::new();
        for (k, extra) in self.kernels.iter().zip(&self.extra) {
            let start = Instant::now();
            let out = trace.time(span, k.name, || {
                catch_unwind(AssertUnwindSafe(|| {
                    explore(
                        &k.dfg,
                        k.mem.clone(),
                        k.iter_marker,
                        extra,
                        &self.cfg,
                        cache,
                    )
                }))
            });
            parts.push(start.elapsed().as_secs_f64());
            found.push(match out {
                Ok(o) if o.dominates_baseline() => Ok(o),
                Ok(o) => Err(format!(
                    "best EDP {} worse than greedy {}",
                    o.best.edp(),
                    o.baseline.edp()
                )),
                Err(p) => Err(panic_text(p)),
            });
        }
        found
    }
}

impl Bench for Dse {
    fn kernels(&self) -> &[Kernel] {
        &self.kernels
    }

    /// The cold sweep on a fresh cache, then the warm sweep on the same
    /// cache, which must find exactly what the cold one found.
    fn pass(&mut self, trace: &mut Trace) -> PassOut {
        let cache = EvalCache::new();
        let mut parts = Vec::new();
        let cold = self.sweep(trace, "dse", &cache, &mut parts);
        let warm = self.sweep(trace, "dse_warm", &cache, &mut parts);
        trace.count("dse.cache_hits", cache.hits() as f64);
        trace.count("dse.cache_misses", cache.misses() as f64);
        let mut out = PassOut {
            tally: Tally::default(),
            digest: String::new(),
            ratios: Vec::new(),
            parts,
        };
        let mut text = String::new();
        for (i, (c, w)) in cold.into_iter().zip(warm).enumerate() {
            let name = self.kernels[i].name;
            out.tally.op(c.is_ok());
            out.tally.op(w.is_ok() && w == c);
            match &c {
                Ok(o) => {
                    text.push_str(&format!(
                        "{name} {} groups={} evals={} unique={} best={}:{:016x}",
                        o.strategy,
                        o.groups,
                        o.evaluations,
                        o.unique_configs,
                        o.best.modes_string(),
                        o.best.edp().to_bits()
                    ));
                    for p in &o.frontier {
                        text.push_str(&format!(" {}:{:016x}", p.modes_string(), p.edp().to_bits()));
                    }
                    text.push('\n');
                    trace.count("dse.evaluations", o.evaluations as f64);
                    trace.count("dse.unique_configs", o.unique_configs as f64);
                    trace.count("dse.frontier_points", o.frontier.len() as f64);
                }
                Err(e) => text.push_str(&format!("{name} failed: {e}\n")),
            }
            if w != c {
                text.push_str(&format!("{name} warm sweep differs from the cold one\n"));
            }
            self.last[i] = c.ok();
        }
        out.digest = digest_bytes(text.as_bytes()).to_string();
        out
    }

    /// Replay the greedy baselines for the ratios, and run each kernel's
    /// best DSE assignment on the fabric against the host reference
    /// (`dse::rtl_crosscheck` does this on both engines in one call,
    /// which would hide the assemble and rtl layers from the trace).
    fn finish(&mut self, trace: &mut Trace) -> Finish {
        let mut fin = Finish::default();
        for (i, k) in self.kernels.iter().enumerate() {
            let Some(best) = &self.last[i] else { continue };
            let start = Instant::now();
            let [popt, eopt] = [Objective::Performance, Objective::Energy].map(|obj| {
                trace.time("power_map", k.name, || {
                    catch_unwind(AssertUnwindSafe(|| {
                        power_map_routed(&k.dfg, k.mem.clone(), k.iter_marker, obj, &self.extra[i])
                    }))
                })
            });
            fin.greedy_s += start.elapsed().as_secs_f64();
            fin.tally.op(popt.is_ok() && eopt.is_ok());
            if let (Ok(popt), Ok(eopt)) = (popt, eopt) {
                fin.ratios.push((
                    k.name,
                    Ratios {
                        popt_speedup: popt.speedup(),
                        popt_efficiency: popt.efficiency(),
                        eopt_speedup: eopt.speedup(),
                        eopt_efficiency: eopt.efficiency(),
                        edp_gain: popt.baseline.edp() / best.best.edp(),
                    },
                ));
            }
            let bs = trace.time("assemble", k.name, || {
                Bitstream::assemble(&k.dfg, &self.mapped[i], &best.best.modes)
            });
            let checked = bs
                .map_err(|e| e.to_string())
                .and_then(|bs| run_fabric(trace, k, &bs, fabric_config(k, &self.mapped[i])))
                .and_then(|act| {
                    count_activity(trace, &act);
                    check_activity(&act, &self.expect[i])
                });
            if let Err(e) = &checked {
                eprintln!("{}: best DSE assignment fails on the fabric: {e}", k.name);
            }
            fin.tally.op(checked.is_ok());
        }
        fin
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_output_image_fails_the_check() {
        let k = &inputs::kernels(Config::smoke(3).table2, 3)[1];
        let run = RunRequest::new(k).seed(7).run().expect("dither runs");
        let expect = k.reference_memory();
        assert_eq!(check_activity(&run.activity, &expect), Ok(()));

        let mut bad = run.activity.clone();
        bad.mem[dither_word(k)] ^= 1;
        assert!(check_activity(&bad, &expect).is_err());

        // Through the pass bookkeeping, the corrupted run is one failure.
        let mut out = PassOut {
            tally: Tally::default(),
            digest: String::new(),
            ratios: Vec::new(),
            parts: Vec::new(),
        };
        let mut corrupted = run.clone();
        corrupted.activity = bad;
        let runs = vec![Ok(run.clone()), Ok(corrupted), Ok(run)];
        settle_runs(
            &mut Trace::new(false),
            k,
            &expect,
            runs,
            &mut out,
            &mut String::new(),
        );
        assert_eq!(
            out.tally,
            Tally {
                attempted: 3,
                failed: 1
            }
        );
        assert!(out.ratios.is_empty(), "no ratios from a failed kernel");
    }

    /// A word of dither's output image.
    fn dither_word(k: &Kernel) -> usize {
        uecgra_dfg::kernels::dither::dst_base(k.iters) as usize
    }
}
