//! End-to-end and per-layer benchmark of the UE-CGRA reproduction.
//!
//! One run repeats a fresh set-up of the workload and one pass over it,
//! closed loop, for a fixed number of seconds, checks every output, and
//! reports metrics (the median set-up, the fastest pass, part by part) by
//! name and unit. With tracing off it reports the end-to-end metrics;
//! with tracing on it alternates untraced and traced passes and reports
//! the per-layer metrics from the spans recorded around each layer call.
//!
//! `BENCHMARK.json` at the repository root names the workloads and
//! metrics; `perfbench/notes.json` records each workload's scale and
//! thread count and which end-to-end metric each layer metric moves.

pub mod inputs;
pub mod trace;
pub mod workloads;

use std::time::Instant;
use trace::{Trace, LAYERS};
use uecgra_clock::VfMode;
use uecgra_compiler::mapping::{ArrayShape, MappedKernel};
use uecgra_core::experiments::SEED;
use uecgra_model::EnergyDelayEstimator;
use workloads::{Bench, Config, Ratios, Tally, Workload};

/// `UECGRA_THREADS` every workload runs with: the DSE's parallel
/// batches spread about 20 % from run to run at two threads on a shared
/// two-core host, and held within a tenth at one.
pub const THREADS: usize = 1;

/// The kernels, in the order every workload runs them.
pub const KERNELS: [&str; 5] = ["llist", "dither", "susan", "fft", "bf"];

/// End-to-end metrics: name and unit.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
    ("popt_speedup_gmean", "ratio"),
    ("popt_efficiency_gmean", "ratio"),
    ("eopt_speedup_gmean", "ratio"),
    ("eopt_efficiency_gmean", "ratio"),
    ("edp_gain_gmean", "ratio"),
];

/// Per-layer metrics other than the per-kernel self-time shares: name
/// and unit.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("trace.pass_s", "s"),
    ("trace.overhead_pct", "%"),
    ("pipeline.overhead_pct", "%"),
    ("mapping.self_pct", "%"),
    ("mapping.calls", "count"),
    ("mapping.wirelength", "count"),
    ("mapping.extra_hops", "count"),
    ("power_map.self_pct", "%"),
    ("power_map.calls", "count"),
    ("power_map.sprint_nodes", "count"),
    ("power_map.rest_nodes", "count"),
    ("assemble.self_pct", "%"),
    ("assemble.calls", "count"),
    ("rtl.self_pct", "%"),
    ("rtl.calls", "count"),
    ("rtl.ticks", "count"),
    ("rtl.rising_edges", "count"),
    ("rtl.fires", "count"),
    ("rtl.stall_edges", "count"),
    ("rtl.ns_per_edge", "ns"),
    ("model.ns_per_node_tick", "ns"),
    ("model.ticks_per_eval", "count"),
    ("model.evals_per_s", "1/s"),
    ("dse.self_pct", "%"),
    ("dse_warm.self_pct", "%"),
    ("dse.greedy_pct", "%"),
    ("dse.evaluations", "count"),
    ("dse.unique_configs", "count"),
    ("dse.cache_hits", "count"),
    ("dse.cache_misses", "count"),
    ("dse.hit_ratio", "ratio"),
    ("dse.frontier_points", "count"),
];

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seeds and sizes.
    pub config: Config,
    /// How long the timed passes run, in seconds.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead.
    pub trace: bool,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// A finished run.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted and failed, checks included.
    pub tally: Tally,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable detail printed before the result line.
    pub lines: Vec<String>,
    /// The traced run's spans as Chrome trace-event JSON.
    pub trace_json: Option<String>,
}

impl Outcome {
    /// Did every operation succeed?
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.tally.attempted > 0
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, v, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The fastest of `xs` (0 when empty). A pass repeats identical,
/// deterministic work, so host interference can only add time: the
/// fastest pass is its least disturbed measurement. On a shared two-core
/// host the fastest pass spread two to three times less from run to run
/// than the median pass.
pub fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// The fastest pass put together part by part: the sum over parts of
/// each part's fastest time across `passes` (each pass lists its parts
/// in the same order). A part is shorter than a pass, so on a shared host
/// it is more likely to run at least once through a quiet spell.
pub fn fastest_by_part(passes: &[Vec<f64>]) -> f64 {
    let n = passes.iter().map(Vec::len).min().unwrap_or(0);
    (0..n)
        .map(|i| fastest(&passes.iter().map(|p| p[i]).collect::<Vec<_>>()))
        .sum()
}

/// `a / b`, or 0 when there is no base.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn gmean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0usize), |(s, n), x| (s + x.ln(), n + 1));
    if n == 0 {
        0.0
    } else {
        (sum / n as f64).exp()
    }
}

/// This process's peak resident memory in MB (`VmHWM`; 0 where the
/// kernel does not report it).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A run sets the workload up at least this many times.
const SETUP_MIN_REPS: usize = 3;

fn timed_setup(opts: &Options, setups: &mut Vec<f64>) -> Box<dyn Bench> {
    let t = Instant::now();
    let bench = std::hint::black_box(workloads::setup(opts.workload, &opts.config));
    setups.push(t.elapsed().as_secs_f64());
    bench
}

/// Run one workload as `opts` says.
pub fn run(opts: &Options) -> Outcome {
    let mut lines = vec![format!(
        "workload {} seed {} threads {} seconds {} trace {}",
        opts.workload.name(),
        opts.config.seed,
        uecgra_util::num_threads(),
        opts.seconds,
        opts.trace as u8
    )];

    // Closed loop: a fresh set-up, then one pass, until the time is up.
    // Set-ups and passes interleave, so both are sampled across the same
    // host conditions. A traced run alternates untraced and traced passes.
    let mut trace = Trace::new(false);
    let mut tally = Tally::default();
    let mut expected: Option<String> = None;
    let mut untraced = Vec::new();
    let mut untraced_parts = Vec::new();
    let mut traced: Vec<(u32, f64)> = Vec::new();
    let mut ratios = Vec::new();
    let mut setups = Vec::new();
    let mut last = None;
    let loop_start = Instant::now();
    for pass in 1u32.. {
        drop(last.take());
        let mut bench = timed_setup(opts, &mut setups);
        let on = opts.trace && pass % 2 == 0;
        trace.set_on(on);
        trace.set_pass(pass);
        let t = Instant::now();
        let out = bench.pass(&mut trace);
        let dt = t.elapsed().as_secs_f64();
        if on {
            traced.push((pass, dt));
        } else {
            untraced.push(dt);
            untraced_parts.push(out.parts.clone());
        }
        tally.add(out.tally);
        match &expected {
            None => expected = Some(out.digest.clone()),
            Some(d) if *d != out.digest => {
                lines.push(format!(
                    "pass {pass}: digest {} differs from {d}",
                    out.digest
                ));
                tally.failed += out.tally.attempted - out.tally.failed;
            }
            Some(_) => {}
        }
        if !out.ratios.is_empty() {
            ratios = out.ratios;
        }
        last = Some(bench);
        let done = loop_start.elapsed().as_secs_f64() >= opts.seconds;
        if done && (!opts.trace || !traced.is_empty()) {
            break;
        }
    }
    while setups.len() < SETUP_MIN_REPS {
        timed_setup(opts, &mut setups);
    }
    let mut bench = last.expect("at least one pass");
    trace.set_on(opts.trace);
    trace.set_pass(0);
    let fin = bench.finish(&mut trace);
    tally.add(fin.tally);
    if !fin.ratios.is_empty() {
        ratios = fin.ratios.clone();
    }

    lines.push(format!(
        "setup: {} reps, median {:.6} s",
        setups.len(),
        median(&setups)
    ));
    lines.push(format!(
        "passes: {} untraced (median {:.6} s, min {:.6} s, max {:.6} s), {} traced",
        untraced.len(),
        median(&untraced),
        fastest(&untraced),
        untraced.iter().copied().fold(0.0, f64::max),
        traced.len()
    ));
    let times: Vec<String> = untraced.iter().map(|t| format!("{t:.3}")).collect();
    lines.push(format!("untraced pass times (s): {}", times.join(" ")));
    let pass_s = fastest_by_part(&untraced_parts);
    lines.push(format!(
        "pass_s: {pass_s:.6} s, fastest of each of {} parts",
        untraced_parts.first().map_or(0, Vec::len)
    ));
    lines.push(format!("digest: {}", expected.unwrap_or_default()));
    for (k, r) in &ratios {
        lines.push(format!(
            "{k:<7} popt {:.4}x perf {:.4}x eff | eopt {:.4}x perf {:.4}x eff | edp gain {:.4}",
            r.popt_speedup, r.popt_efficiency, r.eopt_speedup, r.eopt_efficiency, r.edp_gain
        ));
    }
    lines.push(format!(
        "operations: {} attempted, {} failed",
        tally.attempted, tally.failed
    ));

    let metrics = if opts.trace {
        per_layer(&trace, &traced, fastest(&untraced), &fin, bench.kernels())
    } else {
        end_to_end(median(&setups), pass_s, tally, &ratios)
    };
    Outcome {
        tally,
        metrics,
        lines,
        trace_json: opts.trace.then(|| trace.chrome_json()),
    }
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

fn end_to_end(setup_s: f64, pass_s: f64, tally: Tally, ratios: &[(&str, Ratios)]) -> Vec<Metric> {
    let g = |f: fn(&Ratios) -> f64| gmean(ratios.iter().map(|(_, r)| f(r)));
    let ok = ratio(
        (tally.attempted - tally.failed) as f64,
        tally.attempted as f64,
    );
    let values = [
        setup_s,
        pass_s,
        peak_rss_mb(),
        ok,
        g(|r| r.popt_speedup),
        g(|r| r.popt_efficiency),
        g(|r| r.eopt_speedup),
        g(|r| r.eopt_efficiency),
        g(|r| r.edp_gain),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(n, u), v)| metric(n, u, v))
        .collect()
}

/// Host cost of the analytical model on the workload's kernels: each
/// uniform assignment simulated and measured once, with routed hops.
/// Returns (ns per node per tick, ticks per evaluation, evaluations/s).
fn model_replay(kernels: &[uecgra_dfg::Kernel]) -> (f64, f64, f64) {
    let (mut sim_ns, mut node_ticks, mut ticks, mut evals, mut measure_s) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    for k in kernels {
        let Ok(mapped) = MappedKernel::map(&k.dfg, ArrayShape::default(), SEED) else {
            continue;
        };
        let est = EnergyDelayEstimator::new(&k.dfg, k.mem.clone(), k.iter_marker)
            .with_edge_latency(workloads::extra_hops(k, &mapped));
        for m in VfMode::ALL {
            let modes = vec![m; k.dfg.node_count()];
            let t = Instant::now();
            let r = std::hint::black_box(est.simulate(&modes));
            sim_ns += t.elapsed().as_nanos() as f64;
            node_ticks += (k.dfg.node_count() as u64 * r.ticks) as f64;
            ticks += r.ticks as f64;
            let t = Instant::now();
            let measured =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| est.measure(&modes)));
            if measured.is_ok() {
                measure_s += t.elapsed().as_secs_f64();
                evals += 1.0;
            }
        }
    }
    (
        ratio(sim_ns, node_ticks),
        ratio(ticks, 3.0 * kernels.len() as f64),
        ratio(evals, measure_s),
    )
}

fn per_layer(
    trace: &Trace,
    traced: &[(u32, f64)],
    untraced_pass_s: f64,
    fin: &workloads::Finish,
    kernels: &[uecgra_dfg::Kernel],
) -> Vec<Metric> {
    // Shares of each traced pass, then the median over the passes.
    let share = |layer: &str, kernel: Option<&str>| {
        let shares: Vec<f64> = traced
            .iter()
            .map(|&(p, wall)| 100.0 * trace.self_s(p, layer, kernel) / wall)
            .collect();
        median(&shares)
    };
    let overhead: Vec<f64> = traced
        .iter()
        .map(|&(p, wall)| {
            let in_layers: f64 = LAYERS.iter().map(|l| trace.self_s(p, l, None)).sum();
            100.0 * (wall - in_layers) / wall
        })
        .collect();
    let last = traced.last().map_or(0, |&(p, _)| p);
    let count = |name: &str| trace.counter(last, name);
    let traced_s = fastest(&traced.iter().map(|&(_, s)| s).collect::<Vec<_>>());
    let rtl_edges = trace.counter_total("rtl.rising_edges");
    let rtl_ns = trace.total_s("rtl") * 1e9;
    let (ns_per_node_tick, ticks_per_eval, evals_per_s) = model_replay(kernels);
    let hits = count("dse.cache_hits");
    let lookups = hits + count("dse.cache_misses");

    let mut out = Vec::new();
    for &(name, unit) in &PER_LAYER {
        let value = match name {
            "trace.pass_s" => traced_s,
            "trace.overhead_pct" => 100.0 * ratio(traced_s - untraced_pass_s, untraced_pass_s),
            "pipeline.overhead_pct" => median(&overhead),
            "rtl.ns_per_edge" => ratio(rtl_ns, rtl_edges),
            "model.ns_per_node_tick" => ns_per_node_tick,
            "model.ticks_per_eval" => ticks_per_eval,
            "model.evals_per_s" => evals_per_s,
            // Each pass runs the greedy baselines twice: cold and warm.
            "dse.greedy_pct" => 100.0 * ratio(2.0 * fin.greedy_s, traced_s),
            "dse.hit_ratio" => ratio(hits, lookups),
            _ => match name.strip_suffix(".self_pct") {
                Some(layer) => share(layer, None),
                None => count(name),
            },
        };
        out.push(metric(name, unit, value));
    }
    for layer in LAYERS {
        for k in KERNELS {
            out.push(metric(
                format!("{layer}.self_pct.{k}"),
                "%",
                share(layer, Some(k)),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastest_by_part_sums_each_parts_fastest_time() {
        let passes = vec![vec![1.0, 5.0, 2.0], vec![3.0, 4.0, 2.5]];
        assert_eq!(fastest_by_part(&passes), 1.0 + 4.0 + 2.0);
        assert_eq!(fastest_by_part(&[]), 0.0);
    }
}
