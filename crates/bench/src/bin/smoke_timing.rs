//! Self-timing CI smoke harness: runs the two heaviest evaluation
//! phases serially and in parallel, prints per-phase wall times, and
//! fails on any functional divergence.
//!
//! Checks, in order:
//!
//! 1. **Host-reference correctness** — every kernel's cycle-level
//!    fabric run must reproduce the host reference memory image under
//!    all three policies.
//! 2. **Executor determinism** — the Figure 3 sweep and the Figure 14
//!    kernel × policy grid must be *bit-identical* between
//!    `UECGRA_THREADS=1` and the parallel thread count.
//! 3. **Timing** — per-phase wall times for both thread counts and
//!    the speedup are printed. When `UECGRA_SMOKE_MIN_SPEEDUP` is set
//!    (as CI does on multi-core runners), the harness fails below
//!    that factor; by default it only reports, so single-core
//!    machines can still run the functional checks.
//!
//! 4. **DSE trajectory** (`dse` mode only) — the Table II DSE sweep
//!    runs cold (fresh evaluation cache) then warm (same cache), the
//!    outcomes must be bit-identical, and the wall-clock ratio and
//!    evaluation throughput print. `UECGRA_SMOKE_MAX_WARM_RATIO`
//!    gates the memoization win (CI uses 0.2: a warm rerun must cost
//!    at most a fifth of a cold one); a committed baseline file
//!    (`benchmarks/BENCH_dse_baseline.json`, overridable via
//!    `UECGRA_BENCH_BASELINE`) plus `UECGRA_BENCH_TOLERANCE` gate the
//!    evaluations-per-second trajectory against history. The leg's
//!    measurements land in the file named by `--bench-out` for CI to
//!    archive.
//!
//! Usage: `smoke_timing [quick|full|dse] [--bench-out BENCH_dse.json]`
//! (default `quick`; CI uses `quick` and `dse`); a malformed command
//! line is a usage error (exit status 2). `UECGRA_SMOKE_THREADS`
//! overrides the parallel leg's thread count (default 8).

use std::time::Instant;
use uecgra_bench::usage_error;
use uecgra_compiler::mapping::{ArrayShape, MappedKernel};
use uecgra_core::experiments::{run_all_policies_many, KernelRuns, SEED};
use uecgra_dfg::kernels::{self, synthetic};
use uecgra_model::sweep::{sweep_group_modes, SweepResult};

const USAGE: &str = "[quick|full|dse] [--bench-out BENCH_dse.json]";

fn fig3_sweep() -> SweepResult {
    let cs = synthetic::fig3_case_study();
    sweep_group_modes(&cs.dfg, vec![0; 4096], cs.iter_marker)
}

fn fig14_grid(scale: usize) -> Vec<KernelRuns> {
    let ks = [
        kernels::llist::build_with_hops(scale),
        kernels::dither::build_with_pixels(scale),
        kernels::susan::build_with_iters(scale),
        kernels::fft::build_with_group(scale),
    ];
    run_all_policies_many(&ks, SEED).expect("kernels run")
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

fn check_references(grid: &[KernelRuns]) {
    for runs in grid {
        let expect = runs.kernel.reference_memory();
        for (label, run) in [
            ("E-CGRA", &runs.e),
            ("UE-CGRA EOpt", &runs.eopt),
            ("UE-CGRA POpt", &runs.popt),
        ] {
            assert_eq!(
                &run.activity.mem[..expect.len()],
                &expect[..],
                "{} under {label}: fabric memory image diverges from host reference",
                runs.kernel.name
            );
        }
    }
    println!(
        "  functional: {} kernels x 3 policies match the host reference",
        grid.len()
    );
}

/// One cold-or-warm pass of the Table II DSE sweep (routed hops,
/// shared cache across kernels), mirroring the `dse_sweep` binary.
fn dse_sweep_pass(cache: &uecgra_dse::EvalCache, budget: usize) -> Vec<uecgra_dse::DseOutcome> {
    let cfg = uecgra_dse::DseConfig {
        seed: SEED,
        budget,
        ..uecgra_dse::DseConfig::default()
    };
    uecgra_bench::evaluation_kernels()
        .iter()
        .map(|k| {
            let mapped = MappedKernel::map(&k.dfg, ArrayShape::default(), SEED).expect("maps");
            let extra: Vec<u32> = k.dfg.edges().map(|(id, _)| mapped.extra_hops(id)).collect();
            uecgra_dse::explore(&k.dfg, k.mem.clone(), k.iter_marker, &extra, &cfg, cache)
        })
        .collect()
}

/// The `dse` mode: time the sweep cold then warm, gate the
/// memoization ratio and the evaluation-throughput trajectory, and
/// write the measurements to `bench_out` when given.
fn dse_bench(bench_out: Option<&str>) {
    // A budget above the default keeps the cold leg dominated by
    // model evaluations (which the warm leg memoizes away) rather
    // than by the uncached greedy baseline passes, so the warm/cold
    // ratio gate has headroom against runner noise.
    let budget = 512;
    println!("dse bench: Table II sweep, budget {budget} per kernel");

    let cache = uecgra_dse::EvalCache::new();
    let (cold_out, t_cold) = timed(|| dse_sweep_pass(&cache, budget));
    let unique = cache.misses();
    let (warm_out, t_warm) = timed(|| dse_sweep_pass(&cache, budget));
    assert_eq!(
        cold_out, warm_out,
        "DSE outcomes diverge between cold and warm caches"
    );
    for out in &cold_out {
        assert!(out.dominates_baseline(), "DSE regressed past greedy");
    }
    println!("  determinism: cold and warm sweeps are bit-identical");

    let ratio = t_warm / t_cold;
    let evals_per_sec = unique as f64 / t_cold;
    let frontier_points: usize = cold_out.iter().map(|o| o.frontier.len()).sum();
    let warm_hit_rate = cache.hits() as f64 / (cache.hits() + cache.misses()) as f64;
    println!("  cold: {t_cold:>7.3}s ({unique} unique evaluations, {evals_per_sec:.0} evals/s)");
    println!("  warm: {t_warm:>7.3}s ({ratio:.3}x cold, {warm_hit_rate:.3} hit rate)");
    println!(
        "  frontier: {frontier_points} points across {} kernels",
        cold_out.len()
    );

    if let Ok(max) = std::env::var("UECGRA_SMOKE_MAX_WARM_RATIO") {
        let max: f64 = max
            .parse()
            .expect("UECGRA_SMOKE_MAX_WARM_RATIO must be a float");
        assert!(
            ratio <= max,
            "warm rerun cost {ratio:.3}x cold, above the allowed {max:.3}x"
        );
        println!("  memoization gate: {ratio:.3}x <= {max:.3}x");
    } else {
        println!("  memoization gate: disabled (set UECGRA_SMOKE_MAX_WARM_RATIO to enforce)");
    }

    let baseline_path = std::env::var("UECGRA_BENCH_BASELINE")
        .unwrap_or_else(|_| "benchmarks/BENCH_dse_baseline.json".to_string());
    match std::fs::read_to_string(&baseline_path) {
        Ok(text) => {
            let doc = uecgra_probe::Json::parse(&text)
                .unwrap_or_else(|e| panic!("parsing {baseline_path}: {e}"));
            let base = doc
                .get("evals_per_sec")
                .and_then(|v| v.as_f64())
                .unwrap_or_else(|| panic!("{baseline_path} has no evals_per_sec"));
            let tolerance: f64 = std::env::var("UECGRA_BENCH_TOLERANCE")
                .map(|s| s.parse().expect("UECGRA_BENCH_TOLERANCE must be a float"))
                .unwrap_or(0.7);
            assert!(
                evals_per_sec >= tolerance * base,
                "evaluation throughput regressed: {evals_per_sec:.0} evals/s < \
                 {tolerance:.2} x baseline {base:.0} evals/s"
            );
            println!(
                "  trajectory gate: {evals_per_sec:.0} evals/s >= {tolerance:.2} x {base:.0} \
                 (baseline {baseline_path})"
            );
        }
        Err(_) => println!("  trajectory gate: no baseline at {baseline_path}; reporting only"),
    }

    if let Some(path) = bench_out {
        use uecgra_probe::Json;
        let doc = Json::object(vec![
            ("bench", Json::Str("dse_sweep".into())),
            ("budget", Json::Uint(budget as u64)),
            ("cold_seconds", Json::Float(t_cold)),
            ("evals_per_sec", Json::Float(evals_per_sec)),
            ("frontier_points", Json::Uint(frontier_points as u64)),
            ("kernels", Json::Uint(cold_out.len() as u64)),
            ("unique_evals", Json::Uint(unique)),
            ("warm_hit_rate", Json::Float(warm_hit_rate)),
            ("warm_over_cold", Json::Float(ratio)),
        ]);
        std::fs::write(path, format!("{}\n", doc.render()))
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("  wrote measurements to {path}");
    }
    println!("\ndse bench OK");
}

fn main() {
    let mut mode = "quick".to_string();
    let mut bench_out: Option<String> = None;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "quick" | "full" | "dse" => mode = arg,
            "--bench-out" => {
                bench_out = Some(
                    argv.next()
                        .unwrap_or_else(|| usage_error("--bench-out needs a value", USAGE)),
                )
            }
            other => usage_error(&format!("unknown argument {other:?}"), USAGE),
        }
    }
    if mode == "dse" {
        return dse_bench(bench_out.as_deref());
    }
    let scale = if mode == "full" { 400 } else { 60 };
    let par_threads = std::env::var("UECGRA_SMOKE_THREADS")
        .ok()
        .and_then(|s| uecgra_util::par::parse_threads(&s))
        .unwrap_or(8);

    println!("smoke harness: mode={mode} (scale {scale}), parallel leg = {par_threads} threads");

    std::env::set_var("UECGRA_THREADS", "1");
    let (sweep_serial, t_sweep_serial) = timed(fig3_sweep);
    let (grid_serial, t_grid_serial) = timed(|| fig14_grid(scale));

    std::env::set_var("UECGRA_THREADS", par_threads.to_string());
    let (sweep_par, t_sweep_par) = timed(fig3_sweep);
    let (grid_par, t_grid_par) = timed(|| fig14_grid(scale));
    std::env::remove_var("UECGRA_THREADS");

    check_references(&grid_serial);

    assert_eq!(
        sweep_serial, sweep_par,
        "fig3 sweep diverges between 1 and {par_threads} threads"
    );
    for (a, b) in grid_serial.iter().zip(&grid_par) {
        for (x, y) in [(&a.e, &b.e), (&a.eopt, &b.eopt), (&a.popt, &b.popt)] {
            assert_eq!(
                x.activity, y.activity,
                "{}: fabric activity diverges between 1 and {par_threads} threads",
                a.kernel.name
            );
        }
    }
    println!("  determinism: 1-thread and {par_threads}-thread outputs are bit-identical");

    let total_serial = t_sweep_serial + t_grid_serial;
    let total_par = t_sweep_par + t_grid_par;
    let speedup = total_serial / total_par;
    println!("\n  phase                      1 thread    {par_threads} threads");
    println!("  fig3 VF sweep            {t_sweep_serial:>9.3}s   {t_sweep_par:>9.3}s");
    println!("  fig14 kernel grid        {t_grid_serial:>9.3}s   {t_grid_par:>9.3}s");
    println!(
        "  total                    {total_serial:>9.3}s   {total_par:>9.3}s   ({speedup:.2}x)"
    );

    if let Ok(min) = std::env::var("UECGRA_SMOKE_MIN_SPEEDUP") {
        let min: f64 = min
            .parse()
            .expect("UECGRA_SMOKE_MIN_SPEEDUP must be a float");
        assert!(
            speedup >= min,
            "parallel speedup {speedup:.2}x below required {min:.2}x"
        );
        println!("  speedup gate: {speedup:.2}x >= {min:.2}x");
    } else {
        println!("  speedup gate: disabled (set UECGRA_SMOKE_MIN_SPEEDUP to enforce)");
    }

    println!("\nsmoke harness OK");
}
