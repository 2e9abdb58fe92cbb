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
//! Usage: `smoke_timing` (no arguments; any argument is a usage
//! error, exit status 2). The parallel leg runs 8 threads. DSE
//! throughput is timed by the repo benchmark's `dse_sweep` workload,
//! not here.

use std::time::Instant;
use uecgra_bench::usage_error;
use uecgra_core::experiments::{run_all_policies_many, KernelRuns, SEED};
use uecgra_dfg::kernels::{self, synthetic};
use uecgra_dse::{explore_points, DseConfig, DseOutcome, DsePoint, EvalCache};

/// Kernel scale of the grid leg.
const SCALE: usize = 60;

/// Worker threads of the parallel leg.
const PAR_THREADS: usize = 8;

/// The Figure 3 exhaustive sweep on a cold cache, every evaluated
/// point included.
fn fig3_sweep() -> (DseOutcome, Vec<DsePoint>) {
    let cs = synthetic::fig3_case_study();
    explore_points(
        &cs.dfg,
        vec![0; 4096],
        cs.iter_marker,
        &[],
        &DseConfig::default(),
        &EvalCache::new(),
    )
}

fn fig14_grid() -> Vec<KernelRuns> {
    let ks = [
        kernels::llist::build_with_hops(SCALE),
        kernels::dither::build_with_pixels(SCALE),
        kernels::susan::build_with_iters(SCALE),
        kernels::fft::build_with_group(SCALE),
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

fn main() {
    if let Some(arg) = std::env::args().nth(1) {
        usage_error(&format!("unknown argument {arg:?}"), "(takes no arguments)");
    }
    println!("smoke harness: scale {SCALE}, parallel leg = {PAR_THREADS} threads");

    std::env::set_var("UECGRA_THREADS", "1");
    let (sweep_serial, t_sweep_serial) = timed(fig3_sweep);
    let (grid_serial, t_grid_serial) = timed(fig14_grid);

    std::env::set_var("UECGRA_THREADS", PAR_THREADS.to_string());
    let (sweep_par, t_sweep_par) = timed(fig3_sweep);
    let (grid_par, t_grid_par) = timed(fig14_grid);
    std::env::remove_var("UECGRA_THREADS");

    check_references(&grid_serial);

    assert_eq!(
        sweep_serial, sweep_par,
        "fig3 sweep diverges between 1 and {PAR_THREADS} threads"
    );
    for (a, b) in grid_serial.iter().zip(&grid_par) {
        for (x, y) in [(&a.e, &b.e), (&a.eopt, &b.eopt), (&a.popt, &b.popt)] {
            assert_eq!(
                x.activity, y.activity,
                "{}: fabric activity diverges between 1 and {PAR_THREADS} threads",
                a.kernel.name
            );
        }
    }
    println!("  determinism: 1-thread and {PAR_THREADS}-thread outputs are bit-identical");

    let total_serial = t_sweep_serial + t_grid_serial;
    let total_par = t_sweep_par + t_grid_par;
    let speedup = total_serial / total_par;
    println!("\n  phase                      1 thread    {PAR_THREADS} threads");
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
