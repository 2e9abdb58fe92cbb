//! The parallel executor's speedup gate: the Figure 3 sweep plus the
//! four-kernel × three-policy grid at scale 60 must run ≥ 3× faster on
//! 8 worker threads than on one when the machine has ≥ 4 hardware
//! threads (below that it only prints the timings). It measures
//! wall-clock, so a plain `cargo test` skips it; the CI smoke job runs
//! `cargo test --release -p uecgra-bench --test parallel_speedup -- --ignored`.
//! Bit-identity across thread counts is `uecgra-core`'s
//! `par_determinism` test.

use std::time::Instant;
use uecgra_core::experiments::{run_all_policies_many, SEED};
use uecgra_dfg::kernels::{self, synthetic};
use uecgra_dse::{explore_points, DseConfig, EvalCache};

/// Required 8-thread speedup on machines with ≥ 4 hardware threads.
const MIN_SPEEDUP: f64 = 3.0;

/// Wall seconds of the sweep plus the grid on `threads` workers.
fn timed_workload(threads: usize) -> f64 {
    std::env::set_var("UECGRA_THREADS", threads.to_string());
    let start = Instant::now();
    let cs = synthetic::fig3_case_study();
    let cfg = DseConfig::default();
    explore_points(
        &cs.dfg,
        vec![0; 4096],
        cs.iter_marker,
        &[],
        &cfg,
        &EvalCache::new(),
    );
    let ks = [
        kernels::llist::build_with_hops(60),
        kernels::dither::build_with_pixels(60),
        kernels::susan::build_with_iters(60),
        kernels::fft::build_with_group(60),
    ];
    run_all_policies_many(&ks, SEED).expect("kernels run");
    start.elapsed().as_secs_f64()
}

#[test]
#[ignore = "wall-clock gate; run in release with --ignored"]
fn eight_threads_are_three_times_faster() {
    let (serial, parallel) = (timed_workload(1), timed_workload(8));
    std::env::remove_var("UECGRA_THREADS");
    let speedup = serial / parallel;
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "{hw} hardware threads: {serial:.3} s on 1 thread, {parallel:.3} s on 8 ({speedup:.2}x)"
    );
    if hw >= 4 {
        assert!(
            speedup >= MIN_SPEEDUP,
            "speedup {speedup:.2}x below {MIN_SPEEDUP}x"
        );
    }
}
