//! The executor's determinism contract, end to end: the same seed
//! must produce bit-identical results whether the harness runs on one
//! thread or eight.
//!
//! Everything lives in a single `#[test]` because the checks mutate
//! the process-wide `UECGRA_THREADS` variable; separate tests in one
//! binary would race on it.

use uecgra_core::experiments::{run_all_policies_many, SEED};
use uecgra_core::report::run_report;
use uecgra_dfg::kernels::{self, synthetic};
use uecgra_dse::{explore_points, DseConfig, DseOutcome, DsePoint, EvalCache};
use uecgra_probe::RunReport;

/// The Figure 3 exhaustive sweep, every evaluated point included.
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

#[test]
fn one_thread_and_eight_threads_are_bit_identical() {
    std::env::set_var("UECGRA_THREADS", "1");
    let sweep_serial = fig3_sweep();
    let kernels = [
        kernels::llist::build_with_hops(40),
        kernels::dither::build_with_pixels(40),
    ];
    let runs_serial = run_all_policies_many(&kernels, SEED).unwrap();

    std::env::set_var("UECGRA_THREADS", "8");
    let sweep_par = fig3_sweep();
    let runs_par = run_all_policies_many(&kernels, SEED).unwrap();
    std::env::remove_var("UECGRA_THREADS");

    // The full sweep — every point's modes and measurement, and the
    // frontier — must match exactly, not approximately.
    assert_eq!(
        sweep_serial, sweep_par,
        "sweep diverged across thread counts"
    );
    assert!(sweep_serial.1.len() >= 243, "sweep is non-trivial");

    // Every kernel × policy run: identical Activity (fires, memory
    // image, cycle counts — PartialEq covers all fields) and modes.
    for (row_s, row_p) in runs_serial.iter().zip(&runs_par) {
        let pairs = [
            (&row_s.e, &row_p.e),
            (&row_s.eopt, &row_p.eopt),
            (&row_s.popt, &row_p.popt),
        ];
        for (r_s, r_p) in pairs {
            assert_eq!(r_s.activity, r_p.activity, "Activity diverged");
            assert_eq!(r_s.modes, r_p.modes, "mode assignment diverged");
            assert_eq!(r_s.bitstream.grid, r_p.bitstream.grid, "bitstream diverged");

            // The rendered telemetry report — the artifact
            // `reproduce_all` aggregates into report.json — must be
            // byte-identical too (DESIGN.md §9 extends to §10).
            let rep_s = run_report("det", None, r_s);
            let rep_p = run_report("det", None, r_p);
            assert_eq!(
                RunReport::render_all(std::slice::from_ref(&rep_s)),
                RunReport::render_all(std::slice::from_ref(&rep_p)),
                "report bytes diverged across thread counts"
            );
        }
    }
}
