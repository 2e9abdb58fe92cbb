//! Run every table- and figure-reproduction binary's computation in
//! one pass (the source of EXPERIMENTS.md's measured numbers).
//!
//! The binaries are independent processes, so they execute
//! concurrently — one worker per [`uecgra_core::par`] slot — with
//! stdout captured and replayed in the fixed list order below, so the
//! combined report is byte-identical no matter how many run at once.
//! Each child is pinned to `UECGRA_THREADS=1`: the outer fan-out
//! already uses every worker, and doubling up would oversubscribe.
//!
//! Every child also writes its `uecgra-probe` telemetry to a scratch
//! file via its `--json` flag. This harness parses each child document
//! with the probe crate's own parser, checks the canonical renderer
//! reproduces the child's bytes (the round-trip contract CI also
//! enforces through `uecgra check-report`), and aggregates everything
//! into one `report.json` (or the path given by its own `--json`
//! flag). The aggregate inherits the children's determinism: no
//! wall-clock timings are embedded, so the bytes are identical at any
//! `UECGRA_THREADS` setting.

use std::path::PathBuf;
use std::process::{Command, Output};
use uecgra_bench::json_path;
use uecgra_probe::RunReport;

const BINS: [&str; 20] = [
    "fig02_toy_dvfs",
    "fig03_sweep",
    "fig07a_latency",
    "fig07b_qdepth",
    "fig07c_sprint",
    "fig10_pe_area",
    "fig11_breakdown",
    "fig12_layout",
    "table1_power",
    "table2_kernels",
    "fig13_frontier",
    "fig14_contours",
    "table3_system",
    "ablation_suppressor",
    "ablation_ooo",
    "ablation_scaling",
    "ablation_routing_aware",
    "ablation_unroll",
    "extra_kernels",
    "dse_sweep",
];

/// Run every reproduction binary; returns each child's captured
/// output and the raw bytes of its report document.
fn run_suite(self_path: &std::path::Path, scratch: &std::path::Path) -> Vec<(Output, String)> {
    let results: Vec<(Output, PathBuf)> = uecgra_core::par::par_map(&BINS, |bin| {
        let report = scratch.join(format!("{bin}.json"));
        let out = Command::new(self_path.with_file_name(bin))
            .arg("--json")
            .arg(&report)
            .env("UECGRA_THREADS", "1")
            .output()
            .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
        (out, report)
    });
    results
        .into_iter()
        .zip(BINS)
        .map(|((out, path), bin)| {
            assert!(
                out.status.success(),
                "{bin} failed:\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{bin} wrote no report: {e}"));
            (out, text)
        })
        .collect()
}

fn main() {
    let json = json_path();
    let self_path = std::env::current_exe().expect("self path");
    let scratch = std::env::temp_dir().join(format!("uecgra-reports-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("create report scratch dir");

    let suite = run_suite(&self_path, &scratch);

    let mut all_reports = Vec::new();
    for (bin, (out, text)) in BINS.iter().zip(&suite) {
        println!("\n================================================================");
        println!("== {bin}");
        println!("================================================================");
        print!("{}", String::from_utf8_lossy(&out.stdout));
        eprint!("{}", String::from_utf8_lossy(&out.stderr));

        // Validate each child's document with the probe parser and
        // check the round-trip before folding it into the aggregate.
        let reports = RunReport::parse_all(text)
            .unwrap_or_else(|e| panic!("{bin} emitted an invalid report: {e}"));
        assert!(!reports.is_empty(), "{bin} emitted an empty report");
        assert_eq!(
            &RunReport::render_all(&reports),
            text,
            "{bin}: report does not round-trip through the canonical serializer"
        );
        all_reports.extend(reports);
    }
    let _ = std::fs::remove_dir_all(&scratch);

    // Report names must be unique across children too: parse the aggregate.
    let aggregate = RunReport::render_all(&all_reports);
    RunReport::parse_all(&aggregate).unwrap_or_else(|e| panic!("aggregate report: {e}"));
    let out_path = json.unwrap_or_else(|| "report.json".into());
    std::fs::write(&out_path, aggregate).unwrap_or_else(|e| panic!("writing {out_path}: {e}"));
    println!(
        "\naggregated {} validated run report(s) from {} binaries into {out_path}",
        all_reports.len(),
        BINS.len()
    );
}
