//! DSE sweep over the Table II kernels: run the design-space explorer
//! on every evaluation kernel with one in-memory evaluation cache, print
//! the frontier-vs-greedy comparison, and enforce the dominance gate
//! (the frontier's best EDP must match or beat the paper's greedy
//! `power_map` on every kernel — structural in the explorer, asserted
//! here end to end).
//!
//! Each kernel is mapped first (seed [`SEED`]) so the explorer sees
//! the *routed* per-edge bypass hops, exactly like the pipeline's
//! power-mapping pass — the greedy baseline inside `explore` is then
//! the same `power_map_routed` result the policy runs use. That one
//! mapping also carries the RTL cross-check below.
//!
//! Flags:
//!
//! * `--json <path>` — write one report per kernel (dse
//!   section only; no timings, so the bytes are identical at any
//!   `UECGRA_THREADS`).
//! * `--budget <N>` — unique-evaluation budget per kernel, at most
//!   `uecgra_dse::MAX_BUDGET` (2^20).
//!
//! Every kernel's best assignment is also run once on the fabric and
//! checked against the host reference ([`rtl_crosscheck`]). A
//! malformed command line is a usage error (exit status 2).

use uecgra_bench::{evaluation_kernels, header, usage_error, write_reports};
use uecgra_compiler::mapping::{ArrayShape, MappedKernel};
use uecgra_core::experiments::SEED;
use uecgra_dse::{explore, rtl_crosscheck, DseConfig, EvalCache, MAX_BUDGET};
use uecgra_probe::RunReport;

const USAGE: &str = "[--json <path>] [--budget N]";

struct Flags {
    json: Option<String>,
    budget: usize,
}

fn flags() -> Flags {
    let mut f = Flags {
        json: None,
        budget: 256,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || {
            argv.next()
                .unwrap_or_else(|| usage_error(&format!("{flag} needs a value"), USAGE))
        };
        match flag.as_str() {
            "--json" => f.json = Some(value()),
            "--budget" => {
                f.budget = match value().parse() {
                    Ok(n) if (1..=MAX_BUDGET).contains(&n) => n,
                    _ => usage_error(
                        &format!("--budget must be an integer from 1 to {MAX_BUDGET}"),
                        USAGE,
                    ),
                }
            }
            other => usage_error(&format!("unknown argument {other:?}"), USAGE),
        }
    }
    f
}

fn main() {
    let f = flags();
    let cache = EvalCache::new();
    let cfg = DseConfig {
        seed: SEED,
        budget: f.budget,
    };

    let line = format!(
        "{:<8} {:>10} {:>6} {:>6} {:>8} {:>10} {:>10} {:>7}",
        "kernel", "strategy", "groups", "evals", "frontier", "greedy EDP", "best EDP", "ratio"
    );
    header(&line);

    let mut reports = Vec::new();
    for k in evaluation_kernels() {
        let mapped = MappedKernel::map(&k.dfg, ArrayShape::default(), SEED)
            .unwrap_or_else(|e| panic!("{}: mapping failed: {e}", k.name));
        let extra = mapped.edge_extra_hops();
        let out = explore(&k.dfg, k.mem.clone(), k.iter_marker, &extra, &cfg, &cache);
        assert!(
            out.dominates_baseline(),
            "{}: DSE frontier (EDP {:.4}) regressed past the greedy baseline (EDP {:.4})",
            k.name,
            out.best.edp(),
            out.baseline.edp()
        );
        rtl_crosscheck(&k, &mapped, &out.best.modes)
            .unwrap_or_else(|e| panic!("{}: RTL cross-check failed: {e}", k.name));
        println!(
            "{:<8} {:>10} {:>6} {:>6} {:>8} {:>10.3} {:>10.3} {:>7.3}",
            k.name,
            out.strategy,
            out.groups,
            out.evaluations,
            out.frontier.len(),
            out.baseline.edp(),
            out.best.edp(),
            out.best.edp() / out.baseline.edp(),
        );
        reports.push(RunReport {
            name: format!("{}/dse", k.name),
            kernel: Some(k.name.to_string()),
            seed: Some(SEED),
            stop: "Analytic".to_string(),
            dse: Some(out.report_section(&cfg)),
            ..RunReport::default()
        });
    }
    println!("rtl check: every best assignment matches the host reference on the fabric");
    eprintln!(
        "cache: {} entries, {} hits / {} misses ({:.0}% hit rate)",
        cache.len(),
        cache.hits(),
        cache.misses(),
        cache.hit_rate() * 100.0
    );
    if let Some(path) = &f.json {
        write_reports(path, &reports);
    }
}
