//! `uecgra` — compile and run loops on the ultra-elastic CGRA.
//!
//! ```text
//! uecgra run <source.loop> [--policy e|eopt|popt] [--seed N]
//!            [--mem-words N] [--vcd <out.vcd>] [--dump-mem A..B]
//!            [--json <report.json>]
//! uecgra compile <source.loop> [--policy e|eopt|popt] [--seed N]
//!                [--mem-words N]               # print the mapping
//! uecgra dse <source.loop> [--seed N] [--budget N]
//!            [--json <report.json>]
//! uecgra check-report <report.json>            # round-trip validate
//! ```
//!
//! The source language is the compiler's loop mini-language (see
//! `uecgra_compiler::parse`): array declarations with base addresses
//! and one counted loop with carried scalars. `compile` and `run` go
//! through [`RunRequest`], the pipeline the reproduction binaries use:
//! `compile` stops after the validated bitstream, `run` also executes
//! it. Before `run`, `compile` or `dse` touch the loop, the reference
//! interpreter checks that it stays inside `--mem-words` words of
//! memory (at most `cli::MAX_MEM_WORDS`, 2^24).
//!
//! `--json` writes a `uecgra-probe` [`RunReport`] (including
//! wall-clock phase timings — the interactive CLI is the one place
//! timings belong; reproduction binaries omit them to stay
//! deterministic). `check-report` parses a report with the probe
//! crate's own parser, re-renders it, and verifies the bytes match —
//! the round-trip check CI runs.
//!
//! `dse` explores VF-mode assignments of the lowered (logical) DFG
//! through the analytical model and prints the Pareto frontier over
//! (delay, energy, EDP); `--json` writes a report with the `dse`
//! section. Model measurements are memoized for the one run only.
//! `--budget` is at most `cli::MAX_BUDGET` (2^20), which caps the
//! exhaustive search at 3^12 assignments. Unlike `run`, a `dse` report
//! carries **no timings**: its bytes are identical across thread
//! counts.
//!
//! Pipeline failures print the full cause chain:
//!
//! ```text
//! uecgra: error: parsing failed
//!   caused by: parse error at byte 12: expected `in`
//! ```

use std::process::ExitCode;
use uecgra_core::cli::{parse_args, usage, CliArgs};
use uecgra_core::error::{error_chain, Error};
use uecgra_core::pipeline::{require_steady_state, Policy, RunRequest};
use uecgra_core::report::run_report;
use uecgra_probe::{Phase, ProbeSink as _, RunReport, SchemaError, TimingSink};

use uecgra_compiler::bitstream::PeRole;
use uecgra_compiler::frontend::lower;
use uecgra_compiler::interp::{interpret_fresh, InterpError};
use uecgra_compiler::opt::optimize;
use uecgra_compiler::parse::parse;

/// CLI failures: argument/usage problems keep their plain one-line
/// form; pipeline failures carry the unified [`Error`] so `main` can
/// print the whole cause chain.
enum CliError {
    Usage(String),
    Pipeline(Error),
}

impl From<String> for CliError {
    fn from(s: String) -> Self {
        CliError::Usage(s)
    }
}

impl From<Error> for CliError {
    fn from(e: Error) -> Self {
        CliError::Pipeline(e)
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(e)) => {
            eprintln!("uecgra: {e}");
            ExitCode::FAILURE
        }
        Err(CliError::Pipeline(e)) => {
            eprintln!("uecgra: {}", error_chain(&e));
            ExitCode::FAILURE
        }
    }
}

fn read_file(path: &str) -> Result<String, Error> {
    std::fs::read_to_string(path).map_err(|e| Error::Io {
        path: path.to_string(),
        message: e.to_string(),
    })
}

fn write_file(path: &str, contents: &str) -> Result<(), Error> {
    std::fs::write(path, contents).map_err(|e| Error::Io {
        path: path.to_string(),
        message: e.to_string(),
    })
}

/// Parse, re-render and byte-compare a report document (the CI
/// round-trip check).
fn check_report(path: &str) -> Result<(), Error> {
    let text = read_file(path)?;
    let reports = RunReport::parse_all(&text)?;
    let rendered = RunReport::render_all(&reports);
    if rendered != text {
        return Err(Error::Report(SchemaError {
            message: format!("`{path}` does not round-trip through the canonical serializer"),
        }));
    }
    println!(
        "report OK: {} run(s) round-trip byte-identically",
        reports.len()
    );
    Ok(())
}

/// The report-name stem of a source path (`path/to/k.loop` → `k`).
fn source_stem(source: &str) -> &str {
    source
        .rsplit('/')
        .next()
        .unwrap_or(source)
        .trim_end_matches(".loop")
}

/// `uecgra dse`: explore VF-mode assignments of the lowered *logical*
/// DFG (no routing pass — empty extra hops, matching the paper's
/// logical power mapper) and print the Pareto frontier. The `--json`
/// report is fully deterministic: no timings, no engine tag, and no
/// cache statistics (those go to stderr), so its bytes are identical
/// across thread counts.
fn dse_command(
    args: &CliArgs,
    dfg: &uecgra_dfg::Dfg,
    marker: uecgra_dfg::NodeId,
    mem: Vec<u32>,
) -> Result<(), Error> {
    use uecgra_dse::{explore, DseConfig, EvalCache};

    let cfg = DseConfig {
        seed: args.seed,
        budget: args.budget,
    };
    let cache = EvalCache::new();
    let outcome = explore(dfg, mem, marker, &[], &cfg, &cache);
    eprintln!(
        "dse: {} search over {} groups: {} evaluations, {} unique; \
         cache {} entries, hit rate {:.0}%",
        outcome.strategy,
        outcome.groups,
        outcome.evaluations,
        outcome.unique_configs,
        cache.len(),
        cache.hit_rate() * 100.0
    );

    let header = format!(
        "{:<24} {:>8} {:>8} {:>8}",
        "modes", "delay", "energy", "EDP"
    );
    println!("{header}");
    println!("{}", "-".repeat(header.len()));
    let row = |label: &str, p: &uecgra_dse::DsePoint| {
        println!(
            "{:<24} {:>8.3} {:>8.3} {:>8.3}{}",
            p.modes_string(),
            p.delay(),
            p.energy(),
            p.edp(),
            label
        );
    };
    for p in &outcome.frontier {
        let mut label = String::new();
        if p == &outcome.best {
            label.push_str("  <- best EDP");
        }
        row(&label, p);
    }
    row("  (greedy baseline)", &outcome.baseline);
    println!(
        "frontier: {} points; best EDP {:.3} vs greedy {:.3} ({})",
        outcome.frontier.len(),
        outcome.best.edp(),
        outcome.baseline.edp(),
        if outcome.dominates_baseline() {
            "dominates or matches"
        } else {
            "regressed"
        }
    );

    if let Some(path) = &args.json {
        let report = RunReport {
            name: format!("{}/dse", source_stem(&args.source)),
            seed: Some(args.seed),
            stop: "Analytic".to_string(),
            dse: Some(outcome.report_section(&cfg)),
            ..RunReport::default()
        };
        write_file(path, &RunReport::render_all(std::slice::from_ref(&report)))?;
        eprintln!("wrote report to {path}");
    }
    Ok(())
}

fn timed<T>(sink: &mut TimingSink, phase: Phase, f: impl FnOnce() -> T) -> T {
    let start = std::time::Instant::now();
    let out = f();
    sink.phase_done(phase, start.elapsed().as_nanos() as u64);
    out
}

fn real_main() -> Result<(), CliError> {
    let args = parse_args(std::env::args())?;

    if args.command == "check-report" {
        return Ok(check_report(&args.source)?);
    }
    if !["run", "compile", "dse"].contains(&args.command.as_str()) {
        return Err(usage().into());
    }

    let mut sink = TimingSink::new();
    let src = read_file(&args.source)?;
    let program = timed(&mut sink, Phase::Parse, || parse(&src)).map_err(Error::from)?;
    let raw = timed(&mut sink, Phase::Lower, || lower(&program.nest)).map_err(Error::from)?;

    // CSE + DCE before mapping.
    let optimized = optimize(&raw.dfg);
    let dfg = optimized.dfg;
    let marker = optimized
        .node_map
        .get(raw.induction_phi.index())
        .copied()
        .flatten()
        .ok_or_else(|| "the loop has no side effects; nothing to run".to_string())?;
    eprintln!(
        "lowered: {} ops ({} after CSE/DCE), recurrence MII {}",
        raw.dfg.pe_node_count(),
        dfg.pe_node_count(),
        uecgra_dfg::analysis::recurrence_mii(&dfg)
    );

    // The power mapper and the DSE run the loop on the analytical
    // model, which does not pad memory the way the fabric does: check
    // every access against the image on the reference interpreter
    // first. Its other errors are not fatal here: a variable that only
    // one if-arm assigns is undefined to the interpreter, but lowering
    // gives it a value and the loop runs.
    let mem = vec![0u32; args.mem_words];
    if let Err(InterpError::OutOfBounds(addr)) = interpret_fresh(&program.nest, &mem) {
        return Err(format!(
            "the loop accesses word {addr}, past the end of memory (--mem-words {})",
            args.mem_words
        )
        .into());
    }

    if args.command == "dse" {
        require_steady_state(program.nest.trip_count.into())?;
        return Ok(dse_command(&args, &dfg, marker, mem)?);
    }

    let policy = match args.policy.as_str() {
        "e" => Policy::ECgra,
        "eopt" => Policy::UeEnergyOpt,
        "popt" => Policy::UePerfOpt,
        other => return Err(format!("unknown policy {other} (use e|eopt|popt)").into()),
    };
    let compiled = RunRequest::for_graph(&dfg, &mem, marker, program.nest.trip_count.into())
        .policy(policy)
        .seed(args.seed)
        .record_events(args.vcd.is_some())
        .probe(&mut sink)
        .compile()?;
    eprintln!(
        "mapped: {:.0}% utilization, wirelength {}",
        compiled.mapped.utilization() * 100.0,
        compiled.mapped.wirelength()
    );
    let (compute, route, gated) = compiled.bitstream.role_counts();
    eprintln!("bitstream: {compute} compute, {route} route-only, {gated} gated PEs");

    if args.command == "compile" {
        for (y, row) in compiled.bitstream.grid.iter().enumerate() {
            for (x, cfg) in row.iter().enumerate() {
                if let PeRole::Compute(op) = cfg.role {
                    println!("PE ({x},{y}): {} @ {}", op.mnemonic(), cfg.clk);
                } else if cfg.role == PeRole::RouteOnly {
                    println!("PE ({x},{y}): bypass @ {}", cfg.clk);
                }
            }
        }
        return Ok(());
    }

    let run = compiled.execute()?;
    let activity = &run.activity;
    println!(
        "ran {} iterations in {:.0} nominal cycles (II {:.2}), stop: {:?}",
        activity.iterations(),
        activity.nominal_cycles(),
        activity.steady_ii(4).unwrap_or(f64::NAN),
        activity.stop
    );

    if let Some(path) = &args.vcd {
        let vcd = uecgra_rtl::trace::to_vcd(activity, &run.bitstream).map_err(Error::from)?;
        write_file(path, &vcd)?;
        eprintln!("wrote waveform to {path}");
    }
    if let Some(path) = &args.json {
        let name = format!("{}/{}", source_stem(&args.source), policy.label());
        let mut report = run_report(name, None, &run);
        report.seed = Some(args.seed);
        report.timings = Some(sink.timings);
        write_file(path, &RunReport::render_all(std::slice::from_ref(&report)))?;
        eprintln!("wrote report to {path}");
    }
    if let Some((a, b)) = args.dump {
        // The range may run past the memory image; dump what exists.
        let end = b.min(activity.mem.len());
        let a = a.min(end);
        for (i, chunk) in activity.mem[a..end].chunks(8).enumerate() {
            print!("{:>6}:", a + i * 8);
            for w in chunk {
                print!(" {w:>10}");
            }
            println!();
        }
    }
    Ok(())
}
