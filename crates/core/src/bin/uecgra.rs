//! `uecgra` — compile and run loops on the ultra-elastic CGRA.
//!
//! ```text
//! uecgra run <source.loop> [--policy e|eopt|popt] [--seed N]
//!            [--mem-words N] [--vcd <out.vcd>] [--dump-mem A..B]
//!            [--json <report.json>]
//! uecgra compile <source.loop> [--seed N]      # print the mapping
//! uecgra dse <source.loop> [--seed N] [--budget N]
//!            [--cache <cache.json>] [--json <report.json>]
//! uecgra check-report <report.json>            # round-trip validate
//! ```
//!
//! The source language is the compiler's loop mini-language (see
//! `uecgra_compiler::parse`): array declarations with base addresses
//! and one counted loop with carried scalars.
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
//! (delay, energy, EDP); `--cache` persists the memoized evaluation
//! cache across invocations and `--json` writes a report
//! with the `dse` section. Unlike `run`, a `dse` report carries **no
//! timings**: its bytes are identical across thread counts and across
//! cold vs warm caches.
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
use uecgra_core::pipeline::{CgraRun, Policy};
use uecgra_core::report::run_report;
use uecgra_probe::{Phase, ProbeSink as _, RunReport, SchemaError, TimingSink};
use uecgra_rtl::fabric::{Fabric, FabricConfig};

use uecgra_clock::VfMode;
use uecgra_compiler::bitstream::{Bitstream, PeRole};
use uecgra_compiler::frontend::lower;
use uecgra_compiler::mapping::{ArrayShape, MappedKernel};
use uecgra_compiler::opt::optimize;
use uecgra_compiler::parse::parse;
use uecgra_compiler::power_map::{power_map_routed, Objective};

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
/// across thread counts and cold vs warm caches.
fn dse_command(
    args: &CliArgs,
    dfg: &uecgra_dfg::Dfg,
    marker: uecgra_dfg::NodeId,
) -> Result<(), CliError> {
    use uecgra_dse::{explore, DseConfig, EvalCache};

    let cfg = DseConfig {
        seed: args.seed,
        budget: args.budget,
    };
    let cache = match &args.cache {
        Some(path) => EvalCache::load(path)?,
        None => EvalCache::new(),
    };
    let warm_entries = cache.len();
    let outcome = explore(dfg, vec![0u32; args.mem_words], marker, &[], &cfg, &cache);
    eprintln!(
        "dse: {} search over {} groups: {} evaluations, {} unique; \
         cache {} -> {} entries, hit rate {:.0}%",
        outcome.strategy,
        outcome.groups,
        outcome.evaluations,
        outcome.unique_configs,
        warm_entries,
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

    if let Some(path) = &args.cache {
        cache.save(path)?;
        eprintln!("wrote {} cache entries to {path}", cache.len());
    }
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

    let mut sink = TimingSink::new();
    let src = read_file(&args.source)?;
    let program = timed(&mut sink, Phase::Parse, || parse(&src)).map_err(Error::from)?;
    let raw = timed(&mut sink, Phase::Lower, || lower(&program.nest)).map_err(Error::from)?;

    // CSE + DCE before mapping.
    let optimized = optimize(&raw.dfg);
    let marker_node = optimized
        .node_map
        .get(raw.induction_phi.index())
        .copied()
        .flatten()
        .ok_or_else(|| "the loop has no side effects; nothing to run".to_string())?;
    struct Lowered {
        dfg: uecgra_dfg::Dfg,
        induction_phi: uecgra_dfg::NodeId,
    }
    let lowered = Lowered {
        dfg: optimized.dfg,
        induction_phi: marker_node,
    };
    eprintln!(
        "lowered: {} ops ({} after CSE/DCE), recurrence MII {}",
        raw.dfg.pe_node_count(),
        lowered.dfg.pe_node_count(),
        uecgra_dfg::analysis::recurrence_mii(&lowered.dfg)
    );

    if args.command == "dse" {
        return dse_command(&args, &lowered.dfg, lowered.induction_phi);
    }

    let mapped = timed(&mut sink, Phase::PlaceRoute, || {
        MappedKernel::map(&lowered.dfg, ArrayShape::default(), args.seed)
    })
    .map_err(Error::from)?;
    eprintln!(
        "mapped: {:.0}% utilization, wirelength {}",
        mapped.utilization() * 100.0,
        mapped.wirelength()
    );

    let policy = match args.policy.as_str() {
        "e" => Policy::ECgra,
        "eopt" => Policy::UeEnergyOpt,
        "popt" => Policy::UePerfOpt,
        other => return Err(format!("unknown policy {other} (use e|eopt|popt)").into()),
    };
    let mem = vec![0u32; args.mem_words];
    let extra: Vec<u32> = lowered
        .dfg
        .edges()
        .map(|(id, _)| mapped.extra_hops(id))
        .collect();
    let modes = timed(&mut sink, Phase::PowerMap, || match policy {
        Policy::ECgra => vec![VfMode::Nominal; lowered.dfg.node_count()],
        Policy::UeEnergyOpt => {
            power_map_routed(
                &lowered.dfg,
                mem.clone(),
                lowered.induction_phi,
                Objective::Energy,
                &extra,
            )
            .node_modes
        }
        Policy::UePerfOpt => {
            power_map_routed(
                &lowered.dfg,
                mem.clone(),
                lowered.induction_phi,
                Objective::Performance,
                &extra,
            )
            .node_modes
        }
    });

    let bitstream = timed(&mut sink, Phase::Assemble, || {
        Bitstream::assemble(&lowered.dfg, &mapped, &modes)
    })
    .map_err(Error::from)?;
    let (compute, route, gated) = bitstream.role_counts();
    eprintln!("bitstream: {compute} compute, {route} route-only, {gated} gated PEs");

    if args.command == "compile" {
        for (y, row) in bitstream.grid.iter().enumerate() {
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
    if args.command != "run" {
        return Err(usage().into());
    }

    let config = FabricConfig {
        marker: Some(mapped.coord_of(lowered.induction_phi)),
        record_events: args.vcd.is_some(),
        ..FabricConfig::default()
    };
    let activity = timed(&mut sink, Phase::Simulate, || {
        Fabric::new(&bitstream, mem, config).run()
    });
    println!(
        "ran {} iterations in {:.0} nominal cycles (II {:.2}), stop: {:?}",
        activity.iterations(),
        activity.nominal_cycles(),
        activity.steady_ii(4).unwrap_or(f64::NAN),
        activity.stop
    );

    let iterations = activity.iterations();
    let run = CgraRun {
        policy,
        mapped,
        bitstream,
        modes,
        activity,
        iterations,
    };

    if let Some(path) = &args.vcd {
        let vcd = uecgra_rtl::trace::to_vcd(&run.activity, &run.bitstream).map_err(Error::from)?;
        write_file(path, &vcd)?;
        eprintln!("wrote waveform to {path}");
    }
    if let Some(path) = &args.json {
        let source_name = args
            .source
            .rsplit('/')
            .next()
            .unwrap_or(&args.source)
            .trim_end_matches(".loop");
        let mut report = run_report(format!("{source_name}/{}", policy.label()), None, &run);
        report.seed = Some(args.seed);
        report.timings = Some(sink.timings);
        write_file(path, &RunReport::render_all(std::slice::from_ref(&report)))?;
        eprintln!("wrote report to {path}");
    }
    if let Some((a, b)) = args.dump {
        // The range may run past the memory image; dump what exists.
        let end = b.min(run.activity.mem.len());
        let a = a.min(end);
        for (i, chunk) in run.activity.mem[a..end].chunks(8).enumerate() {
            print!("{:>6}:", a + i * 8);
            for w in chunk {
                print!(" {w:>10}");
            }
            println!();
        }
    }
    Ok(())
}
