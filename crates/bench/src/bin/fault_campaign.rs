//! Seeded fault-injection campaign over the Table II kernels.
//!
//! ```text
//! fault_campaign [--seed N] [--per-kernel N] [--disable-faults]
//!                [--full] [--json out.json]
//! ```
//!
//! Injects `--per-kernel` deterministic faults (rotating through all
//! six classes: flip/drop/dup/stick-valid/stick-ready/stall-domain)
//! into each kernel's busy crossings and classifies every outcome.
//! `--disable-faults` runs the control leg (checker on, injector off),
//! which must be entirely clean. The process exits nonzero when the
//! gate fails: any abort, any silent corruption, or any control-leg
//! violation. `--json` writes the `fault_campaign` report.
//! A malformed command line is a usage error (exit status 2).

use uecgra_bench::campaign::{campaign_report, gate_passes, run_campaign, CampaignConfig};
use uecgra_bench::{header, quick_kernels, usage_error, write_reports};

const USAGE: &str = "[--seed N] [--per-kernel N] [--disable-faults] [--full] [--json out.json]";

fn not_an_integer(flag: &str) -> ! {
    usage_error(&format!("{flag}: not an integer"), USAGE)
}

fn parse_flags() -> (CampaignConfig, bool, Option<String>) {
    let mut config = CampaignConfig::default();
    let mut full = false;
    let mut json = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || {
            argv.next()
                .unwrap_or_else(|| usage_error(&format!("{flag} needs a value"), USAGE))
        };
        match flag.as_str() {
            "--seed" => config.seed = value().parse().unwrap_or_else(|_| not_an_integer("--seed")),
            "--per-kernel" => {
                config.per_kernel = value()
                    .parse()
                    .unwrap_or_else(|_| not_an_integer("--per-kernel"))
            }
            "--disable-faults" => config.faults_enabled = false,
            "--full" => full = true,
            "--json" => json = Some(value()),
            other => usage_error(&format!("unknown argument {other:?}"), USAGE),
        }
    }
    (config, full, json)
}

fn main() {
    let (config, full, json) = parse_flags();
    let kernels = if full {
        uecgra_bench::evaluation_kernels()
    } else {
        quick_kernels()
    };
    let leg = if config.faults_enabled {
        "fault injection"
    } else {
        "control (faults disabled)"
    };
    eprintln!(
        "fault campaign: {} kernels, {} leg, seed {}, {} faults/kernel",
        kernels.len(),
        leg,
        config.seed,
        config.per_kernel
    );

    let section = run_campaign(&kernels, &config);

    header("kernel        fault                                    class         outcome");
    for e in &section.entries {
        println!(
            "{:<13} {:<40} {:<13} {:<10} {}",
            e.kernel, e.fault, e.class, e.outcome, e.detail
        );
    }
    println!();
    println!(
        "detected {}  tolerated {}  structured-errors {}  undetected {}",
        section.detected, section.tolerated, section.structured_errors, section.undetected
    );

    let ok = gate_passes(&section);
    if let Some(path) = json {
        write_reports(&path, &[campaign_report("fault_campaign", section)]);
    }
    if !ok {
        eprintln!("fault_campaign: GATE FAILED (abort or silent corruption present)");
        std::process::exit(1);
    }
    eprintln!("fault_campaign: gate passed");
}
