//! Command line of the benchmark:
//!
//! ```text
//! perfbench --workload <table2|dse_sweep|fabric_long> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Prints detail lines, then one JSON object as the last line of
//! standard output. A traced run also writes its spans to
//! `perfbench/out/trace-<workload>-<seed>.json`.

use perfbench::workloads::{Config, Workload};
use perfbench::{run, Options, THREADS};
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = uecgra_core::experiments::SEED;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if seconds.is_nan() || seconds < 0.0 {
                    return Err(format!("--seconds must be at least 0, got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        config: Config::full(seed),
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Set before any worker thread exists.
    std::env::set_var("UECGRA_THREADS", THREADS.to_string());

    let outcome = run(&opts);
    for line in &outcome.lines {
        println!("{line}");
    }
    if let Some(json) = &outcome.trace_json {
        let dir = std::path::Path::new("perfbench/out");
        let path = dir.join(format!(
            "trace-{}-{}.json",
            opts.workload.name(),
            opts.config.seed
        ));
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, json)) {
            Ok(()) => println!("trace: {}", path.display()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }
    println!("{}", outcome.json());
    ExitCode::SUCCESS
}
