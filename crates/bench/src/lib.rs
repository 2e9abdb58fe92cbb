//! Shared helpers for the reproduction harness binaries.
//!
//! Each `src/bin/*` binary regenerates one table or figure of the
//! paper (see `DESIGN.md`'s experiment index); this library provides
//! the kernels at evaluation scale and table formatting.

#![warn(missing_docs)]

pub mod campaign;

use uecgra_core::experiments::KernelRuns;
use uecgra_core::report::run_report;
use uecgra_dfg::{kernels, Kernel};
use uecgra_probe::RunReport;

/// The paper's evaluation kernels at full scale (1000 iterations; 32
/// for `bf`, matching Section VI-C).
pub fn evaluation_kernels() -> Vec<Kernel> {
    kernels::all_kernels()
}

/// The evaluation kernels at a reduced scale for quick runs.
pub fn quick_kernels() -> Vec<Kernel> {
    vec![
        kernels::llist::build_with_hops(120),
        kernels::dither::build_with_pixels(120),
        kernels::susan::build_with_iters(120),
        kernels::fft::build_with_group(120),
        kernels::bf::build_with_rounds(32),
    ]
}

/// Print a horizontal rule sized to a header line.
pub fn rule(header: &str) {
    println!("{}", "-".repeat(header.len()));
}

/// Print a table header with a rule under it.
pub fn header(line: &str) {
    println!("{line}");
    rule(line);
}

/// Format a ratio with 2 decimals.
pub fn r2(x: f64) -> String {
    format!("{x:.2}")
}

/// Parse the arguments (without `argv[0]`) of a reproduction binary
/// whose only flag is `--json <path>`.
///
/// # Errors
///
/// Returns a one-line diagnostic on a `--json` without a value, a
/// repeated `--json`, or any other argument.
pub fn parse_json_flag(args: impl IntoIterator<Item = String>) -> Result<Option<String>, String> {
    let mut args = args.into_iter();
    let mut path = None;
    while let Some(arg) = args.next() {
        if arg != "--json" {
            return Err(format!("unknown argument {arg:?}"));
        }
        if path.is_some() {
            return Err("duplicate flag --json".into());
        }
        path = Some(args.next().ok_or("--json needs a value")?);
    }
    Ok(path)
}

/// Print `msg` and the usage line `usage` to stderr, then exit with
/// status 2 (the conventional status for a command-line error).
pub fn usage_error(msg: &str, usage: &str) -> ! {
    let bin = std::env::args().next().unwrap_or_default();
    let bin = bin.rsplit('/').next().unwrap_or_default();
    eprintln!(
        "{bin}: {msg}
usage: {bin} {usage}"
    );
    std::process::exit(2)
}

/// The `--json <path>` flag, the only flag of a reproduction binary.
///
/// Returns the requested report path, or `None` when the binary should
/// only print its table. A malformed command line is a usage error
/// (exit status 2), so call this before doing any work.
pub fn json_path() -> Option<String> {
    parse_json_flag(std::env::args().skip(1))
        .unwrap_or_else(|msg| usage_error(&msg, "[--json <path>]"))
}

/// Write a report document (a JSON array of [`RunReport`]s) to `path`
/// in the probe crate's canonical rendering.
///
/// # Panics
///
/// Panics on I/O failure — the reproduction binaries treat an
/// unwritable report path like any other harness failure.
pub fn write_reports(path: &str, reports: &[RunReport]) {
    std::fs::write(path, RunReport::render_all(reports))
        .unwrap_or_else(|e| panic!("writing {path}: {e}"));
    eprintln!("wrote {} report(s) to {path}", reports.len());
}

/// Full telemetry reports for one kernel's three policy runs, named
/// `<prefix><kernel>/<policy label>` (names are unique in `report.json`).
pub fn kernel_run_reports(prefix: &str, runs: &KernelRuns) -> Vec<RunReport> {
    [&runs.e, &runs.eopt, &runs.popt]
        .into_iter()
        .map(|run| {
            run_report(
                format!("{prefix}{}/{}", runs.kernel.name, run.policy.label()),
                Some(runs.kernel.name),
                run,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Option<String>, String> {
        parse_json_flag(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn json_flag_parses_or_is_absent() {
        assert_eq!(parse(&[]), Ok(None));
        assert_eq!(parse(&["--json", "r.json"]), Ok(Some("r.json".into())));
    }

    #[test]
    fn malformed_json_flags_are_errors() {
        assert_eq!(parse(&["--json"]), Err("--json needs a value".into()));
        assert_eq!(
            parse(&["--json", "a", "--json", "b"]),
            Err("duplicate flag --json".into())
        );
        assert_eq!(
            parse(&["--threads", "4"]),
            Err("unknown argument \"--threads\"".into())
        );
        assert_eq!(
            parse(&["--json", "r.json", "extra"]),
            Err("unknown argument \"extra\"".into())
        );
    }

    #[test]
    fn kernels_are_available_at_both_scales() {
        assert_eq!(evaluation_kernels().len(), 5);
        assert_eq!(quick_kernels().len(), 5);
        for k in evaluation_kernels() {
            assert!(k.iters >= 32);
        }
    }
}
