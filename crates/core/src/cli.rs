//! Argument parsing for the `uecgra` CLI.
//!
//! Extracted from the binary so it can be unit-tested: the parser
//! takes any `String` iterator (the binary passes `std::env::args`,
//! tests pass literals). Two historical misbehaviors are fixed here
//! and locked in by tests:
//!
//! * duplicate flags used to be silently last-wins — they are now
//!   rejected with an error naming the flag, so `--seed 3 --seed 9`
//!   cannot quietly drop half of a command line;
//! * a flag missing its value reported a bare `needs a value` — the
//!   message still names the flag and now also survives the flag
//!   being the final token;
//! * a `--mem-words` too large to allocate panicked (`capacity
//!   overflow`) or was killed for memory — sizes above
//!   [`MAX_MEM_WORDS`] are now a usage error;
//! * a `--budget` of 3^29 or more on a loop with 29 power groups
//!   aborted on a failed allocation (the exhaustive space is built in
//!   memory) — budgets above [`MAX_BUDGET`] are now a usage error.

pub use uecgra_dse::MAX_BUDGET;

/// The largest `--mem-words`: 2^24 words (64 MiB). The reference
/// interpreter, the analytical model and the fabric's scratchpad each
/// hold their own copy of the image, so larger sizes exhaust memory.
pub const MAX_MEM_WORDS: usize = 1 << 24;

/// The parsed `uecgra` command line.
#[derive(Debug, Clone, PartialEq)]
pub struct CliArgs {
    /// Subcommand: `run`, `compile`, `dse`, or `check-report`.
    pub command: String,
    /// Source (or report) file path.
    pub source: String,
    /// Policy name (`e`, `eopt`, `popt`).
    pub policy: String,
    /// Mapping seed.
    pub seed: u64,
    /// Scratchpad size in words (at most [`MAX_MEM_WORDS`]).
    pub mem_words: usize,
    /// Waveform output path.
    pub vcd: Option<String>,
    /// Memory dump range `A..B`.
    pub dump: Option<(usize, usize)>,
    /// Telemetry report output path.
    pub json: Option<String>,
    /// DSE unique-evaluation budget (`dse` subcommand only; at most
    /// [`MAX_BUDGET`]).
    pub budget: usize,
}

/// The one-line usage string.
pub fn usage() -> String {
    format!(
        "usage: uecgra <run|compile|dse|check-report> <file> [--policy e|eopt|popt] \
         [--seed N] [--mem-words N (max {MAX_MEM_WORDS})] [--vcd out.vcd] [--dump-mem A..B] \
         [--json report.json] [--budget N (max {MAX_BUDGET})]"
    )
}

/// Parse a full argument vector (including `argv[0]`, which is
/// skipped).
///
/// # Errors
///
/// Returns a one-line usage/diagnostic string on a missing
/// subcommand or file, an unknown flag, an unparsable value, a flag
/// without its value, a duplicated flag, a `--mem-words` above
/// [`MAX_MEM_WORDS`], or a `--budget` above [`MAX_BUDGET`].
pub fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<CliArgs, String> {
    let mut argv = argv.into_iter();
    let _ = argv.next();
    let command = argv.next().ok_or_else(usage)?;
    let source = argv.next().ok_or_else(usage)?;
    let mut args = CliArgs {
        command,
        source,
        policy: "popt".into(),
        seed: 7,
        mem_words: 8192,
        vcd: None,
        dump: None,
        json: None,
        budget: 256,
    };
    let mut seen: Vec<String> = Vec::new();
    while let Some(flag) = argv.next() {
        if seen.contains(&flag) {
            return Err(format!("duplicate flag {flag}"));
        }
        seen.push(flag.clone());
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--policy" => args.policy = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--mem-words" => {
                args.mem_words = value()?.parse().map_err(|e| format!("--mem-words: {e}"))?;
                if args.mem_words > MAX_MEM_WORDS {
                    return Err(format!(
                        "--mem-words: {} is above the maximum of {MAX_MEM_WORDS} words\n{}",
                        args.mem_words,
                        usage()
                    ));
                }
            }
            "--vcd" => args.vcd = Some(value()?),
            "--dump-mem" => {
                let v = value()?;
                let (a, b) = v
                    .split_once("..")
                    .ok_or_else(|| "--dump-mem expects A..B".to_string())?;
                let a: usize = a.parse().map_err(|e| format!("--dump-mem: {e}"))?;
                let b: usize = b.parse().map_err(|e| format!("--dump-mem: {e}"))?;
                if a > b {
                    return Err(format!("--dump-mem: start {a} is past end {b}"));
                }
                args.dump = Some((a, b));
            }
            "--json" => args.json = Some(value()?),
            "--budget" => {
                args.budget = value()?.parse().map_err(|e| format!("--budget: {e}"))?;
                if args.budget == 0 {
                    return Err("--budget must be at least 1".to_string());
                }
                if args.budget > MAX_BUDGET {
                    return Err(format!(
                        "--budget: {} is above the maximum of {MAX_BUDGET}\n{}",
                        args.budget,
                        usage()
                    ));
                }
            }
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    Ok(args)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<CliArgs, String> {
        parse_args(std::iter::once("uecgra".to_string()).chain(words.iter().map(|s| s.to_string())))
    }

    #[test]
    fn defaults_and_overrides() {
        let a = parse(&["run", "k.loop"]).unwrap();
        assert_eq!(a.command, "run");
        assert_eq!(a.source, "k.loop");
        assert_eq!(a.policy, "popt");
        assert_eq!(a.seed, 7);
        assert_eq!(a.mem_words, 8192);
        assert_eq!(a.json, None);

        let a = parse(&[
            "run",
            "k.loop",
            "--policy",
            "e",
            "--seed",
            "9",
            "--dump-mem",
            "0..16",
            "--json",
            "out.json",
        ])
        .unwrap();
        assert_eq!(a.policy, "e");
        assert_eq!(a.seed, 9);
        assert_eq!(a.dump, Some((0, 16)));
        assert_eq!(a.json.as_deref(), Some("out.json"));
    }

    #[test]
    fn dse_flags_parse_with_sane_defaults() {
        let a = parse(&["dse", "k.loop"]).unwrap();
        assert_eq!(a.command, "dse");
        assert_eq!(a.budget, 256);

        let a = parse(&["dse", "k.loop", "--budget", "64", "--seed", "3"]).unwrap();
        assert_eq!(a.budget, 64);
        assert_eq!(a.seed, 3);

        assert!(parse(&["dse", "k.loop", "--budget", "0"])
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse(&["dse", "k.loop", "--budget", "x"])
            .unwrap_err()
            .starts_with("--budget:"));
    }

    #[test]
    fn duplicate_flags_are_rejected_by_name() {
        let e = parse(&["run", "k.loop", "--seed", "3", "--seed", "9"]).unwrap_err();
        assert_eq!(e, "duplicate flag --seed");
        let e = parse(&["run", "k.loop", "--json", "a", "--json", "b"]).unwrap_err();
        assert_eq!(e, "duplicate flag --json");
    }

    #[test]
    fn missing_values_name_the_flag() {
        let e = parse(&["run", "k.loop", "--seed"]).unwrap_err();
        assert_eq!(e, "--seed needs a value");
        let e = parse(&["run", "k.loop", "--seed", "3", "--vcd"]).unwrap_err();
        assert_eq!(e, "--vcd needs a value");
    }

    #[test]
    fn malformed_values_are_diagnosed() {
        assert!(parse(&["run", "k.loop", "--seed", "zebra"])
            .unwrap_err()
            .starts_with("--seed:"));
        assert_eq!(
            parse(&["run", "k.loop", "--dump-mem", "16"]).unwrap_err(),
            "--dump-mem expects A..B"
        );
        assert_eq!(
            parse(&["run", "k.loop", "--dump-mem", "5..2"]).unwrap_err(),
            "--dump-mem: start 5 is past end 2"
        );
        assert_eq!(
            parse(&["run", "k.loop", "--dump-mem", "3..3"])
                .unwrap()
                .dump,
            Some((3, 3))
        );
        for flag in ["--frobnicate", "--cache"] {
            let e = parse(&["run", "k.loop", flag]).unwrap_err();
            assert!(e.starts_with(&format!("unknown flag {flag}")), "{e}");
        }
    }

    #[test]
    fn oversized_memory_is_a_usage_error() {
        for words in ["18446744073709551615", "4000000000", "16777217"] {
            let e = parse(&["run", "k.loop", "--mem-words", words]).unwrap_err();
            assert!(
                e.starts_with(&format!("--mem-words: {words} is above the maximum")),
                "{e}"
            );
            assert!(e.ends_with(&usage()), "{e}");
        }
        let a = parse(&["run", "k.loop", "--mem-words", "16777216"]).unwrap();
        assert_eq!(a.mem_words, MAX_MEM_WORDS);
    }

    #[test]
    fn oversized_budget_is_a_usage_error() {
        for budget in ["18446744073709551615", "68630377364883", "1048577"] {
            let e = parse(&["dse", "k.loop", "--budget", budget]).unwrap_err();
            assert!(
                e.starts_with(&format!("--budget: {budget} is above the maximum")),
                "{e}"
            );
            assert!(e.ends_with(&usage()), "{e}");
        }
        let a = parse(&["dse", "k.loop", "--budget", "1048576"]).unwrap();
        assert_eq!(a.budget, MAX_BUDGET);
        assert!(usage().contains("--budget N (max 1048576)"));
    }

    #[test]
    fn missing_positionals_print_usage() {
        assert_eq!(parse(&[]).unwrap_err(), usage());
        assert_eq!(parse(&["run"]).unwrap_err(), usage());
    }
}
