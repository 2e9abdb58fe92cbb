//! Integration tests for the `uecgra` command-line tool.

use std::io::Write as _;
use std::process::Command;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_uecgra")
}

fn write_source(name: &str, body: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(name);
    let mut f = std::fs::File::create(&path).expect("temp file");
    f.write_all(body.as_bytes()).expect("write");
    path
}

const ACCUMULATE: &str = "
    array src @ 16;
    array dst @ 128;
    for i in 0..32 carry (acc = 0) {
        acc = acc + src[i];
        dst[i] = acc;
    }
";

#[test]
fn run_command_executes_and_dumps_memory() {
    let src = write_source("uecgra_cli_run.loop", ACCUMULATE);
    let out = Command::new(bin())
        .args([
            "run",
            src.to_str().unwrap(),
            "--policy",
            "e",
            "--dump-mem",
            "128..136",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("ran 32 iterations"), "{stdout}");
    assert!(stdout.contains("128:"), "{stdout}");
}

#[test]
fn compile_command_prints_the_mapping() {
    let src = write_source("uecgra_cli_compile.loop", ACCUMULATE);
    let out = Command::new(bin())
        .args(["compile", src.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("PE ("), "{stdout}");
    assert!(stdout.contains("phi"), "{stdout}");
}

#[test]
fn vcd_flag_writes_a_waveform() {
    let src = write_source("uecgra_cli_vcd.loop", ACCUMULATE);
    let vcd = std::env::temp_dir().join("uecgra_cli_out.vcd");
    let out = Command::new(bin())
        .args(["run", src.to_str().unwrap(), "--vcd", vcd.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let wave = std::fs::read_to_string(&vcd).expect("vcd written");
    assert!(wave.starts_with("$date"));
    assert!(wave.contains("$enddefinitions"));
}

#[test]
fn json_report_round_trips_through_check_report() {
    let src = write_source("uecgra_cli_json.loop", ACCUMULATE);
    let json = std::env::temp_dir().join("uecgra_cli_report.json");
    let out = Command::new(bin())
        .args([
            "run",
            src.to_str().unwrap(),
            "--json",
            json.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("wrote report to"));

    let text = std::fs::read_to_string(&json).expect("report written");
    assert!(text.contains("\"schema_version\": 3"), "{text}");
    // The interactive CLI is the one writer that embeds wall-clock
    // phase timings.
    assert!(text.contains("\"timings\""), "{text}");
    assert!(text.contains("\"simulate_ns\""), "{text}");

    // The CLI's own validator accepts its own output.
    let out = Command::new(bin())
        .args(["check-report", json.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("round-trip byte-identically"),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn check_report_rejects_non_canonical_documents() {
    // Valid JSON, but not the canonical rendering (wrong whitespace),
    // so the byte-for-byte round-trip check must fail.
    let path = std::env::temp_dir().join("uecgra_cli_noncanon.json");
    std::fs::write(&path, "[ ]").expect("write");
    let out = Command::new(bin())
        .args(["check-report", path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("does not round-trip"), "{stderr}");
}

#[test]
fn parse_errors_are_reported_with_nonzero_exit() {
    let src = write_source("uecgra_cli_bad.loop", "for i in 0..4 { x = ; }");
    let out = Command::new(bin())
        .args(["run", src.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("parse error"), "{stderr}");
}

#[test]
fn unknown_flags_are_rejected() {
    let src = write_source("uecgra_cli_flags.loop", ACCUMULATE);
    let out = Command::new(bin())
        .args(["run", src.to_str().unwrap(), "--frobnicate"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"));
}

#[test]
fn dump_ranges_never_panic() {
    let src = write_source("uecgra_cli_dump.loop", ACCUMULATE);
    let run = |range: &str| {
        Command::new(bin())
            .args(["run", src.to_str().unwrap(), "--dump-mem", range])
            .output()
            .expect("binary runs")
    };
    // A reversed range is a usage error, not a slice panic.
    let out = run("5..2");
    assert_ne!(out.status.code(), Some(101), "panicked");
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("past end"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // A range beyond the memory image dumps nothing.
    let out = run("100000..100008");
    assert_ne!(out.status.code(), Some(101), "panicked");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn undersized_memory_is_an_error_not_a_panic() {
    // The loop touches words 16..48 and 128..160, so it needs 160.
    let src = write_source("uecgra_cli_mem.loop", ACCUMULATE);
    let src = src.to_str().unwrap();
    let commands: Vec<Vec<&str>> = ["e", "eopt", "popt"]
        .iter()
        .map(|&p| vec!["run", src, "--policy", p])
        .chain(std::iter::once(vec!["dse", src]))
        .collect();
    for words in ["0", "100", "159", "160"] {
        for command in &commands {
            let out = Command::new(bin())
                .args(command)
                .args(["--mem-words", words])
                .output()
                .expect("binary runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_ne!(
                out.status.code(),
                Some(101),
                "{command:?} {words}: {stderr}"
            );
            if words == "160" {
                assert!(out.status.success(), "{command:?} {words}: {stderr}");
            } else {
                assert!(!out.status.success(), "{command:?} {words}: exit 0");
                let expect = format!("past the end of memory (--mem-words {words})");
                assert!(stderr.contains(&expect), "{command:?} {words}: {stderr}");
            }
        }
    }
}

#[test]
fn loops_too_short_to_power_map_are_an_error_not_a_panic() {
    // The power mapper and the DSE measure a steady-state II, which
    // needs two iterations; the E-CGRA policy does not power-map.
    let run = |trip: u32, command: &[&str]| {
        let body = ACCUMULATE.replace("0..32", &format!("0..{trip}"));
        let src = write_source(&format!("uecgra_cli_trip{trip}.loop"), &body);
        let out = Command::new(bin())
            .arg(command[0])
            .arg(&src)
            .args(&command[1..])
            .output()
            .expect("binary runs");
        (
            out.status,
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    let power_mapping: [&[&str]; 5] = [
        &["run", "--policy", "eopt"],
        &["run", "--policy", "popt"],
        &["compile", "--policy", "eopt"],
        &["compile", "--policy", "popt"],
        &["dse"],
    ];
    for trip in [0, 1] {
        for command in power_mapping {
            let (status, stderr) = run(trip, command);
            assert_eq!(status.code(), Some(1), "{trip} {command:?}: {stderr}");
            assert!(
                stderr.contains("too few for a steady-state window"),
                "{trip} {command:?}: {stderr}"
            );
        }
        let (status, stderr) = run(trip, &["run", "--policy", "e"]);
        assert!(status.success(), "{trip} e: {stderr}");
    }
    for command in power_mapping {
        let (status, stderr) = run(2, command);
        assert!(status.success(), "2 {command:?}: {stderr}");
    }
}

#[test]
fn deeply_nested_json_is_an_error_not_an_abort() {
    let deep = std::env::temp_dir().join("uecgra_cli_deep.json");
    std::fs::write(&deep, "[".repeat(100_000)).expect("write");
    let src = write_source("uecgra_cli_deep_cache.loop", ACCUMULATE);
    let commands: [&[&str]; 2] = [
        &["check-report", deep.to_str().unwrap()],
        &[
            "dse",
            src.to_str().unwrap(),
            "--cache",
            deep.to_str().unwrap(),
        ],
    ];
    for command in commands {
        let out = Command::new(bin())
            .args(command)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{command:?}: {stderr}");
        assert!(stderr.contains("nest deeper than"), "{command:?}: {stderr}");
    }
}

#[test]
fn deeply_nested_loop_sources_are_an_error_not_an_abort() {
    let n = 100_000;
    let shapes = [
        (
            "parens",
            ACCUMULATE.replace(
                "acc + src[i]",
                &format!("{}acc{}", "(".repeat(n), ")".repeat(n)),
            ),
            "expression nests deeper",
        ),
        (
            "chain",
            ACCUMULATE.replace("acc + src[i]", &format!("acc{}", " + 1".repeat(n))),
            "expression nests deeper",
        ),
        (
            "ifs",
            ACCUMULATE.replace(
                "dst[i] = acc;",
                &format!("{}{}", "if (acc > 0) { ".repeat(n), "}".repeat(n)),
            ),
            "nested if statements are not supported",
        ),
    ];
    for (name, body, expect) in shapes {
        let src = write_source(&format!("uecgra_cli_deep_{name}.loop"), &body);
        let out = Command::new(bin())
            .args(["compile", src.to_str().unwrap()])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        assert!(stderr.contains(expect), "{name}: {stderr}");
    }
}
