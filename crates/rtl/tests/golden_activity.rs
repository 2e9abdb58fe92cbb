//! Golden pins on the runtime engine's complete [`Activity`]: a hash
//! of every field, for each of the five paper kernels under E-CGRA
//! (all nominal), EOpt and POpt DVFS at small scale, plus one run
//! under the traditional suppressor and one with single-entry queues.
//!
//! The differential suite compares `Fabric::run` with
//! `Fabric::run_reference`, but both engines share `decide`,
//! `mask_ready`, `take_checked` and `push_checked`, so a change to
//! those moves both engines together and the comparison still passes.
//! These pins catch it. Intentional behaviour changes: regenerate with
//! `UECGRA_BLESS=1 cargo test -p uecgra-rtl --test golden_activity`.

mod common;

use common::{compiled, small_kernels};
use uecgra_clock::VfMode;
use uecgra_compiler::power_map::{power_map, Objective};
use uecgra_dfg::kernels::{self, Kernel};
use uecgra_rtl::fabric::{Fabric, FabricConfig, SuppressorKind};
use uecgra_rtl::Activity;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One `<case> <field> <hash>` line per field of `act`. The
/// destructuring is exhaustive, so a new `Activity` field does not
/// compile until it is pinned here too.
fn field_lines(case: &str, act: &Activity) -> Vec<String> {
    let Activity {
        fires,
        bypass_tokens,
        rising_edges,
        fire_edges,
        operand_stalls,
        suppressed_stalls,
        backpressure_stalls,
        gated_ticks,
        queue_occupancy,
        domain_edges,
        domain_gated_ticks,
        sram_accesses,
        marker_times,
        ticks,
        stop,
        clocks,
        mem,
        events,
        protocol,
    } = act;
    let fields: [(&str, String); 19] = [
        ("fires", format!("{fires:?}")),
        ("bypass_tokens", format!("{bypass_tokens:?}")),
        ("rising_edges", format!("{rising_edges:?}")),
        ("fire_edges", format!("{fire_edges:?}")),
        ("operand_stalls", format!("{operand_stalls:?}")),
        ("suppressed_stalls", format!("{suppressed_stalls:?}")),
        ("backpressure_stalls", format!("{backpressure_stalls:?}")),
        ("gated_ticks", format!("{gated_ticks:?}")),
        ("queue_occupancy", format!("{queue_occupancy:?}")),
        ("domain_edges", format!("{domain_edges:?}")),
        ("domain_gated_ticks", format!("{domain_gated_ticks:?}")),
        ("sram_accesses", format!("{sram_accesses:?}")),
        ("marker_times", format!("{marker_times:?}")),
        ("ticks", format!("{ticks:?}")),
        ("stop", format!("{stop:?}")),
        ("clocks", format!("{clocks:?}")),
        ("mem", format!("{mem:?}")),
        ("events", format!("{events:?}")),
        ("protocol", format!("{protocol:?}")),
    ];
    fields
        .iter()
        .map(|(name, text)| format!("{case} {name} {:016x}", fnv1a(text.as_bytes())))
        .collect()
}

fn modes_for(k: &Kernel, objective: Option<Objective>) -> Vec<VfMode> {
    match objective {
        None => vec![VfMode::Nominal; k.dfg.node_count()],
        Some(o) => power_map(&k.dfg, k.mem.clone(), k.iter_marker, o).node_modes,
    }
}

fn run_case(k: &Kernel, objective: Option<Objective>, tweak: fn(&mut FabricConfig)) -> Activity {
    let (bs, mut config) = compiled(k, &modes_for(k, objective), 7);
    tweak(&mut config);
    Fabric::new(&bs, k.mem.clone(), config).run()
}

fn all_lines() -> String {
    let policies = [
        ("E", None),
        ("EOpt", Some(Objective::Energy)),
        ("POpt", Some(Objective::Performance)),
    ];
    let mut lines = Vec::new();
    for k in small_kernels() {
        for (label, objective) in policies {
            let act = run_case(&k, objective, |_| {});
            lines.extend(field_lines(&format!("{}/{label}", k.name), &act));
        }
    }
    // Mixed clocks under the traditional suppressor stall at
    // crossings with no safe edge; the pin holds how they stall.
    let act = run_case(
        &kernels::dither::build_with_pixels(40),
        Some(Objective::Performance),
        |c| {
            c.suppressor = SuppressorKind::Traditional;
            c.max_ticks = 100_000;
        },
    );
    lines.extend(field_lines("dither/POpt/traditional", &act));
    // Single-entry queues, with the event stream recorded.
    let act = run_case(
        &kernels::fft::build_with_group(40),
        Some(Objective::Performance),
        |c| {
            c.queue_capacity = 1;
            c.record_events = true;
        },
    );
    lines.extend(field_lines("fft/POpt/queue1", &act));
    lines.push(String::new());
    lines.join("\n")
}

#[test]
fn activity_matches_golden_hashes() {
    let text = all_lines();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/activity.txt");
    if std::env::var_os("UECGRA_BLESS").is_some() {
        std::fs::write(path, &text).expect("write golden");
        return;
    }
    let golden =
        std::fs::read_to_string(path).expect("golden file exists (UECGRA_BLESS=1 regenerates)");
    let drifted: Vec<&str> = text
        .lines()
        .zip(golden.lines())
        .filter(|(now, pinned)| now != pinned)
        .map(|(now, _)| now)
        .collect();
    assert!(
        drifted.is_empty() && text.lines().count() == golden.lines().count(),
        "Activity drifted from the checked-in golden hashes \
         (UECGRA_BLESS=1 regenerates after intentional changes): {drifted:#?}"
    );
}
