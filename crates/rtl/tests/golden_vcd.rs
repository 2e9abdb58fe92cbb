//! Golden snapshot of one small kernel's VCD waveform: pins
//! `trace::to_vcd`'s exact output (header layout, signal naming, VCD
//! identifier assignment, event ordering) so accidental renderer drift
//! is caught by CI. Intentional format changes: regenerate with
//! `UECGRA_BLESS=1 cargo test -p uecgra-rtl --test golden_vcd`.
//!
//! The dense oracle must render the identical waveform — the event
//! list is part of `Activity`, so this doubles as a differential check
//! on the event-recording path.

use uecgra_compiler::bitstream::Bitstream;
use uecgra_compiler::mapping::{ArrayShape, MappedKernel};
use uecgra_compiler::power_map::{power_map, Objective};
use uecgra_dfg::kernels;
use uecgra_rtl::fabric::{Fabric, FabricConfig};
use uecgra_rtl::{trace, Activity, TraceError};

fn bf_waveform(run: fn(Fabric) -> Activity) -> String {
    let k = kernels::bf::build_with_rounds(8);
    let pm = power_map(&k.dfg, k.mem.clone(), k.iter_marker, Objective::Performance);
    let mapped = MappedKernel::map(&k.dfg, ArrayShape::default(), 7).expect("bf maps");
    let bs = Bitstream::assemble(&k.dfg, &mapped, &pm.node_modes).expect("bf assembles");
    let config = FabricConfig {
        marker: Some(mapped.coord_of(k.iter_marker)),
        record_events: true,
        ..FabricConfig::default()
    };
    let activity = run(Fabric::new(&bs, k.mem.clone(), config));
    trace::to_vcd(&activity, &bs).expect("events were recorded")
}

#[test]
fn bf_popt_waveform_matches_golden() {
    let text = bf_waveform(Fabric::run);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/bf_popt.vcd");
    if std::env::var_os("UECGRA_BLESS").is_some() {
        std::fs::write(path, &text).expect("write golden");
        return;
    }
    let golden =
        std::fs::read_to_string(path).expect("golden file exists (UECGRA_BLESS=1 regenerates)");
    assert_eq!(
        text, golden,
        "VCD rendering drifted from the checked-in golden \
         (UECGRA_BLESS=1 regenerates after intentional format changes)"
    );
}

#[test]
fn both_engines_render_the_same_waveform() {
    assert_eq!(
        bf_waveform(Fabric::run_reference),
        bf_waveform(Fabric::run),
        "engines disagree on the recorded event stream"
    );
}

#[test]
fn runs_without_event_recording_refuse_to_render() {
    let k = kernels::bf::build_with_rounds(8);
    let pm = power_map(&k.dfg, k.mem.clone(), k.iter_marker, Objective::Performance);
    let mapped = MappedKernel::map(&k.dfg, ArrayShape::default(), 7).expect("bf maps");
    let bs = Bitstream::assemble(&k.dfg, &mapped, &pm.node_modes).expect("bf assembles");
    let activity = Fabric::new(&bs, k.mem.clone(), FabricConfig::default()).run();
    assert_eq!(
        trace::to_vcd(&activity, &bs),
        Err(TraceError::EventsNotRecorded)
    );
}
