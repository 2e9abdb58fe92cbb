//! Figure 12: full 8x8 array layouts at 750 MHz.

use uecgra_bench::{header, json_path, write_reports};
use uecgra_clock::NOMINAL_CYCLE_NS;
use uecgra_core::report::metrics_report;
use uecgra_vlsi::area::CgraKind;
use uecgra_vlsi::layout::{array_area_um2, edge_um};

fn main() {
    let json = json_path();
    header("Figure 12: 8x8 CGRA layout at 750 MHz in TSMC 28 nm");
    println!(
        "{:<10} {:>12} {:>14}   paper",
        "CGRA", "edge (um)", "area (um^2)"
    );
    let paper = [463.0, 495.0, 528.0];
    let mut metrics = Vec::new();
    for (kind, p) in CgraKind::ALL.iter().zip(paper) {
        println!(
            "{:<10} {:>12.0} {:>14.0}   {:.0}x{:.0} um",
            kind.label(),
            edge_um(*kind),
            array_area_um2(*kind, 64, NOMINAL_CYCLE_NS),
            p,
            p
        );
        metrics.push((format!("edge_{}_um", kind.label()), edge_um(*kind)));
        metrics.push((
            format!("area_{}_um2", kind.label()),
            array_area_um2(*kind, 64, NOMINAL_CYCLE_NS),
        ));
    }
    if let Some(path) = json {
        write_reports(&path, &[metrics_report("fig12_layout", metrics)]);
    }
}
