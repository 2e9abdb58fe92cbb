//! Figure 11: PE energy per operation (E-CGRA vs UE-CGRA) and PE area
//! breakdowns for all three variants.

use uecgra_bench::{header, json_path, write_reports};
use uecgra_core::report::metrics_report;
use uecgra_vlsi::area::{component_areas, pe_area_reference, CgraKind};
use uecgra_vlsi::energy::figure11_bars;

fn main() {
    let json = json_path();
    let mut metrics = Vec::new();
    header("Figure 11 (left): PE energy per op at nominal VF (pJ)");
    println!("{:<8} {:>8} {:>8}", "op", "E-CGRA", "UE-CGRA");
    for (name, e, ue) in figure11_bars() {
        println!("{name:<8} {e:>8.2} {ue:>8.2}");
        metrics.push((format!("energy_{name}_e_pj"), e));
        metrics.push((format!("energy_{name}_ue_pj"), ue));
    }
    println!("\n(average UE overhead: 21%, of which suppression logic ~1.3%)");

    header("\nFigure 11 (right): PE area breakdown (um^2)");
    for kind in CgraKind::ALL {
        println!("\n{}:", kind.label());
        let parts = component_areas(kind);
        for (name, a) in &parts {
            println!("  {name:<14} {a:>7.0}");
            metrics.push((format!("area_{}_{name}_um2", kind.label()), *a));
        }
        println!("  {:<14} {:>7.0}", "total", pe_area_reference(kind));
        metrics.push((
            format!("area_{}_total_um2", kind.label()),
            pe_area_reference(kind),
        ));
    }
    if let Some(path) = json {
        write_reports(&path, &[metrics_report("fig11_breakdown", metrics)]);
    }
}
