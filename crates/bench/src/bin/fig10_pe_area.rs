//! Figure 10: PE area versus cycle-time target for the three PE
//! variants.

use uecgra_bench::{header, json_path, write_reports};
use uecgra_clock::NOMINAL_CYCLE_NS;
use uecgra_core::report::metrics_report;
use uecgra_vlsi::area::{pe_area, CgraKind, FIG10_CYCLE_TIMES};

fn main() {
    let json = json_path();
    header("Figure 10: PE area (um^2) vs cycle time (ns), TSMC 28 nm model");
    print!("{:<10}", "cycle ns");
    for kind in CgraKind::ALL {
        print!(" {:>9}", kind.label());
    }
    println!();
    let mut metrics = Vec::new();
    for &t in &FIG10_CYCLE_TIMES {
        print!("{t:<10.2}");
        for kind in CgraKind::ALL {
            let a = pe_area(kind, t);
            metrics.push((format!("{}_at_{t:.2}ns_um2", kind.label()), a));
            print!(" {a:>9.0}");
        }
        println!();
    }
    let ie = pe_area(CgraKind::Inelastic, NOMINAL_CYCLE_NS);
    let e = pe_area(CgraKind::Elastic, NOMINAL_CYCLE_NS);
    let ue = pe_area(CgraKind::UltraElastic, NOMINAL_CYCLE_NS);
    println!(
        "\nat 750 MHz: E-CGRA overhead {:.0}% (paper 14%), UE-CGRA {:.0}% (paper 17%)",
        (e / ie - 1.0) * 100.0,
        (ue / ie - 1.0) * 100.0
    );
    if let Some(path) = json {
        metrics.push(("e_overhead_pct".into(), (e / ie - 1.0) * 100.0));
        metrics.push(("ue_overhead_pct".into(), (ue / ie - 1.0) * 100.0));
        write_reports(&path, &[metrics_report("fig10_pe_area", metrics)]);
    }
}
