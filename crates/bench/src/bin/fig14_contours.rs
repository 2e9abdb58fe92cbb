//! Figure 14: per-PE energy contours for llist and dither across the
//! E-CGRA and both UE-CGRA mappings, rendered as ASCII heat maps with
//! DVFS-mode glyphs.

use uecgra_bench::{header, json_path, write_reports};
use uecgra_clock::VfMode;
use uecgra_core::experiments::{energy_contour, run_all_policies_many, SEED};
use uecgra_core::pipeline::CgraRun;
use uecgra_core::report::metrics_report;
use uecgra_dfg::kernels;

fn glyph(mode: Option<VfMode>) -> char {
    match mode {
        None => '.',
        Some(VfMode::Rest) => 'r',
        Some(VfMode::Nominal) => 'n',
        Some(VfMode::Sprint) => 'S',
    }
}

fn shade(pj: f64, max: f64) -> char {
    if pj <= 0.0 {
        return ' ';
    }
    let levels = [' ', '1', '2', '3', '4', '5', '6', '7', '8', '9'];
    let idx = ((pj / max) * 9.0).ceil().min(9.0) as usize;
    levels[idx]
}

fn print_contour(run: &CgraRun, label: &'static str) {
    let c = energy_contour(run, label);
    let max = c
        .energy_pj
        .iter()
        .flatten()
        .cloned()
        .fold(0.0f64, f64::max)
        .max(1e-9);
    println!("\n{label}  (heat 1..9 = relative energy; r/n/S = rest/nominal/sprint; . = gated)");
    for y in 0..8 {
        print!("  ");
        for x in 0..8 {
            print!("{}{} ", shade(c.energy_pj[y][x], max), glyph(c.modes[y][x]));
        }
        println!();
    }
    println!("  hottest PE: {:.0} pJ over the run", max);
}

fn main() {
    let json = json_path();
    header("Figure 14: PE energy contours (llist, dither)");
    // Both kernels × all three policies fan out across worker threads;
    // rendering stays on the main thread in input order, so the output
    // is bit-identical for any UECGRA_THREADS setting.
    let ks = [
        kernels::llist::build_with_hops(400),
        kernels::dither::build_with_pixels(400),
    ];
    let all = run_all_policies_many(&ks, SEED).expect("kernels run");
    for runs in &all {
        println!("\n=== {} ===", runs.kernel.name);
        print_contour(&runs.e, "E-CGRA");
        print_contour(&runs.popt, "UE-CGRA POpt");
        print_contour(&runs.eopt, "UE-CGRA EOpt");
    }
    if let Some(path) = json {
        // The runs themselves are reported by `fig13_frontier`.
        let mut reports = Vec::new();
        for runs in &all {
            let mut metrics = Vec::new();
            for (label, run) in [
                ("E-CGRA", &runs.e),
                ("UE-CGRA EOpt", &runs.eopt),
                ("UE-CGRA POpt", &runs.popt),
            ] {
                let c = energy_contour(run, label);
                let hottest = c.energy_pj.iter().flatten().cloned().fold(0.0f64, f64::max);
                metrics.push((format!("{label}_hottest_pe_pj"), hottest));
            }
            reports.push(metrics_report(
                format!("fig14/{}", runs.kernel.name),
                metrics,
            ));
        }
        write_reports(&path, &reports);
    }
}
