//! Should this loop be offloaded? The system-integration view.
//!
//! Runs the `dither` kernel on the RV32IM in-order core and on the
//! CGRA (with reconfiguration and DMA overheads), then shows how the
//! verdict flips with iteration count — the paper's Table III point
//! that the 10K+-reuse regions CGRA compilers target easily amortize
//! the one-time costs.
//!
//! Run with: `cargo run --release --example offload_decision`

use uecgra_core::energy::cgra_energy;
use uecgra_core::pipeline::{Policy, RunRequest};
use uecgra_dfg::kernels;
use uecgra_rtl::config_load;
use uecgra_system::{core_energy_pj, programs, system_speedup, CoreEnergyParams, OffloadOverheads};
use uecgra_vlsi::GatingConfig;

fn main() {
    println!("offload analysis: dither (Floyd-Steinberg error diffusion)\n");
    println!(
        "{:>7} | {:>10} {:>10} | {:>8} {:>8} | {:>9}",
        "pixels", "core cyc", "CGRA cyc", "overhead", "speedup", "CGRA eff"
    );

    for n in [16usize, 64, 256, 1000, 4000] {
        let k = kernels::dither::build_with_pixels(n);

        // Scalar core.
        let core = programs::run_on_core("dither", n, k.mem.clone()).expect("program runs");
        assert_eq!(core.mem, k.reference_memory());
        let core_pj = core_energy_pj(&CoreEnergyParams::default(), &core.mix, core.cycles);

        // UE-CGRA POpt with offload overheads.
        let run = RunRequest::new(&k)
            .policy(Policy::UePerfOpt)
            .seed(7)
            .run()
            .expect("kernel runs");
        let ov = OffloadOverheads {
            cfg_cycles: config_load::reconfiguration_cycles(&run.bitstream, true),
            data_cycles: config_load::data_load_cycles(k.mem.len()),
        };
        let speedup = system_speedup(core.cycles, run.activity.nominal_cycles(), ov);
        let cgra_pj = cgra_energy(&run, GatingConfig::FULL).total_pj();

        println!(
            "{:>7} | {:>10} {:>10.0} | {:>8} {:>8.2} | {:>9.2}",
            n,
            core.cycles,
            run.activity.nominal_cycles(),
            ov.total(),
            speedup,
            core_pj / cgra_pj
        );
    }

    println!("\nSmall trip counts lose to the reconfiguration + DMA overheads;");
    println!("by ~1000 iterations the CGRA wins decisively (paper: dither 1.80x).");
}
