//! Quickstart: accelerate an irregular pointer-chasing loop with
//! fine-grain DVFS.
//!
//! Builds the paper's `llist` kernel (a linked-list search whose
//! inter-iteration dependency bottlenecks an ordinary elastic CGRA),
//! compiles it for the 8×8 array under all three policies, executes
//! each on the cycle-level fabric, and reports performance and energy.
//!
//! Run with: `cargo run --release --example quickstart`

use uecgra_core::energy::cgra_energy;
use uecgra_core::pipeline::{Policy, RunRequest};
use uecgra_dfg::kernels;
use uecgra_vlsi::GatingConfig;

fn main() {
    let kernel = kernels::llist::build_with_hops(1000);
    println!(
        "kernel: {} ({} ops, ideal recurrence {} cycles, {} iterations)\n",
        kernel.name,
        kernel.dfg.pe_node_count(),
        kernel.ideal_recurrence,
        kernel.iters
    );

    let expect = kernel.reference_memory();
    let mut baseline_ii = None;
    let mut baseline_pj = None;

    for policy in Policy::ALL {
        let run = RunRequest::new(&kernel)
            .policy(policy)
            .seed(7)
            .run()
            .expect("kernel compiles and runs");
        assert_eq!(
            &run.activity.mem[..expect.len()],
            &expect[..],
            "result must match the host reference"
        );
        let energy = cgra_energy(&run, GatingConfig::FULL);
        let ii = run.try_ii().expect("steady state");
        let pj = energy.per_iteration_pj();
        let (speedup, eff) = match (baseline_ii, baseline_pj) {
            (Some(b), Some(e)) => (b / ii, e / pj),
            _ => {
                baseline_ii = Some(ii);
                baseline_pj = Some(pj);
                (1.0, 1.0)
            }
        };
        println!(
            "{:<14}  II = {:>5.2} cycles   {:>6.2} pJ/iter   speedup {:>4.2}x   efficiency {:>4.2}x",
            policy.label(),
            ii,
            pj,
            speedup,
            eff
        );
    }

    println!("\nThe POpt mapping sprints the five-op pointer-chase recurrence at");
    println!("1.23 V / 1.5x frequency while resting the rest of the fabric — the");
    println!("paper's core result: true-dependency bottlenecks can be bought down");
    println!("with per-PE DVFS instead of more parallel hardware.");
}
