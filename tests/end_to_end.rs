//! Cross-crate integration tests: the complete reproduction pipeline
//! from kernel construction through compilation, cycle-level
//! execution, energy accounting, and the scalar-core comparison.

use uecgra_core::energy::cgra_energy;
use uecgra_core::experiments::{run_all_policies, table3_row, SEED};
use uecgra_core::pipeline::{Policy, RunRequest};
use uecgra_dfg::kernels;
use uecgra_model::{DfgSimulator, SimConfig};
use uecgra_system::programs;
use uecgra_vlsi::GatingConfig;

/// Every layer of the stack agrees on functional results: host
/// reference, analytical simulator, cycle-level fabric, and RV32IM
/// core all produce identical memory images.
#[test]
fn four_way_functional_agreement() {
    for k in [
        kernels::llist::build_with_hops(40),
        kernels::dither::build_with_pixels(40),
        kernels::susan::build_with_iters(40),
        kernels::fft::build_with_group(40),
        kernels::bf::build_with_rounds(16),
    ] {
        let reference = k.reference_memory();

        // Analytical discrete-event model.
        let config = SimConfig {
            marker: Some(k.iter_marker),
            ..SimConfig::default()
        };
        let modes = vec![uecgra_clock::VfMode::Nominal; k.dfg.node_count()];
        let analytical = DfgSimulator::new(&k.dfg, modes, k.mem.clone(), config).run();
        assert_eq!(analytical.mem, reference, "{}: analytical model", k.name);

        // Cycle-level fabric.
        let fabric = RunRequest::new(&k)
            .policy(Policy::ECgra)
            .seed(SEED)
            .run()
            .expect("compiles");
        assert_eq!(
            &fabric.activity.mem[..reference.len()],
            &reference[..],
            "{}: fabric",
            k.name
        );

        // Scalar core.
        let core = programs::run_on_core(k.name, k.iters, k.mem.clone()).expect("runs");
        assert_eq!(core.mem, reference, "{}: RV32IM core", k.name);
    }
}

/// DVFS must never change results, only timing (the latency-
/// insensitivity guarantee of elastic design).
#[test]
fn dvfs_preserves_results_across_seeds() {
    let k = kernels::dither::build_with_pixels(40);
    let reference = k.reference_memory();
    for seed in [1u64, 7, 23] {
        for policy in Policy::ALL {
            let run = RunRequest::new(&k)
                .policy(policy)
                .seed(seed)
                .run()
                .unwrap_or_else(|e| panic!("seed {seed} {}: {e}", policy.label()));
            assert_eq!(
                &run.activity.mem[..reference.len()],
                &reference[..],
                "seed {seed}, {}",
                policy.label()
            );
        }
    }
}

/// The analytical model's throughput tracks the fabric's within the
/// routing gap: analytical II (no routing) ≤ fabric II ≤ 3× analytical.
#[test]
fn analytical_and_fabric_throughput_are_consistent() {
    for k in [
        kernels::llist::build_with_hops(60),
        kernels::dither::build_with_pixels(60),
        kernels::bf::build_with_rounds(24),
    ] {
        let config = SimConfig {
            marker: Some(k.iter_marker),
            ..SimConfig::default()
        };
        let modes = vec![uecgra_clock::VfMode::Nominal; k.dfg.node_count()];
        let analytical = DfgSimulator::new(&k.dfg, modes, k.mem.clone(), config).run();
        let a_ii = analytical.steady_ii(8).expect("analytical steady state");

        let fabric = RunRequest::new(&k)
            .policy(Policy::ECgra)
            .seed(SEED)
            .run()
            .expect("compiles");
        let f_ii = fabric.ii();
        assert!(
            f_ii >= a_ii - 0.7,
            "{}: fabric II {f_ii} beats the logical bound {a_ii}",
            k.name
        );
        assert!(
            f_ii <= 3.0 * a_ii,
            "{}: routing gap too large ({f_ii} vs {a_ii})",
            k.name
        );
    }
}

/// Headline reproduction: fine-grain DVFS buys ~1.5× speedup on the
/// recurrence-bound kernels and EOpt trades nothing for efficiency on
/// the restable ones.
#[test]
fn headline_results_hold() {
    let k = kernels::dither::build_with_pixels(120);
    let runs = run_all_policies(&k, SEED).expect("runs");
    let row = runs.table2_row();
    assert!(row.popt_perf > 1.35, "POpt perf {}", row.popt_perf);
    assert!(row.eopt_eff > 1.1, "EOpt eff {}", row.eopt_eff);
    assert!(
        (row.eopt_perf - 1.0).abs() < 0.1,
        "EOpt perf {}",
        row.eopt_perf
    );

    // System level: the CGRA must beat the scalar core on dither.
    let t3 = table3_row(&runs);
    let popt = t3
        .relative
        .iter()
        .find(|(p, _, _)| *p == Policy::UePerfOpt)
        .expect("POpt row");
    assert!(popt.1 > 1.2, "system-level POpt speedup {}", popt.1);
}

/// Energy accounting is internally consistent: per-iteration energies
/// scale with iteration count, and total power stays in a plausible
/// milliwatt range for a 28 nm 8×8 array.
#[test]
fn energy_accounting_sanity() {
    let small = kernels::susan::build_with_iters(60);
    let large = kernels::susan::build_with_iters(240);
    let e_small = cgra_energy(
        &RunRequest::new(&small)
            .policy(Policy::ECgra)
            .seed(SEED)
            .run()
            .expect("runs"),
        GatingConfig::FULL,
    );
    let e_large = cgra_energy(
        &RunRequest::new(&large)
            .policy(Policy::ECgra)
            .seed(SEED)
            .run()
            .expect("runs"),
        GatingConfig::FULL,
    );
    let ratio = e_large.per_iteration_pj() / e_small.per_iteration_pj();
    assert!(
        (ratio - 1.0).abs() < 0.15,
        "per-iteration energy not scale-invariant: {ratio}"
    );
    for e in [&e_small, &e_large] {
        let mw = e.average_power_mw();
        assert!(mw > 0.2 && mw < 30.0, "implausible power {mw} mW");
    }
}

/// Different placement seeds change the mapping but not the verdicts.
#[test]
fn verdicts_are_seed_robust() {
    let k = kernels::llist::build_with_hops(80);
    for seed in [1u64, 7, 13] {
        let e = RunRequest::new(&k)
            .policy(Policy::ECgra)
            .seed(seed)
            .run()
            .expect("runs");
        let p = RunRequest::new(&k)
            .policy(Policy::UePerfOpt)
            .seed(seed)
            .run()
            .expect("runs");
        let speedup = e.ii() / p.ii();
        assert!(
            speedup > 1.2 && speedup < 1.6,
            "seed {seed}: POpt speedup {speedup}"
        );
    }
}

/// The extension kernels (beyond the paper's five) run correctly
/// through the full pipeline under every policy.
#[test]
fn extension_kernels_run_end_to_end() {
    for k in kernels::extra::extra_kernels(48) {
        let reference = k.reference_memory();
        for policy in Policy::ALL {
            let run = RunRequest::new(&k)
                .policy(policy)
                .seed(SEED)
                .run()
                .unwrap_or_else(|e| panic!("{} {}: {e}", k.name, policy.label()));
            assert_eq!(
                &run.activity.mem[..reference.len()],
                &reference[..],
                "{} under {}",
                k.name,
                policy.label()
            );
        }
        // POpt accelerates all three.
        let e = RunRequest::new(&k)
            .policy(Policy::ECgra)
            .seed(SEED)
            .run()
            .unwrap();
        let p = RunRequest::new(&k)
            .policy(Policy::UePerfOpt)
            .seed(SEED)
            .run()
            .unwrap();
        let speedup = e.ii() / p.ii();
        assert!(speedup > 1.1, "{}: POpt speedup {speedup:.2}", k.name);
    }
}
