//! End-to-end fabric tests: compile each paper kernel to a bitstream,
//! execute it on the cycle-level fabric, and check functional
//! correctness against the host reference plus performance against the
//! recurrence bounds.

use uecgra_clock::VfMode;
use uecgra_compiler::bitstream::Bitstream;
use uecgra_compiler::mapping::{ArrayShape, MappedKernel};
use uecgra_compiler::power_map::{power_map, Objective};
use uecgra_dfg::kernels::{self, Kernel};
use uecgra_rtl::fabric::{Fabric, FabricConfig, FabricStop};

fn run_kernel(k: &Kernel, modes: &[VfMode], seed: u64) -> (MappedKernel, uecgra_rtl::Activity) {
    let mapped = MappedKernel::map(&k.dfg, ArrayShape::default(), seed)
        .unwrap_or_else(|e| panic!("{}: {e}", k.name));
    let bs =
        Bitstream::assemble(&k.dfg, &mapped, modes).unwrap_or_else(|e| panic!("{}: {e}", k.name));
    let config = FabricConfig {
        marker: Some(mapped.coord_of(k.iter_marker)),
        ..FabricConfig::default()
    };
    let activity = Fabric::new(&bs, k.mem.clone(), config).run();
    (mapped, activity)
}

fn small_kernels() -> Vec<Kernel> {
    vec![
        kernels::llist::build_with_hops(60),
        kernels::dither::build_with_pixels(60),
        kernels::susan::build_with_iters(60),
        kernels::fft::build_with_group(60),
        kernels::bf::build_with_rounds(24),
    ]
}

#[test]
fn all_kernels_compute_correctly_at_nominal() {
    for k in small_kernels() {
        let modes = vec![VfMode::Nominal; k.dfg.node_count()];
        let (_, activity) = run_kernel(&k, &modes, 7);
        assert_eq!(
            activity.stop,
            FabricStop::Quiesced,
            "{} must terminate",
            k.name
        );
        let expect = k.reference_memory();
        assert_eq!(
            &activity.mem[..expect.len()],
            &expect[..],
            "{}: fabric memory diverges from reference",
            k.name
        );
    }
}

#[test]
fn all_kernels_compute_correctly_under_popt_dvfs() {
    for k in small_kernels() {
        let pm = power_map(&k.dfg, k.mem.clone(), k.iter_marker, Objective::Performance);
        let (_, activity) = run_kernel(&k, &pm.node_modes, 7);
        let expect = k.reference_memory();
        assert_eq!(
            &activity.mem[..expect.len()],
            &expect[..],
            "{}: POpt DVFS broke functionality",
            k.name
        );
    }
}

#[test]
fn all_kernels_compute_correctly_under_eopt_dvfs() {
    for k in small_kernels() {
        let pm = power_map(&k.dfg, k.mem.clone(), k.iter_marker, Objective::Energy);
        let (_, activity) = run_kernel(&k, &pm.node_modes, 7);
        let expect = k.reference_memory();
        assert_eq!(
            &activity.mem[..expect.len()],
            &expect[..],
            "{}: EOpt DVFS broke functionality",
            k.name
        );
    }
}

#[test]
fn routed_ii_is_at_least_the_recurrence_bound() {
    // Routing adds hops: the measured II can only be ≥ the logical
    // recurrence MII (the paper's Table III "Real ≥ Ideal").
    for k in small_kernels() {
        let modes = vec![VfMode::Nominal; k.dfg.node_count()];
        let (_, activity) = run_kernel(&k, &modes, 7);
        let ii = activity
            .steady_ii(8)
            .unwrap_or_else(|| panic!("{}: no steady state", k.name));
        let ideal = k.ideal_recurrence as f64;
        assert!(ii >= ideal - 1.2, "{}: II {ii} below ideal {ideal}", k.name);
        assert!(
            ii <= 3.0 * ideal,
            "{}: II {ii} wildly above ideal {ideal} — routing gone wrong",
            k.name
        );
    }
}

#[test]
fn popt_speeds_up_recurrence_bound_kernels() {
    // Paper Table II: POpt improves llist/dither/susan/fft/bf by
    // 1.42–1.50x over the all-nominal E-CGRA.
    for k in small_kernels() {
        let nominal = vec![VfMode::Nominal; k.dfg.node_count()];
        let (_, base) = run_kernel(&k, &nominal, 7);
        let pm = power_map(&k.dfg, k.mem.clone(), k.iter_marker, Objective::Performance);
        let (_, fast) = run_kernel(&k, &pm.node_modes, 7);
        let ii_base = base.steady_ii(8).expect("baseline steady state");
        let ii_fast = fast.steady_ii(8).expect("POpt steady state");
        let speedup = ii_base / ii_fast;
        assert!(
            speedup > 1.15,
            "{}: POpt speedup {speedup:.2} too low (base II {ii_base:.2}, POpt II {ii_fast:.2})",
            k.name
        );
        assert!(
            speedup < 1.6,
            "{}: speedup {speedup:.2} above sprint ratio",
            k.name
        );
    }
}

#[test]
fn activity_counters_are_consistent() {
    let k = kernels::dither::build_with_pixels(40);
    let modes = vec![VfMode::Nominal; k.dfg.node_count()];
    let (mapped, activity) = run_kernel(&k, &modes, 3);
    // Each op PE fired at least once; gated PEs never fire.
    for (id, n) in k.dfg.nodes() {
        if n.op.is_pseudo() {
            continue;
        }
        let (x, y) = mapped.coord_of(id);
        assert!(
            activity.fires[y][x] > 0,
            "{}: op PE ({x},{y}) never fired",
            n.name
        );
    }
    let total_fires: u64 = activity.fires.iter().flatten().sum();
    let op_pes = k.dfg.pe_node_count() as u64;
    assert!(total_fires >= op_pes * 30, "most PEs fire most iterations");
    // Memory PEs account SRAM accesses.
    let total_sram: u64 = activity.sram_accesses.iter().flatten().sum();
    assert!(total_sram >= 80, "one load + one store per iteration");
}

#[test]
fn bypass_tokens_flow_on_multi_hop_routes() {
    let k = kernels::bf::build_with_rounds(16);
    let modes = vec![VfMode::Nominal; k.dfg.node_count()];
    let (mapped, activity) = run_kernel(&k, &modes, 5);
    let has_long_route = k.dfg.edges().any(|(id, _)| mapped.route(id).path.len() > 2);
    if has_long_route {
        let total: u64 = activity.bypass_tokens.iter().flatten().sum();
        assert!(total > 0, "multi-hop routes must forward bypass tokens");
    }
}

#[test]
fn fabric_is_deterministic() {
    let k = kernels::susan::build_with_iters(30);
    let modes = vec![VfMode::Nominal; k.dfg.node_count()];
    let (_, a) = run_kernel(&k, &modes, 9);
    let (_, b) = run_kernel(&k, &modes, 9);
    assert_eq!(a.mem, b.mem);
    assert_eq!(a.ticks, b.ticks);
    assert_eq!(a.marker_times, b.marker_times);
}

#[test]
fn marker_cap_stops_early() {
    let k = kernels::fft::build_with_group(100);
    let modes = vec![VfMode::Nominal; k.dfg.node_count()];
    let mapped = MappedKernel::map(&k.dfg, ArrayShape::default(), 1).unwrap();
    let bs = Bitstream::assemble(&k.dfg, &mapped, &modes).unwrap();
    let config = FabricConfig {
        marker: Some(mapped.coord_of(k.iter_marker)),
        max_marker_fires: Some(10),
        ..FabricConfig::default()
    };
    let activity = Fabric::new(&bs, k.mem.clone(), config).run();
    assert_eq!(activity.stop, FabricStop::MarkerDone);
    assert_eq!(activity.iterations(), 10);
}

#[test]
fn traditional_suppressor_matches_aware_on_single_domain() {
    // With every PE on the nominal clock, every capture edge is safe,
    // so the two suppressors must agree cycle-for-cycle.
    let k = kernels::dither::build_with_pixels(40);
    let modes = vec![VfMode::Nominal; k.dfg.node_count()];
    let mapped = MappedKernel::map(&k.dfg, ArrayShape::default(), 7).unwrap();
    let bs = Bitstream::assemble(&k.dfg, &mapped, &modes).unwrap();
    let run = |kind| {
        let config = FabricConfig {
            marker: Some(mapped.coord_of(k.iter_marker)),
            suppressor: kind,
            ..FabricConfig::default()
        };
        Fabric::new(&bs, k.mem.clone(), config).run()
    };
    let aware = run(uecgra_rtl::fabric::SuppressorKind::ElasticityAware);
    let trad = run(uecgra_rtl::fabric::SuppressorKind::Traditional);
    assert_eq!(aware.mem, trad.mem);
    assert_eq!(aware.ticks, trad.ticks);
    assert_eq!(aware.marker_times, trad.marker_times);
}

#[test]
fn traditional_suppressor_stalls_mixed_clock_mappings() {
    // The ablation behind the paper's Figure 8(d): fast→slow crossings
    // in the 2:3:9 plan have no safe edges at all, so a traditional
    // suppressor deadlocks any mapping that sprints — the
    // elasticity-aware suppressor is what makes per-PE DVFS viable.
    let k = kernels::dither::build_with_pixels(40);
    let pm = power_map(&k.dfg, k.mem.clone(), k.iter_marker, Objective::Performance);
    assert!(
        pm.node_modes.contains(&VfMode::Sprint),
        "POpt must sprint something for this ablation"
    );
    let mapped = MappedKernel::map(&k.dfg, ArrayShape::default(), 7).unwrap();
    let bs = Bitstream::assemble(&k.dfg, &mapped, &pm.node_modes).unwrap();
    let run = |kind| {
        let config = FabricConfig {
            marker: Some(mapped.coord_of(k.iter_marker)),
            suppressor: kind,
            max_ticks: 200_000,
            ..FabricConfig::default()
        };
        Fabric::new(&bs, k.mem.clone(), config).run()
    };
    let aware = run(uecgra_rtl::fabric::SuppressorKind::ElasticityAware);
    assert_eq!(aware.stop, FabricStop::Quiesced);
    assert_eq!(aware.iterations(), 41, "full run completes");

    let trad = run(uecgra_rtl::fabric::SuppressorKind::Traditional);
    assert!(
        trad.iterations() < aware.iterations() / 2,
        "traditional suppression must strangle the mixed-clock mapping \
         ({} vs {} iterations)",
        trad.iterations(),
        aware.iterations()
    );
}

#[test]
fn one_net_feeding_both_operand_ports_consumes_one_token() {
    // Regression: a br whose data and condition come from the same
    // producer (the if-lowering's trigger pattern) receives ONE token
    // per iteration that must serve both ports.
    use uecgra_dfg::{Dfg, Op};
    let mut g = Dfg::new();
    let phi = g.add_node(Op::Phi, "i").init(0).id();
    let add = g.add_node(Op::Add, "i+1").constant(1).id();
    let lt = g.add_node(Op::Lt, "i<N").constant(8).id();
    let br = g.add_node(Op::Br, "br").id();
    g.connect(phi, add);
    g.connect(add, lt);
    g.connect_ports(add, 0, br, 0);
    g.connect_ports(lt, 0, br, 1);
    g.connect_ports(br, 0, phi, 1);
    // The regression trigger: both ports of a second br fed by one net.
    let trig = g.add_node(Op::Br, "trig").id();
    g.connect_ports(lt, 0, trig, 0);
    g.connect_ports(lt, 0, trig, 1);
    let imm = g.add_node(Op::Cp1, "imm").constant(7).id();
    g.connect_ports(trig, 0, imm, 0);
    let st = g.add_node(Op::Store, "st").constant(0).id();
    g.connect_ports(imm, 0, st, 1);
    g.validate().unwrap();

    let mapped = MappedKernel::map(&g, ArrayShape::default(), 5).unwrap();
    let modes = vec![VfMode::Nominal; g.node_count()];
    let bs = Bitstream::assemble(&g, &mapped, &modes).unwrap();
    let config = FabricConfig {
        marker: Some(mapped.coord_of(phi)),
        max_ticks: 100_000,
        ..FabricConfig::default()
    };
    let act = Fabric::new(&bs, vec![0; 64], config).run();
    assert_eq!(act.stop, FabricStop::Quiesced);
    assert_eq!(act.mem[0], 7, "the trigger-gated constant was stored");
}
