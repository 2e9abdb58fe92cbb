//! Typed computations behind every evaluation table and figure.
//!
//! Each function returns structured rows; the `uecgra-bench` binaries
//! print them in the paper's format, and `EXPERIMENTS.md` records the
//! measured-versus-published comparison.

use crate::energy::{cgra_energy, global_scale_point, CgraEnergy};
use crate::error::Error;
use crate::pipeline::{CgraRun, Policy, RunRequest};
use uecgra_clock::VfMode;
use uecgra_compiler::mapping::{ArrayShape, MappedKernel};
use uecgra_dfg::Kernel;
use uecgra_rtl::config_load;
use uecgra_system::{core_energy_pj, programs, CoreEnergyParams, OffloadOverheads};
use uecgra_vlsi::GatingConfig;

/// Default mapping seed used by every experiment (results are
/// deterministic given the seed).
pub const SEED: u64 = 7;

/// One row of Table II: UE-CGRA relative to the E-CGRA baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Kernel name.
    pub kernel: &'static str,
    /// EOpt performance (iterations/s) relative to E-CGRA.
    pub eopt_perf: f64,
    /// EOpt energy efficiency (iterations/J) relative to E-CGRA.
    pub eopt_eff: f64,
    /// POpt performance relative to E-CGRA.
    pub popt_perf: f64,
    /// POpt energy efficiency relative to E-CGRA.
    pub popt_eff: f64,
}

/// The three runs backing one kernel's comparisons.
#[derive(Debug, Clone)]
pub struct KernelRuns {
    /// The kernel.
    pub kernel: Kernel,
    /// E-CGRA baseline run.
    pub e: CgraRun,
    /// UE-CGRA energy-optimized run.
    pub eopt: CgraRun,
    /// UE-CGRA performance-optimized run.
    pub popt: CgraRun,
}

/// Run all three policies on one kernel
/// ([`run_all_policies_many`] of one).
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn run_all_policies(kernel: &Kernel, seed: u64) -> Result<KernelRuns, Error> {
    run_all_policies_many(std::slice::from_ref(kernel), seed).map(|mut v| v.remove(0))
}

/// Run all three policies on every kernel. Placement does not depend
/// on the policy, so each kernel is placed and routed once and the
/// three policies power-map, assemble and execute on that mapping.
/// Both stages fan out across worker threads through
/// [`uecgra_util::par_tabulate`]; results come back in kernel input
/// order and are bit-identical at any thread count.
///
/// # Errors
///
/// Propagates the first pipeline failure in kernel × policy order.
pub fn run_all_policies_many(kernels: &[Kernel], seed: u64) -> Result<Vec<KernelRuns>, Error> {
    let mapped = uecgra_util::par_tabulate(kernels.len(), |k| {
        MappedKernel::map(&kernels[k].dfg, ArrayShape::default(), seed)
    });
    let n_pol = Policy::ALL.len();
    let mut runs = uecgra_util::par_tabulate(kernels.len() * n_pol, |i| {
        RunRequest::new(&kernels[i / n_pol])
            .policy(Policy::ALL[i % n_pol])
            .compile_mapped(mapped[i / n_pol].clone()?)?
            .execute()
    })
    .into_iter();
    kernels
        .iter()
        .map(|kernel| {
            // Policy::ALL order: E-CGRA, EOpt, POpt.
            let mut next = || runs.next().expect("full grid");
            Ok(KernelRuns {
                kernel: kernel.clone(),
                e: next()?,
                eopt: next()?,
                popt: next()?,
            })
        })
        .collect()
}

impl KernelRuns {
    /// Compute the Table II row (fully-gated energy accounting).
    ///
    /// # Panics
    ///
    /// Panics if a run has no steady-state II ([`CgraRun::try_ii`]
    /// fails): the kernel must be built for more iterations than the
    /// skip-8 measurement window, as every Table II kernel is.
    pub fn table2_row(&self) -> Table2Row {
        let ii = |run: &CgraRun| run.try_ii().expect("Table II runs reach a steady state");
        let g = GatingConfig::FULL;
        let e = cgra_energy(&self.e, g);
        let eo = cgra_energy(&self.eopt, g);
        let po = cgra_energy(&self.popt, g);
        Table2Row {
            kernel: self.kernel.name,
            eopt_perf: ii(&self.e) / ii(&self.eopt),
            eopt_eff: e.per_iteration_pj() / eo.per_iteration_pj(),
            popt_perf: ii(&self.e) / ii(&self.popt),
            popt_eff: e.per_iteration_pj() / po.per_iteration_pj(),
        }
    }
}

/// Compute Table II over the given kernels.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn table2(kernels: &[Kernel], seed: u64) -> Result<Vec<Table2Row>, Error> {
    Ok(run_all_policies_many(kernels, seed)?
        .iter()
        .map(KernelRuns::table2_row)
        .collect())
}

/// A point on the Figure 13 plane: performance and energy efficiency
/// relative to the nominal E-CGRA.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierPoint {
    /// Configuration label (rest / low / nominal / high / sprint /
    /// EOpt / POpt).
    pub label: &'static str,
    /// Relative performance (iterations/s).
    pub perf: f64,
    /// Relative energy efficiency (iterations/J).
    pub eff: f64,
}

/// Figure 13 for one kernel: the E-CGRA global-VF curve plus the two
/// UE-CGRA fine-grain points.
///
/// # Errors
///
/// Returns [`Error::NoSteadyState`] if a run is too short to measure
/// its II.
pub fn figure13(runs: &KernelRuns) -> Result<Vec<FrontierPoint>, Error> {
    let g = GatingConfig::FULL;
    // Global E-CGRA scaling: (V, f) pairs from the figure caption; the
    // three modes come from the operating-point table.
    let mode = |m: VfMode| (m.voltage(), m.speedup_over_nominal(&runs.e.activity.clocks));
    let globals = [
        ("rest", mode(VfMode::Rest)),
        ("low", (0.80, 2.0 / 3.0)),
        ("nominal", mode(VfMode::Nominal)),
        ("high", (1.00, 4.0 / 3.0)),
        ("sprint", mode(VfMode::Sprint)),
    ];
    let mut points: Vec<FrontierPoint> = globals
        .iter()
        .map(|&(label, (v, f))| {
            let (perf, eff) = global_scale_point(&runs.e, g, v, f);
            FrontierPoint { label, perf, eff }
        })
        .collect();

    let e = cgra_energy(&runs.e, g);
    let e_ii = runs.e.try_ii()?;
    for (label, run) in [("UE-EOpt", &runs.eopt), ("UE-POpt", &runs.popt)] {
        let x = cgra_energy(run, g);
        points.push(FrontierPoint {
            label,
            perf: e_ii / run.try_ii()?,
            eff: e.per_iteration_pj() / x.per_iteration_pj(),
        });
    }
    Ok(points)
}

/// One row of Table I: the power breakdown of a configuration under a
/// gating setting (mW).
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Row label (e.g. "UE-CGRA w/o H").
    pub label: String,
    /// PE logic power (datapath activity + ungated idle logic).
    pub pe_logic_mw: f64,
    /// Local (intra-PE) clock power.
    pub pe_clock_mw: f64,
    /// Global network power per [`VfMode`] (E-CGRA: nominal slot only).
    pub global_mw: [f64; 3],
    /// Total clock power.
    pub total_clock_mw: f64,
    /// Total power.
    pub total_mw: f64,
}

fn table1_row(label: String, run: &CgraRun, gating: GatingConfig) -> Table1Row {
    let e: CgraEnergy = cgra_energy(run, gating);
    let logic_pj: f64 = e.pe_logic_pj.iter().flatten().sum();
    let pe_logic_mw = logic_pj / e.runtime_ns + e.clock.idle_logic_mw;
    let total_clock = e.clock.total_clock_mw();
    Table1Row {
        label,
        pe_logic_mw,
        pe_clock_mw: e.clock.pe_clock_mw,
        global_mw: e.clock.global_mw,
        total_clock_mw: total_clock,
        total_mw: pe_logic_mw + total_clock,
    }
}

/// Table I: power breakdowns of the dither kernel on the E-CGRA and
/// both UE-CGRA mappings, with and without power gating (P) and
/// hierarchical clock gating (H).
pub fn table1(runs: &KernelRuns) -> Vec<Table1Row> {
    let gatings = [
        ("w/o P+H", GatingConfig::NONE),
        ("w/o H", GatingConfig::POWER_ONLY),
        ("", GatingConfig::FULL),
    ];
    let mut rows = Vec::new();
    for (suffix, g) in gatings {
        rows.push(table1_row(
            format!("E-CGRA {suffix}").trim().into(),
            &runs.e,
            g,
        ));
    }
    for (name, run) in [("POpt", &runs.popt), ("EOpt", &runs.eopt)] {
        for (suffix, g) in gatings {
            rows.push(table1_row(
                format!("UE-CGRA {name} {suffix}").trim().into(),
                run,
                g,
            ));
        }
    }
    rows
}

/// One row of Table III: system-level comparison against the RV32IM
/// core.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3Row {
    /// Kernel name.
    pub kernel: &'static str,
    /// Theoretical lower bound on the recurrence (cycles).
    pub ideal_recurrence: usize,
    /// Measured E-CGRA initiation interval (cycles).
    pub real_recurrence: f64,
    /// Reconfiguration cycles (E-CGRA / UE-CGRA).
    pub cfg_cycles: (u64, u64),
    /// Data-load cycles.
    pub data_cycles: u64,
    /// Core cycles and energy (pJ) for the whole kernel.
    pub core_cycles: u64,
    /// Core energy (pJ).
    pub core_energy_pj: f64,
    /// (perf, efficiency) of each policy relative to the core.
    pub relative: Vec<(Policy, f64, f64)>,
}

/// Compute Table III for one kernel.
///
/// # Errors
///
/// Returns [`Error::NoSteadyState`] if the E-CGRA run is too short to
/// measure its II.
///
/// # Panics
///
/// Panics if the kernel's core program misbehaves (checked by tests).
pub fn table3_row(runs: &KernelRuns) -> Result<Table3Row, Error> {
    let k = &runs.kernel;
    let core = programs::run_on_core(k.name, k.iters, k.mem.clone())
        .expect("core programs are well-formed");
    assert_eq!(
        core.mem,
        k.reference_memory(),
        "core result must be correct"
    );
    let core_e = core_energy_pj(&CoreEnergyParams::default(), &core.mix, core.cycles);

    let data_cycles = config_load::data_load_cycles(k.mem.len());
    let cfg_e = config_load::reconfiguration_cycles(&runs.e.bitstream, false);
    let cfg_ue = config_load::reconfiguration_cycles(&runs.popt.bitstream, true);

    let mut relative = Vec::new();
    for (policy, run, cfg) in [
        (Policy::ECgra, &runs.e, cfg_e),
        (Policy::UeEnergyOpt, &runs.eopt, cfg_ue),
        (Policy::UePerfOpt, &runs.popt, cfg_ue),
    ] {
        let ov = OffloadOverheads {
            cfg_cycles: cfg,
            data_cycles,
        };
        let perf = uecgra_system::system_speedup(core.cycles, run.activity.nominal_cycles(), ov);
        let energy = cgra_energy(run, GatingConfig::FULL);
        let eff = uecgra_system::system_efficiency(core_e, energy.total_pj());
        relative.push((policy, perf, eff));
    }

    Ok(Table3Row {
        kernel: k.name,
        ideal_recurrence: k.ideal_recurrence,
        real_recurrence: runs.e.try_ii()?,
        cfg_cycles: (cfg_e, cfg_ue),
        data_cycles,
        core_cycles: core.cycles,
        core_energy_pj: core_e,
        relative,
    })
}

/// Figure 14 data: per-PE energy contours with DVFS-mode glyphs.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyContour {
    /// Policy label.
    pub label: &'static str,
    /// Per-PE energy (pJ) over the whole run.
    pub energy_pj: Vec<Vec<f64>>,
    /// Per-PE mode (`None` = gated).
    pub modes: Vec<Vec<Option<VfMode>>>,
    /// Per-PE op mnemonic ("" for route-only/gated).
    pub ops: Vec<Vec<&'static str>>,
}

/// Compute the Figure 14 contour for one run.
pub fn energy_contour(run: &CgraRun, label: &'static str) -> EnergyContour {
    use uecgra_compiler::bitstream::PeRole;
    let e = cgra_energy(run, GatingConfig::FULL);
    let modes = run.bitstream.clock_grid();
    let ops = run
        .bitstream
        .grid
        .iter()
        .map(|row| {
            row.iter()
                .map(|cfg| match cfg.role {
                    PeRole::Compute(op) => op.mnemonic(),
                    PeRole::RouteOnly => "bps",
                    PeRole::Gated => "",
                })
                .collect()
        })
        .collect();
    EnergyContour {
        label,
        energy_pj: e.pe_logic_pj,
        modes,
        ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uecgra_dfg::kernels;

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
    fn shared_mapping_matches_independent_runs() {
        let ks = [
            kernels::llist::build_with_hops(40),
            kernels::dither::build_with_pixels(40),
            kernels::fft::build_with_group(40),
        ];
        for runs in run_all_policies_many(&ks, SEED).unwrap() {
            let shared = [&runs.e, &runs.eopt, &runs.popt];
            for (policy, shared) in Policy::ALL.into_iter().zip(shared) {
                let alone = RunRequest::new(&runs.kernel)
                    .policy(policy)
                    .seed(SEED)
                    .run()
                    .unwrap();
                let what = format!("{} {}", runs.kernel.name, policy.label());
                assert_eq!(shared.mapped, alone.mapped, "{what}: mapping");
                assert_eq!(shared.modes, alone.modes, "{what}: modes");
                assert_eq!(shared.bitstream.grid, alone.bitstream.grid, "{what}");
                assert_eq!(shared.activity, alone.activity, "{what}: activity");
            }
        }
    }

    #[test]
    fn table2_matches_paper_bands() {
        let rows = table2(&small_kernels(), SEED).unwrap();
        let mut eopt_wins = 0;
        for r in &rows {
            // Paper: POpt perf 1.42–1.50×; allow a wider reproduction
            // band since our mapper/router differ.
            assert!(
                r.popt_perf > 1.1 && r.popt_perf < 1.6,
                "{}: POpt perf {}",
                r.kernel,
                r.popt_perf
            );
            // Paper: EOpt efficiency 1.24–2.32×. Our reproduction
            // reaches 0.97–1.28: kernels whose nodes are nearly all on
            // the recurrence (llist, fft) have nothing to rest, and the
            // UE fixed clock overhead then slightly outweighs the
            // savings — see EXPERIMENTS.md for the discussion.
            assert!(
                r.eopt_eff > 0.93,
                "{}: EOpt efficiency {} collapsed",
                r.kernel,
                r.eopt_eff
            );
            if r.eopt_eff > 1.0 {
                eopt_wins += 1;
            }
            // EOpt holds performance within ~15% (bf drops to 0.87 in
            // the paper).
            assert!(r.eopt_perf > 0.8, "{}: EOpt perf {}", r.kernel, r.eopt_perf);
        }
        assert!(
            eopt_wins >= 3,
            "EOpt must improve efficiency on most kernels ({eopt_wins}/5)"
        );
    }

    #[test]
    fn figure13_has_a_real_tradeoff() {
        let k = kernels::llist::build_with_hops(60);
        let runs = run_all_policies(&k, SEED).unwrap();
        let pts = figure13(&runs).unwrap();
        let by = |l: &str| pts.iter().find(|p| p.label == l).unwrap().clone();
        let rest = by("rest");
        let sprint = by("sprint");
        let popt = by("UE-POpt");
        assert!(rest.perf < 0.5 && rest.eff > 1.0);
        assert!(sprint.perf == 1.5 && sprint.eff < 1.0);
        // The UE point beats the global-sprint point on efficiency at
        // comparable performance — the figure's headline.
        assert!(popt.perf > 1.2);
        assert!(popt.eff > sprint.eff, "{} vs {}", popt.eff, sprint.eff);
    }

    #[test]
    fn table1_shape_matches_paper() {
        let k = kernels::dither::build_with_pixels(60);
        let runs = run_all_policies(&k, SEED).unwrap();
        let rows = table1(&runs);
        assert_eq!(rows.len(), 9);
        // Within each 3-row group, total power falls monotonically as
        // gating is added.
        for g in rows.chunks(3) {
            assert!(g[0].total_mw > g[1].total_mw && g[1].total_mw > g[2].total_mw);
        }
        // Ungated, the clock network is roughly half of total power.
        let ungated = &rows[0];
        let frac = ungated.total_clock_mw / ungated.total_mw;
        assert!(frac > 0.35 && frac < 0.75, "clock fraction {frac}");
        // UE ungated global clock ≈ 4x the E ungated global clock.
        let ue_global: f64 = rows[3].global_mw.iter().sum();
        let e_global: f64 = ungated.global_mw.iter().sum();
        assert!((ue_global / e_global - 4.25).abs() < 0.3);
    }

    #[test]
    fn table3_kernels_beat_the_core_with_popt() {
        for k in small_kernels() {
            let runs = run_all_policies(&k, SEED).unwrap();
            let row = table3_row(&runs).unwrap();
            let popt = row
                .relative
                .iter()
                .find(|(p, _, _)| *p == Policy::UePerfOpt)
                .unwrap();
            let e = row
                .relative
                .iter()
                .find(|(p, _, _)| *p == Policy::ECgra)
                .unwrap();
            assert!(
                popt.1 > e.1,
                "{}: POpt ({}) must outrun E-CGRA ({})",
                row.kernel,
                popt.1,
                e.1
            );
            assert!(row.real_recurrence >= row.ideal_recurrence as f64 - 1.2);
        }
    }

    #[test]
    fn energy_contours_cover_the_grid() {
        let k = kernels::llist::build_with_hops(60);
        let runs = run_all_policies(&k, SEED).unwrap();
        let c = energy_contour(&runs.popt, "POpt");
        assert_eq!(c.energy_pj.len(), 8);
        let hot: f64 = c.energy_pj.iter().flatten().sum();
        assert!(hot > 0.0);
        // Mode glyphs exist exactly where energy is spent.
        for y in 0..8 {
            for x in 0..8 {
                if c.energy_pj[y][x] > 0.0 {
                    assert!(c.modes[y][x].is_some(), "({x},{y})");
                }
            }
        }
    }
}
