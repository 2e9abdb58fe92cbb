//! Building [`RunReport`]s from finished pipeline runs.
//!
//! This is the bridge between the simulator's
//! [`Activity`](uecgra_rtl::Activity) counters and the `uecgra-probe`
//! schema: one [`RunReport`] per [`CgraRun`], with per-PE
//! edge-classified stall attribution, queue occupancy histograms and
//! the per-domain clock-edge counters the measured clock-power path
//! consumes. Everything emitted here is a pure function of the run, so
//! reports inherit the workspace determinism contract (DESIGN.md §9).

use crate::pipeline::CgraRun;
use uecgra_clock::VfMode;
use uecgra_compiler::bitstream::PeRole;
use uecgra_probe::{PeReport, QueueReport, RunReport};

/// Stable lowercase label of a clock domain.
pub fn mode_label(mode: VfMode) -> &'static str {
    match mode {
        VfMode::Rest => "rest",
        VfMode::Nominal => "nominal",
        VfMode::Sprint => "sprint",
    }
}

/// Build the telemetry report of one finished run.
///
/// `name` labels the report (conventionally `<kernel>/<policy>` or a
/// figure identifier); `kernel` is the kernel's name when one applies.
/// Timings and metrics start empty — callers attach them when they
/// have any (the CLI adds wall-clock timings; figure binaries add
/// their published scalars).
pub fn run_report(name: impl Into<String>, kernel: Option<&str>, run: &CgraRun) -> RunReport {
    let act = &run.activity;
    let mut pes = Vec::new();
    let mut queues = Vec::new();
    for (y, row) in run.bitstream.grid.iter().enumerate() {
        for (x, cfg) in row.iter().enumerate() {
            let op = match cfg.role {
                PeRole::Gated => continue,
                PeRole::RouteOnly => "bypass".to_string(),
                PeRole::Compute(op) => op.mnemonic().to_string(),
            };
            pes.push(PeReport {
                x: x as u64,
                y: y as u64,
                op,
                mode: mode_label(cfg.clk).to_string(),
                rising_edges: act.rising_edges[y][x],
                fires: act.fires[y][x],
                bypass_tokens: act.bypass_tokens[y][x],
                fire_edges: act.fire_edges[y][x],
                operand_stall_edges: act.operand_stalls[y][x],
                suppressed_stall_edges: act.suppressed_stalls[y][x],
                backpressure_stall_edges: act.backpressure_stalls[y][x],
                gated_ticks: act.gated_ticks[y][x],
                input_stalls: act.input_stalls[y][x],
                output_stalls: act.output_stalls[y][x],
                sram_accesses: act.sram_accesses[y][x],
            });
            queues.push(QueueReport {
                x: x as u64,
                y: y as u64,
                occupancy: act.queue_occupancy[y][x].clone(),
            });
        }
    }
    RunReport {
        name: name.into(),
        kernel: kernel.map(str::to_string),
        policy: Some(run.policy.label().to_string()),
        seed: None,
        iterations: act.iterations(),
        ticks: act.ticks,
        nominal_cycles: act.nominal_cycles(),
        ii: act.steady_ii(8),
        stop: format!("{:?}", act.stop),
        domain_edges: act.domain_edges,
        domain_edges_hyper: act.domain_edges_hyper,
        domain_gated_ticks: act.domain_gated_ticks,
        pes,
        queues,
        timings: None,
        metrics: Vec::new(),
        fault_campaign: None,
        dse: None,
    }
}

/// A metrics-only report for figure/table binaries whose output is
/// analytic (no fabric run): just named scalars under the shared
/// schema.
pub fn metrics_report(name: impl Into<String>, metrics: Vec<(String, f64)>) -> RunReport {
    RunReport {
        name: name.into(),
        stop: "Analytic".to_string(),
        metrics,
        ..RunReport::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Policy, RunRequest};
    use uecgra_dfg::kernels;

    #[test]
    fn report_mirrors_activity_and_conserves_edges() {
        let k = kernels::dither::build_with_pixels(60);
        let run = RunRequest::new(&k)
            .policy(Policy::UePerfOpt)
            .seed(7)
            .run()
            .unwrap();
        let report = run_report(
            format!("{}/{}", k.name, run.policy.label()),
            Some(k.name),
            &run,
        );
        assert_eq!(report.kernel.as_deref(), Some("dither"));
        assert_eq!(report.iterations, run.activity.iterations());
        assert_eq!(report.stop, "Quiesced");
        assert!(!report.pes.is_empty());
        assert_eq!(report.pes.len(), report.queues.len());
        let total_fires: u64 = report.pes.iter().map(|p| p.fires).sum();
        let grid_fires: u64 = run.activity.fires.iter().flatten().sum();
        assert_eq!(total_fires, grid_fires);
        for pe in &report.pes {
            assert!(pe.conserves_edges(), "PE ({}, {})", pe.x, pe.y);
        }
        // Serialization round-trips.
        let text = RunReport::render_all(std::slice::from_ref(&report));
        assert_eq!(RunReport::parse_all(&text).unwrap(), vec![report]);
    }

    #[test]
    fn metrics_reports_carry_scalars_only() {
        let r = metrics_report("fig10_pe_area", vec![("ue_pe_um2".into(), 123.0)]);
        assert!(r.pes.is_empty());
        assert_eq!(r.stop, "Analytic");
        let text = RunReport::render_all(std::slice::from_ref(&r));
        assert_eq!(RunReport::parse_all(&text).unwrap()[0].metrics[0].1, 123.0);
    }
}
