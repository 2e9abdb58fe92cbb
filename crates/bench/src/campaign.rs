//! Seeded fault-injection campaigns over the paper's kernels.
//!
//! A campaign takes each evaluation kernel, runs a fault-free baseline
//! to learn which crossings actually carry tokens (the protocol
//! report's `flows`), then replays the kernel once per injected fault
//! drawn deterministically from the campaign seed, rotating through
//! all six fault classes. Every specimen's outcome is classified:
//!
//! * `detected` — the protocol checker reported a violation (fatal or
//!   end-of-run); required for every corruption fault that fired;
//! * `tolerated` — the run completed with the baseline's exact memory
//!   and zero violations (the expected fate of handshake and timing
//!   faults: the elastic protocol absorbs delay);
//! * `error` — the pipeline converted the fault into a structured
//!   [`Error`] (`Protocol`, `Stalled`,
//!   `DidNotTerminate`, ...);
//! * `undetected` — the run completed with corrupted memory and no
//!   violation: a **gate failure**;
//! * `abort` — the run panicked: a **gate failure**.
//!
//! The control leg (`faults_enabled: false`) runs the same kernels
//! with the checker on and the injector off, and must be entirely
//! clean. Campaign results serialize as the probe report's optional
//! `fault_campaign` section, and are bit-identical for a given seed at
//! any `UECGRA_THREADS` setting (specimens are index-addressed through
//! [`uecgra_util::par_tabulate`]).

use std::panic::{catch_unwind, AssertUnwindSafe};
use uecgra_core::pipeline::{Policy, RunRequest};
use uecgra_core::Error;
use uecgra_dfg::Kernel;
use uecgra_probe::{CampaignEntry, CampaignSection, RunReport};
use uecgra_rtl::{Fault, FaultPlan};

/// Campaign parameters.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// Master seed; per-kernel fault plans derive from it.
    pub seed: u64,
    /// Faults injected per kernel.
    pub per_kernel: usize,
    /// When false, run the control leg: checker on, injector off.
    pub faults_enabled: bool,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 0xC0FFEE,
            per_kernel: 12,
            faults_enabled: true,
        }
    }
}

/// SplitMix64 finalizer, used to derive independent per-kernel plan
/// seeds from the campaign seed (identical at any thread count).
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One specimen: a kernel index plus the fault to inject (None for the
/// control leg).
struct Specimen<'a> {
    kernel: &'a Kernel,
    baseline_mem: &'a [u32],
    fault: Option<Fault>,
}

fn run_specimen(s: &Specimen<'_>) -> CampaignEntry {
    let (fault_label, class) = match &s.fault {
        Some(f) => (f.label(), f.kind.class().to_string()),
        None => ("none".to_string(), "control".to_string()),
    };
    let plan = match s.fault {
        Some(f) => FaultPlan::single(f),
        None => FaultPlan::none(),
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        RunRequest::new(s.kernel)
            .policy(Policy::UePerfOpt)
            .faults(plan)
            .run()
    }));
    let (outcome, detail, violations) = match outcome {
        Err(panic) => {
            let msg = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic payload".to_string());
            ("abort", msg, 0)
        }
        Ok(Err(e)) => {
            let n = match &e {
                Error::Protocol(_) => 1,
                _ => 0,
            };
            let label = if matches!(e, Error::Protocol(_)) {
                "detected"
            } else {
                "error"
            };
            (label, uecgra_core::error_chain(&e), n)
        }
        Ok(Ok(run)) => {
            let violations = run.activity.protocol.violations.len() as u64;
            if violations > 0 {
                let first = run.activity.protocol.violations[0];
                ("detected", first.to_string(), violations)
            } else if run.activity.mem == s.baseline_mem {
                ("tolerated", String::new(), 0)
            } else {
                ("undetected", "memory diverged, no violation".into(), 0)
            }
        }
    };
    CampaignEntry {
        kernel: s.kernel.name.to_string(),
        fault: fault_label,
        class,
        outcome: outcome.to_string(),
        detail,
        violations,
    }
}

/// Run a campaign over `kernels`, returning the aggregated section.
///
/// # Panics
///
/// Panics if a fault-free baseline run fails — the campaign needs the
/// baseline memory and flows to target and classify faults at all.
pub fn run_campaign(kernels: &[Kernel], config: &CampaignConfig) -> CampaignSection {
    // Fault-free baselines, in parallel: reference memory + flows.
    let baselines = uecgra_util::par_tabulate(kernels.len(), |i| {
        RunRequest::new(&kernels[i])
            .policy(Policy::UePerfOpt)
            .run()
            .unwrap_or_else(|e| panic!("{} baseline failed: {e}", kernels[i].name))
    });

    // Specimens: the control leg injects nothing; the fault leg draws
    // `per_kernel` faults per kernel from crossings that carried at
    // least 8 tokens in the baseline, so every per-nth corruption
    // trigger (nth < 6) actually fires.
    let mut specimens: Vec<Specimen<'_>> = Vec::new();
    for (i, (k, base)) in kernels.iter().zip(&baselines).enumerate() {
        if !config.faults_enabled {
            specimens.push(Specimen {
                kernel: k,
                baseline_mem: &base.activity.mem,
                fault: None,
            });
            continue;
        }
        let targets: Vec<_> = base
            .activity
            .protocol
            .flows
            .iter()
            .filter(|(_, _, n)| *n >= 8)
            .map(|&(pe, dir, _)| (pe, dir))
            .collect();
        let plan = FaultPlan::random_at(mix(config.seed ^ i as u64), &targets, config.per_kernel);
        for fault in plan.faults {
            specimens.push(Specimen {
                kernel: k,
                baseline_mem: &base.activity.mem,
                fault: Some(fault),
            });
        }
    }

    let entries = uecgra_util::par_tabulate(specimens.len(), |i| run_specimen(&specimens[i]));

    let count = |o: &str| entries.iter().filter(|e| e.outcome == o).count() as u64;
    CampaignSection {
        seed: config.seed,
        faults_enabled: config.faults_enabled,
        detected: count("detected"),
        tolerated: count("tolerated"),
        structured_errors: count("error"),
        undetected: count("undetected"),
        entries,
    }
}

/// The campaign gate: no aborts, no silent corruptions — and on the
/// control leg, no violations and no non-tolerated outcome at all.
pub fn gate_passes(section: &CampaignSection) -> bool {
    let aborts = section
        .entries
        .iter()
        .filter(|e| e.outcome == "abort")
        .count();
    if aborts > 0 || section.undetected > 0 {
        return false;
    }
    if !section.faults_enabled {
        return section.detected == 0
            && section.structured_errors == 0
            && section.entries.iter().all(|e| e.outcome == "tolerated");
    }
    true
}

/// Wrap a campaign section in a [`RunReport`].
pub fn campaign_report(name: impl Into<String>, section: CampaignSection) -> RunReport {
    RunReport {
        name: name.into(),
        stop: "Analytic".to_string(),
        fault_campaign: Some(section),
        ..RunReport::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uecgra_dfg::kernels;

    fn tiny_kernels() -> Vec<Kernel> {
        vec![
            kernels::llist::build_with_hops(40),
            kernels::dither::build_with_pixels(40),
        ]
    }

    #[test]
    fn control_leg_is_clean() {
        let config = CampaignConfig {
            faults_enabled: false,
            ..CampaignConfig::default()
        };
        let section = run_campaign(&tiny_kernels(), &config);
        assert!(gate_passes(&section), "{:?}", section.entries);
        assert_eq!(section.detected + section.structured_errors, 0);
        assert_eq!(section.entries.len(), 2);
    }

    #[test]
    fn smoke_campaign_detects_every_corruption_and_never_aborts() {
        let config = CampaignConfig {
            seed: 11,
            per_kernel: 6, // one rotation through all six classes
            ..CampaignConfig::default()
        };
        let section = run_campaign(&tiny_kernels(), &config);
        assert!(gate_passes(&section), "{:?}", section.entries);
        assert_eq!(section.entries.len(), 12);
        for e in &section.entries {
            let corruption = matches!(e.class.as_str(), "flip" | "drop" | "dup");
            if corruption {
                assert!(
                    e.outcome == "detected" || e.outcome == "error",
                    "{}: corruption fault {} escaped as `{}`",
                    e.kernel,
                    e.fault,
                    e.outcome
                );
            } else {
                assert_ne!(e.outcome, "abort", "{}: {}", e.kernel, e.fault);
                assert_ne!(e.outcome, "undetected", "{}: {}", e.kernel, e.fault);
            }
        }
    }

    #[test]
    fn campaigns_are_deterministic_in_seed() {
        let config = CampaignConfig {
            seed: 5,
            per_kernel: 4,
            ..CampaignConfig::default()
        };
        let ks = tiny_kernels();
        let a = run_campaign(&ks, &config);
        let b = run_campaign(&ks, &config);
        assert_eq!(a, b);
    }
}
