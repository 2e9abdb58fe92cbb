//! UE-CGRA end-to-end pipeline and experiment drivers.
//!
//! This crate ties the reproduction together:
//!
//! * [`pipeline`] — compile a kernel (place, route, power-map,
//!   assemble) and execute it on the cycle-level fabric (its
//!   event-driven engine) under one of three policies: E-CGRA,
//!   UE-CGRA EOpt, UE-CGRA POpt;
//! * [`energy`] — RTL-level energy accounting from fabric activity
//!   plus the calibrated VLSI tables and the hierarchically-gated
//!   clock-power model;
//! * [`experiments`] — the typed computations behind every evaluation
//!   table and figure (Tables I–III, Figures 13–14), consumed by the
//!   `uecgra-bench` binaries.
//!
//! # Quickstart
//!
//! ```
//! use uecgra_core::pipeline::{Policy, RunRequest};
//! use uecgra_core::energy::cgra_energy;
//! use uecgra_dfg::kernels;
//! use uecgra_vlsi::GatingConfig;
//!
//! let kernel = kernels::llist::build_with_hops(40);
//! let base = RunRequest::new(&kernel).seed(7).run().unwrap();
//! let fast = RunRequest::new(&kernel).policy(Policy::UePerfOpt).seed(7).run().unwrap();
//! let speedup = base.try_ii().unwrap() / fast.try_ii().unwrap();
//! assert!(speedup > 1.1, "fine-grain DVFS sprints the pointer chase");
//! let energy = cgra_energy(&fast, GatingConfig::FULL);
//! assert!(energy.per_iteration_pj() > 0.0);
//! ```

#![warn(missing_docs)]

pub mod cli;
pub mod energy;
pub mod error;
pub mod experiments;
pub mod pipeline;
pub mod report;

/// The deterministic parallel executor the evaluation harnesses use
/// (re-exported from `uecgra-util` so downstream crates need only
/// `uecgra-core`). `UECGRA_THREADS` overrides the worker count;
/// results are index-addressed and bit-identical at any thread count.
pub mod par {
    pub use uecgra_util::par::{num_threads, par_map, par_map_slice, par_tabulate};
}

pub use energy::{cgra_energy, CgraEnergy};
pub use error::{error_chain, Error};
pub use pipeline::{CgraRun, Policy, RunRequest};
pub use report::{metrics_report, run_report};
