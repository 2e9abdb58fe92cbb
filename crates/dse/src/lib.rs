//! Deterministic DVFS design-space exploration for UE-CGRA kernels.
//!
//! The paper's power-mapping pass (Section III) commits to a single
//! greedy per-PE VF-mode assignment. This crate searches *beyond* that
//! pass: it explores the grouped assignment space through the
//! analytical model, memoizes every measurement in a digest-keyed
//! [`EvalCache`] that lives for one process, and returns the Pareto
//! frontier over (delay, energy, EDP) with the greedy result as a
//! baseline the frontier dominates or matches by construction.
//!
//! Everything is bit-identical across `UECGRA_THREADS` settings and
//! across cold vs warm caches: search decisions run on the calling
//! thread; only batched model evaluations fan out.
//!
//! Modules:
//!
//! * [`key`] — 128-bit cache keys over what differs between calls in
//!   one process.
//! * [`cache`] — the thread-safe memo table.
//! * [`pareto`] — dominance and frontier extraction.
//! * [`search`] — the explorer (pruned exhaustive / seeded hill-climb).
//! * [`rtl_check`] — cycle-level cross-check of chosen points.

#![warn(missing_docs)]

pub mod cache;
pub mod key;
pub mod pareto;
pub mod rtl_check;
pub mod search;

pub use cache::EvalCache;
pub use key::{combine, digest_bytes, Digest};
pub use pareto::{dominates, modes_string, pareto_frontier, DsePoint};
pub use rtl_check::rtl_crosscheck;
pub use search::{
    candidate_key, config_digest, explore, explore_points, DseConfig, DseOutcome, MAX_BUDGET,
};
