//! Deterministic DVFS design-space exploration for UE-CGRA kernels.
//!
//! The paper's power-mapping pass (Section III) commits to a single
//! greedy per-PE VF-mode assignment. This crate searches *beyond* that
//! pass: it explores the grouped assignment space through the
//! analytical model, memoizes every measurement in a canonical-hash
//! [`EvalCache`] (optionally persisted to disk in `uecgra-probe`
//! canonical JSON), and returns the Pareto frontier over
//! (delay, energy, EDP) with the greedy result as a baseline the
//! frontier dominates or matches by construction.
//!
//! Everything is bit-identical across `UECGRA_THREADS` settings and
//! across cold vs warm caches: search decisions run on the calling
//! thread; only batched model evaluations fan out.
//!
//! Modules:
//!
//! * [`key`] — canonical 128-bit cache keys via the normalized probe
//!   JSON serializer (invalidation by construction).
//! * [`cache`] — the thread-safe memo table and its on-disk form.
//! * [`pareto`] — dominance and frontier extraction.
//! * [`search`] — the explorer (pruned exhaustive / seeded hill-climb).
//! * [`rtl_check`] — cycle-level cross-check of chosen points.

#![warn(missing_docs)]

pub mod cache;
pub mod key;
pub mod pareto;
pub mod rtl_check;
pub mod search;

pub use cache::{EvalCache, CACHE_FORMAT_VERSION};
pub use key::{combine, digest_bytes, digest_json, Digest};
pub use pareto::{dominates, modes_string, pareto_frontier, DsePoint};
pub use rtl_check::rtl_crosscheck;
pub use search::{
    candidate_key, config_digest, explore, explore_points, DseConfig, DseOutcome, MAX_BUDGET,
};
