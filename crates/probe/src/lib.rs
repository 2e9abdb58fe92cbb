//! Structured telemetry for UE-CGRA runs (`uecgra-probe`).
//!
//! The evaluation harnesses used to expose per-PE activity only as
//! formatted `println!` rows; downstream power/timing comparison
//! (and regeneration of the paper's Tables I–III) needs the same
//! numbers machine-readable. This crate provides the three pieces,
//! with **zero external dependencies** (the build containers have no
//! registry access):
//!
//! * [`json`] — a minimal, deterministic JSON value type with a
//!   writer and a parser. Objects preserve insertion order, so a
//!   serialized report is byte-stable; the parser exists so consumers
//!   (and CI) can round-trip-validate reports without `serde`.
//! * [`schema`] — the report types: [`RunReport`] (one compiled and
//!   executed kernel, or one figure computation), [`PeReport`]
//!   (per-PE activity with edge-classified stall attribution),
//!   [`QueueReport`] (input-queue occupancy histograms) and
//!   [`PhaseTimings`] (wall-clock pipeline phases).
//! * [`sink`] — the [`ProbeSink`] observer trait the pipeline reports
//!   phase timings through, plus [`TimingSink`], the collector that
//!   turns callbacks into a [`PhaseTimings`].
//!
//! # Determinism contract
//!
//! Everything in a [`RunReport`] except [`PhaseTimings`] is a pure
//! function of the run inputs, and the serializer is byte-stable, so
//! reports obey the workspace determinism contract (DESIGN.md §9):
//! serialized reports are bit-identical for any `UECGRA_THREADS`
//! setting. Wall-clock timings are inherently nondeterministic, which
//! is why they are optional and omitted from `None`-timed reports
//! (the reproduction binaries emit none; the interactive CLI does).

#![warn(missing_docs)]

pub mod json;
pub mod schema;
pub mod sink;

pub use json::{Json, JsonError};
pub use schema::{
    CampaignEntry, CampaignSection, DsePointReport, DseSection, PeReport, PhaseTimings,
    QueueReport, RunReport, SchemaError, SCHEMA_VERSION,
};
pub use sink::{Phase, ProbeSink, TimingSink};
