//! Cycle-level UE-CGRA architectural simulator.
//!
//! This crate is the reproduction's stand-in for the paper's RTL
//! simulation (PyMTL3-generated Verilog under VCS): a deterministic
//! spatial simulator that executes compiled bitstreams on a grid of
//! elastic PEs.
//!
//! * [`fabric`] — the array itself: per-PE rational clocks, four
//!   bisynchronous input queues per PE, operand/bypass muxing, phi and
//!   br control, multi-purpose registers, and perimeter SRAM access.
//!   All-nominal clocks model an **E-CGRA**; mixed clocks model the
//!   **UE-CGRA**.
//! * [`engine`] — the event-driven scheduler behind [`Fabric::run`],
//!   the only runtime engine. The dense stepper survives as
//!   [`Fabric::run_reference`], the test oracle it must match bit for
//!   bit.
//! * [`queue`] — the two-entry bisynchronous queues whose visibility
//!   rule embodies the elasticity-aware suppressor.
//! * [`faults`] — the deterministic, seeded fault injector (payload
//!   flips, dropped/duplicated tokens, stuck handshakes, domain
//!   stalls).
//! * [`checker`] — the always-on elastic-protocol invariant monitor
//!   (token/credit conservation, payload integrity, suppressor
//!   safety) whose fatal violations stop a run with a structured
//!   error instead of a panic.
//! * [`scratchpad`] — the perimeter SRAM banks.
//! * [`config_load`] — configuration and DMA cost models.
//!
//! # End-to-end example
//!
//! ```
//! use uecgra_clock::VfMode;
//! use uecgra_compiler::bitstream::Bitstream;
//! use uecgra_compiler::mapping::{ArrayShape, MappedKernel};
//! use uecgra_dfg::kernels;
//! use uecgra_rtl::fabric::{Fabric, FabricConfig};
//!
//! let k = kernels::llist::build_with_hops(20);
//! let mapped = MappedKernel::map(&k.dfg, ArrayShape::default(), 1).unwrap();
//! let modes = vec![VfMode::Nominal; k.dfg.node_count()];
//! let bs = Bitstream::assemble(&k.dfg, &mapped, &modes).unwrap();
//! let config = FabricConfig {
//!     marker: Some(mapped.coord_of(k.iter_marker)),
//!     ..FabricConfig::default()
//! };
//! let activity = Fabric::new(&bs, k.mem.clone(), config).run();
//! let expect = k.reference_memory();
//! assert_eq!(&activity.mem[..expect.len()], &expect[..]);
//! ```

#![warn(missing_docs)]

pub mod checker;
pub mod config_load;
pub mod engine;
pub mod fabric;
pub mod faults;
pub mod queue;
pub mod scratchpad;
pub mod trace;

pub use checker::{ProtocolReport, ProtocolViolation, ViolationKind};
pub use fabric::{Activity, Fabric, FabricConfig, FabricStop, SuppressorKind};
pub use faults::{Fault, FaultKind, FaultPlan};
pub use scratchpad::Scratchpad;
pub use trace::{to_vcd, TraceError};
