//! System-integration substrate: the RV32IM comparison core and the
//! offload cost model (paper Section VI-D, Table III).
//!
//! * [`isa`] — RV32IM instruction definitions, each field checked
//!   against its RV32 encoding range;
//! * [`asm`] — a label-resolving assembler that returns the checked
//!   instructions the core runs;
//! * [`cpu`] — functional execution with an in-order single-issue
//!   timing model (load-use interlock, redirect penalties, multi-cycle
//!   mul/div);
//! * [`programs`] — the five paper kernels hand-lowered to RV32IM over
//!   the same memory layouts as their dataflow versions;
//! * [`offload`] — configuration/data-transfer amortization and core
//!   energy pricing.
//!
//! # Example
//!
//! ```
//! use uecgra_system::programs;
//! use uecgra_dfg::kernels;
//!
//! let k = kernels::dither::build_with_pixels(32);
//! let run = programs::run_on_core("dither", 32, k.mem.clone()).unwrap();
//! assert_eq!(run.mem, k.reference_memory());
//! assert!(run.cycles > 32 * 8, "a scalar core needs many cycles/pixel");
//! ```

#![warn(missing_docs)]

pub mod asm;
pub mod cpu;
pub mod isa;
pub mod offload;
pub mod ooo;
pub mod programs;

pub use asm::Assembler;
pub use cpu::{Cpu, CpuError, InstrMix, RunResult, TraceEntry};
pub use isa::{AluOp, BranchOp, Instr, MulOp};
pub use offload::{
    core_energy_pj, system_efficiency, system_speedup, CoreEnergyParams, OffloadOverheads,
};
pub use ooo::{run_ooo, OooParams, OooResult};
