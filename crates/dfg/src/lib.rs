//! Dataflow-graph core for the UE-CGRA reproduction.
//!
//! This crate defines the dataflow-graph (DFG) abstraction shared by the
//! analytical model (`uecgra-model`), the compiler (`uecgra-compiler`),
//! and the cycle-level simulator (`uecgra-rtl`): the UE-CGRA [`Op`] set,
//! the [`Dfg`] multigraph with token-carrying edges, graph analyses
//! (SCC, cycle enumeration, critical-cycle/recurrence-MII, chain
//! grouping, topological order), and the builders for the paper's five
//! benchmark kernels and its synthetic microbenchmarks.
//!
//! # Quick example
//!
//! Build the paper's Figure 1 toy loop and inspect its recurrence:
//!
//! ```
//! use uecgra_dfg::{kernels::synthetic, analysis};
//!
//! let toy = synthetic::fig1_dep_chain();
//! // The four-op dependency chain limits throughput to 1 iter / 4 cycles.
//! assert_eq!(analysis::recurrence_mii(&toy.dfg), 4.0);
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod graph;
pub mod kernels;
pub mod op;
pub mod transform;

pub use graph::{Dfg, Edge, EdgeId, GraphError, Node, NodeId};
pub use kernels::Kernel;
pub use op::{Op, ALPHA_SRAM, PE_OPS};
