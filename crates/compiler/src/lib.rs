//! The UE-CGRA compiler (paper Section III).
//!
//! Transforms an innermost loop into a configured UE-CGRA: source text
//! ([`mod@parse`]) or a loop IR ([`ir`]) is lowered to a dataflow graph
//! with control converted to phi/br dataflow ([`frontend`], checked
//! against the reference interpreter [`interp`]), cleaned by CSE/DCE
//! ([`opt`]), mapped onto the PE array ([`mapping`]: placement plus
//! PathFinder-style net routing with per-sink Dijkstra through PE
//! bypass paths), power-mapped with the three-phase
//! rest/nominal/sprint pass ([`mod@power_map`]), and serialized to
//! packed per-PE configuration words ([`bitstream`]).

#![warn(missing_docs)]

pub mod bitstream;
pub mod frontend;
pub mod interp;
pub mod ir;
pub mod mapping;
pub mod opt;
pub mod parse;
pub mod power_map;

pub use bitstream::{Bitstream, PeConfig, PeRole};
pub use frontend::{lower, LoweredLoop};
pub use interp::{interpret, interpret_fresh, InterpError};
pub use ir::{Carried, Expr, IrError, LoopNest, Stmt};
pub use mapping::{ArrayShape, MapError, MappedKernel};
pub use opt::{optimize, Optimized};
pub use parse::{parse, ParseError, Program};
pub use power_map::{power_map, power_map_routed, power_map_with, Objective, PowerMapping};
