//! UE-CGRA analytical model (paper Section II).
//!
//! Discrete-event performance simulation of dataflow graphs on elastic
//! and ultra-elastic CGRAs ([`sim`]), plus the first-order power/energy
//! model ([`power`]) and energy-delay estimation used by the compiler's
//! power-mapping pass ([`edp`]).

#![warn(missing_docs)]

pub mod edp;
pub mod params;
pub mod power;
pub mod sim;

pub use edp::{EnergyDelay, EnergyDelayEstimator};
pub use params::{ModelParams, VfCurve};
pub use power::{EnergyBreakdown, PowerModel};
pub use sim::{DfgSimulator, SimConfig, SimResult, StopReason};
