//! UE-CGRA analytical model (paper Section II).
//!
//! Discrete-event performance simulation of dataflow graphs on elastic
//! and ultra-elastic CGRAs ([`sim`]), plus the first-order power/energy
//! model ([`power`], with its leakage constants in [`params`]) and
//! energy-delay estimation used by the compiler's power-mapping pass
//! ([`edp`]). Voltages and clock ratios come from the operating-point
//! table in `uecgra_clock`.

#![warn(missing_docs)]

pub mod edp;
pub mod params;
pub mod power;
pub mod sim;

pub use edp::{EnergyDelay, EnergyDelayEstimator};
pub use power::{energy, EnergyBreakdown};
pub use sim::{DfgSimulator, SimConfig, SimResult, StopReason};
