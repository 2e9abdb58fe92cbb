//! VLSI models for the UE-CGRA reproduction (paper Sections V–VII).
//!
//! Calibrated substitutes for the paper's commercial-flow results in
//! TSMC 28 nm:
//!
//! * [`area`] — component-level PE area for the inelastic, elastic,
//!   and ultra-elastic PEs across cycle-time targets (Figures 10/11);
//! * [`energy`] — absolute per-op PE energies (Figure 11);
//! * [`mod@clock_power`] — local + three-network global clock power with
//!   power gating and hierarchical clock gating (Table I);
//! * [`layout`] — full-array floorplan areas (Figure 12).

#![warn(missing_docs)]

pub mod area;
pub mod clock_power;
pub mod energy;
pub mod layout;

pub use area::{pe_area, pe_area_reference, CgraKind};
pub use clock_power::{clock_power, ClockPowerBreakdown, ClockPowerParams, GatingConfig};
pub use energy::{bypass_energy_pj, op_energy_pj, stall_energy_pj};
pub use layout::{array_area_um2, edge_um};
