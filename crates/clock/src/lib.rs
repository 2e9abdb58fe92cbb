//! Ratiochronous clocking substrate for the UE-CGRA reproduction.
//!
//! The UE-CGRA's key VLSI enabler (paper Section V) is a rational
//! clocking scheme overlaid on the elastic inter-PE interconnect:
//!
//! * all PE clocks divide one PLL by small integers ([`ClockSet`],
//!   default 2-to-3-to-9 for sprint/nominal/rest), and each mode has
//!   one supply voltage ([`VfMode::voltage`]) — the operating-point
//!   table every energy model reads;
//! * a counter+LUT clock checker flags "unsafe" capture edges whose
//!   launch-to-capture margin is below one receiver period
//!   ([`checker`]). The fabric's *elasticity-aware suppressor* lets a
//!   handshake proceed once the data has aged one receiver period in
//!   the bisynchronous queue, which for freshly written data is true
//!   exactly on the safe edges;
//! * and the whole plan is verifiable by checking the cross-product of
//!   domain pairs over one hyperperiod ([`sta`]), which is what keeps
//!   the design compatible with commercial static timing analysis.
//!
//! # Example
//!
//! ```
//! use uecgra_clock::{sta, ClockSet};
//!
//! let report = sta::verify_all(&ClockSet::default());
//! assert!(report.all_clean());
//! ```

#![warn(missing_docs)]

pub mod checker;
pub mod ratio;
pub mod sta;

pub use checker::{classify_crossing, CaptureEdge, ClockChecker, UnsafeLut};
pub use ratio::{ClockSet, RatioError, VfMode, NOMINAL_CYCLE_NS, NOMINAL_MHZ};
pub use sta::{verify_all, verify_crossing, StaReport};
