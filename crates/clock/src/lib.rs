//! Ratiochronous clocking substrate for the UE-CGRA reproduction.
//!
//! The UE-CGRA's key VLSI enabler (paper Section V) is a rational
//! clocking scheme overlaid on the elastic inter-PE interconnect:
//!
//! * all PE clocks divide one PLL by small integers ([`ClockSet`],
//!   default 2-to-3-to-9 for sprint/nominal/rest);
//! * a counter+LUT clock checker flags "unsafe" capture edges whose
//!   launch-to-capture margin is below one receiver period
//!   ([`checker`]);
//! * the novel *elasticity-aware suppressor* lets handshakes proceed on
//!   unsafe edges whenever the data has aged at least one local cycle
//!   in the bisynchronous queue ([`Suppressor`]);
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
pub mod suppressor;

pub use checker::{classify_crossing, CaptureEdge, ClockChecker, UnsafeLut};
pub use ratio::{ClockSet, RatioError, VfMode};
pub use sta::{verify_all, verify_crossing, StaReport};
pub use suppressor::{SuppressDecision, Suppressor};
