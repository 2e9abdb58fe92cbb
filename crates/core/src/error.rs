//! The unified pipeline error type.
//!
//! Every stage of the kernel pipeline — parsing, lowering, mapping,
//! assembly, waveform dumping, execution — previously surfaced its
//! own error type (or a panic); [`Error`] gathers them under one enum
//! with [`std::error::Error::source`] chaining, so callers can match
//! on the stage while diagnostics keep the underlying detail. The
//! `uecgra` CLI prints the whole chain (`error: ...` followed by
//! `caused by: ...` lines) instead of a `Debug` dump.

use uecgra_compiler::bitstream::BitstreamError;
use uecgra_compiler::ir::IrError;
use uecgra_compiler::mapping::MapError;
use uecgra_compiler::parse::ParseError;
use uecgra_rtl::{ProtocolViolation, TraceError};

/// Any failure of the compile-and-execute pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// Source text did not parse.
    Parse(ParseError),
    /// The AST could not be lowered to a dataflow graph.
    Lower(IrError),
    /// Placement/routing failed.
    Map(MapError),
    /// The routed mapping could not be assembled into a bitstream.
    Assemble(BitstreamError),
    /// Waveform dumping failed.
    Trace(TraceError),
    /// The fabric hit its tick limit without completing.
    DidNotTerminate,
    /// The elastic-protocol checker detected a fatal invariant
    /// violation (pop from empty, double take, credit-less push, or an
    /// out-of-bounds memory access) and stopped the run.
    Protocol(ProtocolViolation),
    /// The run completed, or the loop would run, too few iterations to
    /// measure a steady-state initiation interval.
    NoSteadyState {
        /// Iterations the marker completed (the loop's trip count when
        /// the check precedes power mapping).
        iterations: u64,
    },
    /// The request asked for input queues of depth zero, which can
    /// hold no token.
    ZeroQueueDepth,
    /// The fabric made no forward progress (livelock/deadlock — e.g.
    /// under injected faults) and quiesced before reaching its
    /// iteration target.
    Stalled {
        /// The PLL tick at which the run gave up.
        cycle: u64,
        /// The PE with the worst stall attribution (operand,
        /// suppressed, and backpressure edges summed — the probe
        /// layer's edge classification).
        pe: (usize, usize),
    },
    /// A file could not be read or written (CLI paths).
    Io {
        /// The file involved.
        path: String,
        /// The underlying OS error text.
        message: String,
    },
    /// A telemetry report failed to parse or validate.
    Report(uecgra_probe::SchemaError),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Parse(_) => write!(f, "parsing failed"),
            Error::Lower(_) => write!(f, "lowering to dataflow failed"),
            Error::Map(_) => write!(f, "mapping failed"),
            Error::Assemble(_) => write!(f, "bitstream assembly failed"),
            Error::Trace(_) => write!(f, "waveform dump failed"),
            Error::DidNotTerminate => write!(f, "fabric execution did not terminate"),
            Error::Protocol(_) => write!(f, "elastic-protocol invariant violated"),
            Error::NoSteadyState { iterations } => write!(
                f,
                "{iterations} iterations are too few for a steady-state window"
            ),
            Error::ZeroQueueDepth => write!(f, "input queues need a depth of at least one"),
            Error::Stalled { cycle, pe } => write!(
                f,
                "fabric stalled without progress at tick {cycle} (worst stall: PE ({}, {}))",
                pe.0, pe.1
            ),
            Error::Io { path, .. } => write!(f, "i/o failed on `{path}`"),
            Error::Report(_) => write!(f, "telemetry report validation failed"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Parse(e) => Some(e),
            Error::Lower(e) => Some(e),
            Error::Map(e) => Some(e),
            Error::Assemble(e) => Some(e),
            Error::Trace(e) => Some(e),
            Error::DidNotTerminate => None,
            Error::Protocol(v) => Some(v),
            Error::NoSteadyState { .. } => None,
            Error::ZeroQueueDepth => None,
            Error::Stalled { .. } => None,
            Error::Io { .. } => None,
            Error::Report(e) => Some(e),
        }
    }
}

impl From<ParseError> for Error {
    fn from(e: ParseError) -> Self {
        Error::Parse(e)
    }
}

impl From<IrError> for Error {
    fn from(e: IrError) -> Self {
        Error::Lower(e)
    }
}

impl From<MapError> for Error {
    fn from(e: MapError) -> Self {
        Error::Map(e)
    }
}

impl From<BitstreamError> for Error {
    fn from(e: BitstreamError) -> Self {
        Error::Assemble(e)
    }
}

impl From<TraceError> for Error {
    fn from(e: TraceError) -> Self {
        Error::Trace(e)
    }
}

impl From<ProtocolViolation> for Error {
    fn from(v: ProtocolViolation) -> Self {
        Error::Protocol(v)
    }
}

impl From<uecgra_probe::SchemaError> for Error {
    fn from(e: uecgra_probe::SchemaError) -> Self {
        Error::Report(e)
    }
}

/// Render the full cause chain, one line per cause, the way the CLI
/// reports failures:
///
/// ```text
/// error: mapping failed
///   caused by: kernel has more memory nodes than perimeter PEs
/// ```
pub fn error_chain(e: &dyn std::error::Error) -> String {
    let mut out = format!("error: {e}");
    let mut cause = e.source();
    while let Some(c) = cause {
        out.push_str(&format!("\n  caused by: {c}"));
        cause = c.source();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    fn map_error() -> MapError {
        MapError::TooManyNodes { nodes: 99, pes: 64 }
    }

    #[test]
    fn sources_chain_to_the_stage_error() {
        let e = Error::Map(map_error());
        assert!(e.source().is_some());
        let chain = error_chain(&e);
        assert!(chain.starts_with("error: mapping failed"));
        assert!(chain.contains("caused by:"), "{chain}");
    }

    #[test]
    fn terminal_errors_have_no_source() {
        assert!(Error::DidNotTerminate.source().is_none());
        assert_eq!(
            error_chain(&Error::DidNotTerminate),
            "error: fabric execution did not terminate"
        );
    }

    #[test]
    fn conversions_wrap_each_stage() {
        let parse = ParseError {
            offset: 3,
            message: "x".into(),
        };
        assert!(matches!(Error::from(parse), Error::Parse(_)));
        assert!(matches!(Error::from(map_error()), Error::Map(_)));
        assert!(matches!(
            Error::from(TraceError::EventsNotRecorded),
            Error::Trace(_)
        ));
    }
}
