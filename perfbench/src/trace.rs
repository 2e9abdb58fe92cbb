//! Spans and counters recorded around the benchmark's calls into each
//! layer, kept in memory and written out once at the end.
//!
//! A [`Trace`] that is off records nothing and reads no clock, so the
//! untraced passes that give the end-to-end metrics pay nothing for it.

use std::collections::BTreeMap;
use std::time::Instant;
use uecgra_probe::{Phase, ProbeSink};

/// Layers whose spans the benchmark records, in report order.
pub const LAYERS: [&str; 6] = ["mapping", "power_map", "assemble", "rtl", "dse", "dse_warm"];

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name: one of [`LAYERS`] (`dse_warm` is an `explore` call
    /// on a warm cache), or `pipeline` for a whole `RunRequest`.
    pub name: &'static str,
    /// Kernel the call worked on.
    pub kernel: &'static str,
    /// Start, in nanoseconds since the trace began.
    pub start_ns: u64,
    /// End, in nanoseconds since the trace began.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Timed pass the span belongs to (0: set-up or final checks).
    pub pass: u32,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span and counter recorder.
#[derive(Debug)]
pub struct Trace {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: u32,
    counts: BTreeMap<(u32, &'static str), f64>,
}

impl Trace {
    /// A recorder that records when `on`.
    pub fn new(on: bool) -> Trace {
        Trace {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
            counts: BTreeMap::new(),
        }
    }

    /// Is this recorder recording?
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Switch recording on or off between passes.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Attribute what follows to timed pass `pass` (0 for none).
    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its handle for [`Trace::close`].
    pub fn open(&mut self, name: &'static str, kernel: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            kernel,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            pass: self.pass,
        });
        self.open.push(id);
        Some(id)
    }

    /// Close a span opened by [`Trace::open`].
    pub fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans close in reverse order");
        }
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        kernel: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, kernel);
        let out = f();
        self.close(id);
        out
    }

    /// Record a finished span that ended now and lasted `nanos`.
    fn done(&mut self, name: &'static str, kernel: &'static str, nanos: u64) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            kernel,
            start_ns: end_ns.saturating_sub(nanos),
            end_ns,
            parent: self.open.last().copied(),
            pass: self.pass,
        });
    }

    /// Add `n` to counter `name` of the current pass.
    pub fn count(&mut self, name: &'static str, n: f64) {
        if self.on {
            *self.counts.entry((self.pass, name)).or_default() += n;
        }
    }

    /// A counter of one pass (0 when never counted).
    pub fn counter(&self, pass: u32, name: &str) -> f64 {
        self.counts
            .iter()
            .find(|((p, n), _)| *p == pass && *n == name)
            .map_or(0.0, |(_, &v)| v)
    }

    /// A counter summed over every pass, set-up and checks included.
    pub fn counter_total(&self, name: &str) -> f64 {
        self.counts
            .iter()
            .filter(|((_, n), _)| *n == name)
            .map(|(_, &v)| v)
            .sum()
    }

    /// Self time (span time minus child spans) of `layer` within `pass`,
    /// optionally only on one kernel, in seconds.
    pub fn self_s(&self, pass: u32, layer: &str, kernel: Option<&str>) -> f64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.pass == pass && s.name == layer)
            .filter(|(_, s)| kernel.is_none_or(|k| s.kernel == k))
            .map(|(i, s)| s.dur_ns().saturating_sub(child_ns[i]))
            .sum::<u64>() as f64
            * 1e-9
    }

    /// Total duration of every `layer` span, any pass, in seconds.
    pub fn total_s(&self, layer: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == layer)
            .map(Span::dur_ns)
            .sum::<u64>() as f64
            * 1e-9
    }

    /// The spans as Chrome trace-event JSON (complete events, times in
    /// microseconds; `args` carry the parent span and the pass).
    pub fn chrome_json(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\"args\":{{\"parent\":{},\"pass\":{}}}}}",
                    s.name,
                    s.kernel,
                    s.start_ns as f64 / 1e3,
                    s.dur_ns() as f64 / 1e3,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.pass
                )
            })
            .collect();
        format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
    }
}

/// Routes `RunRequest` phase timings into a [`Trace`] as layer spans.
pub struct PhaseSpans<'a> {
    /// The recorder.
    pub trace: &'a mut Trace,
    /// Kernel of the request.
    pub kernel: &'static str,
}

impl ProbeSink for PhaseSpans<'_> {
    fn phase_done(&mut self, phase: Phase, nanos: u64) {
        let layer = match phase {
            Phase::Parse | Phase::Lower => "frontend",
            Phase::PlaceRoute => "mapping",
            Phase::PowerMap => "power_map",
            Phase::Assemble => "assemble",
            Phase::Simulate => "rtl",
        };
        self.trace.done(layer, self.kernel, nanos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_off_records_nothing() {
        let mut t = Trace::new(true);
        t.set_pass(1);
        let outer = t.open("pipeline", "k");
        t.time("rtl", "k", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(outer);
        let rtl = t.self_s(1, "rtl", None);
        assert!(rtl >= 0.002);
        assert!(t.self_s(1, "pipeline", Some("k")) < rtl);
        assert_eq!(t.self_s(2, "rtl", None), 0.0);

        let mut off = Trace::new(false);
        off.time("rtl", "k", || ());
        off.count("rtl.ticks", 5.0);
        assert!(off.spans.is_empty() && off.counts.is_empty());
    }
}
