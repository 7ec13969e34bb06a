//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A [`Trace`] holds the spans of one epoch (or one replay round): every
//! span carries its name, its parent's index in the same trace, and its
//! start and end instants. Traces are kept in memory and written out as
//! JSON lines when the run ends. Nothing inside the program is traced.

use perfbench::json::{obj, Json};
use std::time::Instant;

/// A wall-clock stopwatch.
#[derive(Debug, Clone, Copy)]
pub struct Timer(Instant);

impl Timer {
    /// Starts timing now.
    pub fn start() -> Timer {
        Timer(Instant::now())
    }

    /// Elapsed milliseconds.
    pub fn ms(&self) -> f64 {
        self.0.elapsed().as_secs_f64() * 1e3
    }

    /// Elapsed seconds.
    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was timed (a layer call or an epoch stage).
    pub name: &'static str,
    /// Index of the enclosing span in the same trace.
    pub parent: Option<u32>,
    /// When the call started.
    pub start: Instant,
    /// When it returned.
    pub end: Instant,
}

impl Span {
    /// Duration in microseconds.
    pub fn us(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64() * 1e6
    }

    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.us() / 1e3
    }
}

/// The spans of one epoch or replay round; they share `id`.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Identifier shared by every span of the trace.
    pub id: u64,
    /// Spans in the order they were added.
    pub spans: Vec<Span>,
}

impl Trace {
    /// An empty trace.
    pub fn new(id: u64) -> Trace {
        Trace { id, spans: Vec::new() }
    }

    /// Adds a span and returns its index (for use as a parent).
    pub fn add(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        start: Instant,
        end: Instant,
    ) -> u32 {
        self.spans.push(Span { name, parent, start, end });
        (self.spans.len() - 1) as u32
    }

    /// Times `f` as a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, parent: Option<u32>, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.add(name, parent, start, Instant::now());
        out
    }

    /// Durations (µs) of every span named `name`.
    pub fn us_of<'a>(&'a self, name: &'a str) -> impl Iterator<Item = f64> + 'a {
        self.spans.iter().filter(move |s| s.name == name).map(Span::us)
    }

    /// Total duration (µs) of the spans named `name`.
    pub fn total_us(&self, name: &str) -> f64 {
        self.us_of(name).sum()
    }
}

/// Every trace of a run, kept until the run ends.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    /// The recorded traces.
    pub traces: Vec<Trace>,
}

impl SpanLog {
    /// An empty log whose timestamps count from now.
    pub fn new() -> SpanLog {
        SpanLog { origin: Instant::now(), traces: Vec::new() }
    }

    /// Durations (µs) of every span named `name`, across all traces.
    pub fn us_of(&self, name: &str) -> Vec<f64> {
        self.traces.iter().flat_map(|t| t.us_of(name)).collect()
    }

    /// Per-trace totals (µs) of the spans named `name`, for traces that
    /// have any.
    pub fn per_trace_us(&self, name: &str) -> Vec<f64> {
        self.traces
            .iter()
            .filter(|t| t.spans.iter().any(|s| s.name == name))
            .map(|t| t.total_us(name))
            .collect()
    }

    /// One JSON line per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for t in &self.traces {
            for (i, s) in t.spans.iter().enumerate() {
                let line = obj([
                    ("trace", Json::Num(t.id as f64)),
                    ("id", Json::Num(i as f64)),
                    ("parent", s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p)))),
                    ("name", Json::Str(s.name.to_string())),
                    (
                        "start_us",
                        Json::Num(s.start.duration_since(self.origin).as_secs_f64() * 1e6),
                    ),
                    ("dur_us", Json::Num(s.us())),
                ]);
                line.write(&mut out);
                out.push('\n');
            }
        }
        out
    }
}
