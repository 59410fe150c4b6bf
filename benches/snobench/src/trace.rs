//! In-memory span recorder for the traced run.
//!
//! Spans sit around calls into the program's public functions, recorded
//! from the benchmark's side: name, start, end and the enclosing span.
//! Every span carries the id of the operation (one identification, one
//! poll, one ingest) it belongs to. Spans stay in memory until the run
//! ends and are then written out as JSON lines. With tracing off,
//! [`Tracer::span`] only calls through, so the untraced run measures the
//! program without recorder overhead.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

/// The span recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    op: u64,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Start a new operation: spans opened from here on share its id.
    pub fn begin_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    /// Run `f` inside a span named `name` (a plain call when tracing is
    /// off). Spans `f` opens on the tracer it receives become children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start = self.origin.elapsed();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start,
            end: start,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end = self.origin.elapsed();
        out
    }

    /// Index of the next span, to delimit a phase of the run.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Self time in ms of every span: its duration minus the time its
    /// direct children cover. Children never overlap (one thread).
    fn self_ms(&self) -> Vec<f64> {
        let mut children = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.end - s.start;
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, c)| (s.end - s.start).saturating_sub(c).as_secs_f64() * 1e3)
            .collect()
    }

    /// Per-operation self time summed by span name, over the spans in
    /// `from..to`.
    pub fn self_by_op(&self, from: usize, to: usize) -> BTreeMap<u64, BTreeMap<&'static str, f64>> {
        let self_ms = self.self_ms();
        let mut out: BTreeMap<u64, BTreeMap<&'static str, f64>> = BTreeMap::new();
        for (s, ms) in self.spans[from..to].iter().zip(&self_ms[from..to]) {
            *out.entry(s.op).or_default().entry(s.name).or_default() += ms;
        }
        out
    }

    /// Self time of each span named `name` in `from..to`, in record
    /// order.
    pub fn self_of(&self, name: &str, from: usize, to: usize) -> Vec<f64> {
        let self_ms = self.self_ms();
        self.spans[from..to]
            .iter()
            .zip(&self_ms[from..to])
            .filter(|(s, _)| s.name == name)
            .map(|(_, &ms)| ms)
            .collect()
    }

    /// The longest self time of a span named `name`, per operation that
    /// has one, over the spans in `from..to`.
    pub fn max_self_by_op(&self, name: &str, from: usize, to: usize) -> Vec<f64> {
        let self_ms = self.self_ms();
        let mut out: BTreeMap<u64, f64> = BTreeMap::new();
        for (s, &ms) in self.spans[from..to].iter().zip(&self_ms[from..to]) {
            if s.name == name {
                let max = out.entry(s.op).or_insert(ms);
                *max = max.max(ms);
            }
        }
        out.into_values().collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"op\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}}}",
                s.op,
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
            );
        }
        std::fs::write(path, out)
    }
}
