//! Spans recorded from outside the program: one per call into a layer's
//! public function, kept in memory and written out when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call: its layer name, its interval in nanoseconds since the
/// recorder's origin, and the span that was open when it started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span recorder. A disabled recorder runs each closure and records
/// nothing, so the untraced run executes exactly the traced run's calls.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            // audit: allow(determinism, a benchmark measures host time by design; no timing feeds a simulated artifact)
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        // audit: allow(panic, a u64 of nanoseconds overflows only after 584 years)
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become its
    /// children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration, in seconds, of every span called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.named(name).map(Span::duration_ns).sum::<u64>() as f64 / 1e9
    }

    /// Durations, in seconds, of every span called `name`.
    pub fn each_s<'a>(&'a self, name: &'a str) -> impl Iterator<Item = f64> + 'a {
        self.named(name).map(|s| s.duration_ns() as f64 / 1e9)
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Self time of every span: its duration minus the part of its interval
    /// its children cover. Children of one parent run one after another, so
    /// their durations add without overlap.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(span, covered)| span.duration_ns() - covered)
            .collect()
    }

    /// Summed self time in seconds per span name.
    pub fn self_s_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (span, ns) in self.spans.iter().zip(self.self_ns()) {
            *out.entry(span.name).or_insert(0.0) += ns as f64 / 1e9;
        }
        out
    }

    /// The spans as Chrome trace-event JSON (load in Perfetto or
    /// `chrome://tracing`), one complete event per span on a single lane.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"parent\": {}}}}}",
                span.name,
                span.start_ns as f64 / 1e3,
                span.duration_ns() as f64 / 1e3,
                span.parent.map_or_else(|| "null".to_owned(), |p| p.to_string()),
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}
