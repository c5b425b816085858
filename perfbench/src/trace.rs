//! Benchmark-side spans: each one brackets a call from this benchmark
//! into a layer's public API. Spans stay in memory and are written as
//! one JSON document when the benchmark ends.

use std::fmt::Write as _;
use std::time::Instant;

/// Parent index of a root span.
const ROOT: usize = usize::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: usize,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Records spans when enabled; every call is a branch when disabled, so
/// the timed (untraced) runs execute the same code path.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let t = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: t,
            end_ns: t,
            parent: self.open.last().copied().unwrap_or(ROOT),
        });
        self.open.push(self.spans.len() - 1);
    }

    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let t = self.now_ns();
        let idx = self.open.pop().expect("end() without a matching begin()");
        self.spans[idx].end_ns = t;
    }

    /// Record a span measured elsewhere (on a worker thread), as a child
    /// of the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: self.open.last().copied().unwrap_or(ROOT),
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds of spans with this name.
    pub fn total_secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Seconds covered by the direct children of the spans named
    /// `parent` (children of one parent never overlap on its thread).
    pub fn child_secs(&self, parent: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent != ROOT && self.spans[s.parent].name == parent)
            .map(Span::secs)
            .sum()
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_to_their_parent() {
        let mut t = Tracer::new(true);
        t.begin("outer");
        t.begin("inner");
        t.end();
        t.end();
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, ROOT);
        assert_eq!(spans[1].parent, 0);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert!(t.child_secs("outer") <= t.total_secs("outer"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.begin("x");
        t.end();
        assert!(t.spans().is_empty());
        assert!(t.to_json().contains("\"spans\":["));
    }
}
