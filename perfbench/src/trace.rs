//! Outside-in span recording for the traced run.
//!
//! The benchmark opens a span around each call it makes into a layer's
//! public functions: name, start, end, parent span, and the op id shared by
//! every span of one coloring or request. Spans stay in memory and are
//! written out once at the end; per-layer figures are derived from them
//! (a span's *self time* is its duration minus the part of its interval
//! its children cover). With tracing off every call is a no-op, so the
//! untraced run pays nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary name, e.g. `runner.congest` or `kernels.argmin_f64`.
    pub name: String,
    /// Id shared by all spans of one coloring, request or probe.
    pub op: u64,
    /// Index of the enclosing span in [`Tracer::spans`], if any.
    pub parent: Option<usize>,
    /// Start, in ns since the tracer's origin.
    pub start_ns: u64,
    /// End, in ns since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder. Spans opened with [`Tracer::enter`] nest under
/// the innermost open span; [`Tracer::record`] adds a finished span with an
/// explicit parent (used for intervals measured on other threads).
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every call.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one; returns its index.
    pub fn enter(&mut self, name: &str, op: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.ns(Instant::now());
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        Some(idx)
    }

    /// Closes the span `enter` returned (which must be the innermost open
    /// one).
    pub fn exit(&mut self, span: Option<usize>) {
        let Some(idx) = span else { return };
        let top = self.open.pop();
        assert_eq!(top, Some(idx), "spans must close innermost first");
        self.spans[idx].end_ns = self.ns(Instant::now());
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &str, op: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let idx = self.enter(name, op);
        let out = f(self);
        self.exit(idx);
        out
    }

    /// Adds a finished span with an explicit parent; returns its index.
    pub fn record(
        &mut self,
        name: &str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let idx = self.spans.len();
        let start_ns = self.ns(start);
        self.spans.push(Span {
            name: name.to_string(),
            op,
            parent,
            start_ns,
            end_ns: self.ns(end).max(start_ns),
        });
        Some(idx)
    }

    /// Every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in ns: its duration minus the union of its
    /// children's intervals clipped to it.
    #[must_use]
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, kids)| {
                let mut iv: Vec<(u64, u64)> = kids
                    .iter()
                    .map(|&k| {
                        let c = &self.spans[k];
                        (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                    })
                    .filter(|(a, b)| a < b)
                    .collect();
                iv.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start_ns;
                for (a, b) in iv {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.duration_ns() - covered
            })
            .collect()
    }

    /// Every span's duration in ms, grouped by name in recording order.
    #[must_use]
    pub fn durations_ms(&self) -> BTreeMap<&str, Vec<f64>> {
        let mut out: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for s in &self.spans {
            out.entry(&s.name)
                .or_default()
                .push(s.duration_ns() as f64 / 1e6);
        }
        out
    }

    /// The spans as a JSON array (one object per line).
    #[must_use]
    pub fn spans_json(&self) -> String {
        let mut out = String::from("[\n");
        let selfs = self.self_times_ns();
        for (i, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "    {{\"id\": {i}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}}}",
                s.name, s.op, s.start_ns, s.end_ns
            );
            out.push_str(if i + 1 == self.spans.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("  ]");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("a", 0, |t| t.span("b", 0, |_| 7));
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let mut t = Tracer::new(true);
        let base = Instant::now();
        let ms = |k: u64| base + Duration::from_millis(k);
        let root = t.record("root", 1, None, ms(0), ms(10));
        // Two overlapping children cover [2, 7) = 5 ms.
        t.record("kid", 1, root, ms(2), ms(6));
        t.record("kid", 1, root, ms(4), ms(7));
        let selfs = t.self_times_ns();
        assert_eq!(selfs[0], 5_000_000);
        assert_eq!(selfs[1], 4_000_000);
        assert_eq!(t.durations_ms()["kid"], vec![4.0, 3.0]);
    }

    #[test]
    fn entered_spans_nest_under_the_open_one() {
        let mut t = Tracer::new(true);
        t.span("outer", 3, |t| {
            t.span("inner", 3, |_| std::hint::black_box(1 + 1));
        });
        let s = t.spans();
        assert_eq!(s[1].parent, Some(0));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert!(t.spans_json().contains("\"name\": \"inner\""));
    }
}
