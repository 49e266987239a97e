//! The span recorder of the traced run.
//!
//! Spans are recorded from the benchmark's own code, around its calls
//! into each crate. Each span has a name, a start and an end (ns since
//! the recorder's origin), an optional parent span and the id of the
//! request or batch it belongs to, plus the number of operations it
//! covers (a timed loop of `n` calls is one span with `n = count`). Spans
//! stay in memory until [`Tracer::write_jsonl`] writes them out at the
//! end of the run. Derived scalars (ratios, counter deltas) are kept
//! beside the spans under their metric names.
//!
//! A disabled recorder keeps nothing, so the untraced run pays only a
//! branch per call site.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span name (`layer.operation`).
    pub name: &'static str,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Request (or batch) id shared by the spans of one request.
    pub req: u64,
    /// Operations the span covers.
    pub count: u64,
}

impl Span {
    /// Duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span and value recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    values: Mutex<BTreeMap<&'static str, f64>>,
}

impl Tracer {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            values: Mutex::new(BTreeMap::new()),
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the recorder's origin.
    pub fn now_ns(&self) -> u64 {
        self.ns_at(Instant::now())
    }

    /// `at` as nanoseconds since the recorder's origin.
    pub fn ns_at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span; `None` when disabled.
    pub fn record(&self, span: Span) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        spans.push(span);
        Some(spans.len() - 1)
    }

    /// Opens a span whose end is filled by [`Tracer::close`].
    pub fn open(&self, name: &'static str, parent: Option<SpanId>, req: u64) -> Option<SpanId> {
        let start_ns = self.now_ns();
        self.record(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
            count: 1,
        })
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&self, id: Option<SpanId>) {
        if let Some(id) = id {
            let end = self.now_ns();
            self.spans.lock().expect("span recorder poisoned")[id].end_ns = end;
        }
    }

    /// Times `f`, which performs `count` operations, as one span.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        count: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.record(Span {
            name,
            start_ns,
            end_ns,
            parent,
            req,
            count,
        });
        out
    }

    /// Sets a derived scalar (kept even when spans are disabled: the
    /// probe and the daemon counters feed these).
    pub fn set(&self, name: &'static str, value: f64) {
        self.values
            .lock()
            .expect("value recorder poisoned")
            .insert(name, value);
    }

    /// A derived scalar, if set.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.values
            .lock()
            .expect("value recorder poisoned")
            .get(name)
            .copied()
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span recorder poisoned").clone()
    }

    /// Mean duration per operation (ns) of the spans named `name`.
    pub fn mean_per_op_ns(&self, name: &str) -> Option<f64> {
        let spans = self.spans.lock().expect("span recorder poisoned");
        let (ns, ops) = spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(ns, ops), s| {
                (ns + s.duration_ns(), ops + s.count)
            });
        (ops > 0).then(|| ns as f64 / ops as f64)
    }

    /// Total duration (ns) of the spans named `name`.
    pub fn sum_ns(&self, name: &str) -> Option<f64> {
        let spans = self.spans.lock().expect("span recorder poisoned");
        let mut found = false;
        let total: u64 = spans
            .iter()
            .filter(|s| s.name == name)
            .inspect(|_| found = true)
            .map(Span::duration_ns)
            .sum();
        found.then_some(total as f64)
    }

    /// Mean self time (ns) of the spans named `name`.
    pub fn mean_self_ns(&self, name: &str) -> Option<f64> {
        let spans = self.spans();
        let selfs = self_times(&spans);
        let picked: Vec<u64> = spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &t)| t)
            .collect();
        (!picked.is_empty()).then(|| picked.iter().sum::<u64>() as f64 / picked.len() as f64)
    }

    /// Writes every span as one JSON line.
    ///
    /// # Errors
    ///
    /// Propagates file errors.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans();
        let selfs = self_times(&spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{},\"count\":{},\"self_ns\":{self_ns}}}",
                s.name, s.start_ns, s.end_ns, s.req, s.count
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers. Children may
/// overlap each other (parallel work) and may stick out of the parent;
/// only the covered part of the parent's own interval is subtracted.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            if p < spans.len() {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration_ns() - covered.min(s.duration_ns())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            req: 0,
            count: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(30, 60, Some(0)),  // overlaps the first child
            span(20, 35, Some(0)),  // nested inside the other two
            span(90, 120, Some(0)), // sticks out of the parent
        ];
        let selfs = self_times(&spans);
        // Covered: [10, 60] ∪ [90, 100] = 60 of 100.
        assert_eq!(selfs[0], 40);
        // Leaves keep their full duration.
        assert_eq!(&selfs[1..], &[30, 30, 15, 30]);
    }

    #[test]
    fn self_time_counts_only_direct_children() {
        let spans = vec![
            span(0, 100, None),
            span(0, 50, Some(0)),
            span(0, 50, Some(1)), // grandchild: already inside its parent
        ];
        assert_eq!(self_times(&spans), vec![50, 0, 50]);
    }

    #[test]
    fn disabled_recorder_keeps_nothing_but_values() {
        let t = Tracer::new(false);
        assert_eq!(t.time("x", None, 0, 1, || 7), 7);
        assert!(t.open("y", None, 0).is_none());
        t.set("v", 1.5);
        assert!(t.spans().is_empty());
        assert_eq!(t.value("v"), Some(1.5));
    }

    #[test]
    fn mean_per_op_divides_by_operation_count() {
        let t = Tracer::new(true);
        t.record(Span {
            count: 4,
            ..span(0, 400, None)
        });
        t.record(Span {
            count: 1,
            ..span(0, 100, None)
        });
        assert_eq!(t.mean_per_op_ns("t"), Some(100.0));
        assert_eq!(t.mean_per_op_ns("missing"), None);
    }
}
