//! In-memory spans recorded around the calls into each layer, and the
//! self-time summary computed from them.
//!
//! A span's self time is its duration minus the part of its interval that
//! its child spans cover. Spans are kept in memory and written out once,
//! after the measurement.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span covers (`core.sort`, `wire.encode`, …).
    pub name: &'static str,
    /// Start, in ns since the recorder's origin.
    pub start: u64,
    /// End, in ns since the recorder's origin.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Window the span worked on; spans of one window share it.
    pub window: u64,
}

/// Span recorder. A disabled recorder runs the same code without taking
/// timestamps, which is how the tracing overhead is measured.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    /// A recorder that records (`enabled`) or only runs the closures.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Nanoseconds since the origin.
    pub fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span named `name`; spans opened by `f` become its
    /// children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        window: u64,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.stack.last().copied(),
            window,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end = self.now();
        out
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the spans as tab-separated lines: name, start ns, end ns,
    /// parent index (`-` for none), window.
    ///
    /// # Errors
    /// Any I/O error of `out`.
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "name\tstart_ns\tend_ns\tparent\twindow")?;
        for s in &self.spans {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.name, s.start, s.end, parent, s.window
            )?;
        }
        Ok(())
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (start, end) in intervals {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Self time per span name, in ns: each span's duration minus the part its
/// children cover, summed over the spans of that name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    let mut out = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children) {
        let own = (s.end - s.start) - covered(kids, s.start, s.end);
        *out.entry(s.name).or_insert(0) += own;
    }
    out
}

/// Time in `[start, end]` that no span with a parent covers: the replay's
/// wall time that is not attributed to any layer.
pub fn unattributed(spans: &[Span], start: u64, end: u64) -> u64 {
    let layer: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent.is_some())
        .map(|s| (s.start, s.end))
        .collect();
    (end - start) - covered(layer, start, end)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            window: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = [
            span("window", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 50, Some(0)),
            span("c", 25, 28, Some(2)),
        ];
        let times = self_times(&spans);
        // Children of the window cover [10, 50].
        assert_eq!(times["window"], 60);
        assert_eq!(times["a"], 20);
        assert_eq!(times["b"], 27);
        assert_eq!(times["c"], 3);
        assert_eq!(unattributed(&spans, 0, 120), 80);
    }

    #[test]
    fn disabled_recorder_runs_without_spans() {
        let mut rec = Recorder::new(false);
        let v = rec.span("x", 0, |r| r.span("y", 0, |_| 7));
        assert_eq!(v, 7);
        assert!(rec.spans().is_empty());
        let mut rec = Recorder::new(true);
        rec.span("x", 3, |r| r.span("y", 3, |_| ()));
        assert_eq!(rec.spans().len(), 2);
        assert_eq!(rec.spans()[1].parent, Some(0));
    }
}
