//! In-memory span recorder for the traced run.
//!
//! A span is a name, a start, an end and the span that caused it. The
//! benchmark opens one around every call it makes into a layer; spans
//! stay in memory and are written out when the run ends. A layer is the
//! part of a span name before the first `.`; its self time is the time
//! its spans cover minus what their child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the run's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span; `usize::MAX` when tracing is off.
pub type SpanId = usize;

/// A per-thread recorder. With tracing off, `begin`/`end` only test a
/// flag, so the untraced run executes the same code path.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<SpanId>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A recorder for another thread, sharing this one's clock, whose
    /// root spans become children of `parent` on [`Tracer::adopt`].
    pub fn fork(&self) -> Tracer {
        Tracer {
            on: self.on,
            epoch: self.epoch,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return usize::MAX;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        id
    }

    /// Close a span opened by [`Tracer::begin`] (and any left open
    /// inside it).
    pub fn end(&mut self, id: SpanId) {
        if !self.on {
            return;
        }
        let now = self.now_ns();
        while let Some(open) = self.stack.pop() {
            self.spans[open].end_ns = now;
            if open == id {
                break;
            }
        }
    }

    /// The innermost open span, to parent a forked thread's spans.
    pub fn current(&self) -> Option<SpanId> {
        self.stack.last().copied()
    }

    /// Merge a forked recorder's spans, re-parenting its roots under
    /// `parent`.
    pub fn adopt(&mut self, other: Tracer, parent: Option<SpanId>) {
        let base = self.spans.len();
        for mut span in other.spans {
            span.parent = span.parent.map(|p| p + base).or(parent);
            self.spans.push(span);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of every span with this exact name.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .sum()
    }

    /// Durations of every span with this exact name, in order.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .collect()
    }

    /// Write every span as a tab-separated line:
    /// `id name layer start_ns end_ns parent` (`-` for a root).
    pub fn write_tsv<W: Write>(&self, mut out: W) -> std::io::Result<()> {
        writeln!(out, "id\tname\tlayer\tstart_ns\tend_ns\tparent")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{}\t{parent}",
                s.name,
                s.layer(),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`. Children
/// on different threads may overlap; covered time counts once.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (start, end) in intervals {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Self time of every span: its duration minus its children's cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.ns() - covered(kids, s.start_ns, s.end_ns).min(s.ns()))
        .collect()
}

/// Self time and span count summed per layer.
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<&'static str, (u64, usize)> {
    let mut layers: BTreeMap<&'static str, (u64, usize)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        let slot = layers.entry(s.layer()).or_default();
        slot.0 += own;
        slot.1 += 1;
    }
    layers
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("run.steady", 0, 100, None),
            span("server.push", 10, 40, Some(0)),
            // Overlaps the first child (another thread): counted once.
            span("server.query", 30, 60, Some(0)),
            span("wire.send", 15, 20, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 25, 30, 5]);
        let layers = layer_self_ns(&spans);
        assert_eq!(layers["run"], (50, 1));
        assert_eq!(layers["server"], (55, 2));
        assert_eq!(layers["wire"], (5, 1));
    }

    #[test]
    fn begin_end_nest_and_adopt_reparents_roots() {
        let mut t = Tracer::new(true);
        let outer = t.begin("run.phase");
        let inner = t.begin("layer.call");
        t.end(inner);
        let mut worker = t.fork();
        let w = worker.begin("other.call");
        worker.end(w);
        let parent = t.current();
        t.end(outer);
        t.adopt(worker, parent);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x.y");
        t.end(id);
        assert!(t.spans().is_empty());
    }
}
