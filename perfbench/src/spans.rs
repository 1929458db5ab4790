//! In-memory spans recorded around each public call the traced run makes.
//!
//! A span is a name, a start and end relative to the run's origin, the
//! span that caused it, and the id of the request it belongs to. Spans
//! stay in memory while timing and are written out once at the end.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of this span in its log.
    pub id: usize,
    /// Causing span, if any.
    pub parent: Option<usize>,
    /// The request (or input item) the span belongs to.
    pub request: u64,
    /// Layer boundary name, `<module>.<function>`.
    pub name: &'static str,
    /// Start, ns since the log's origin.
    pub start_ns: u64,
    /// End, ns since the log's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration, ns.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An append-only span log with a common time origin.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose origin is `origin`.
    pub fn new(origin: Instant) -> Self {
        SpanLog {
            origin,
            spans: Vec::new(),
        }
    }

    fn offset(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        let id = self.spans.len();
        let span = Span {
            id,
            parent,
            request,
            name,
            start_ns: self.offset(start),
            end_ns: self.offset(end),
        };
        self.spans.push(span);
        id
    }

    /// Opens a span now; [`close`](Self::close) ends it. Children opened
    /// in between name it as their parent.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = Instant::now();
        self.record(name, parent, request, now, now)
    }

    /// Ends span `id` now and returns its duration.
    pub fn close(&mut self, id: usize) -> Duration {
        let end = self.offset(Instant::now());
        let span = &mut self.spans[id];
        span.end_ns = end;
        Duration::from_nanos(span.ns())
    }

    /// Runs `f` inside a span and returns its result and duration.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let id = self.open(name, parent, request);
        let out = f();
        (out, self.close(id))
    }

    /// Appends another log's spans (same origin), re-numbering their ids.
    pub fn absorb(&mut self, other: SpanLog) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.id += base;
            span.parent = span.parent.map(|p| p + base);
            span
        }));
    }

    /// Number of spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes the log as tab-separated `id parent request name start_ns
    /// end_ns` lines.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\trequest\tname\tstart_ns\tend_ns")?;
        for s in &self.spans {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{parent}\t{}\t{}\t{}\t{}",
                s.id, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_absorb_with_renumbered_parents() {
        let origin = Instant::now();
        let mut log = SpanLog::new(origin);
        let (seven, _) = log.time("outer", None, 1, || 7);
        assert_eq!(seven, 7);
        let mut other = SpanLog::new(origin);
        let root = other.open("a", None, 2);
        let t = Instant::now();
        other.record("b", Some(root), 2, t, t);
        let took = other.close(root);
        log.absorb(other);
        assert_eq!(log.len(), 3);
        assert_eq!(log.spans[2].parent, Some(1));
        assert_eq!(log.spans[2].ns(), 0);
        assert_eq!(log.spans[1].ns(), took.as_nanos() as u64);
    }
}
