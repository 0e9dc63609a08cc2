//! Wall-clock timing of the benchmark's calls into the program, and — in a
//! traced run — a span per call, kept in memory and written out at the end.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call. Spans of one measured operation share `call`; `parent`
/// indexes the enclosing span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub call: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Option<Vec<Span>>,
}

impl Tracer {
    pub fn new(traced: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: traced.then(Vec::new),
        }
    }

    pub fn traced(&self) -> bool {
        self.spans.is_some()
    }

    fn nanos(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Record a span timed elsewhere; returns its index in a traced run.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        call: u64,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        let (start_ns, end_ns) = (self.nanos(start), self.nanos(end));
        let spans = self.spans.as_mut()?;
        spans.push(Span {
            name,
            parent,
            call,
            start_ns,
            end_ns,
        });
        Some(spans.len() - 1)
    }

    /// Run `f` and return its result with its wall time in seconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        call: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let value = std::hint::black_box(f());
        let end = Instant::now();
        self.record(name, parent, call, start, end);
        (value, end.duration_since(start).as_secs_f64())
    }

    /// Open a span whose end is set by [`Tracer::close`], so that spans
    /// recorded in between can name it as their parent.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, call: u64) -> Option<usize> {
        let now = Instant::now();
        self.record(name, parent, call, now, now)
    }

    pub fn close(&mut self, span: Option<usize>) {
        let end = self.nanos(Instant::now());
        if let (Some(spans), Some(i)) = (self.spans.as_mut(), span) {
            spans[i].end_ns = end;
        }
    }

    pub fn spans(&self) -> &[Span] {
        self.spans.as_deref().unwrap_or(&[])
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans().iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"call\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                span.call, span.name, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_a_traced_run_keeps_spans() {
        let mut quiet = Tracer::new(false);
        let (value, secs) = quiet.time("work", None, 0, || 7);
        assert_eq!(value, 7);
        assert!(secs >= 0.0);
        assert!(quiet.open("call", None, 0).is_none());
        assert!(quiet.spans().is_empty());

        let mut traced = Tracer::new(true);
        let call = traced.open("call", None, 3);
        traced.time("inner", call, 3, || ());
        traced.close(call);
        let spans = traced.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            (spans[1].name, spans[1].parent, spans[1].call),
            ("inner", Some(0), 3)
        );
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
