//! In-memory spans around calls into the program's layers.
//!
//! A span has a name, a parent, a start and an end (nanoseconds since
//! the tracer was made) and a work count (lanes, points, requests).
//! Spans stay in memory while the benchmark runs and are written out as
//! JSON lines at the end; `perfbench/benchlib.py` turns them into
//! per-layer self times. A disabled tracer runs the wrapped call and
//! records nothing, which is what the untraced side of the tracing
//! overhead measures.

use std::borrow::Cow;
use std::io::Write;
use std::time::Instant;

struct Span {
    name: Cow<'static, str>,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    work: u64,
}

/// Records nested spans while enabled.
pub struct Tracer {
    /// Whether [`Tracer::span`] records anything.
    pub enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name` that did `work` units of
    /// work. Spans opened inside `f` become its children.
    pub fn span<R>(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        work: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name: name.into(), parent, start_ns, end_ns: start_ns, work });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"work\":{}}}",
                hmcs_core::json::json_str(&s.name),
                s.start_ns,
                s.end_ns,
                s.work
            )?;
        }
        out.flush()
    }
}
