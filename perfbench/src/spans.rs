//! The traced run's span log: spans recorded by the benchmark around its
//! calls into each layer, held in memory and written out when the run
//! ends. The program itself is not instrumented by this.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The benchmark's wall clock. Every timestamp of the benchmark comes
/// from here; the program under test keeps its own `Clock`.
pub fn now() -> Instant {
    // vlite-allow(clock-discipline): measuring wall-clock time is the benchmark's purpose
    Instant::now()
}

/// One timed call: `name` covers `[start, end)`; spans of one request
/// share `trace` (0 for calls that belong to no request), and `parent`
/// names the enclosing span's name when there is one.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub trace: u64,
    pub start: Instant,
    pub end: Instant,
}

/// Spans of one traced run, relative to the log's epoch.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> Self {
        Self {
            epoch: now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    pub fn record(&mut self, span: Span) {
        self.spans.push(span);
    }

    /// Appends every span of `other` (a worker thread's log).
    pub fn extend(&mut self, other: SpanLog) {
        self.spans.extend(other.spans);
    }

    /// Writes one JSON object per span: name, parent, trace, start and
    /// end in nanoseconds from the log's epoch.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos();
            writeln!(
                out,
                "{{\"name\":\"{}\",\"parent\":{},\"trace\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                s.parent
                    .map_or_else(|| "null".to_string(), |p| format!("\"{p}\"")),
                s.trace,
                ns(s.start),
                ns(s.end)
            )?;
        }
        out.flush()
    }
}
