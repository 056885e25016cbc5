//! The benchmark's own spans: kept in memory, written out when the run ends.
//!
//! A span wraps one call the benchmark makes into a layer: an HTTP request
//! from a client, or one repetition of a layer microbenchmark. Spans of one
//! request share its identifier; a microbenchmark repetition names the
//! layer's root span as its parent.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An append-only span buffer with a fixed capacity (spans past it are
/// counted, not kept, so tracing never allocates on the measured path).
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    pub dropped: u64,
}

impl Tracer {
    pub fn new(epoch: Instant, capacity: usize) -> Self {
        Self {
            epoch,
            spans: Vec::with_capacity(capacity),
            dropped: 0,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn record(
        &mut self,
        id: u64,
        parent: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return;
        }
        let span = Span {
            id,
            parent,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
    }

    pub fn absorb(&mut self, other: Tracer) {
        self.dropped += other.dropped;
        self.spans.extend(other.spans);
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
