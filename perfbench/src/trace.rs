//! The benchmark's own spans, recorded around calls into each layer.
//!
//! A span has a name, a start, an end, the span that caused it and the id
//! of the request it belongs to. Spans stay in memory and are written out
//! when the run ends; per-layer self times are derived from them.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use fagin_middleware::{
    AccessError, AccessPolicy, AccessStats, Entry, EventKind, Grade, Middleware, ObjectId,
};

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    pub end: u64,
    /// 1-based index of the parent span in the same tracer; 0 = root.
    pub parent: u32,
    pub request: u32,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn stamp(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span; returns its id for children to name.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        request: u32,
    ) -> u32 {
        let span = Span {
            name,
            start: self.stamp(start),
            end: self.stamp(end),
            parent,
            request,
        };
        self.spans.push(span);
        self.spans.len() as u32
    }

    /// Opens a span whose end is not known yet (its children are recorded
    /// while it is open); close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: u32, request: u32) -> u32 {
        let now = Instant::now();
        self.record(name, now, now, parent, request)
    }

    pub fn close(&mut self, id: u32) {
        let end = self.stamp(Instant::now());
        self.spans[id as usize - 1].end = end;
    }

    /// Appends the spans of a tracer that shares this one's epoch.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != 0 {
                s.parent += base;
            }
            s
        }));
    }

    /// Writes the spans as tab-separated lines:
    /// `id name start_ns end_ns parent request`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\trequest")?;
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                i + 1,
                s.name,
                s.start,
                s.end,
                s.parent,
                s.request
            )?;
        }
        out.flush()
    }

    /// Each span's duration minus the time its direct children cover.
    /// Children of one run never overlap (the engine is single-threaded),
    /// so their durations simply add.
    pub fn self_nanos(&self) -> Vec<u64> {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != 0 {
                children[s.parent as usize - 1] += s.nanos();
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, c)| s.nanos().saturating_sub(c))
            .collect()
    }
}

/// A timing [`Middleware`] wrapper: every call into the access layer
/// becomes one span named `<layer>.sorted` or `<layer>.random`.
pub struct Timed<'t, M> {
    pub inner: M,
    tracer: &'t mut Tracer,
    parent: u32,
    request: u32,
    names: [&'static str; 2],
}

pub const LOCAL: [&str; 2] = ["middleware.sorted", "middleware.random"];
pub const REMOTE: [&str; 2] = ["remote.sorted", "remote.random"];

impl<'t, M: Middleware> Timed<'t, M> {
    pub fn new(
        inner: M,
        tracer: &'t mut Tracer,
        parent: u32,
        request: u32,
        names: [&'static str; 2],
    ) -> Self {
        Timed {
            inner,
            tracer,
            parent,
            request,
            names,
        }
    }

    fn span(&mut self, which: usize, start: Instant) {
        let end = Instant::now();
        self.tracer
            .record(self.names[which], start, end, self.parent, self.request);
    }
}

impl<M: Middleware> Middleware for Timed<'_, M> {
    fn num_lists(&self) -> usize {
        self.inner.num_lists()
    }

    fn num_objects(&self) -> usize {
        self.inner.num_objects()
    }

    fn sorted_next(&mut self, list: usize) -> Result<Option<Entry>, AccessError> {
        let start = Instant::now();
        let r = self.inner.sorted_next(list);
        self.span(0, start);
        r
    }

    fn random_lookup(&mut self, list: usize, object: ObjectId) -> Result<Grade, AccessError> {
        let start = Instant::now();
        let r = self.inner.random_lookup(list, object);
        self.span(1, start);
        r
    }

    fn sorted_next_batch(
        &mut self,
        list: usize,
        max: usize,
        out: &mut Vec<Entry>,
    ) -> Result<usize, AccessError> {
        let start = Instant::now();
        let r = self.inner.sorted_next_batch(list, max, out);
        self.span(0, start);
        r
    }

    fn random_lookup_many(
        &mut self,
        list: usize,
        objects: &[ObjectId],
        out: &mut Vec<Grade>,
    ) -> Result<(), AccessError> {
        let start = Instant::now();
        let r = self.inner.random_lookup_many(list, objects, out);
        self.span(1, start);
        r
    }

    fn stats(&self) -> &AccessStats {
        self.inner.stats()
    }

    fn policy(&self) -> &AccessPolicy {
        self.inner.policy()
    }

    fn position(&self, list: usize) -> usize {
        self.inner.position(list)
    }

    fn trace(&mut self, kind: EventKind, detail: u32, count: u64) {
        self.inner.trace(kind, detail, count)
    }
}
