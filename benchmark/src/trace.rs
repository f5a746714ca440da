//! The harness's own spans: recorded around each public call it makes into
//! the program, kept in a preallocated in-memory buffer, written once as a
//! Chrome trace (`chrome://tracing`, Perfetto "Open trace file").
//!
//! The driving loops are generic over [`Sink`], so the untraced rounds run
//! the very same code with every stamp compiled out.

use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::time::Instant;

/// Parent index of a span nobody caused.
pub const ROOT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Harness thread that recorded it (0 = generator / main).
    pub tid: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index (within the same tid's buffer) of the span that caused it.
    pub parent: u32,
    /// Request (or transaction / call) number the span belongs to.
    pub req: u64,
}

/// Where a driving loop reports its stamps.
pub trait Sink {
    /// Nanoseconds since the trace epoch (0 when tracing is off, without
    /// reading the clock).
    fn now(&self) -> u64;
    fn span(&mut self, name: &'static str, start_ns: u64, end_ns: u64, req: u64);
}

/// Tracing off: both calls vanish after inlining.
pub struct NoTrace;

impl Sink for NoTrace {
    #[inline(always)]
    fn now(&self) -> u64 {
        0
    }
    #[inline(always)]
    fn span(&mut self, _: &'static str, _: u64, _: u64, _: u64) {}
}

/// One thread's span buffer. Never reallocates: a span that does not fit
/// is counted in `dropped` (reported as `trace.spans_dropped`, must be 0).
pub struct Tracer {
    epoch: Instant,
    tid: u32,
    /// Parent stamped onto spans recorded through [`Sink::span`].
    parent: u32,
    pub spans: Vec<Span>,
    pub dropped: u64,
}

impl Tracer {
    pub fn new(epoch: Instant, tid: u32, capacity: usize) -> Self {
        Self {
            epoch,
            tid,
            parent: ROOT,
            spans: Vec::with_capacity(capacity),
            dropped: 0,
        }
    }

    /// Reserve the enclosing span (its end is patched by [`close`](Self::close))
    /// and make it the parent of everything recorded until then.
    pub fn open(&mut self, name: &'static str) -> u32 {
        let at = self.now();
        self.span(name, at, at, 0);
        self.parent = (self.spans.len() - 1) as u32;
        self.parent
    }

    pub fn close(&mut self, idx: u32) {
        let at = self.now();
        self.spans[idx as usize].end_ns = at;
        self.parent = self.spans[idx as usize].parent;
    }
}

impl Sink for Tracer {
    #[inline]
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    #[inline]
    fn span(&mut self, name: &'static str, start_ns: u64, end_ns: u64, req: u64) {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return;
        }
        self.spans.push(Span {
            name,
            tid: self.tid,
            start_ns,
            end_ns,
            parent: self.parent,
            req,
        });
    }
}

/// Per-name totals of one thread's spans: `(count, total ns, self ns)`,
/// where self time is the span's duration minus what its direct children
/// cover.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != ROOT {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_ns) {
        let dur = s.end_ns - s.start_ns;
        let e = out.entry(s.name).or_insert((0, 0, 0));
        e.0 += 1;
        e.1 += dur;
        e.2 += dur.saturating_sub(covered);
    }
    out
}

/// Mean duration in ns of the spans named `name` (0 when there are none).
pub fn mean_ns(totals: &BTreeMap<&'static str, (u64, u64, u64)>, name: &str) -> f64 {
    totals
        .get(name)
        .map_or(0.0, |&(n, total, _)| total as f64 / n.max(1) as f64)
}

/// Most spans written per file: a 2-second serving round records over a
/// million, and a trace viewer is for looking at a window, not at all of
/// them. The statistics always use every span; the file says how many it
/// holds of how many were recorded.
pub const FILE_SPAN_LIMIT: usize = 60_000;

/// Write `threads` (one span buffer per harness thread) as a Chrome trace.
pub fn write_chrome(out: impl Write, threads: &[Vec<Span>]) -> std::io::Result<()> {
    let recorded: usize = threads.iter().map(Vec::len).sum();
    let per_thread = FILE_SPAN_LIMIT / threads.len().max(1);
    let mut w = BufWriter::new(out);
    write!(
        w,
        "{{\"displayTimeUnit\": \"ns\", \"otherData\": {{\"spans_recorded\": {recorded}, \
         \"spans_per_thread_written\": {per_thread}}}, \"traceEvents\": ["
    )?;
    let mut first = true;
    for spans in threads {
        for (idx, s) in spans.iter().take(per_thread).enumerate() {
            if !first {
                w.write_all(b",")?;
            }
            first = false;
            // Chrome's ts/dur are microseconds; fractions keep the ns.
            write!(
                w,
                "\n{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {idx}, \"parent\": {}, \"req\": {}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.tid,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                if s.parent == ROOT { -1 } else { s.parent as i64 },
                s.req,
            )?;
        }
    }
    w.write_all(b"\n]}\n")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn buffer_never_grows_and_counts_drops() {
        let mut t = Tracer::new(Instant::now(), 0, 2);
        t.span("a.x", 0, 5, 1);
        t.span("a.y", 5, 9, 1);
        t.span("a.z", 9, 12, 2);
        assert_eq!((t.spans.len(), t.dropped), (2, 1));
        assert_eq!(t.spans.capacity(), 2);
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new(Instant::now(), 0, 8);
        let root = t.open("client.round");
        t.span("client.draw", 10, 30, 0);
        t.span("router.submit", 30, 70, 0);
        t.close(root);
        t.spans[root as usize].start_ns = 0;
        t.spans[root as usize].end_ns = 100;
        let tot = totals(&t.spans);
        assert_eq!(tot["client.round"], (1, 100, 40));
        assert_eq!(tot["client.draw"], (1, 20, 20));
        assert_eq!(mean_ns(&tot, "router.submit"), 40.0);
        assert_eq!(mean_ns(&tot, "absent"), 0.0);
        // Spans recorded after close() hang off the root again.
        t.span("late", 100, 101, 0);
        assert_eq!(t.spans.last().unwrap().parent, ROOT);
    }

    #[test]
    fn chrome_trace_is_loadable_json() {
        let spans = vec![
            Span {
                name: "client.round",
                tid: 0,
                start_ns: 0,
                end_ns: 2_500,
                parent: ROOT,
                req: 0,
            },
            Span {
                name: "router.submit",
                tid: 0,
                start_ns: 100,
                end_ns: 350,
                parent: 0,
                req: 7,
            },
        ];
        let mut text = Vec::new();
        write_chrome(&mut text, &[spans, vec![]]).unwrap();
        let v = Json::parse(std::str::from_utf8(&text).unwrap()).unwrap();
        let events = v.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1].get("name").and_then(Json::as_str),
            Some("router.submit")
        );
        assert_eq!(events[1].get("dur").and_then(Json::as_f64), Some(0.25));
        assert_eq!(
            events[1]
                .get("args")
                .and_then(|a| a.get("req"))
                .and_then(Json::as_f64),
            Some(7.0)
        );
    }
}
