//! Transaction lifecycle tracing and conflict attribution.
//!
//! End-of-run aggregates ([`EngineStats`](crate::engine::EngineStats))
//! answer *how much* — commits, aborts by cause, tail percentiles — but
//! not *which keys*, *which phase*, or *when within the run*. This module
//! is the event-level substrate underneath those aggregates:
//!
//! * One bounded lock-free event ring per shard — the workspace's
//!   [`Ring`] (see [`crate::ring`] for the protocol) — on
//!   which any refusal **drops** the event and counts it
//!   ([`Trace::dropped`]) instead of shedding backpressure onto the traced
//!   path. Emission is a ticket CAS plus two plain stores; it never blocks
//!   and never allocates.
//! * [`TraceEvent`] / [`TraceKind`] — one fixed-size timestamped record
//!   per lifecycle step: enqueue, pop/steal, speculate, the three commit
//!   phases, group publish/fallback, abort (with cause **and the granted
//!   grace period**), snapshot read/restart, shed.
//! * [`HotKeyTable`] — a fixed-size lock-free count-min sketch plus a
//!   SpaceSaving-style candidate table: every abort is attributed to its
//!   transaction's home key, so "which keys cause the aborts under
//!   theta=0.99?" has a measured answer (the per-shard top-K heatmap).
//! * [`Trace`] — one handle per run bundling a ring, abort/shed
//!   attribution counters, and a hot-key table **per shard**. The
//!   attribution counters are updated at emission time through plain
//!   atomics that never drop, so per-cause totals stay exactly equal to
//!   the corresponding `EngineStats` counters even when the detailed
//!   ring overflows.
//!
//! Everything is gated behind [`TraceConfig`]: a disabled trace is an
//! `Option::None` at every emission point — a single branch on the hot
//! path. What the *enabled* path costs is unmeasured (README, "Overhead":
//! the retired `trace_ab` section of `serve` never had a trustworthy
//! number).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::clock;
use crate::engine::AbortKind;
use crate::hist::LatencyHistogram;
use crate::ring::Ring;

/// Lifecycle tracing knobs. Disabled by default; the serving layer embeds
/// one in its run configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceConfig {
    /// Record lifecycle events (off = every emission point is one
    /// never-taken branch).
    pub enabled: bool,
    /// Per-shard ring capacity in events (at least 1). A full ring drops
    /// new events and counts them; it never blocks the traced path.
    pub ring_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            ring_capacity: 1 << 16,
        }
    }
}

/// One step of a transaction's lifecycle. The `a`/`b` payload fields of
/// [`TraceEvent`] are kind-specific (documented per variant).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum TraceKind {
    /// Request admitted onto its home shard's ring (`a` = post-push
    /// queue depth).
    Enqueue,
    /// Admission rejected the request (`cause` = one of the `Shed*`
    /// causes).
    Shed,
    /// Executor claimed a batch from its own ring (`a` = batch size).
    Pop,
    /// Executor stole a batch from a sibling ring (`a` = batch size,
    /// `b` = victim shard).
    Steal,
    /// Group-commit phase A speculation finished (`a` = 1 success /
    /// 0 aborted-to-rerun).
    Speculate,
    /// Per-transaction commit acquired all its write locks (`a` =
    /// write-set size).
    Acquire,
    /// Read-set validation passed (`a` = read-set size).
    Validate,
    /// Writes published under a clock bump (`a` = write-set size).
    Publish,
    /// A whole group published under ONE clock bump (`a` = members,
    /// `b` = coalesced same-key writes).
    GroupCommit,
    /// A member was evicted from its group and re-ran per-tx (`a` =
    /// batch member index).
    GroupFallback,
    /// An attempt aborted (`cause` = abort cause, `a` = grace period the
    /// arbiter granted before the losing side died, nanoseconds; 0 when
    /// no contention consult preceded the abort).
    Abort,
    /// A snapshot read transaction served (`a` = chain misses absorbed).
    SnapshotRead,
    /// A snapshot transaction restarted on a chain miss.
    SnapshotRestart,
    /// Envelope served and replied (`a` = queue-wait ns, `b` = service
    /// ns) — the record the exporter turns into queue-wait/service spans.
    Done,
}

/// Why an [`Abort`](TraceKind::Abort) or [`Shed`](TraceKind::Shed) event
/// fired; [`None`](TraceCause::None) for every other kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum TraceCause {
    None = 0,
    /// Abort: lost a lock conflict (grace expired, requestor-aborts).
    Conflict,
    /// Abort: read-set validation failed / version newer than snapshot.
    Validation,
    /// Abort: cycle break.
    CycleBreak,
    /// Abort: capacity.
    Capacity,
    /// Abort: killed by a requestor-wins contender.
    RemoteKill,
    /// Shed: the home ring was full (or closed).
    ShedCapacity,
    /// Shed: SLO-aware adaptive admission was shedding.
    ShedSlo,
    /// Shed: the request was malformed.
    ShedInvalid,
}

/// Distinct abort causes ([`TraceCause::Conflict`] ..
/// [`TraceCause::RemoteKill`]), the width of the per-shard attribution
/// counter arrays.
pub const ABORT_CAUSES: usize = 5;
/// Distinct shed causes ([`TraceCause::ShedCapacity`] ..
/// [`TraceCause::ShedInvalid`]).
pub const SHED_CAUSES: usize = 3;

impl TraceCause {
    /// Stable lowercase name for reports and exporters.
    pub fn name(self) -> &'static str {
        match self {
            TraceCause::None => "none",
            TraceCause::Conflict => "conflict",
            TraceCause::Validation => "validation",
            TraceCause::CycleBreak => "cycle_break",
            TraceCause::Capacity => "capacity",
            TraceCause::RemoteKill => "remote_kill",
            TraceCause::ShedCapacity => "shed_capacity",
            TraceCause::ShedSlo => "shed_slo",
            TraceCause::ShedInvalid => "shed_invalid",
        }
    }

    /// The trace cause of an engine-layer abort kind.
    pub fn from_abort(kind: AbortKind) -> Self {
        match kind {
            AbortKind::Conflict => TraceCause::Conflict,
            AbortKind::Validation => TraceCause::Validation,
            AbortKind::CycleBreak => TraceCause::CycleBreak,
            AbortKind::Capacity => TraceCause::Capacity,
            AbortKind::RemoteKill => TraceCause::RemoteKill,
        }
    }

    /// Index into the per-shard abort counter array, `None` for
    /// non-abort causes.
    fn abort_index(self) -> Option<usize> {
        match self {
            TraceCause::Conflict => Some(0),
            TraceCause::Validation => Some(1),
            TraceCause::CycleBreak => Some(2),
            TraceCause::Capacity => Some(3),
            TraceCause::RemoteKill => Some(4),
            _ => None,
        }
    }

    /// Index into the per-shard shed counter array, `None` for non-shed
    /// causes.
    fn shed_index(self) -> Option<usize> {
        match self {
            TraceCause::ShedCapacity => Some(0),
            TraceCause::ShedSlo => Some(1),
            TraceCause::ShedInvalid => Some(2),
            _ => None,
        }
    }

    /// The abort cause at counter index `i` (inverse of `abort_index`).
    pub fn abort_cause(i: usize) -> Self {
        [
            TraceCause::Conflict,
            TraceCause::Validation,
            TraceCause::CycleBreak,
            TraceCause::Capacity,
            TraceCause::RemoteKill,
        ][i]
    }

    /// The shed cause at counter index `i` (inverse of `shed_index`).
    pub fn shed_cause(i: usize) -> Self {
        [
            TraceCause::ShedCapacity,
            TraceCause::ShedSlo,
            TraceCause::ShedInvalid,
        ][i]
    }
}

/// The identity a traced emission carries: which shard's ring it lands
/// on, the transaction tag (the reply generation at the server layer),
/// and the request's home key. The STM context holds one and re-stamps
/// it per envelope.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceTag {
    pub shard: u16,
    pub tx: u64,
    pub key: u64,
}

/// One fixed-size timestamped lifecycle record (`Copy`, so ring slots
/// transfer it without drops or destructors).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the trace epoch ([`Trace::new`]). Stamped by
    /// [`Trace::emit`]; constructors leave it 0.
    pub ts_ns: u64,
    /// Transaction tag (reply generation at the server layer; 0 for
    /// batch-level events).
    pub tx: u64,
    /// Home key of the request (0 when not applicable).
    pub key: u64,
    /// Kind-specific payload (see [`TraceKind`]).
    pub a: u64,
    /// Kind-specific payload (see [`TraceKind`]).
    pub b: u64,
    pub kind: TraceKind,
    pub cause: TraceCause,
    /// The shard whose ring holds this event.
    pub shard: u16,
}

impl TraceEvent {
    /// A causeless lifecycle event under `tag`.
    pub fn lifecycle(kind: TraceKind, tag: TraceTag, a: u64, b: u64) -> Self {
        Self {
            ts_ns: 0,
            tx: tag.tx,
            key: tag.key,
            a,
            b,
            kind,
            cause: TraceCause::None,
            shard: tag.shard,
        }
    }

    /// An abort event: `cause` from the engine's abort kind, `grace_ns`
    /// = the grace period granted before the losing side died.
    pub fn abort(tag: TraceTag, kind: AbortKind, grace_ns: u64) -> Self {
        Self {
            cause: TraceCause::from_abort(kind),
            ..Self::lifecycle(TraceKind::Abort, tag, grace_ns, 0)
        }
    }

    /// A shed event on `shard` for the request homed at `key`.
    pub fn shed(shard: u16, key: u64, cause: TraceCause) -> Self {
        debug_assert!(cause.shed_index().is_some());
        Self {
            cause,
            ..Self::lifecycle(TraceKind::Shed, TraceTag { shard, tx: 0, key }, 0, 0)
        }
    }
}

/// Count-min sketch depth (independent hash rows).
pub const SKETCH_ROWS: usize = 4;
/// Count-min sketch width per row (power of two).
pub const SKETCH_COLS: usize = 256;
/// Candidate slots in the top-K table.
pub const HOT_SLOTS: usize = 32;

/// A fixed-size, lock-free hot-key attribution table: a count-min sketch
/// (every recorded key increments [`SKETCH_ROWS`] atomic cells; the
/// estimate is the row minimum, biased high but never low) plus a
/// SpaceSaving-style candidate table of [`HOT_SLOTS`] `(key, count)`
/// slots. A key already in the table increments its slot; a new key
/// claims an empty slot or, when the table is full, evicts the coldest
/// slot if its sketch estimate is higher. Memory is constant regardless
/// of key-space size, updates are a handful of relaxed atomics, and
/// counts are approximate under concurrency (sketch semantics) — which
/// is exactly what a heatmap needs.
pub struct HotKeyTable {
    sketch: Box<[AtomicU64]>,
    /// `key + 1` per slot (0 = empty).
    keys: Box<[AtomicU64]>,
    counts: Box<[AtomicU64]>,
}

impl Default for HotKeyTable {
    fn default() -> Self {
        Self::new()
    }
}

impl HotKeyTable {
    pub fn new() -> Self {
        Self {
            sketch: (0..SKETCH_ROWS * SKETCH_COLS)
                .map(|_| AtomicU64::new(0))
                .collect(),
            keys: (0..HOT_SLOTS).map(|_| AtomicU64::new(0)).collect(),
            counts: (0..HOT_SLOTS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Row `row`'s column for `key` (splitmix-style finalizer, one
    /// distinct odd multiplier per row).
    fn col(key: u64, row: usize) -> usize {
        const MULT: [u64; SKETCH_ROWS] = [
            0x9e37_79b9_7f4a_7c15,
            0xbf58_476d_1ce4_e5b9,
            0x94d0_49bb_1331_11eb,
            0xd6e8_feb8_6659_fd93,
        ];
        let mut h = key.wrapping_add(0x6a09_e667_f3bc_c909);
        h ^= h >> 30;
        h = h.wrapping_mul(MULT[row]);
        h ^= h >> 27;
        (h as usize) & (SKETCH_COLS - 1)
    }

    /// Attribute one occurrence to `key`.
    pub fn record(&self, key: u64) {
        let mut est = u64::MAX;
        for row in 0..SKETCH_ROWS {
            let cell = &self.sketch[row * SKETCH_COLS + Self::col(key, row)];
            est = est.min(cell.fetch_add(1, Ordering::Relaxed) + 1);
        }
        let tag = key.wrapping_add(1);
        let (mut min_i, mut min_c) = (0usize, u64::MAX);
        for i in 0..HOT_SLOTS {
            let k = self.keys[i].load(Ordering::Acquire);
            if k == tag {
                self.counts[i].fetch_add(1, Ordering::Relaxed);
                return;
            }
            if k == 0 {
                if self.keys[i]
                    .compare_exchange(0, tag, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    // Seed with the sketch estimate so a key that only
                    // now earned a slot doesn't start from zero.
                    self.counts[i].store(est, Ordering::Release);
                    return;
                }
                if self.keys[i].load(Ordering::Acquire) == tag {
                    self.counts[i].fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
            let c = self.counts[i].load(Ordering::Relaxed);
            if c < min_c {
                min_c = c;
                min_i = i;
            }
        }
        // Table full of other keys: evict the coldest slot when this
        // key's sketch estimate beats it (SpaceSaving admission). A lost
        // CAS just means a racing recorder updated the slot first — the
        // occurrence stays counted in the sketch either way.
        if est > min_c {
            let victim = self.keys[min_i].load(Ordering::Acquire);
            if victim != 0
                && self.keys[min_i]
                    .compare_exchange(victim, tag, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
            {
                self.counts[min_i].store(est, Ordering::Release);
            }
        }
    }

    /// Sketch estimate for `key` (row minimum — an upper bound on the
    /// true count).
    pub fn estimate(&self, key: u64) -> u64 {
        (0..SKETCH_ROWS)
            .map(|row| self.sketch[row * SKETCH_COLS + Self::col(key, row)].load(Ordering::Relaxed))
            .min()
            .unwrap_or(0)
    }

    /// Occupied candidate slots.
    pub fn len(&self) -> usize {
        self.keys
            .iter()
            .filter(|k| k.load(Ordering::Relaxed) != 0)
            .count()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The hottest keys, `(key, count)` sorted hottest first, at most
    /// `k` of them.
    pub fn top(&self, k: usize) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = (0..HOT_SLOTS)
            .filter_map(|i| {
                let tag = self.keys[i].load(Ordering::Acquire);
                (tag != 0).then(|| (tag.wrapping_sub(1), self.counts[i].load(Ordering::Relaxed)))
            })
            .collect();
        // Hottest first; ties by key so reports are stable.
        out.sort_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));
        out.truncate(k);
        out
    }
}

/// Per-shard trace state: the event ring and the count of events it
/// refused, plus the never-dropped attribution side: abort counters by
/// cause, shed counters by cause, and the hot-key abort table.
struct ShardTrace {
    ring: Ring<TraceEvent>,
    /// Events the ring refused, whatever the reason (full, or lapped onto
    /// a slot a drain has not released yet): the traced path never waits.
    dropped: AtomicU64,
    aborts: [AtomicU64; ABORT_CAUSES],
    sheds: [AtomicU64; SHED_CAUSES],
    hot: HotKeyTable,
}

impl ShardTrace {
    fn new(ring_capacity: usize) -> Self {
        Self {
            ring: Ring::new(ring_capacity.max(1)),
            dropped: AtomicU64::new(0),
            aborts: std::array::from_fn(|_| AtomicU64::new(0)),
            sheds: std::array::from_fn(|_| AtomicU64::new(0)),
            hot: HotKeyTable::new(),
        }
    }

    /// Put `ev` on the ring, or count it dropped. Returns whether it was
    /// recorded.
    fn record(&self, ev: TraceEvent) -> bool {
        let recorded = self.ring.try_push(ev).is_ok();
        if !recorded {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        recorded
    }

    fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// One tracing session: per-shard rings + attribution tables and the
/// common timestamp epoch. Shared as `Arc<Trace>` by every emitter
/// (router, clients, executors, the STM contexts); drained once with
/// [`finish`](Trace::finish) after the run.
pub struct Trace {
    /// [`clock::now`] at construction: the emit path stamps events in
    /// raw ticks since this epoch — one unserialized counter read per
    /// event instead of a `clock_gettime` call — and
    /// [`finish`](Trace::finish) converts them to nanoseconds in one pass.
    epoch_ticks: u64,
    shards: Vec<ShardTrace>,
}

impl std::fmt::Debug for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trace")
            .field("shards", &self.shards.len())
            .field("dropped", &self.dropped())
            .finish_non_exhaustive()
    }
}

impl Trace {
    pub fn new(shards: usize, cfg: &TraceConfig) -> Self {
        assert!(shards >= 1, "need at least one shard");
        // Start the tick clock's calibration window now, so `finish`
        // converts without waiting.
        clock::anchor();
        Self {
            epoch_ticks: clock::now(),
            shards: (0..shards)
                .map(|_| ShardTrace::new(cfg.ring_capacity))
                .collect(),
        }
    }

    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Stamp `ev` with the epoch-relative timestamp and record it on its
    /// shard's ring (drop-on-full). Abort events additionally bump the
    /// per-cause attribution counter and the hot-key table; shed events
    /// bump their cause counter — those side tables never drop, so
    /// per-cause totals match the engine counters exactly even when the
    /// ring overflows.
    ///
    /// The stamp is raw [`clock`] ticks, converted to ns once per session
    /// in [`finish`](Trace::finish).
    pub fn emit(&self, mut ev: TraceEvent) {
        ev.ts_ns = clock::now().wrapping_sub(self.epoch_ticks);
        let st = &self.shards[(ev.shard as usize).min(self.shards.len() - 1)];
        if let Some(i) = ev.cause.abort_index() {
            st.aborts[i].fetch_add(1, Ordering::Relaxed);
            st.hot.record(ev.key);
        } else if let Some(i) = ev.cause.shed_index() {
            st.sheds[i].fetch_add(1, Ordering::Relaxed);
        }
        st.record(ev);
    }

    /// Events dropped across all shards so far.
    pub fn dropped(&self) -> u64 {
        self.shards.iter().map(ShardTrace::dropped).sum()
    }

    /// Occupied hot-key slots across all shards.
    pub fn hot_key_slots(&self) -> u64 {
        self.shards.iter().map(|s| s.hot.len() as u64).sum()
    }

    /// Drain every ring and snapshot the attribution tables into a
    /// [`TraceReport`]. Events are sorted by timestamp (ties by shard)
    /// so consumers see one global timeline.
    ///
    /// Raw-tick stamps are converted to nanoseconds here, in one pass,
    /// through the process-wide [`clock`] scale (a monotone scaling, so
    /// ordering is preserved) — the emit path pays nothing for it.
    pub fn finish(&self) -> TraceReport {
        let mut events = Vec::new();
        let mut dropped = Vec::with_capacity(self.shards.len());
        let mut aborts = Vec::with_capacity(self.shards.len());
        let mut sheds = Vec::with_capacity(self.shards.len());
        let mut hot_keys = Vec::with_capacity(self.shards.len());
        for st in &self.shards {
            while let Some(ev) = st.ring.try_pop() {
                events.push(ev);
            }
            dropped.push(st.dropped());
            aborts.push(std::array::from_fn(|i| {
                st.aborts[i].load(Ordering::Relaxed)
            }));
            sheds.push(std::array::from_fn(|i| st.sheds[i].load(Ordering::Relaxed)));
            hot_keys.push(st.hot.top(HOT_SLOTS));
        }
        for ev in &mut events {
            ev.ts_ns = clock::ticks_to_ns(ev.ts_ns);
        }
        events.sort_by_key(|e| (e.ts_ns, e.shard));
        TraceReport {
            shards: self.shards.len(),
            events,
            dropped,
            aborts,
            sheds,
            hot_keys,
        }
    }
}

/// The drained, immutable outcome of one tracing session.
#[derive(Clone, Debug, Default)]
pub struct TraceReport {
    pub shards: usize,
    /// All drained events, globally timestamp-ordered.
    pub events: Vec<TraceEvent>,
    /// Per-shard count of events dropped on ring overflow.
    pub dropped: Vec<u64>,
    /// `aborts[shard][i]` = aborts of cause [`TraceCause::abort_cause`]`(i)`.
    /// Never subject to ring drops.
    pub aborts: Vec<[u64; ABORT_CAUSES]>,
    /// `sheds[shard][i]` = sheds of cause [`TraceCause::shed_cause`]`(i)`.
    pub sheds: Vec<[u64; SHED_CAUSES]>,
    /// Per-shard hot-key abort attribution, hottest first.
    pub hot_keys: Vec<Vec<(u64, u64)>>,
}

/// One interval row of [`TraceReport::timeseries`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IntervalRow {
    /// Interval start, nanoseconds since the trace epoch.
    pub t_ns: u64,
    /// Envelopes served ([`TraceKind::Done`]) in the interval.
    pub done: u64,
    /// Aborts in the interval.
    pub aborts: u64,
    /// Sheds in the interval.
    pub sheds: u64,
    /// p99 queue wait over the interval's served envelopes, nanoseconds.
    pub p99_queue_wait_ns: u64,
}

impl TraceReport {
    /// Events dropped across all shards.
    pub fn dropped_total(&self) -> u64 {
        self.dropped.iter().sum()
    }

    /// Aborts of `cause` summed across shards (0 for non-abort causes).
    pub fn abort_total(&self, cause: TraceCause) -> u64 {
        match cause.abort_index() {
            Some(i) => self.aborts.iter().map(|a| a[i]).sum(),
            None => 0,
        }
    }

    /// Sheds of `cause` summed across shards (0 for non-shed causes).
    pub fn shed_total(&self, cause: TraceCause) -> u64 {
        match cause.shed_index() {
            Some(i) => self.sheds.iter().map(|s| s[i]).sum(),
            None => 0,
        }
    }

    /// Occupied hot-key slots across shards.
    pub fn hot_key_slots(&self) -> u64 {
        self.hot_keys.iter().map(|h| h.len() as u64).sum()
    }

    /// Fold the drained events into periodic interval snapshots:
    /// served-envelope count, abort count, shed count, and the p99 queue
    /// wait of each `interval_ns`-wide bucket of the run. Rows cover the
    /// span of observed events; an interval with no events still gets a
    /// (zero) row so rates plot against a uniform time axis.
    pub fn timeseries(&self, interval_ns: u64) -> Vec<IntervalRow> {
        assert!(interval_ns > 0, "interval must be positive");
        let Some(last) = self.events.iter().map(|e| e.ts_ns).max() else {
            return Vec::new();
        };
        let buckets = (last / interval_ns + 1) as usize;
        let mut rows: Vec<IntervalRow> = (0..buckets)
            .map(|i| IntervalRow {
                t_ns: i as u64 * interval_ns,
                done: 0,
                aborts: 0,
                sheds: 0,
                p99_queue_wait_ns: 0,
            })
            .collect();
        let mut waits: Vec<LatencyHistogram> = vec![LatencyHistogram::new(); buckets];
        for ev in &self.events {
            let i = (ev.ts_ns / interval_ns) as usize;
            match ev.kind {
                TraceKind::Done => {
                    rows[i].done += 1;
                    waits[i].record(ev.a);
                }
                TraceKind::Abort => rows[i].aborts += 1,
                TraceKind::Shed => rows[i].sheds += 1,
                _ => {}
            }
        }
        for (row, hist) in rows.iter_mut().zip(waits.iter()) {
            row.p99_queue_wait_ns = hist.percentile(99.0);
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(shard: u16, tx: u64) -> TraceEvent {
        TraceEvent::lifecycle(TraceKind::Done, TraceTag { shard, tx, key: tx }, 0, 0)
    }

    // The ring protocol itself is tested in `crate::ring`; these cover what
    // the trace adds on top: every refusal is a counted drop.

    #[test]
    fn ring_is_fifo_and_counts_drops_exactly() {
        let st = ShardTrace::new(8);
        for tx in 0..8 {
            assert!(st.record(ev(0, tx)), "below capacity must record");
        }
        for tx in 8..13 {
            assert!(!st.record(ev(0, tx)), "full ring must drop");
        }
        assert_eq!(st.dropped(), 5, "every overflow counted exactly once");
        for tx in 0..8 {
            assert_eq!(st.ring.try_pop().map(|e| e.tx), Some(tx), "FIFO order");
        }
        assert!(st.ring.try_pop().is_none());
        // Freed slots admit again; the drop counter is cumulative.
        assert!(st.record(ev(0, 99)));
        assert_eq!(st.dropped(), 5);
    }

    /// `threads` emitters record `per_thread` events each (`tx` = a
    /// distinct id); returns how many a drain then finds, after checking
    /// none of them twice.
    fn emit_concurrently(st: &ShardTrace, threads: u64, per_thread: u64) -> u64 {
        std::thread::scope(|s| {
            for t in 0..threads {
                s.spawn(move || {
                    for i in 0..per_thread {
                        st.record(ev(0, t * per_thread + i));
                    }
                });
            }
        });
        let mut seen = vec![false; (threads * per_thread) as usize];
        let mut drained = 0;
        while let Some(e) = st.ring.try_pop() {
            assert!(!seen[e.tx as usize], "duplicate event {}", e.tx);
            seen[e.tx as usize] = true;
            drained += 1;
        }
        drained
    }

    #[test]
    fn concurrent_emitters_below_capacity_lose_and_duplicate_nothing() {
        // N threads × M events into a ring of capacity N×M, nobody
        // draining: every identity exactly once, zero drops.
        for (threads, per_thread) in [(2, 500), (4, 250), (8, 400)] {
            let st = ShardTrace::new((threads * per_thread) as usize);
            let drained = emit_concurrently(&st, threads, per_thread);
            assert_eq!(st.dropped(), 0, "below capacity nothing drops");
            assert_eq!(drained, threads * per_thread, "{threads}×{per_thread}");
        }
    }

    #[test]
    fn concurrent_overflow_conserves_events_plus_drops() {
        // 4 threads push 4× the capacity: whatever the interleaving,
        // recorded + dropped equals pushed.
        let st = ShardTrace::new(64);
        let drained = emit_concurrently(&st, 4, 64);
        assert_eq!(drained + st.dropped(), 4 * 64);
        assert_eq!(drained, 64, "nobody drains meanwhile: exactly the capacity");
    }

    #[test]
    fn hot_key_table_ranks_the_heavy_hitter() {
        let hot = HotKeyTable::new();
        for _ in 0..100 {
            hot.record(7);
        }
        for k in 0..10 {
            hot.record(1000 + k);
        }
        let top = hot.top(4);
        assert_eq!(top[0].0, 7, "the heavy hitter leads the table");
        assert!(top[0].1 >= 100, "sketch estimates never under-count");
        assert!(hot.len() >= 2 && hot.len() <= HOT_SLOTS);
        assert!(hot.estimate(7) >= 100);
        assert_eq!(hot.estimate(424242), 0, "unseen key estimates zero");
    }

    #[test]
    fn hot_key_table_eviction_keeps_hot_keys_under_pressure() {
        // More distinct keys than slots, one far hotter than the rest:
        // SpaceSaving admission must keep the hot key ranked first.
        let hot = HotKeyTable::new();
        for round in 0..50 {
            hot.record(5);
            for k in 0..(2 * HOT_SLOTS as u64) {
                if round % 10 == 0 {
                    hot.record(10_000 + k);
                }
            }
        }
        let top = hot.top(1);
        assert_eq!(top[0].0, 5, "hot key survives table pressure");
        assert_eq!(hot.len(), HOT_SLOTS, "full table stays fixed-size");
    }

    #[test]
    fn trace_attributes_aborts_and_sheds_per_cause() {
        let trace = Trace::new(
            2,
            &TraceConfig {
                enabled: true,
                ring_capacity: 64,
            },
        );
        let tag = TraceTag {
            shard: 1,
            tx: 9,
            key: 5,
        };
        trace.emit(TraceEvent::abort(tag, AbortKind::Conflict, 1_000));
        trace.emit(TraceEvent::abort(tag, AbortKind::Validation, 0));
        trace.emit(TraceEvent::abort(tag, AbortKind::Conflict, 2_000));
        trace.emit(TraceEvent::shed(0, 3, TraceCause::ShedCapacity));
        trace.emit(TraceEvent::shed(0, 3, TraceCause::ShedSlo));
        trace.emit(TraceEvent::lifecycle(TraceKind::Done, tag, 10, 20));
        let rep = trace.finish();
        assert_eq!(rep.abort_total(TraceCause::Conflict), 2);
        assert_eq!(rep.abort_total(TraceCause::Validation), 1);
        assert_eq!(rep.abort_total(TraceCause::RemoteKill), 0);
        assert_eq!(rep.shed_total(TraceCause::ShedCapacity), 1);
        assert_eq!(rep.shed_total(TraceCause::ShedSlo), 1);
        assert_eq!(rep.shed_total(TraceCause::ShedInvalid), 0);
        assert_eq!(rep.events.len(), 6);
        assert_eq!(rep.dropped_total(), 0);
        // Aborts were attributed to the home key on shard 1's table.
        assert_eq!(rep.hot_keys[1][0].0, 5);
        assert!(rep.hot_key_slots() >= 1);
        // Timestamps are epoch-relative and sorted.
        assert!(rep.events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    }

    #[test]
    fn attribution_counters_survive_ring_overflow() {
        // A 2-slot ring overflows immediately, and a 1-slot ring (the
        // smallest there is) after its first event, but the per-cause
        // totals and the hot-key table are updated outside the ring and
        // must stay exact.
        for ring_capacity in [2, 1] {
            let trace = Trace::new(
                1,
                &TraceConfig {
                    enabled: true,
                    ring_capacity,
                },
            );
            let tag = TraceTag {
                shard: 0,
                tx: 1,
                key: 77,
            };
            for _ in 0..10 {
                trace.emit(TraceEvent::abort(tag, AbortKind::Conflict, 0));
            }
            let dropped = 10 - ring_capacity as u64;
            assert_eq!(trace.dropped(), dropped, "capacity {ring_capacity}");
            let rep = trace.finish();
            assert_eq!(rep.events.len(), ring_capacity);
            assert_eq!(rep.dropped_total(), dropped);
            assert_eq!(
                rep.abort_total(TraceCause::Conflict),
                10,
                "attribution never drops (capacity {ring_capacity})"
            );
            assert_eq!(rep.hot_keys[0][0], (77, 10));
        }
    }

    #[test]
    fn timeseries_buckets_rates_and_queue_wait() {
        let mut rep = TraceReport {
            shards: 1,
            ..Default::default()
        };
        let tag = TraceTag::default();
        let mut at = |ts_ns: u64, mut e: TraceEvent| {
            e.ts_ns = ts_ns;
            rep.events.push(e);
        };
        at(10, TraceEvent::lifecycle(TraceKind::Done, tag, 100, 5));
        at(20, TraceEvent::lifecycle(TraceKind::Done, tag, 200, 5));
        at(30, TraceEvent::abort(tag, AbortKind::Conflict, 0));
        at(1_050, TraceEvent::lifecycle(TraceKind::Done, tag, 400, 5));
        at(2_100, TraceEvent::shed(0, 1, TraceCause::ShedCapacity));
        let rows = rep.timeseries(1_000);
        assert_eq!(rows.len(), 3);
        assert_eq!((rows[0].done, rows[0].aborts, rows[0].sheds), (2, 1, 0));
        assert_eq!(rows[0].p99_queue_wait_ns, 200);
        assert_eq!(rows[1].done, 1);
        assert_eq!(rows[1].p99_queue_wait_ns, 400);
        assert_eq!((rows[2].done, rows[2].sheds), (0, 1));
        assert_eq!(rows[2].p99_queue_wait_ns, 0, "empty interval reports 0");
        assert_eq!(rep.timeseries(10_000).len(), 1, "one bucket covers all");
        assert!(TraceReport::default().timeseries(1_000).is_empty());
    }

    #[test]
    fn cause_index_roundtrip_is_total() {
        for i in 0..ABORT_CAUSES {
            assert_eq!(TraceCause::abort_cause(i).abort_index(), Some(i));
        }
        for i in 0..SHED_CAUSES {
            assert_eq!(TraceCause::shed_cause(i).shed_index(), Some(i));
        }
        assert_eq!(TraceCause::None.abort_index(), None);
        assert_eq!(TraceCause::None.shed_index(), None);
        assert_eq!(TraceCause::ShedSlo.abort_index(), None);
        assert_eq!(TraceCause::Conflict.shed_index(), None);
    }
}
