//! The shared conflict-resolution engine layer.
//!
//! The execution substrates of this workspace — the TL2-style STM
//! (`tcp-stm`), the discrete-event HTM simulator (`tcp-htm-sim`) — and the
//! offline kernels — the single-conflict Monte-Carlo kernel
//! (`run_synthetic` in `tcp-workloads`, which is also ski rental, §4.2)
//! and the Corollary 1 and 2 kernels (`run_global`, `run_progress` in
//! `tcp-analysis`) — face the same three chores around every conflict:
//!
//! 1. **consult** the configured [`GracePolicy`] with a well-formed
//!    [`Conflict`] (abort cost inflated by §7 backoff, chain length
//!    observed or defaulted to 2) and **sanitize** the answer (a buggy
//!    policy returning NaN/∞/negative must degrade to an immediate
//!    resolution, and a cap may bound runaway grace periods);
//! 2. **account** for what happened in a thread-local tally that can be
//!    merged across threads/cores afterwards;
//! 3. **fan out** deterministic per-thread random streams from one master
//!    seed.
//!
//! [`ConflictArbiter`] owns the consultation loop and per-transaction
//! [`BackoffState`] for all of them. [`EngineStats`] is the one mergeable
//! tally of what ran (with [`ShardedStats`] for per-thread sharding plus
//! run-global counters), [`RegretTally`] the one tally of what it cost
//! against the offline optimum, and [`SeedFanout`] hands out independent
//! [`Xoshiro256StarStar`] substreams.

use rand::RngCore;

use crate::clock::Stamp;
use crate::conflict::{Conflict, ResolutionMode};
use crate::hist::LatencyHistogram;
use crate::policy::GracePolicy;
use crate::progress::BackoffState;
use crate::rng::Xoshiro256StarStar;

/// Number of buckets in the conflict-chain-length histogram (index = `k`,
/// saturating at the last bucket).
pub const CHAIN_HIST_LEN: usize = 17;

/// Why a transaction (or attempt) aborted — the union of the causes the
/// substrates distinguish.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AbortKind {
    /// Lost a conflict (the grace period expired against it).
    Conflict,
    /// Read-set validation failed (STM: a word changed under the snapshot).
    Validation,
    /// Broke a would-be waiting cycle (the HTM's cycle detector, §3.2(c)).
    CycleBreak,
    /// Transactional footprint exceeded the cache capacity.
    Capacity,
    /// Another transaction's requestor-wins resolution flagged this one.
    RemoteKill,
}

/// The unified, mergeable statistics tally of the engine layer.
///
/// One `EngineStats` describes one shard of work: a thread's transactions
/// (STM, server), or a simulated core's (HTM sim). Shards
/// [`merge`](Self::merge) into aggregate views; [`ShardedStats`] packages
/// the common per-thread layout. Cost against the offline optimum is
/// [`RegretTally`]'s job.
///
/// Time-like counters (`wait_cycles`, `wasted_cycles`, `total_latency`,
/// `cycles`) are unit-agnostic: the STM records nanoseconds, the simulator
/// records simulated cycles. Merging only makes sense between shards of
/// the same substrate.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EngineStats {
    /// Committed transactions.
    pub commits: u64,
    /// Aborted attempts, all causes together.
    pub aborts: u64,
    pub conflict_aborts: u64,
    pub validation_aborts: u64,
    pub cycle_aborts: u64,
    pub capacity_aborts: u64,
    pub remote_kills: u64,
    /// Times the slow-path fallback engaged.
    pub fallbacks: u64,
    /// Time spent waiting out grace periods (stalled behind a conflict).
    pub wait_cycles: u64,
    /// Transactional work discarded by aborts.
    pub wasted_cycles: u64,
    /// Start-of-first-attempt to commit, summed over transactions (the
    /// paper's Σ_T Γ(T, A), the inverse-throughput metric of §6).
    pub total_latency: u64,
    /// Conflicts detected (delayed or not).
    pub conflicts: u64,
    /// Conflicts that received a non-zero grace period.
    pub delayed_conflicts: u64,
    /// Conflicts where the receiver committed within its grace period.
    pub saved_by_delay: u64,
    /// Histogram of observed conflict chain lengths `k` (index = `k`,
    /// saturating at [`CHAIN_HIST_LEN`]` - 1`).
    pub chain_hist: [u64; CHAIN_HIST_LEN],
    /// Requests rejected by admission control (a bounded queue was full
    /// and the submitter shed instead of blocking), all causes together —
    /// [`slo_sheds`](Self::slo_sheds) counts the SLO-driven subset.
    pub sheds: u64,
    /// Requests shed by SLO-aware adaptive admission (the windowed p99
    /// queue wait exceeded the configured SLO); a subset of
    /// [`sheds`](Self::sheds).
    pub slo_sheds: u64,
    /// Requests shed because the home ring was full (or closed); a subset
    /// of [`sheds`](Self::sheds).
    pub capacity_sheds: u64,
    /// Malformed requests rejected before admission; a subset of
    /// [`sheds`](Self::sheds).
    pub invalid_sheds: u64,
    /// Envelopes this shard's executor stole from sibling rings and
    /// executed (work-stealing; 0 when stealing is disabled).
    pub steals: u64,
    /// Write-set-disjoint transaction groups published under a single
    /// clock bump (batch-aware group commit; 0 when grouping is disabled
    /// or every group was read-only).
    pub group_commits: u64,
    /// Same-key writes folded into an already-planned write slot during
    /// group commit (commutative increments coalescing): each writer
    /// beyond the first on an address counts one.
    pub coalesced_writes: u64,
    /// Transactions that entered the group-commit path but fell back to
    /// the per-transaction commit (speculation aborted, a foreign lock was
    /// met, or validation failed inside the group).
    pub group_fallbacks: u64,
    /// Read-only transactions served by the MVCC snapshot path (one per
    /// completed snapshot txn; also counted in `commits`).
    pub snapshot_reads: u64,
    /// Snapshot transactions restarted because a chain miss forced a
    /// fresh clock sample (restart ≠ abort: no work is discarded beyond
    /// the partial read set, and no arbiter is consulted).
    pub snapshot_restarts: u64,
    /// Snapshot reads that found every retained version of a word newer
    /// than the sampled clock (the per-cell cause of `snapshot_restarts`).
    pub chain_misses: u64,
    /// Grace-policy consultations: times a transaction met a foreign
    /// lock and asked the [`ConflictArbiter`] for a grace decision. The
    /// snapshot read path must keep this at zero.
    pub arbiter_consults: u64,
    /// Aborts incurred while serving *read-only* requests on the
    /// validated (non-snapshot) read path — the waste MVCC removes.
    pub read_aborts: u64,
    /// Times this shard's executor found no work anywhere — own ring and
    /// every sibling ring empty — and really parked (`park_timeout`, a
    /// syscall) before rescanning. An idle wait that ended while still
    /// spinning is not counted.
    pub idle_parks: u64,
    /// Deepest queue observed behind this shard's submissions. Merging
    /// takes the max, like `cycles`.
    pub queue_depth_max: u64,
    /// Run duration (simulated cycles / wall nanoseconds). Merging takes
    /// the max: shards of one run share a horizon, they don't extend it.
    pub cycles: u64,
    /// Per-commit latencies, log-bucketed ([`record_latency`](Self::record_latency)
    /// writes, [`latency_percentile`](Self::latency_percentile) reads). On the
    /// serving path this is the **sojourn time** (enqueue → response), which
    /// decomposes into [`queue_wait_hist`](Self::queue_wait_hist) +
    /// [`service_hist`](Self::service_hist).
    pub latency_hist: LatencyHistogram,
    /// Queue-wait histogram: time a request sat in a bounded queue before an
    /// executor popped it — the component of sojourn time that grace-period
    /// policies move under sustained load.
    pub queue_wait_hist: LatencyHistogram,
    /// Service histogram: pop → response, i.e. sojourn minus queue wait
    /// (includes every abort/retry of the transaction).
    pub service_hist: LatencyHistogram,
    /// Log-histogram of published group-commit sizes (members per clock
    /// bump); empty when grouping is disabled.
    pub group_batch_hist: LatencyHistogram,
    /// Width of one throughput-sample interval (same time unit as `cycles`);
    /// `0` disables interval sampling. Shards of one run must agree on the
    /// width for [`merge`](Self::merge) to make sense.
    pub interval_ns: u64,
    /// Commits per interval since run start (`interval_commits[i]` counts
    /// commits with `elapsed ∈ [i·interval_ns, (i+1)·interval_ns)`). Merging
    /// adds element-wise, padding the shorter run.
    pub interval_commits: Vec<u64>,
}

impl EngineStats {
    /// Fold another shard into this one.
    pub fn merge(&mut self, other: &EngineStats) {
        self.commits += other.commits;
        self.aborts += other.aborts;
        self.conflict_aborts += other.conflict_aborts;
        self.validation_aborts += other.validation_aborts;
        self.cycle_aborts += other.cycle_aborts;
        self.capacity_aborts += other.capacity_aborts;
        self.remote_kills += other.remote_kills;
        self.fallbacks += other.fallbacks;
        self.wait_cycles += other.wait_cycles;
        self.wasted_cycles += other.wasted_cycles;
        self.total_latency += other.total_latency;
        self.conflicts += other.conflicts;
        self.delayed_conflicts += other.delayed_conflicts;
        self.saved_by_delay += other.saved_by_delay;
        for (a, b) in self.chain_hist.iter_mut().zip(other.chain_hist.iter()) {
            *a += b;
        }
        self.sheds += other.sheds;
        self.slo_sheds += other.slo_sheds;
        self.capacity_sheds += other.capacity_sheds;
        self.invalid_sheds += other.invalid_sheds;
        self.steals += other.steals;
        self.group_commits += other.group_commits;
        self.coalesced_writes += other.coalesced_writes;
        self.group_fallbacks += other.group_fallbacks;
        self.snapshot_reads += other.snapshot_reads;
        self.snapshot_restarts += other.snapshot_restarts;
        self.chain_misses += other.chain_misses;
        self.arbiter_consults += other.arbiter_consults;
        self.read_aborts += other.read_aborts;
        self.idle_parks += other.idle_parks;
        self.queue_depth_max = self.queue_depth_max.max(other.queue_depth_max);
        self.cycles = self.cycles.max(other.cycles);
        self.latency_hist.merge(&other.latency_hist);
        self.queue_wait_hist.merge(&other.queue_wait_hist);
        self.service_hist.merge(&other.service_hist);
        self.group_batch_hist.merge(&other.group_batch_hist);
        if self.interval_ns == 0 {
            self.interval_ns = other.interval_ns;
        }
        if self.interval_commits.len() < other.interval_commits.len() {
            self.interval_commits
                .resize(other.interval_commits.len(), 0);
        }
        for (a, b) in self
            .interval_commits
            .iter_mut()
            .zip(other.interval_commits.iter())
        {
            *a += b;
        }
    }

    /// Record one abort of the given kind, discarding `wasted` time units
    /// of transactional work.
    pub fn record_abort(&mut self, kind: AbortKind, wasted: u64) {
        self.aborts += 1;
        self.wasted_cycles += wasted;
        match kind {
            AbortKind::Conflict => self.conflict_aborts += 1,
            AbortKind::Validation => self.validation_aborts += 1,
            AbortKind::CycleBreak => self.cycle_aborts += 1,
            AbortKind::Capacity => self.capacity_aborts += 1,
            AbortKind::RemoteKill => self.remote_kills += 1,
        }
    }

    /// Record an observed conflict chain of length `k`.
    pub fn record_chain(&mut self, k: usize) {
        self.chain_hist[k.min(CHAIN_HIST_LEN - 1)] += 1;
    }

    /// Committed transactions per time unit.
    pub fn throughput(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.commits as f64 / self.cycles as f64
        }
    }

    /// Ops/second at a nominal clock frequency (the paper reports ops/s on
    /// a 1 GHz simulated core).
    pub fn ops_per_second(&self, ghz: f64) -> f64 {
        self.throughput() * ghz * 1e9
    }

    /// Aborts per commit — the contention indicator.
    pub fn abort_ratio(&self) -> f64 {
        if self.commits == 0 {
            f64::INFINITY
        } else {
            self.aborts as f64 / self.commits as f64
        }
    }

    /// Record one commit latency (streaming: O(1), no sample kept).
    pub fn record_latency(&mut self, v: u64) {
        self.latency_hist.record(v);
    }

    /// [`record_latency`](Self::record_latency) under the name the repo
    /// benchmark's probe calls it by; nothing in the workspace uses it.
    #[doc(hidden)]
    pub fn record_latency_streaming(&mut self, v: u64) {
        self.record_latency(v);
    }

    /// Record the queue wait of one request (enqueue → pop), streaming.
    pub fn record_queue_wait(&mut self, v: u64) {
        self.queue_wait_hist.record(v);
    }

    /// Record one published commit group: `members` transactions went out
    /// under a single clock bump, `coalesced` of their writes folded into
    /// slots already planned by an earlier member.
    pub fn record_group_commit(&mut self, members: u64, coalesced: u64) {
        self.group_commits += 1;
        self.coalesced_writes += coalesced;
        self.group_batch_hist.record(members);
    }

    /// Record the service time of one request (pop → response), streaming.
    pub fn record_service(&mut self, v: u64) {
        self.service_hist.record(v);
    }

    /// Queue-wait percentile (`p ∈ [0, 100]`) from the streaming histogram;
    /// 0 when no queue waits were recorded.
    pub fn queue_wait_percentile(&self, p: f64) -> u64 {
        self.queue_wait_hist.percentile(p)
    }

    /// Service-time percentile (`p ∈ [0, 100]`) from the streaming
    /// histogram; 0 when no service times were recorded.
    pub fn service_percentile(&self, p: f64) -> u64 {
        self.service_hist.percentile(p)
    }

    /// Account one commit to its throughput-sample interval. `elapsed` is
    /// time since run start in the same unit as
    /// [`interval_ns`](Self::interval_ns); a no-op when sampling is
    /// disabled.
    pub fn record_interval_commit(&mut self, elapsed: u64) {
        if self.interval_ns == 0 {
            return;
        }
        let idx = (elapsed / self.interval_ns) as usize;
        if self.interval_commits.len() <= idx {
            self.interval_commits.resize(idx + 1, 0);
        }
        self.interval_commits[idx] += 1;
    }

    /// Per-interval throughput samples in commits per second, assuming
    /// `interval_ns` is in nanoseconds (the serving path's convention).
    /// Empty when interval sampling was disabled.
    pub fn throughput_samples(&self) -> Vec<f64> {
        if self.interval_ns == 0 {
            return Vec::new();
        }
        let secs = self.interval_ns as f64 / 1e9;
        self.interval_commits
            .iter()
            .map(|&c| c as f64 / secs)
            .collect()
    }

    /// Latency percentile over committed transactions (`p ∈ [0, 100]`),
    /// read from the streaming histogram: O(1) per recorded sample, no
    /// sorting, relative error ≤ 1/[`crate::hist::SUB_BUCKETS`] (≈ 3.2%;
    /// exact below [`crate::hist::LINEAR_BUCKETS`]). Returns 0 when no
    /// latencies were recorded.
    pub fn latency_percentile(&self, p: f64) -> u64 {
        self.latency_hist.percentile(p)
    }
}

/// Per-thread sharding of [`EngineStats`] plus run-global counters.
///
/// Substrates that run many threads/cores keep one shard per thread and
/// record run-wide observations (conflicts seen, chain lengths, latency
/// samples, the horizon) in [`global`](Self::global).
/// [`merged`](Self::merged) flattens everything into one [`EngineStats`]
/// snapshot; summed counters are read from it. Only `commits` and
/// `aborts` keep their own per-shard sums, which `throughput` and the
/// repo benchmark read without cloning the histograms.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ShardedStats {
    /// One tally per thread/core.
    pub per_thread: Vec<EngineStats>,
    /// Run-global counters not attributable to a single thread.
    pub global: EngineStats,
}

impl ShardedStats {
    pub fn new(threads: usize) -> Self {
        Self {
            per_thread: vec![EngineStats::default(); threads],
            global: EngineStats::default(),
        }
    }

    /// Flatten shards and global counters into one tally.
    pub fn merged(&self) -> EngineStats {
        let mut out = self.global.clone();
        for shard in &self.per_thread {
            out.merge(shard);
        }
        out
    }

    pub fn commits(&self) -> u64 {
        self.per_thread.iter().map(|c| c.commits).sum()
    }

    pub fn aborts(&self) -> u64 {
        self.per_thread.iter().map(|c| c.aborts).sum()
    }

    pub fn throughput(&self) -> f64 {
        if self.global.cycles == 0 {
            0.0
        } else {
            self.commits() as f64 / self.global.cycles as f64
        }
    }

    pub fn ops_per_second(&self, ghz: f64) -> f64 {
        self.throughput() * ghz * 1e9
    }

    pub fn abort_ratio(&self) -> f64 {
        let c = self.commits();
        if c == 0 {
            f64::INFINITY
        } else {
            self.aborts() as f64 / c as f64
        }
    }

    /// Record an abort against thread `shard`.
    pub fn record_abort(&mut self, shard: usize, kind: AbortKind, wasted: u64) {
        self.per_thread[shard].record_abort(kind, wasted);
    }

    /// Record an observed conflict chain (run-global).
    pub fn record_chain(&mut self, k: usize) {
        self.global.record_chain(k);
    }

    /// Latency percentile over every shard's streaming histogram plus the
    /// run-global one (executors record per-thread, clients run-global).
    pub fn latency_percentile(&self, p: f64) -> u64 {
        let mut h = self.global.latency_hist.clone();
        for t in &self.per_thread {
            h.merge(&t.latency_hist);
        }
        h.percentile(p)
    }

    /// Queue-wait percentile over every shard's streaming histogram.
    pub fn queue_wait_percentile(&self, p: f64) -> u64 {
        let mut h = self.global.queue_wait_hist.clone();
        for t in &self.per_thread {
            h.merge(&t.queue_wait_hist);
        }
        h.percentile(p)
    }
}

/// Online cost against the offline optimum, summed over conflicts — the
/// quantity of §4, and of Corollary 1 (§6) once summed over a run.
///
/// The offline kernels record one entry per conflict they resolve:
/// `run_synthetic` per Monte-Carlo trial (Figure 2, the theorem checks, ski
/// rental), `run_global` per conflict of the §6 model. Tallies of one
/// kernel [`merge`](Self::merge) like [`EngineStats`] shards.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RegretTally {
    /// Conflicts recorded.
    pub trials: u64,
    /// Recorded conflicts whose grace expired before the receiver
    /// committed (the skis were bought).
    pub aborts: u64,
    /// Σ online cost.
    pub total_cost: f64,
    /// Σ offline-optimal cost.
    pub total_opt: f64,
}

impl RegretTally {
    /// Record one conflict: online `cost` against the optimum `opt`, and
    /// whether it ended in an abort.
    pub fn record(&mut self, cost: f64, opt: f64, aborted: bool) {
        self.trials += 1;
        self.aborts += u64::from(aborted);
        self.total_cost += cost;
        self.total_opt += opt;
    }

    /// Fold another tally into this one.
    pub fn merge(&mut self, other: &RegretTally) {
        self.trials += other.trials;
        self.aborts += other.aborts;
        self.total_cost += other.total_cost;
        self.total_opt += other.total_opt;
    }

    /// Mean online cost per conflict.
    pub fn mean_cost(&self) -> f64 {
        self.total_cost / self.trials as f64
    }

    /// Mean offline-optimal cost per conflict.
    pub fn mean_opt(&self) -> f64 {
        self.total_opt / self.trials as f64
    }

    /// Ratio of means `E[cost]/E[OPT]` — the throughput-style metric.
    pub fn cost_ratio(&self) -> f64 {
        self.total_cost / self.total_opt
    }

    /// Fraction of conflicts that ended in an abort.
    pub fn abort_rate(&self) -> f64 {
        self.aborts as f64 / self.trials as f64
    }
}

/// A windowed, concurrency-safe p99 queue-wait estimator — the sensor of
/// SLO-aware adaptive admission.
///
/// Executors [`record_at`](Self::record_at) the queue wait of every request they
/// pop; admission control reads [`p99`](Self::p99) on every submission.
/// Internally the estimator keeps one window's samples in an atomic
/// log-bucketed count array (same bucket geometry as
/// [`LatencyHistogram`], ≤ ~3.2% relative error) and, when the window
/// elapses, folds them into a cached p99 estimate readable with a single
/// atomic load — recording is O(1), reading is O(1), and neither side
/// takes a lock.
///
/// Rotation is driven from **both** sides: recorders rotate when they
/// notice the window has elapsed, and readers do too — so when shedding
/// has starved the executors of samples entirely, the estimate still
/// decays to 0 after one quiet window and admission reopens (no
/// shed-forever lockup).
///
/// Concurrent rotation is resolved by a CAS on the window-start word;
/// samples recorded while the winner sweeps the buckets land in whichever
/// window their bucket is swept into. The estimator trades that boundary
/// fuzz for lock-freedom — admission hysteresis smooths it out.
pub struct QueueWaitEstimator {
    /// Window width, nanoseconds.
    window_ns: u64,
    /// The same width in ticks, converted at first use: a conversion may
    /// wait out the clock's calibration, which construction must not.
    window_ticks: std::sync::OnceLock<u64>,
    /// Tick-clock epoch of `window_start`.
    created: Stamp,
    /// Ticks (since `created`) at which the current window started.
    window_start: std::sync::atomic::AtomicU64,
    /// Current window's sample counts, [`crate::hist`] bucket geometry.
    counts: Box<[std::sync::atomic::AtomicU64]>,
    /// p99 of the last *completed* window (0 before the first rotation and
    /// after an empty window).
    cached_p99: std::sync::atomic::AtomicU64,
    /// Samples folded into `cached_p99` at the last rotation.
    last_window_samples: std::sync::atomic::AtomicU64,
}

/// Default estimator window: long enough to hold a stable p99 at serving
/// rates, short enough that admission reacts within a few milliseconds.
pub const DEFAULT_QUEUE_WAIT_WINDOW_NS: u64 = 5_000_000;

impl Default for QueueWaitEstimator {
    fn default() -> Self {
        Self::new(DEFAULT_QUEUE_WAIT_WINDOW_NS)
    }
}

impl std::fmt::Debug for QueueWaitEstimator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueueWaitEstimator")
            .field("window_ns", &self.window_ns)
            .field("p99", &self.p99())
            .finish()
    }
}

impl QueueWaitEstimator {
    pub fn new(window_ns: u64) -> Self {
        assert!(window_ns > 0, "a zero-width window never completes");
        use std::sync::atomic::AtomicU64;
        crate::clock::anchor();
        Self {
            window_ns,
            window_ticks: std::sync::OnceLock::new(),
            created: Stamp::now(),
            window_start: AtomicU64::new(0),
            counts: (0..crate::hist::NUM_BUCKETS)
                .map(|_| AtomicU64::new(0))
                .collect(),
            cached_p99: AtomicU64::new(0),
            last_window_samples: AtomicU64::new(0),
        }
    }

    /// Record one queue-wait sample (nanoseconds). O(1), lock-free, and
    /// reads no clock: `now` is the reading the caller already holds (the
    /// executor's completion stamp), used to close the window when due.
    pub fn record_at(&self, v: u64, now: Stamp) {
        use std::sync::atomic::Ordering;
        self.counts[crate::hist::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.maybe_rotate(now);
    }

    /// The p99 queue wait of the last completed window, nanoseconds
    /// (bucket upper edge; 0 when that window held no samples). Also
    /// advances the window if it has elapsed, so a traffic drought decays
    /// the estimate instead of freezing it.
    pub fn p99(&self) -> u64 {
        self.maybe_rotate(Stamp::now());
        self.cached_p99.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Samples folded into the current [`p99`](Self::p99) estimate.
    pub fn last_window_samples(&self) -> u64 {
        self.last_window_samples
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Close the window if it has elapsed: sweep the bucket counts (one
    /// atomic swap each), fold them into `cached_p99`, and start the next
    /// window. Exactly one thread wins the CAS per rotation.
    fn maybe_rotate(&self, now: Stamp) {
        use std::sync::atomic::Ordering;
        let now = now.ticks_since(self.created);
        let start = self.window_start.load(Ordering::Relaxed);
        let window = *self
            .window_ticks
            .get_or_init(|| crate::clock::ns_to_ticks(self.window_ns as f64));
        // Saturating: a stamp taken just before another thread rotated
        // reads as inside the new window, not as a wrapped huge age.
        if now.saturating_sub(start) < window {
            return;
        }
        if self
            .window_start
            .compare_exchange(start, now, Ordering::AcqRel, Ordering::Relaxed)
            .is_err()
        {
            return; // another thread is rotating
        }
        let mut total = 0u64;
        let mut swept = [0u64; crate::hist::NUM_BUCKETS];
        for (i, c) in self.counts.iter().enumerate() {
            let n = c.swap(0, Ordering::Relaxed);
            swept[i] = n;
            total += n;
        }
        let p99 = if total == 0 {
            0
        } else {
            // Nearest-rank p99 over the swept window, reported as the
            // holding bucket's upper edge (same convention as the
            // LatencyHistogram percentile path).
            let target = (((total - 1) as f64 * 0.99).round() as u64 + 1).clamp(1, total);
            let mut cum = 0u64;
            let mut out = 0u64;
            for (idx, &n) in swept.iter().enumerate() {
                cum += n;
                if cum >= target {
                    out = crate::hist::bucket_upper(idx);
                    break;
                }
            }
            out
        };
        self.cached_p99.store(p99, Ordering::Relaxed);
        self.last_window_samples.store(total, Ordering::Relaxed);
    }
}

/// Deterministic per-thread seed fan-out.
///
/// Wraps a master [`Xoshiro256StarStar`] and hands out statistically
/// independent substreams (2^128 steps apart) in a fixed order, so a run
/// is bit-reproducible from one `u64` seed no matter how many threads it
/// fans out to.
#[derive(Clone, Debug)]
pub struct SeedFanout {
    master: Xoshiro256StarStar,
}

impl SeedFanout {
    pub fn new(seed: u64) -> Self {
        Self {
            master: Xoshiro256StarStar::new(seed),
        }
    }

    /// The next independent substream (advances the fan-out).
    pub fn stream(&mut self) -> Xoshiro256StarStar {
        self.master.split()
    }

    /// `n` independent substreams for threads `0..n`.
    pub fn streams(seed: u64, n: usize) -> Vec<Xoshiro256StarStar> {
        let mut fan = Self::new(seed);
        (0..n).map(|_| fan.stream()).collect()
    }
}

/// The grace period chosen for one conflict, plus the conflict shape the
/// policy was consulted with (useful for logging and cost accounting).
#[derive(Clone, Copy, Debug)]
pub struct GraceDecision {
    /// Sanitized grace period: finite, `≥ 0`, and within the cap.
    pub grace: f64,
    /// The (backoff-inflated) conflict the policy saw.
    pub conflict: Conflict,
}

/// Owns one thread's policy-consultation loop: §7 abort-cost inflation,
/// conflict construction, grace sampling, and sanitization of the
/// policy's answer.
///
/// Keep one arbiter per thread/core (it carries that thread's
/// [`BackoffState`]); call [`on_abort`](Self::on_abort) /
/// [`on_commit`](Self::on_commit) at transaction boundaries and
/// [`decide`](Self::decide) at each conflict. When the *costed* side of a
/// conflict is a different thread (requestor-wins resolution charges the
/// receiver), combine the receiver arbiter's
/// [`effective_cost`](Self::effective_cost) with the requestor arbiter's
/// [`sample`](Self::sample), which is exactly what the HTM simulator does.
#[derive(Clone)]
pub struct ConflictArbiter<P> {
    policy: P,
    /// §7 multiplicative abort-cost inflation state (public: substrates
    /// with their own retry accounting may inspect it).
    pub backoff: BackoffState,
    backoff_enabled: bool,
    /// Cap on the sampled grace as a multiple of the effective abort cost
    /// (`f64::INFINITY` = uncapped).
    grace_cap_factor: f64,
}

impl<P: GracePolicy> std::fmt::Debug for ConflictArbiter<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConflictArbiter")
            .field("policy", &self.policy.name())
            .field("backoff", &self.backoff)
            .field("backoff_enabled", &self.backoff_enabled)
            .field("grace_cap_factor", &self.grace_cap_factor)
            .finish()
    }
}

impl<P: GracePolicy> ConflictArbiter<P> {
    /// An arbiter with backoff enabled and no grace cap — the STM default.
    pub fn new(policy: P) -> Self {
        Self {
            policy,
            backoff: BackoffState::default(),
            backoff_enabled: true,
            grace_cap_factor: f64::INFINITY,
        }
    }

    /// Enable/disable §7 abort-cost inflation (ablation knob).
    pub fn with_backoff(mut self, enabled: bool) -> Self {
        self.backoff_enabled = enabled;
        self
    }

    /// Bound any single grace period to `factor ×` the effective abort
    /// cost (defensive: the optimal policies never exceed `B/(k−1)`).
    pub fn with_grace_cap(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "grace cap must be positive");
        self.grace_cap_factor = factor;
        self
    }

    /// The wrapped policy.
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Which side aborts when the grace expires, for conflicts of shape `c`.
    pub fn mode(&self, c: &Conflict) -> ResolutionMode {
        self.policy.mode(c)
    }

    /// Record a commit: resets the abort-cost inflation.
    pub fn on_commit(&mut self) {
        self.backoff.reset();
    }

    /// Record an abort: doubles (by default) the reported abort cost.
    pub fn on_abort(&mut self) {
        self.backoff.bump();
    }

    /// The abort cost this thread reports for a conflict, after backoff
    /// inflation: `base × factor^attempts` (or `base` when backoff is
    /// disabled). `base` is elapsed running time plus fixed cleanup.
    pub fn effective_cost(&self, base: f64) -> f64 {
        if self.backoff_enabled {
            self.backoff.effective_cost(base)
        } else {
            base
        }
    }

    /// Consult the policy for a conflict whose (already inflated) abort
    /// cost is `cost` and chain length is `chain`, sanitizing the answer:
    /// non-finite grace degrades to 0 (immediate resolution), negatives
    /// clamp to 0, and the cap bounds the top.
    pub fn sample(&self, cost: f64, chain: usize, rng: &mut dyn RngCore) -> GraceDecision {
        let conflict = Conflict::chain(cost.max(1.0), chain);
        let raw = self.policy.grace(&conflict, rng);
        let cap = self.grace_cap_factor * conflict.abort_cost;
        let grace = if raw.is_finite() {
            raw.clamp(0.0, cap)
        } else {
            0.0
        };
        GraceDecision { grace, conflict }
    }

    /// The full same-thread consultation: inflate `base` by this thread's
    /// backoff, then [`sample`](Self::sample).
    pub fn decide(&self, base: f64, chain: usize, rng: &mut dyn RngCore) -> GraceDecision {
        self.sample(self.effective_cost(base), chain, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{DetRw, NoDelay};
    use crate::randomized::RandRw;

    #[test]
    fn stats_merge_sums_and_saturates() {
        let mut a = EngineStats {
            commits: 30,
            cycles: 1000,
            ..Default::default()
        };
        a.record_abort(AbortKind::Conflict, 100);
        a.record_chain(2);
        let mut b = EngineStats {
            commits: 20,
            cycles: 1000,
            ..Default::default()
        };
        b.record_abort(AbortKind::Capacity, 50);
        b.record_abort(AbortKind::CycleBreak, 25);
        b.record_chain(2);
        b.record_chain(40);
        a.merge(&b);
        assert_eq!(a.commits, 50);
        assert_eq!(a.aborts, 3);
        assert_eq!(
            (a.conflict_aborts, a.capacity_aborts, a.cycle_aborts),
            (1, 1, 1)
        );
        assert_eq!(a.wasted_cycles, 175);
        assert_eq!(a.chain_hist[2], 2);
        assert_eq!(a.chain_hist[CHAIN_HIST_LEN - 1], 1);
        assert_eq!(a.cycles, 1000, "cycles take the max, not the sum");
        assert!((a.throughput() - 0.05).abs() < 1e-12);
        assert!((a.ops_per_second(1.0) - 5e7).abs() < 1.0);
    }

    #[test]
    fn abort_ratio_and_zero_guards() {
        let mut s = EngineStats::default();
        assert_eq!(s.throughput(), 0.0);
        assert!(s.abort_ratio().is_infinite());
        s.commits = 50;
        s.aborts = 10;
        s.cycles = 1000;
        assert!((s.abort_ratio() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn trial_accounting_matches_rental_semantics() {
        let mut s = RegretTally::default();
        s.record(150.0, 100.0, true);
        s.record(90.0, 100.0, false);
        assert_eq!((s.trials, s.aborts), (2, 1));
        assert!((s.mean_cost() - 120.0).abs() < 1e-12);
        assert!((s.mean_opt() - 100.0).abs() < 1e-12);
        assert!((s.cost_ratio() - 1.2).abs() < 1e-12);
        assert!((s.abort_rate() - 0.5).abs() < 1e-12);
        let mut merged = RegretTally::default();
        merged.merge(&s);
        merged.merge(&s);
        assert_eq!((merged.trials, merged.aborts), (4, 2));
        assert_eq!(merged.cost_ratio(), s.cost_ratio());
    }

    #[test]
    fn latency_percentiles() {
        let mut s = EngineStats::default();
        for v in (1..=100u64).rev() {
            s.record_latency(v);
        }
        // Exact in the linear region, upper-edge with bounded error above
        // it, clamped to the observed max.
        assert_eq!(s.latency_percentile(0.0), 1);
        assert_eq!(s.latency_percentile(50.0), 51);
        assert_eq!(s.latency_percentile(100.0), 100);
        let empty = EngineStats::default();
        assert_eq!(empty.latency_percentile(99.0), 0);
    }

    #[test]
    fn queue_wait_and_service_histograms_merge_independently() {
        let mut a = EngineStats::default();
        a.record_queue_wait(10);
        a.record_queue_wait(30);
        a.record_service(5);
        a.record_latency(35);
        let mut b = EngineStats::default();
        b.record_queue_wait(50);
        b.record_service(7);
        a.merge(&b);
        assert_eq!(a.queue_wait_hist.count(), 3);
        assert_eq!(a.queue_wait_percentile(100.0), 50);
        assert_eq!(a.queue_wait_percentile(0.0), 10);
        assert_eq!(a.service_hist.count(), 2);
        assert_eq!(a.service_percentile(100.0), 7);
        // The sojourn histogram is untouched by queue-wait/service records.
        assert_eq!(a.latency_hist.count(), 1);
        assert_eq!(EngineStats::default().queue_wait_percentile(50.0), 0);
        assert_eq!(EngineStats::default().service_percentile(50.0), 0);
    }

    #[test]
    fn interval_commits_bucket_and_merge_elementwise() {
        let mut a = EngineStats {
            interval_ns: 100,
            ..Default::default()
        };
        a.record_interval_commit(0); // interval 0
        a.record_interval_commit(99); // interval 0
        a.record_interval_commit(250); // interval 2
        assert_eq!(a.interval_commits, vec![2, 0, 1]);
        // A shard that ran longer pads the shorter one on merge.
        let mut b = EngineStats {
            interval_ns: 100,
            ..Default::default()
        };
        b.record_interval_commit(50);
        b.record_interval_commit(350); // interval 3
        a.merge(&b);
        assert_eq!(a.interval_commits, vec![3, 0, 1, 1]);
        // 100 ns intervals → counts × 1e7 per second.
        let samples = a.throughput_samples();
        assert_eq!(samples.len(), 4);
        assert!((samples[0] - 3e7).abs() < 1.0);
        // Disabled sampling records nothing and reports nothing.
        let mut off = EngineStats::default();
        off.record_interval_commit(123);
        assert!(off.interval_commits.is_empty());
        assert!(off.throughput_samples().is_empty());
        // Merging into a disabled tally adopts the other's interval width.
        off.merge(&a);
        assert_eq!(off.interval_ns, 100);
        assert_eq!(off.interval_commits, vec![3, 0, 1, 1]);
    }

    #[test]
    fn sharded_queue_wait_percentile_spans_shards() {
        let mut s = ShardedStats::new(2);
        s.per_thread[0].record_queue_wait(10);
        s.per_thread[1].record_queue_wait(40);
        s.global.record_queue_wait(20);
        assert_eq!(s.queue_wait_percentile(100.0), 40);
        assert_eq!(s.queue_wait_percentile(0.0), 10);
        // Per-thread latency records are visible through the sharded view.
        s.per_thread[0].record_latency(7);
        assert_eq!(s.latency_percentile(100.0), 7);
    }

    #[test]
    fn shed_and_depth_counters_merge() {
        let mut a = EngineStats {
            sheds: 3,
            queue_depth_max: 7,
            ..Default::default()
        };
        let b = EngineStats {
            sheds: 2,
            queue_depth_max: 5,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.sheds, 5, "sheds sum");
        assert_eq!(a.queue_depth_max, 7, "queue depth takes the max");
        let mut sh = ShardedStats::new(2);
        sh.per_thread[0].sheds = 4;
        sh.global.sheds = 1;
        assert_eq!(sh.merged().sheds, 5);
    }

    #[test]
    fn steal_and_slo_counters_merge_as_sums() {
        let mut a = EngineStats {
            steals: 3,
            slo_sheds: 2,
            idle_parks: 10,
            ..Default::default()
        };
        let b = EngineStats {
            steals: 4,
            slo_sheds: 1,
            idle_parks: 5,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!((a.steals, a.slo_sheds, a.idle_parks), (7, 3, 15));
        let mut sh = ShardedStats::new(2);
        sh.per_thread[0].steals = 6;
        sh.per_thread[1].steals = 1;
        sh.per_thread[1].slo_sheds = 2;
        sh.global.slo_sheds = 3;
        assert_eq!(sh.merged().steals, 7);
        assert_eq!(sh.merged().slo_sheds, 5);
    }

    #[test]
    fn snapshot_counters_merge_as_sums() {
        let mut a = EngineStats {
            snapshot_reads: 5,
            snapshot_restarts: 1,
            chain_misses: 2,
            arbiter_consults: 7,
            read_aborts: 3,
            ..Default::default()
        };
        let b = EngineStats {
            snapshot_reads: 4,
            snapshot_restarts: 2,
            chain_misses: 1,
            arbiter_consults: 1,
            read_aborts: 1,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(
            (
                a.snapshot_reads,
                a.snapshot_restarts,
                a.chain_misses,
                a.arbiter_consults,
                a.read_aborts
            ),
            (9, 3, 3, 8, 4)
        );
        let mut sh = ShardedStats::new(2);
        sh.per_thread[0].snapshot_reads = 6;
        sh.per_thread[1].snapshot_reads = 2;
        sh.per_thread[0].arbiter_consults = 3;
        sh.per_thread[1].read_aborts = 5;
        sh.per_thread[1].snapshot_restarts = 1;
        sh.per_thread[0].chain_misses = 4;
        let m = sh.merged();
        assert_eq!(
            (
                m.snapshot_reads,
                m.arbiter_consults,
                m.read_aborts,
                m.snapshot_restarts,
                m.chain_misses
            ),
            (8, 3, 5, 1, 4)
        );
    }

    #[test]
    fn group_commit_counters_record_and_merge() {
        let mut a = EngineStats::default();
        a.record_group_commit(4, 1); // 4 members, 1 fold
        a.record_group_commit(2, 0);
        a.group_fallbacks = 3;
        assert_eq!(a.group_commits, 2);
        assert_eq!(a.coalesced_writes, 1);
        assert_eq!(a.group_batch_hist.count(), 2);
        assert_eq!(a.group_batch_hist.max(), 4, "batch sizes land in the hist");
        let mut b = EngineStats::default();
        b.record_group_commit(8, 5);
        b.group_fallbacks = 1;
        a.merge(&b);
        assert_eq!(
            (a.group_commits, a.coalesced_writes, a.group_fallbacks),
            (3, 6, 4)
        );
        assert_eq!(a.group_batch_hist.count(), 3);
        let mut sh = ShardedStats::new(2);
        sh.per_thread[0].record_group_commit(3, 2);
        sh.per_thread[1].record_group_commit(5, 0);
        sh.per_thread[1].group_fallbacks = 7;
        let m = sh.merged();
        assert_eq!(
            (m.group_commits, m.coalesced_writes, m.group_fallbacks),
            (2, 2, 7)
        );
        assert_eq!(m.group_batch_hist.count(), 2);
    }

    #[test]
    fn queue_wait_estimator_reports_windowed_p99() {
        // A 1ns window: every record/read boundary rotates, so the cached
        // estimate always reflects the samples recorded since the last
        // call. 100 samples 1..=100 → p99 = 100 (nearest rank), within the
        // histogram's bucket error.
        let est = QueueWaitEstimator::new(1);
        assert_eq!(est.p99(), 0, "no samples yet");
        for v in 1..=100u64 {
            est.counts[crate::hist::bucket_index(v)]
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
        let p = est.p99();
        // Nearest rank round(0.99 × 99) + 1 = 99 — matches the
        // LatencyHistogram percentile convention, exact in the linear
        // region.
        assert_eq!(p, 99, "p99 of 1..=100");
        assert_eq!(est.last_window_samples(), 100);
        // The next window holds nothing: the estimate decays to 0 instead
        // of freezing (a shed-starved estimator must reopen admission).
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert_eq!(est.p99(), 0, "empty window decays the estimate");
    }

    #[test]
    fn queue_wait_estimator_holds_estimate_within_a_window() {
        // A wide window: records accumulate without rotating, and the
        // cached estimate stays at its pre-window value until the window
        // elapses.
        let est = QueueWaitEstimator::new(u64::MAX / 2);
        let now = Stamp::now();
        est.record_at(50, now);
        est.record_at(5_000, now);
        assert_eq!(est.p99(), 0, "window still open: cache unchanged");
        assert_eq!(est.last_window_samples(), 0);
    }

    #[test]
    fn queue_wait_estimator_is_concurrency_safe() {
        let est = std::sync::Arc::new(QueueWaitEstimator::new(100_000));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let est = std::sync::Arc::clone(&est);
                s.spawn(move || {
                    for i in 0..20_000u64 {
                        est.record_at(1_000 + (t * 7 + i) % 64, Stamp::now());
                    }
                });
            }
        });
        // After the writers finish, one more elapsed window folds the
        // remainder; the estimate must land in the recorded range.
        std::thread::sleep(std::time::Duration::from_millis(1));
        let p = est.p99();
        assert!(p <= 2_000, "p99 {p} far above the recorded range");
    }

    #[test]
    fn sharded_aggregates_and_merges() {
        let mut s = ShardedStats::new(2);
        s.per_thread[0].commits = 30;
        s.per_thread[1].commits = 20;
        s.record_abort(0, AbortKind::Conflict, 10);
        s.record_chain(3);
        s.global.cycles = 1000;
        assert_eq!(s.commits(), 50);
        assert_eq!(s.aborts(), 1);
        assert!((s.throughput() - 0.05).abs() < 1e-12);
        let merged = s.merged();
        assert_eq!(merged.commits, 50);
        assert_eq!(merged.chain_hist[3], 1);
        assert_eq!(merged.cycles, 1000);
        assert_eq!(merged.wasted_cycles, 10);
    }

    #[test]
    fn seed_fanout_is_deterministic_and_disjoint() {
        let mut a = SeedFanout::new(42);
        let mut b = SeedFanout::new(42);
        for _ in 0..4 {
            let (mut x, mut y) = (a.stream(), b.stream());
            for _ in 0..100 {
                assert_eq!(x.next_u64(), y.next_u64());
            }
        }
        let streams = SeedFanout::streams(7, 3);
        let mut outs: Vec<u64> = streams.into_iter().map(|mut s| s.next_u64()).collect();
        outs.dedup();
        assert_eq!(outs.len(), 3, "substreams must differ");
    }

    #[test]
    fn arbiter_inflates_and_sanitizes() {
        let mut rng = Xoshiro256StarStar::new(1);
        let mut arb = ConflictArbiter::new(DetRw);
        // DET waits B/(k-1): base 100, k=2 → 100.
        assert_eq!(arb.decide(100.0, 2, &mut rng).grace, 100.0);
        // One abort doubles the reported cost.
        arb.on_abort();
        assert_eq!(arb.decide(100.0, 2, &mut rng).grace, 200.0);
        // Commit resets.
        arb.on_commit();
        assert_eq!(arb.decide(100.0, 2, &mut rng).grace, 100.0);
        // Disabled backoff ignores bumps.
        let mut arb = ConflictArbiter::new(DetRw).with_backoff(false);
        arb.on_abort();
        assert_eq!(arb.decide(100.0, 2, &mut rng).grace, 100.0);
    }

    #[test]
    fn arbiter_caps_grace() {
        let mut rng = Xoshiro256StarStar::new(1);
        // DetRa-like behaviour via DetRw at k=2 gives grace = B; cap at
        // 0.5×B must clamp it.
        let arb = ConflictArbiter::new(DetRw).with_grace_cap(0.5);
        let d = arb.decide(100.0, 2, &mut rng);
        assert_eq!(d.grace, 50.0);
        assert_eq!(d.conflict.abort_cost, 100.0);
    }

    #[test]
    fn arbiter_degrades_non_finite_grace_to_zero() {
        /// A hostile policy returning NaN.
        #[derive(Clone, Copy)]
        struct NanPolicy;
        impl GracePolicy for NanPolicy {
            fn mode(&self, _c: &Conflict) -> ResolutionMode {
                ResolutionMode::RequestorWins
            }
            fn grace(&self, _c: &Conflict, _rng: &mut dyn RngCore) -> f64 {
                f64::NAN
            }
            fn name(&self) -> String {
                "NAN".into()
            }
        }
        let mut rng = Xoshiro256StarStar::new(1);
        let arb = ConflictArbiter::new(NanPolicy);
        assert_eq!(arb.decide(100.0, 2, &mut rng).grace, 0.0);
    }

    #[test]
    fn arbiter_split_consultation_matches_decide() {
        // The two-phase form (receiver cost, requestor sampling) equals
        // decide() when both sides are the same thread.
        let mut rng1 = Xoshiro256StarStar::new(9);
        let mut rng2 = Xoshiro256StarStar::new(9);
        let arb = ConflictArbiter::new(RandRw);
        let a = arb.decide(250.0, 3, &mut rng1).grace;
        let b = arb.sample(arb.effective_cost(250.0), 3, &mut rng2).grace;
        assert_eq!(a, b);
    }

    #[test]
    fn arbiter_small_cost_floors_at_one() {
        let mut rng = Xoshiro256StarStar::new(1);
        let arb = ConflictArbiter::new(NoDelay::requestor_wins());
        // Zero/negative base must not panic Conflict::chain.
        let d = arb.decide(0.0, 2, &mut rng);
        assert_eq!(d.conflict.abort_cost, 1.0);
        assert_eq!(d.grace, 0.0);
    }
}
