//! Work-stealing batch executors — the back half of the request path
//! (client → router → shard ring → **batch executor** → STM).
//!
//! One executor per shard drains its bounded lock-free ring in batches
//! (up to `batch_max` envelopes per pop), executing every request as an
//! STM transaction through one long-lived
//! [`TxCtx`](tcp_stm::runtime::TxCtx). Batching amortizes the queue's
//! park/unpark handshake, the claim CAS (one `head` write claims the whole
//! batch, [`ShardQueue::try_pop_batch`]), the pop-side timestamp read,
//! and — because the context recycles its read/write-set allocations — the
//! per-transaction setup across the batch. It also overlaps the reply
//! hand-off with the batch: right after every non-empty claim (own ring or
//! stolen) the executor prefetches each envelope's reply-cell state word
//! ([`ReplyCell::prefetch`](crate::queue::ReplyCell::prefetch)), so up to
//! `batch_max` cross-core line transfers run while the batch executes
//! rather than one at a time inside each `put`.
//!
//! With **work stealing** enabled (`ExecutorConfig::steal`), an executor
//! whose own ring is empty scans its sibling rings (rotating order,
//! starting at the next shard) and claims a batch through the ring's
//! steal-safe consumer protocol ([`ShardQueue::try_pop_batch`]). Stolen
//! transactions execute on the *stealer's* STM context against the shared
//! heap, so the conflicts stealing can introduce — two executors touching
//! the same hot key — route through the same
//! [`ConflictArbiter`](tcp_core::engine::ConflictArbiter) wait/abort
//! machinery as every other conflict; placement changes, policy does not.
//! When nothing is claimable anywhere, the executor waits briefly on its
//! own ring ([`ShardQueue::park_consumer_timeout`]: spin for the wake
//! cost, then park) and rescans, because a backlog appearing on a sibling
//! ring never unparks it directly. Steals and idle parks are counted per
//! shard (`EngineStats::steals`, `EngineStats::idle_parks`);
//! `idle_parks` counts *real* parks only — a wait that a push ended while
//! the executor was still spinning cost nobody a park/unpark and is not
//! one.
//!
//! The executor is also where latency is measured and decomposed:
//!
//! * **queue wait** = start-of-service − enqueue time (ring wait plus any
//!   head-of-line blocking behind batch predecessors),
//! * **service** = response − start-of-service (the request's own
//!   execution, all aborts/retries included),
//! * **sojourn** = queue wait + service, the end-to-end quantity whose
//!   tail percentiles the policy comparison reports.
//!
//! All three, and the throughput-interval bucket, are differences of
//! [`Stamp`]s on the one tick clock (`tcp_core::clock`): the envelope's
//! admission stamp from the client thread, one stamp per batch pop, and
//! one completion stamp per envelope — no `Instant` read or `Duration`
//! arithmetic per envelope.
//!
//! Each envelope's queue wait is additionally fed to the *source ring's*
//! [`QueueWaitEstimator`](tcp_core::engine::QueueWaitEstimator), the
//! sensor behind SLO-aware adaptive admission in the router.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tcp_core::clock::Stamp;
use tcp_core::engine::EngineStats;
use tcp_core::policy::GracePolicy;
use tcp_core::rng::Xoshiro256StarStar;
use tcp_core::trace::{Trace, TraceKind};
use tcp_stm::runtime::{Abort, Addr, GroupCommit, MemberOutcome, PreparedTx, Stm, Tx, TxCtx};

use crate::client::spin_ns;
use crate::protocol::{Key, Request, Response};
use crate::queue::{Envelope, ShardQueue};

/// Shortest idle park of a work-stealing executor between steal scans —
/// the first wait after running out of work, so a hot sibling's backlog
/// is picked up promptly.
const IDLE_PARK_MIN: Duration = Duration::from_micros(50);
/// Longest idle park: consecutive empty scans double the park up to this
/// cap, so a genuinely idle shard costs ~600 wakeups/s instead of 20k —
/// on a single-core host that scheduler churn is throughput taken
/// straight from the busy executors. A push to the own ring still
/// unparks immediately; only the *sibling*-backlog noticing latency is
/// bounded by this cap.
const IDLE_PARK_MAX: Duration = Duration::from_micros(1_600);

/// Everything one shard executor needs beyond its queue.
pub struct ExecutorConfig {
    /// Shard index = STM thread id of this executor's context, and the
    /// index of its own ring in the queue slice.
    pub shard: usize,
    /// Most envelopes popped per batch (≥ 1), own or stolen.
    pub batch_max: usize,
    /// In-transaction compute per request, nanoseconds.
    pub work_ns: u64,
    /// Throughput-sample interval width, nanoseconds (0 = disabled).
    pub stats_interval_ns: u64,
    /// Run epoch: interval samples bucket `now − run_start`.
    pub run_start: Instant,
    /// Steal batches from sibling rings when the own ring is empty.
    pub steal: bool,
    /// Only attempt a steal when the deepest sibling ring holds at least
    /// this many envelopes. `0` keeps the always-scan behavior; a small
    /// threshold recovers the idle-park/locality cost of speculative
    /// steal scans on hosts where siblings are rarely backlogged.
    pub steal_min_depth: usize,
    /// Commit popped batches as write-set-disjoint groups under a single
    /// clock bump (see [`GroupCommit`]); members that conflict fall back
    /// to the per-transaction path.
    pub group_commit: bool,
    /// Serve read-only requests (`Get`/`GetRange`/`GetMany`) through the
    /// MVCC snapshot fast path: one clock sample, version-chain reads, no
    /// locks, no validation, no arbiter. Off routes them through the
    /// classic validated read path.
    pub snapshot_reads: bool,
    /// Lifecycle trace sink shared by the run, when tracing is enabled.
    /// `None` keeps every emission point in the executor and the STM
    /// context a single never-taken branch.
    pub trace: Option<Arc<Trace>>,
}

/// Drain the shard's ring (`queues[cfg.shard]`) to exhaustion, executing
/// every request on `stm` under `policy`; with `cfg.steal`, also help
/// drain sibling rings whenever the own ring is empty. Returns the
/// shard's tally: commits/aborts from the STM, queue-wait + service +
/// sojourn histograms, per-interval throughput samples, and the
/// steal/idle counters. The executor exits when its own ring — and, when
/// stealing, *every* ring — is closed and drained.
pub fn run_executor<P: GracePolicy>(
    stm: &Stm,
    policy: P,
    rng: Xoshiro256StarStar,
    queues: &[Arc<ShardQueue>],
    cfg: &ExecutorConfig,
) -> EngineStats {
    let mut ctx = TxCtx::new(stm, cfg.shard, policy, rng);
    ctx.stats.interval_ns = cfg.stats_interval_ns;
    if let Some(t) = &cfg.trace {
        ctx.set_trace(Arc::clone(t));
    }
    let own = &queues[cfg.shard];
    let heap = ctx.heap_len();
    let mut batch = Vec::with_capacity(cfg.batch_max);
    let mut idle_park = IDLE_PARK_MIN;
    // Group-commit machinery, reused across batches: the planner's
    // scratch, a pool of speculation read/write sets, the speculated
    // envelopes awaiting their group's verdict, the outcome table, the
    // member→envelope index, and one group counter tally merged into the
    // shard stats at exit.
    let mut gc = GroupCommit::new();
    if let Some(t) = &cfg.trace {
        gc.set_trace(Arc::clone(t));
    }
    let mut member_pool: Vec<PreparedTx> = Vec::new();
    let mut pending: Vec<(Envelope, Pending)> = Vec::new();
    let mut outcomes: Vec<MemberOutcome> = Vec::new();
    let mut member_env: Vec<usize> = Vec::new();
    let mut group_stats = EngineStats::default();
    // The run epoch on the tick clock, without converting anything yet (a
    // first conversion may wait out the clock's calibration): a stamp and
    // how far past `run_start` it was taken.
    let epoch = RunEpoch {
        at: Stamp::now(),
        offset_ns: cfg.run_start.elapsed().as_nanos() as u64,
    };
    loop {
        // Own ring first: home work keeps its locality and its FIFO.
        let mut source = cfg.shard;
        let mut n = if cfg.steal {
            own.try_pop_batch(cfg.batch_max, &mut batch)
        } else {
            // Without stealing the owner is the only consumer; the
            // blocking pop parks until work arrives or the ring closes.
            match own.pop_batch(cfg.batch_max, &mut batch) {
                0 => break,
                n => n,
            }
        };
        if cfg.steal && n == 0 {
            // Idle: steal from the *deepest* sibling ring (longest-queue-
            // first — under Zipf skew the whole point is relieving the hot
            // shard, so don't waste the claim on a shallow ring that
            // happens to come first in scan order), taking up to half its
            // backlog bounded by 4× the batch cap (the classic steal-half
            // policy). A deep hot ring sheds a big chunk in one claim
            // instead of dribbling out batch_max at a time, which is what
            // actually lowers its depth high-water on a host where the
            // stealer's next timeslice may be a while away. Ties and
            // races just mean a smaller (or empty) claim — the claim
            // itself is what's exact, not the depth snapshot. Singles are
            // worth stealing too: under closed-loop load a waiting client
            // is unblocked *now* instead of at the owner's next
            // timeslice.
            let victim = (1..queues.len())
                .map(|i| (cfg.shard + i) % queues.len())
                .max_by_key(|&v| queues[v].depth());
            if let Some(victim) = victim {
                // Adaptive steal enable: below `steal_min_depth` the
                // deepest sibling isn't backlogged enough to be worth the
                // claim traffic and the lost locality — park instead. The
                // default threshold of 0 attempts the steal whenever the
                // own ring is empty (the original behavior).
                let depth = queues[victim].depth();
                if depth >= cfg.steal_min_depth {
                    let want = (depth / 2).clamp(cfg.batch_max, 4 * cfg.batch_max);
                    let got = queues[victim].try_pop_batch(want, &mut batch);
                    if got > 0 {
                        source = victim;
                        n = got;
                        ctx.stats.steals += got as u64;
                    }
                }
            }
        }
        if cfg.steal && n == 0 {
            // Nothing claimable anywhere. Exit only once every ring is
            // closed and drained — a stealing executor may be the one
            // draining the hot ring's final backlog.
            if queues.iter().all(|q| q.is_finished()) {
                break;
            }
            if own.park_consumer_timeout(idle_park) {
                ctx.stats.idle_parks += 1;
            }
            idle_park = (idle_park * 2).min(IDLE_PARK_MAX);
            continue;
        }
        idle_park = IDLE_PARK_MIN;
        // Each reply cell's line sits with the client that last wrote it:
        // start every transfer now, not one by one inside each `put`.
        for env in &batch {
            env.reply.prefetch();
        }
        if cfg.trace.is_some() {
            // Batch-level event: which ring this batch came off, and how
            // big the claim was (tx/key identity doesn't apply yet).
            ctx.set_trace_tag(0, 0);
            if source == cfg.shard {
                ctx.trace_event(TraceKind::Pop, n as u64, 0);
            } else {
                ctx.trace_event(TraceKind::Steal, n as u64, source as u64);
            }
        }
        // Each envelope's service clock starts when its own execution
        // does: the batch-pop timestamp for the first, the previous
        // envelope's completion for the rest. Head-of-line blocking behind
        // batch predecessors therefore counts as queue wait, not service —
        // otherwise the last envelope of a full batch would report up to
        // batch_max× its true service time. (In group-commit mode the
        // whole batch's speculation + group publish run before the first
        // reply, so that shared cost lands on the first envelope's
        // service; the decomposition queue-wait + service = sojourn holds
        // in both modes.) The pop stamp is ordered after the claim's loads,
        // so it never predates an envelope's admission stamp; every later
        // stamp of the batch follows it.
        let mut service_start = Stamp::now_ordered();
        if cfg.group_commit && n > 1 {
            // Phase A: run every envelope speculatively, in batch order —
            // except that under snapshot mode read-only requests are
            // served immediately from the MVCC chains (they serialize at
            // their clock sample, need no group membership, and must not
            // touch the speculation/validation machinery at all).
            pending.clear();
            member_env.clear();
            let mut spec_count = 0usize;
            for env in batch.drain(..) {
                ctx.set_trace_tag(env.gen, env.req.home_key());
                if cfg.snapshot_reads && env.req.is_read_only() {
                    let resp = execute_request(&mut ctx, cfg, &env.req, 0);
                    pending.push((env, Pending::Ready(resp)));
                    continue;
                }
                if member_pool.len() == spec_count {
                    member_pool.push(PreparedTx::new());
                }
                let prep = &mut member_pool[spec_count];
                match ctx.speculate_into(prep, |tx| body(tx, &env.req, heap, cfg.work_ns)) {
                    Ok(resp) => {
                        let spec = finals(&env.req, prep);
                        member_env.push(pending.len());
                        pending.push((env, Pending::Member(spec_count, resp, spec)));
                        spec_count += 1;
                    }
                    // A conflict mid-speculation is an ordinary abort
                    // (accounted by `speculate_into`); the envelope
                    // re-runs through the per-tx path.
                    Err(_) => pending.push((env, Pending::Rerun)),
                }
            }
            // Phase B: plan disjoint groups and publish each under a
            // single clock bump. An evicted member re-runs per-tx *inside
            // the fallback hook* — after its group's publish, before the
            // next group commits — so batch order stays the serialization
            // order and the final heap is grouping-independent even for
            // order-sensitive absolute writes.
            gc.commit_batch_with(
                stm,
                cfg.shard,
                &mut member_pool[..spec_count],
                &mut group_stats,
                &mut outcomes,
                |mi| {
                    let (env, state) = &mut pending[member_env[mi]];
                    ctx.set_trace_tag(env.gen, env.req.home_key());
                    ctx.trace_event(TraceKind::GroupFallback, mi as u64, 0);
                    ctx.stats.group_fallbacks += 1;
                    *state = Pending::Ready(execute_request(&mut ctx, cfg, &env.req, 0));
                },
            );
            // Phase C: deliver responses in batch order. A member still
            // pending committed with its group: its reply is its
            // speculative one shifted by how far the group resolved its
            // keys. Evicted members already re-ran in the hook, and
            // speculation aborts re-run here, through the per-tx path,
            // where the ConflictArbiter governs whatever evicted them.
            for (env, state) in pending.drain(..) {
                let resp = match state {
                    Pending::Ready(resp) => resp,
                    Pending::Member(j, resp, spec) => {
                        debug_assert_eq!(outcomes[j], MemberOutcome::Committed);
                        ctx.stats.commits += 1;
                        ctx.arbiter.on_commit();
                        let by = finals(&env.req, &member_pool[j]).wrapping_sub(spec);
                        match resp {
                            Response::Added(v) => Response::Added(v.wrapping_add(by)),
                            Response::RmwSum(v) => Response::RmwSum(v.wrapping_add(by)),
                            resp => resp,
                        }
                    }
                    Pending::Rerun => {
                        ctx.stats.group_fallbacks += 1;
                        ctx.set_trace_tag(env.gen, env.req.home_key());
                        // Its failed speculation was one abort already.
                        execute_request(&mut ctx, cfg, &env.req, 1)
                    }
                };
                service_start =
                    record_envelope(&mut ctx, &queues[source], &epoch, &env, service_start);
                let _ = env.reply.put(env.gen, resp);
            }
        } else {
            for env in batch.drain(..) {
                ctx.set_trace_tag(env.gen, env.req.home_key());
                let resp = execute_request(&mut ctx, cfg, &env.req, 0);
                service_start =
                    record_envelope(&mut ctx, &queues[source], &epoch, &env, service_start);
                // Misdeliveries are counted inside the cell and surfaced
                // via `ServeReport::reply_faults`; nothing to do here.
                let _ = env.reply.put(env.gen, resp);
            }
        }
    }
    // Group counters accumulate in a side tally (the planner can't
    // borrow ctx.stats while the fallback hook holds ctx) and fold in
    // once per run, not per batch.
    ctx.stats.merge(&group_stats);
    // Surface this shard's ring high-water mark through the per-shard
    // stats (merging still takes the max, so the global view is the
    // deepest ring of the run).
    ctx.stats.queue_depth_max = ctx.stats.queue_depth_max.max(own.depth_max());
    ctx.stats
}

/// [`ExecutorConfig::run_start`] on the tick clock: a stamp, and how many
/// nanoseconds past `run_start` it was taken.
struct RunEpoch {
    at: Stamp,
    offset_ns: u64,
}

/// Record one served envelope's latency decomposition (queue wait →
/// service → sojourn) and its throughput-interval commit, feeding the
/// source ring's SLO estimator — plus, when tracing, the envelope's
/// `Done` event carrying that same decomposition. One clock read, the
/// completion stamp; every quantity is a tick difference. Returns the
/// completion stamp, which becomes the next envelope's service start.
fn record_envelope<P: GracePolicy>(
    ctx: &mut TxCtx<'_, P>,
    source: &ShardQueue,
    epoch: &RunEpoch,
    env: &Envelope,
    service_start: Stamp,
) -> Stamp {
    let done = Stamp::now();
    let queue_wait = service_start.ns_since(env.enqueued_at);
    let service = done.ns_since(service_start);
    source.record_queue_wait(queue_wait, done);
    ctx.stats.record_queue_wait(queue_wait);
    ctx.stats.record_service(service);
    ctx.stats.record_latency(queue_wait.saturating_add(service));
    ctx.stats
        .record_interval_commit(epoch.offset_ns + done.ns_since(epoch.at));
    ctx.set_trace_tag(env.gen, env.req.home_key());
    ctx.trace_event(TraceKind::Done, queue_wait, service);
    done
}

/// How one batch envelope awaits its reply in group-commit mode.
enum Pending {
    /// Speculated as group member `usize`, with its speculative reply and
    /// [`finals`] at speculation; the reply is shifted once its group
    /// commits.
    Member(usize, Response, u64),
    /// Already served (the MVCC snapshot fast path, or a member its group
    /// evicted, re-run in the fallback hook) — reply as-is.
    Ready(Response),
    /// Speculation aborted; re-run through the per-tx path at response
    /// time.
    Rerun,
}

/// Dispatch one request to its serving path: the MVCC snapshot reader
/// for read-only requests when enabled, the validated transactional path
/// otherwise. On the validated path, aborts incurred by read-only
/// requests — including the `spent` ones its failed speculation already
/// took — are additionally tallied as `read_aborts`, the waste the
/// snapshot mode exists to remove.
fn execute_request<P: GracePolicy>(
    ctx: &mut TxCtx<'_, P>,
    cfg: &ExecutorConfig,
    req: &Request,
    spent: u64,
) -> Response {
    if req.is_read_only() {
        if cfg.snapshot_reads {
            return execute_snapshot(ctx, req, cfg.work_ns);
        }
        let before = ctx.stats.aborts;
        let resp = execute(ctx, req, cfg.work_ns);
        ctx.stats.read_aborts += spent + ctx.stats.aborts - before;
        return resp;
    }
    execute(ctx, req, cfg.work_ns)
}

/// Σ over a writing request's keys (repeats included) of the value member
/// `prep` leaves at each: the speculative finals before its group
/// publishes, the resolved ones after. Each step of an `Add` / `Rmw` saw
/// its key shifted by exactly that key's (resolved − speculative), so
/// the committed reply is the speculative one plus the difference of two
/// such sums.
fn finals(req: &Request, prep: &PreparedTx) -> u64 {
    let fin = |k: Key| {
        prep.value_of(k as usize)
            .expect("a writing member wrote its keys")
    };
    match req {
        Request::Add(k, _) => fin(*k),
        Request::Rmw { keys, .. } => keys.iter().fold(0, |s, &k| s.wrapping_add(fin(k))),
        _ => 0,
    }
}

/// The transaction body of a read-only request, through either reader:
/// `read` is the validated [`Tx::read`] or the MVCC
/// [`SnapshotTx::read`](tcp_stm::runtime::SnapshotTx::read).
/// Scans clamp to the heap (`heap` words) instead of panicking.
fn read_body<E>(
    mut read: impl FnMut(Addr) -> Result<u64, E>,
    req: &Request,
    heap: usize,
    work_ns: u64,
) -> Result<Response, E> {
    let resp = match req {
        Request::Get(k) => Response::Value(read(*k as usize)?),
        Request::GetRange { start, len } => {
            let (start, len) = (*start as usize, *len as usize);
            let mut sum = 0u64;
            for a in start.min(heap)..start.saturating_add(len).min(heap) {
                sum = sum.wrapping_add(read(a)?);
            }
            Response::RangeSum(sum)
        }
        Request::GetMany { keys } => {
            let mut sum = 0u64;
            for &k in keys {
                sum = sum.wrapping_add(read(k as usize)?);
            }
            Response::ManySum(sum)
        }
        other => unreachable!("read-only body got a writing request: {other:?}"),
    };
    spin_ns(work_ns);
    Ok(resp)
}

/// The one transaction body of every request kind, run by
/// [`TxCtx::run`] ([`execute`]) and by [`TxCtx::speculate_into`] (group
/// members); its read-only half is [`read_body`]. `work_ns` is the
/// in-transaction compute (spun via [`spin_ns`]) — the paper's
/// transaction length, re-spun on every attempt.
fn body<P: GracePolicy>(
    tx: &mut Tx<'_, '_, P>,
    req: &Request,
    heap: usize,
    work_ns: u64,
) -> Result<Response, Abort> {
    match req {
        Request::Put(k, v) => {
            spin_ns(work_ns);
            tx.write(*k as usize, *v)?;
            Ok(Response::Written)
        }
        Request::Add(k, delta) => {
            let v = tx.write_add(*k as usize, *delta)?;
            spin_ns(work_ns);
            Ok(Response::Added(v))
        }
        Request::Rmw { keys, delta } => {
            let mut sum = 0u64;
            for &k in keys {
                sum = sum.wrapping_add(tx.write_add(k as usize, *delta)?);
            }
            spin_ns(work_ns);
            Ok(Response::RmwSum(sum))
        }
        _ => read_body(|a| tx.read(a), req, heap, work_ns),
    }
}

/// Execute one request as an STM transaction on this shard's context. The
/// transaction body re-runs from scratch on every abort (`TxCtx::run`
/// retries until commit), so all per-attempt state lives inside it.
pub fn execute<P: GracePolicy>(ctx: &mut TxCtx<'_, P>, req: &Request, work_ns: u64) -> Response {
    let heap = ctx.heap_len();
    ctx.run(|tx| body(tx, req, heap, work_ns))
}

/// Execute one *read-only* request through the MVCC snapshot fast path:
/// one clock sample, version-chain reads, zero locks, zero validation,
/// zero [`ConflictArbiter`](tcp_core::engine::ConflictArbiter)
/// consultations — a chain miss restarts with a fresh sample instead of
/// aborting. Callers must dispatch only `is_read_only()` requests here.
pub fn execute_snapshot<P: GracePolicy>(
    ctx: &mut TxCtx<'_, P>,
    req: &Request,
    work_ns: u64,
) -> Response {
    let heap = ctx.heap_len();
    ctx.run_snapshot(|snap| read_body(|a| snap.read(a), req, heap, work_ns))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::{Envelope, ReplyCell};
    use std::sync::Arc;
    use tcp_core::policy::NoDelay;

    fn drain_config(shard: usize, steal: bool) -> ExecutorConfig {
        ExecutorConfig {
            shard,
            batch_max: 4,
            work_ns: 0,
            stats_interval_ns: 1_000_000,
            run_start: Instant::now(),
            steal,
            steal_min_depth: 0,
            group_commit: false,
            snapshot_reads: false,
            trace: None,
        }
    }

    fn filled_queue(keys: std::ops::Range<u64>) -> (Arc<ShardQueue>, Vec<Arc<ReplyCell>>) {
        let queue = Arc::new(ShardQueue::new(32));
        let cells: Vec<_> = keys.clone().map(|_| Arc::new(ReplyCell::new())).collect();
        for (k, cell) in keys.zip(cells.iter()) {
            let gen = cell.issue();
            queue
                .try_push(Envelope::new(Request::Add(k, 1), Arc::clone(cell), gen))
                .unwrap_or_else(|_| panic!("push"));
        }
        (queue, cells)
    }

    #[test]
    fn executor_drains_batches_and_decomposes_latency() {
        let stm = Stm::new(64, 1);
        let (queue, cells) = filled_queue(0..10);
        queue.close();
        let queues = [queue];
        let stats = run_executor(
            &stm,
            NoDelay::requestor_aborts(),
            Xoshiro256StarStar::new(1),
            &queues,
            &drain_config(0, false),
        );
        assert_eq!(stats.commits, 10, "one commit per admitted request");
        assert_eq!(stats.queue_wait_hist.count(), 10);
        assert_eq!(stats.service_hist.count(), 10);
        assert_eq!(stats.latency_hist.count(), 10);
        assert_eq!(
            stats.interval_commits.iter().sum::<u64>(),
            10,
            "every commit lands in a throughput interval"
        );
        assert_eq!(stats.steals, 0, "nothing to steal from oneself");
        assert!(
            stats.queue_depth_max >= 10,
            "ring high-water mark must surface per shard"
        );
        // Sojourn is never smaller than either of its components.
        assert!(stats.latency_percentile(100.0) >= stats.queue_wait_percentile(100.0));
        assert!(stats.latency_percentile(100.0) >= stats.service_percentile(100.0));
        // Every response was delivered to its cell, with the right tag.
        for (k, cell) in cells.iter().enumerate() {
            assert_eq!(cell.take(), Response::Added(1), "key {k}");
            assert_eq!(cell.faults(), (0, 0));
        }
        assert_eq!(stm.read_direct(3), 1);
    }

    #[test]
    fn a_queue_wait_stamped_on_another_thread_is_the_hold() {
        // The envelope is stamped on a client thread and held 2 ms before
        // the executor (this thread) starts: its queue wait is that hold,
        // a tick difference across threads, and its sojourn is exactly
        // queue wait + service. The histograms' min/max are exact.
        const HOLD: Duration = Duration::from_millis(2);
        let stm = Stm::new(64, 1);
        let queue = Arc::new(ShardQueue::new(4));
        let cell = Arc::new(ReplyCell::new());
        let before_stamp = Instant::now();
        std::thread::scope(|s| {
            s.spawn(|| {
                let gen = cell.issue();
                queue
                    .try_push(Envelope::new(Request::Add(1, 1), Arc::clone(&cell), gen))
                    .unwrap_or_else(|_| panic!("push"));
            });
        });
        std::thread::sleep(HOLD);
        queue.close();
        let stats = run_executor(
            &stm,
            NoDelay::requestor_aborts(),
            Xoshiro256StarStar::new(1),
            &[Arc::clone(&queue)],
            &drain_config(0, false),
        );
        let outer = before_stamp.elapsed().as_nanos() as u64;
        assert_eq!(cell.take(), Response::Added(1));
        let queue_wait = stats.queue_wait_hist.max();
        let service = stats.service_hist.max();
        // The tick-to-ns scale is within ~0.1 % of `Instant`; allow 1 %.
        let hold = HOLD.as_nanos() as u64;
        assert!(
            queue_wait >= hold - hold / 100,
            "queue wait {queue_wait} ns < hold {hold} ns"
        );
        assert!(
            queue_wait + service <= outer + outer / 100,
            "queue wait {queue_wait} + service {service} ns > the {outer} ns around them"
        );
        assert_eq!(stats.latency_hist.max(), queue_wait + service, "sojourn");
    }

    #[test]
    fn stealing_executor_drains_sibling_backlog() {
        // Shard 1's executor starts with an *empty* own ring while shard
        // 0's ring holds a backlog; with stealing on it must drain the
        // sibling, count the steals, and deliver every reply.
        let stm = Stm::new(64, 2);
        let (hot, cells) = filled_queue(0..12);
        let idle = Arc::new(ShardQueue::new(32));
        hot.close();
        idle.close();
        let queues = [Arc::clone(&hot), idle];
        let stats = run_executor(
            &stm,
            NoDelay::requestor_aborts(),
            Xoshiro256StarStar::new(3),
            &queues,
            &drain_config(1, true),
        );
        assert_eq!(stats.commits, 12, "the stealer executed the backlog");
        assert_eq!(stats.steals, 12, "every envelope was a steal");
        assert_eq!(stats.latency_hist.count(), 12);
        for cell in &cells {
            assert_eq!(cell.take(), Response::Added(1));
            assert_eq!(cell.faults(), (0, 0));
        }
    }

    #[test]
    fn idle_parks_counts_real_parks_only() {
        // Work that is already there ends every idle wait at its first
        // check: the executor drains and exits without one park.
        let stm = Stm::new(64, 1);
        let (queue, _cells) = filled_queue(0..10);
        queue.close();
        let stats = run_executor(
            &stm,
            NoDelay::requestor_aborts(),
            Xoshiro256StarStar::new(1),
            &[queue],
            &drain_config(0, true),
        );
        assert_eq!((stats.commits, stats.idle_parks), (10, 0));

        // An open, idle ring: the executor spins out its budget and parks.
        // A push made once it *is* parked is still served, and that park
        // is counted.
        let queue = Arc::new(ShardQueue::new(8));
        let cell = Arc::new(ReplyCell::new());
        let stats = std::thread::scope(|s| {
            let queues = [Arc::clone(&queue)];
            let stm = &stm;
            let executor = s.spawn(move || {
                run_executor(
                    stm,
                    NoDelay::requestor_aborts(),
                    Xoshiro256StarStar::new(2),
                    &queues,
                    &drain_config(0, true),
                )
            });
            while !queue.consumer_parked() {
                std::thread::yield_now();
            }
            let gen = cell.issue();
            queue
                .try_push(Envelope::new(Request::Add(20, 1), Arc::clone(&cell), gen))
                .unwrap_or_else(|_| panic!("push"));
            assert_eq!(cell.take(), Response::Added(1));
            queue.close();
            executor.join().unwrap()
        });
        assert_eq!(stats.commits, 1);
        assert!(stats.idle_parks >= 1, "the park before the push counts");
    }

    #[test]
    fn steal_disabled_executor_leaves_siblings_alone() {
        let stm = Stm::new(64, 2);
        let (sibling, _cells) = filled_queue(0..5);
        let own = Arc::new(ShardQueue::new(32));
        own.close();
        let queues = [Arc::clone(&own), Arc::clone(&sibling)];
        let stats = run_executor(
            &stm,
            NoDelay::requestor_aborts(),
            Xoshiro256StarStar::new(5),
            &queues,
            &drain_config(0, false),
        );
        assert_eq!(stats.commits, 0);
        assert_eq!(stats.steals, 0);
        assert_eq!(sibling.depth(), 5, "sibling backlog untouched");
        sibling.close();
    }

    #[test]
    fn group_executor_commits_disjoint_batch_under_one_bump() {
        // 10 Adds on distinct keys, one batch: all fold into one
        // write-set-disjoint group → a single clock bump, every reply
        // delivered, commits exact.
        let stm = Stm::new(64, 1);
        let (queue, cells) = filled_queue(0..10);
        queue.close();
        let queues = [queue];
        let cfg = ExecutorConfig {
            batch_max: 16,
            group_commit: true,
            ..drain_config(0, false)
        };
        let stats = run_executor(
            &stm,
            NoDelay::requestor_aborts(),
            Xoshiro256StarStar::new(1),
            &queues,
            &cfg,
        );
        assert_eq!(stats.commits, 10);
        assert_eq!(stats.group_fallbacks, 0, "disjoint writers never fall back");
        assert_eq!(stats.group_commits, 1, "one published group");
        assert_eq!(stm.clock_value(), 1, "one clock bump for the whole batch");
        assert_eq!(stats.latency_hist.count(), 10, "one sojourn per commit");
        for (k, cell) in cells.iter().enumerate() {
            assert_eq!(cell.take(), Response::Added(1), "key {k}");
            assert_eq!(cell.faults(), (0, 0));
        }
    }

    #[test]
    fn group_executor_folds_same_key_burst_with_serial_responses() {
        // 8 Adds on ONE key in a single batch: they coalesce into one
        // publish, and each response still carries its serial value —
        // observable results are independent of the grouping.
        let stm = Stm::new(16, 1);
        let queue = Arc::new(ShardQueue::new(32));
        let cells: Vec<_> = (0..8).map(|_| Arc::new(ReplyCell::new())).collect();
        for cell in &cells {
            let gen = cell.issue();
            queue
                .try_push(Envelope::new(Request::Add(5, 1), Arc::clone(cell), gen))
                .unwrap_or_else(|_| panic!("push"));
        }
        queue.close();
        let queues = [queue];
        let cfg = ExecutorConfig {
            batch_max: 16,
            group_commit: true,
            ..drain_config(0, false)
        };
        let stats = run_executor(
            &stm,
            NoDelay::requestor_aborts(),
            Xoshiro256StarStar::new(2),
            &queues,
            &cfg,
        );
        assert_eq!(stats.commits, 8);
        assert_eq!(stats.group_commits, 1);
        assert_eq!(stats.coalesced_writes, 7, "seven folds onto the first");
        assert_eq!(stm.clock_value(), 1);
        assert_eq!(stm.read_direct(5), 8);
        for (i, cell) in cells.iter().enumerate() {
            assert_eq!(
                cell.take(),
                Response::Added(i as u64 + 1),
                "response {i} must match the serial (batch) order"
            );
        }
    }

    #[test]
    fn group_executor_matches_per_tx_heap_on_mixed_traffic() {
        // The same request stream — adds, gets, cross-key RMWs — lands
        // the same heap whether batches group-commit or commit per-tx.
        let reqs: Vec<Request> = (0..40)
            .map(|i| match i % 4 {
                0 => Request::Add(i % 7, i + 1),
                1 => Request::Get(i % 5),
                2 => Request::Rmw {
                    keys: vec![i % 3, 8 + i % 3, i % 3],
                    delta: 2,
                },
                _ => Request::Add(3, 1),
            })
            .collect();
        let run = |group_commit: bool| -> (Vec<u64>, Vec<Response>, u64) {
            let stm = Stm::new(64, 1);
            let queue = Arc::new(ShardQueue::new(64));
            let cells: Vec<_> = reqs.iter().map(|_| Arc::new(ReplyCell::new())).collect();
            for (req, cell) in reqs.iter().zip(cells.iter()) {
                let gen = cell.issue();
                queue
                    .try_push(Envelope::new(req.clone(), Arc::clone(cell), gen))
                    .unwrap_or_else(|_| panic!("push"));
            }
            queue.close();
            let queues = [queue];
            let cfg = ExecutorConfig {
                batch_max: 16,
                group_commit,
                ..drain_config(0, false)
            };
            let stats = run_executor(
                &stm,
                NoDelay::requestor_aborts(),
                Xoshiro256StarStar::new(3),
                &queues,
                &cfg,
            );
            assert_eq!(stats.commits, reqs.len() as u64);
            let resps = cells.iter().map(|c| c.take()).collect();
            (stm.snapshot_direct(), resps, stm.clock_value())
        };
        let (heap_grouped, resp_grouped, bumps_grouped) = run(true);
        let (heap_per_tx, resp_per_tx, bumps_per_tx) = run(false);
        assert_eq!(heap_grouped, heap_per_tx, "grouping must not change state");
        // Writer responses resolve in member order and must match the
        // per-tx serial execution exactly. Read-only Gets serialize at
        // the *front* of their group (they validated pre-group values) —
        // a legal linearization of concurrent requests, but not
        // necessarily the per-tx interleaving — so they are excluded.
        for ((req, a), b) in reqs.iter().zip(&resp_grouped).zip(&resp_per_tx) {
            if !matches!(req, Request::Get(_)) {
                assert_eq!(a, b, "writer response diverged for {req:?}");
            }
        }
        assert!(
            bumps_grouped < bumps_per_tx,
            "grouping must spend fewer clock bumps ({bumps_grouped} vs {bumps_per_tx})"
        );
    }

    #[test]
    fn snapshot_executor_serves_reads_from_chains_without_arbiter() {
        // A mixed ring: writes seed keys 0..8 with value 1 each, then
        // scans and gets read them. Under snapshot mode every read-only
        // request must go through the MVCC path — counted in
        // snapshot_reads, with zero read-side aborts.
        let stm = Stm::new(64, 1);
        let queue = Arc::new(ShardQueue::new(32));
        let mut cells = Vec::new();
        let mut reqs: Vec<Request> = (0..8).map(|k| Request::Add(k, 1)).collect();
        reqs.push(Request::GetRange { start: 0, len: 8 });
        reqs.push(Request::GetMany {
            keys: vec![0, 3, 7],
        });
        reqs.push(Request::Get(5));
        for req in &reqs {
            let cell = Arc::new(ReplyCell::new());
            let gen = cell.issue();
            queue
                .try_push(Envelope::new(req.clone(), Arc::clone(&cell), gen))
                .unwrap_or_else(|_| panic!("push"));
            cells.push(cell);
        }
        queue.close();
        let queues = [queue];
        let cfg = ExecutorConfig {
            snapshot_reads: true,
            ..drain_config(0, false)
        };
        let stats = run_executor(
            &stm,
            NoDelay::requestor_aborts(),
            Xoshiro256StarStar::new(9),
            &queues,
            &cfg,
        );
        assert_eq!(stats.commits, reqs.len() as u64);
        assert_eq!(stats.snapshot_reads, 3, "all three read-only requests");
        assert_eq!(stats.read_aborts, 0);
        assert_eq!(stats.aborts, 0);
        assert_eq!(cells[8].take(), Response::RangeSum(8));
        assert_eq!(cells[9].take(), Response::ManySum(3));
        assert_eq!(cells[10].take(), Response::Value(1));
    }

    #[test]
    fn group_executor_snapshot_reads_bypass_speculation() {
        // Group-commit mode with snapshot reads: read-only envelopes are
        // served straight from the chains (never becoming group members)
        // while the writers still group under one bump.
        let stm = Stm::new(64, 1);
        let queue = Arc::new(ShardQueue::new(32));
        let mut cells = Vec::new();
        let mut reqs: Vec<Request> = (0..6).map(|k| Request::Add(k, 2)).collect();
        reqs.push(Request::GetRange { start: 0, len: 64 });
        reqs.push(Request::Get(0));
        for req in &reqs {
            let cell = Arc::new(ReplyCell::new());
            let gen = cell.issue();
            queue
                .try_push(Envelope::new(req.clone(), Arc::clone(&cell), gen))
                .unwrap_or_else(|_| panic!("push"));
            cells.push(cell);
        }
        queue.close();
        let queues = [queue];
        let cfg = ExecutorConfig {
            batch_max: 16,
            group_commit: true,
            snapshot_reads: true,
            ..drain_config(0, false)
        };
        let stats = run_executor(
            &stm,
            NoDelay::requestor_aborts(),
            Xoshiro256StarStar::new(4),
            &queues,
            &cfg,
        );
        assert_eq!(stats.commits, reqs.len() as u64);
        assert_eq!(stats.snapshot_reads, 2);
        assert_eq!(stats.group_commits, 1, "writers still form one group");
        assert_eq!(stats.group_fallbacks, 0);
        assert_eq!(stats.read_aborts, 0);
        // The snapshot reads ran before the batch's group publish (batch
        // order) — they see the pre-batch heap.
        assert_eq!(cells[6].take(), Response::RangeSum(0));
        assert_eq!(cells[7].take(), Response::Value(0));
        assert_eq!(stm.read_direct(3), 2, "writers still published");
    }

    #[test]
    fn validated_read_path_tallies_read_aborts_separately() {
        // With snapshot mode OFF, read-only requests travel the classic
        // validated path; this is where read_aborts accrue. Absent any
        // concurrent writer they must stay zero and responses correct.
        let stm = Stm::new(16, 1);
        stm.write_direct(2, 5);
        stm.write_direct(3, 7);
        let queue = Arc::new(ShardQueue::new(8));
        let cell = Arc::new(ReplyCell::new());
        let gen = cell.issue();
        queue
            .try_push(Envelope::new(
                Request::GetRange { start: 2, len: 2 },
                Arc::clone(&cell),
                gen,
            ))
            .unwrap_or_else(|_| panic!("push"));
        queue.close();
        let queues = [queue];
        let stats = run_executor(
            &stm,
            NoDelay::requestor_aborts(),
            Xoshiro256StarStar::new(11),
            &queues,
            &drain_config(0, false),
        );
        assert_eq!(cell.take(), Response::RangeSum(12));
        assert_eq!(stats.snapshot_reads, 0, "snapshot mode off");
        assert_eq!(stats.read_aborts, 0);
    }

    #[test]
    fn executor_applies_every_request_kind() {
        let stm = Stm::new(16, 1);
        let mut ctx = TxCtx::new(
            &stm,
            0,
            NoDelay::requestor_aborts(),
            Xoshiro256StarStar::new(7),
        );
        assert_eq!(
            execute(&mut ctx, &Request::Put(2, 40), 0),
            Response::Written
        );
        assert_eq!(
            execute(&mut ctx, &Request::Add(2, 2), 0),
            Response::Added(42)
        );
        assert_eq!(execute(&mut ctx, &Request::Get(2), 0), Response::Value(42));
        let rmw = Request::Rmw {
            keys: vec![2, 3],
            delta: 1,
        };
        // 42+1 = 43 and 0+1 = 1 → sum 44.
        assert_eq!(execute(&mut ctx, &rmw, 0), Response::RmwSum(44));
        assert_eq!(stm.read_direct(2), 43);
        assert_eq!(stm.read_direct(3), 1);
        // Scans: validated and snapshot paths agree, and out-of-heap
        // spans clamp instead of panicking.
        let range = Request::GetRange { start: 2, len: 2 };
        assert_eq!(execute(&mut ctx, &range, 0), Response::RangeSum(44));
        assert_eq!(
            execute_snapshot(&mut ctx, &range, 0),
            Response::RangeSum(44)
        );
        let many = Request::GetMany { keys: vec![2, 3] };
        assert_eq!(execute(&mut ctx, &many, 0), Response::ManySum(44));
        assert_eq!(execute_snapshot(&mut ctx, &many, 0), Response::ManySum(44));
        let overshoot = Request::GetRange {
            start: 14,
            len: 100,
        };
        assert_eq!(execute(&mut ctx, &overshoot, 0), Response::RangeSum(0));
        assert_eq!(
            execute_snapshot(&mut ctx, &overshoot, 0),
            Response::RangeSum(0)
        );
    }
}
