//! Bounded lock-free per-shard request queues (the admission-control knob)
//! and the generation-tagged reply cell.
//!
//! Each shard owns one [`ShardQueue`]: the workspace's bounded lock-free
//! [`Ring`] (slot protocol, orderings and their argument: `tcp_core::ring`)
//! plus what makes it a request queue — the owner's spin-then-park wait,
//! the depth high-water mark and the queue-wait sensor. Replies travel back
//! through a [`ReplyCell`]: one packed atomic state word over a two-word
//! slot. Neither takes a lock, and the side that hands over (`try_push`,
//! `put`) makes no syscall unless the other side is really parked — which
//! is exactly the concern of "Are Lock-Free Concurrent Algorithms
//! Practically Wait-Free?": under load the synchronization substrate itself
//! dominates.
//!
//! Both places the request path can block — the ring's owner on an empty
//! ring, the client on an empty cell — go through the one `Waiter`: re-check
//! for `SPIN_BUDGET` (20 µs, the measured cost of a park/unpark round
//! trip) with a `yield_now` before each check, then `thread::park`; a
//! thread that finds its core shared skips the spin and parks at once.
//! Every other wait in this file — for a producer mid-publish, for a
//! consumer mid-release, for a `put` mid-store — is the same
//! re-check-and-yield. The one remaining `Mutex` of the request path sits
//! in the `Waiter`, on the slow path only: the waiter locks it to register
//! its `Thread` handle just before parking, and a waker locks it only after
//! it has seen the `parked` flag set, i.e. when it is about to pay the
//! `unpark` syscall anyway.
//!
//! The consumer side is **steal-safe**: the ring is multi-consumer, so
//! besides the owning shard executor, idle sibling executors may pop
//! batches with [`try_pop_batch`](ShardQueue::try_pop_batch) (work
//! stealing), and an owner pop and a concurrent steal can race without
//! loss, duplication, or tearing. Every batch, owned or stolen, is one
//! claim CAS on the ring's `head` ([`Ring::try_pop_batch`]), not one per
//! envelope. Only the *owner* ever parks; stealers are strictly
//! non-blocking.
//!
//! Clients submit with [`try_push`](ShardQueue::try_push), which **sheds on
//! full** (depth ≥ capacity, never below it) rather than blocking — the
//! backpressure policy of the service layer. A shed request is counted in
//! `EngineStats::sheds` by the client and never reaches the STM. Each queue
//! also carries a [`QueueWaitEstimator`]: executors feed it the queue wait
//! of every envelope they pop, and SLO-aware adaptive admission (see
//! `crate::router`) reads its windowed p99 to decide whether to shed
//! *before* the ring fills.
//!
//! The [`ReplyCell`] is reused across requests of one client slot and
//! tagged with a per-request generation so a double-delivery or a stale
//! delivery is *reported* (counted, surfaced in `ServeReport`) instead of
//! silently dropped or `debug_assert`ed away.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::Thread;
use std::time::{Duration, Instant};

use tcp_core::clock::Stamp;
use tcp_core::engine::QueueWaitEstimator;
use tcp_core::ring::{Front, Refusal, Ring};

use crate::protocol::{Request, Response};

/// A request in flight: the payload, where to deliver the response, the
/// reply cell's generation tag for this request, and the admission
/// timestamp that lets latency decompose into queue-wait + service.
pub struct Envelope {
    pub req: Request,
    pub reply: Arc<ReplyCell>,
    /// Generation the reply must carry (see [`ReplyCell::issue`]).
    pub gen: u64,
    /// When admission control accepted this request into the shard queue,
    /// on the tick clock: the executor that pops it — on another thread —
    /// takes its queue wait as a tick difference against this.
    pub enqueued_at: Stamp,
}

impl Envelope {
    /// Wrap `req` for submission, stamping the enqueue timestamp now.
    pub fn new(req: Request, reply: Arc<ReplyCell>, gen: u64) -> Self {
        Self {
            req,
            reply,
            gen,
            enqueued_at: Stamp::now(),
        }
    }
}

/// How long a [`Waiter`] spins before it parks: the measured cost of one
/// park/unpark round trip on the request path (`queue.wake_us` ≈
/// `queue.reply_wake_us` ≈ 19 µs in the repo benchmark).
///
/// Spin-or-park is ski rental — the paper's requestor-aborts case with the
/// park/unpark price as the abort cost `B`: keep paying rent (spin) until
/// the rent paid equals `B`, then buy (park). That deterministic
/// break-even rule never pays more than twice what an oracle that knew the
/// arrival time would have, and no deterministic rule does better.
///
/// That bound assumes the rent is paid by the spinner alone, so the spin
/// is only worth its price on a core nobody else wants; [`Waiter::wait`]
/// says how it finds out and what it does when the core is shared.
const SPIN_BUDGET: Duration = Duration::from_micros(20);

/// Most waits in a row a thread parks without spinning after it lost its
/// core while spinning (see [`Waiter::wait`]).
const MAX_CROWDED_WAITS: u32 = 1 << 16;

/// How many waits a new thread parks without spinning before its first
/// spin phase: until it has tried, it knows nothing about its core, and
/// parking at once — what the `Condvar` this replaced always did — is the
/// guess that cannot stall anybody.
const FIRST_CROWDED_WAITS: u32 = 64;

thread_local! {
    /// What this thread knows about its core, as `(skip, penalty)`: the
    /// next `skip` waits park at once, and `penalty` is the `skip` the
    /// latest lost core was charged (the next one in a row is charged four
    /// times that).
    static CROWDED: Cell<(u32, u32)> =
        const { Cell::new((FIRST_CROWDED_WAITS, FIRST_CROWDED_WAITS)) };
}

/// The waits to park without spinning after one spin step took `step`
/// (≥ [`SPIN_BUDGET`]: the thread was off its core): one per budget lost,
/// or four times the previous charge if that is more.
fn crowded_waits(penalty: u32, step: Duration) -> u32 {
    let budgets_lost = (step.as_nanos() / SPIN_BUDGET.as_nanos()).min(MAX_CROWDED_WAITS as u128);
    penalty
        .saturating_mul(4)
        .max(budgets_lost as u32)
        .min(MAX_CROWDED_WAITS)
}

/// The one spin-then-park wait of the request path, shared by the ring's
/// owner ([`ShardQueue::pop`], [`ShardQueue::park_consumer_timeout`]) and
/// the reply cell's client ([`ReplyCell::take`]). One thread waits at a
/// time; any number of threads wake.
///
/// Lost-wake-up freedom is a Dekker pair, all `SeqCst`: the waiter stores
/// `parked = true` and *then* re-checks its condition; a waker makes the
/// condition true and *then* loads `parked`. In the single total order one
/// of the two must see the other's store — either the waiter finds its
/// condition true and skips the park, or the waker finds `parked` set and
/// unparks (and `unpark` tokens are sticky, so an unpark that lands before
/// the `park` call is not lost either).
#[derive(Default)]
struct Waiter {
    /// True while the waiting thread is parked or about to park. Wakers
    /// clear it with a swap so only one of them pays the unpark syscall.
    parked: AtomicBool,
    /// Handle of the thread that last took the slow path. The only lock on
    /// the request path; see the module doc for who takes it when.
    thread: Mutex<Option<Thread>>,
}

impl Waiter {
    /// Wait until `ready()` holds, `timeout` elapses, or a parked wait is
    /// woken (possibly spuriously — callers re-check and loop). The caller
    /// has just seen `ready()` false. Returns whether the thread really
    /// parked: `false` means `ready()` came true while spinning, and nobody
    /// paid for a park/unpark.
    ///
    /// The spin phase lasts [`SPIN_BUDGET`] and calls `yield_now` before
    /// every check, so the *waiting* side makes one `sched_yield` syscall
    /// per check; it is the waker's side that is syscall-free. The yield
    /// is how the waiter learns whether its spinning is free. On a core
    /// nobody else wants it comes straight back (~0.2 µs, which also
    /// spaces the polls of a line the waker is about to write). On a
    /// shared core it gives the core away, and when one such step alone
    /// outlasts the whole budget the thread was not paying rent, it was
    /// off the core: here a spin delays the very threads it waits for, and
    /// a thread that sits runnable in a yield is never moved to an idle
    /// core the way a woken one is. So the thread goes on to park, and
    /// parks at once — like the `Condvar` this replaced — for its next
    /// [`crowded_waits`] waits, after which it tries a spin phase again; a
    /// spin phase that keeps its core clears the charge. A new thread
    /// starts out parking ([`FIRST_CROWDED_WAITS`]).
    ///
    /// Measured on 2 cores: with 6 threads (open loop, clients pacing by
    /// spinning) this holds queue waits at the `Condvar`'s level where
    /// spinning regardless cost 4-5x at the median; a stray 20-40 µs
    /// hypervisor pause on an otherwise own core costs one or two parked
    /// waits.
    fn wait(&self, timeout: Option<Duration>, mut ready: impl FnMut() -> bool) -> bool {
        let start = Instant::now();
        let budget = timeout.map_or(SPIN_BUDGET, |t| t.min(SPIN_BUDGET));
        let (skip, penalty) = CROWDED.get();
        if skip > 0 {
            CROWDED.set((skip - 1, penalty));
        } else {
            let mut last = start;
            loop {
                std::thread::yield_now();
                let now = Instant::now();
                let step = now - last;
                if step >= SPIN_BUDGET {
                    let waits = crowded_waits(penalty, step);
                    CROWDED.set((waits, waits));
                    break;
                }
                // The step kept the core: spinning here is free again.
                CROWDED.set((0, 0));
                if ready() {
                    return false;
                }
                if now - start >= budget {
                    break;
                }
                last = now;
            }
            if timeout.is_some_and(|t| start.elapsed() >= t) {
                return false;
            }
        }
        // Every write leaves the slot a valid `Option<Thread>`, so a
        // poisoned lock (a thread died while holding it) is still usable.
        *self.thread.lock().unwrap_or_else(PoisonError::into_inner) = Some(std::thread::current());
        self.parked.store(true, Ordering::SeqCst);
        if ready() {
            self.parked.store(false, Ordering::SeqCst);
            return false;
        }
        match timeout {
            None => std::thread::park(),
            Some(t) => std::thread::park_timeout(t.saturating_sub(start.elapsed())),
        }
        self.parked.store(false, Ordering::SeqCst);
        true
    }

    /// Unpark the waiter if it is (about to be) parked. Call *after* the
    /// `SeqCst` store that makes its condition true. The common case —
    /// nobody parked — is one load of a line nobody is writing.
    fn wake(&self) {
        if self.parked.load(Ordering::SeqCst) && self.parked.swap(false, Ordering::SeqCst) {
            let thread = self
                .thread
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone();
            if let Some(t) = thread {
                t.unpark();
            }
        }
    }
}

/// A bounded lock-free queue feeding one shard worker, steal-safe on the
/// consumer side.
///
/// * **Producers** (any number of client threads): admission is capped at
///   `capacity` outstanding envelopes, shedding beyond it.
/// * **Consumers**: the owning shard worker pops (blocking, with
///   park/unpark), and idle sibling workers may steal batches
///   (non-blocking); concurrent pops partition the envelopes — each is
///   delivered exactly once.
pub struct ShardQueue {
    ring: Ring<Envelope>,
    /// Where the owning consumer waits on an empty ring. Stealers never
    /// wait here.
    consumer: Waiter,
    /// High-water mark of the post-push depth snapshots — the per-shard
    /// backlog indicator the skew bench reports.
    depth_max: AtomicU64,
    /// Windowed p99 queue-wait sensor feeding SLO-aware admission.
    /// Executors record into it for every envelope popped *from this
    /// ring* (stolen or not), so the estimate tracks the ring the request
    /// actually waited in.
    estimator: QueueWaitEstimator,
}

impl ShardQueue {
    pub fn new(capacity: usize) -> Self {
        Self {
            ring: Ring::new(capacity),
            consumer: Waiter::default(),
            depth_max: AtomicU64::new(0),
            estimator: QueueWaitEstimator::default(),
        }
    }

    /// Deepest post-push depth snapshot observed on this ring.
    pub fn depth_max(&self) -> u64 {
        self.depth_max.load(Ordering::Relaxed)
    }

    /// Record the queue wait (enqueue → pop, nanoseconds) of an envelope
    /// popped from this ring, feeding the windowed p99 the router's
    /// SLO-aware admission reads. Called by whichever executor popped the
    /// envelope — owner or stealer — so the sensor tracks the ring the
    /// request actually waited in. `now` is the clock reading the caller
    /// already holds (it closes the estimator's window when due).
    pub fn record_queue_wait(&self, ns: u64, now: Stamp) {
        self.estimator.record_at(ns, now);
    }

    /// Windowed p99 queue wait of this ring, nanoseconds (see
    /// [`QueueWaitEstimator`]). 0 until the first completed window.
    pub fn queue_wait_p99(&self) -> u64 {
        self.estimator.p99()
    }

    /// Envelopes currently admitted but not yet popped (racy snapshot,
    /// clamped to `0..=capacity`).
    pub fn depth(&self) -> usize {
        self.ring.len()
    }

    /// Admit `env` unless the queue is full (depth ≥ capacity) or closed.
    /// Returns the queue depth after the push on success (exact when
    /// uncontended, a snapshot under concurrency — but never above
    /// `capacity`); hands the envelope back on shed so the caller retains
    /// ownership of the request.
    ///
    /// Lock-free but for one wait: when the ring has lapped onto a slot a
    /// consumer has claimed and not yet released (it is a few instructions
    /// from done, unless descheduled — so offer it the core), the push
    /// re-checks instead of shedding below capacity.
    pub fn try_push(&self, mut env: Envelope) -> Result<usize, Envelope> {
        loop {
            match self.ring.try_push(env) {
                Ok(depth) => {
                    // Test before the RMW: once the mark is up, pushes
                    // only read this line.
                    if depth as u64 > self.depth_max.load(Ordering::Relaxed) {
                        self.depth_max.fetch_max(depth as u64, Ordering::Relaxed);
                    }
                    self.consumer.wake();
                    return Ok(depth);
                }
                Err(refused) if refused.why == Refusal::Lapped => {
                    env = refused.value;
                    std::thread::yield_now();
                }
                Err(refused) => return Err(refused.value),
            }
        }
    }

    /// Non-blocking batch pop: claim up to `max` published envelopes into
    /// `out` with one `head` CAS ([`Ring::try_pop_batch`]) and return the
    /// number appended (0 when nothing is claimable right now). Safe to
    /// call from *any* thread concurrently with the owner — this is the
    /// steal entry point of the work-stealing executors, and also the
    /// owner's fast path when stealing is on.
    pub fn try_pop_batch(&self, max: usize, out: &mut Vec<Envelope>) -> usize {
        self.ring.try_pop_batch(max, out)
    }

    /// Block until at least one envelope is available or the queue is
    /// closed *and* drained; `None` signals the worker to exit.
    pub fn pop(&self) -> Option<Envelope> {
        loop {
            if let Some(env) = self.ring.try_pop() {
                return Some(env);
            }
            if !self.block_until_ready() {
                return None;
            }
        }
    }

    /// Pop up to `max` envelopes into `out`, blocking until at least one is
    /// available or the queue is closed *and* drained. Returns the number
    /// appended; `0` signals the worker to exit. Batching amortizes the
    /// park/unpark handshake, the claim CAS and the executor's per-wakeup
    /// setup across the whole batch. Owner-only (it parks); stealers use
    /// [`try_pop_batch`](Self::try_pop_batch).
    pub fn pop_batch(&self, max: usize, out: &mut Vec<Envelope>) -> usize {
        assert!(max > 0, "popping a zero-sized batch would spin forever");
        loop {
            let n = self.try_pop_batch(max, out);
            if n > 0 {
                return n;
            }
            if !self.block_until_ready() {
                return 0;
            }
        }
    }

    /// True once the queue is closed *and* every won ticket has been
    /// claimed by some consumer — the collective exit condition of the
    /// work-stealing executors (a stolen batch may be mid-execution on a
    /// sibling, but it is that sibling's responsibility; nothing remains
    /// *here*). Exact and final: see [`Front::Finished`].
    pub fn is_finished(&self) -> bool {
        self.ring.front() == Front::Finished
    }

    /// Owner-only idle wait with a deadline: spin, then park, until a
    /// producer pushes, the queue closes, or `timeout` elapses — whichever
    /// comes first. The work-stealing executor uses this between steal
    /// scans so a backlog appearing on a *sibling* ring (which never
    /// unparks this thread) is still noticed within `timeout`. Returns
    /// whether the thread really parked (`false`: the wait ended while
    /// spinning).
    pub fn park_consumer_timeout(&self, timeout: Duration) -> bool {
        self.consumer
            .wait(Some(timeout), || self.claimable_or_closed())
    }

    /// Whether the owner is parked (or committed to parking) right now —
    /// lets tests act at exactly that point instead of sleeping.
    #[cfg(test)]
    pub(crate) fn consumer_parked(&self) -> bool {
        self.consumer.parked.load(Ordering::SeqCst)
    }

    /// The owner's wake-up condition: a ticket is won that no consumer has
    /// claimed yet, or the queue is closed.
    fn claimable_or_closed(&self) -> bool {
        self.ring.front() != Front::Empty
    }

    /// Wait until the envelope at the ring's head is published. Returns
    /// `false` when the queue is closed and fully drained — the worker's
    /// exit signal.
    fn block_until_ready(&self) -> bool {
        loop {
            match self.ring.front() {
                Front::Ready => return true,
                // At most a few instructions, unless the producer got
                // descheduled — so offer it the core.
                Front::Publishing => std::thread::yield_now(),
                Front::Finished => return false,
                Front::Empty => {
                    self.consumer.wait(None, || self.claimable_or_closed());
                }
            }
        }
    }

    /// Stop admitting requests; the worker drains the backlog and exits.
    /// Linearizes with admission (see [`Ring::close`]): every push either
    /// won its ticket before this call (and will be drained) or sheds.
    pub fn close(&self) {
        self.ring.close();
        self.consumer.wake();
    }
}

/// Delivery outcome of a [`ReplyCell::put`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PutStatus {
    /// The response was delivered to a waiting (or about-to-wait) client.
    Delivered,
    /// The cell already held an undelivered response for this generation —
    /// a double-`put`. The first response is kept, this one is dropped,
    /// and the fault is counted.
    Duplicate,
    /// The generation tag did not match the cell's current one — a stale
    /// reply to a request the client has already abandoned or superseded.
    /// Dropped and counted.
    Stale,
}

/// Low bits of the cell's state word: the slot's phase within the
/// generation held by the remaining bits.
const TAG_BITS: u32 = 2;
const TAG_MASK: u64 = (1 << TAG_BITS) - 1;
/// No response for this generation (none yet, or already taken).
const EMPTY: u64 = 0;
/// One `put` won this generation and is storing its response.
const WRITING: u64 = 1;
/// The response is published and not yet taken.
const FULL: u64 = 2;

/// A one-slot rendezvous for a client's outstanding request, reusable
/// across requests via a generation tag.
///
/// Closed-loop clients reuse one cell for every request; open-loop clients
/// reuse one cell per window slot (each cell cycles through `ops/window`
/// requests). [`issue`](Self::issue) arms the cell and returns the
/// generation the matching [`put`](Self::put) must present; mismatches and
/// double-deliveries are counted, not asserted, and surfaced through
/// [`faults`](Self::faults).
///
/// The whole protocol is one word, `gen << 2 | tag`:
///
/// ```text
///  issue: (g, EMPTY|FULL) ─CAS─▶ (g+1, EMPTY)     waits out WRITING
///  put:   (g, EMPTY) ─CAS─▶ (g, WRITING) ─store─▶ (g, FULL) ─▶ wake
///         any other gen ⇒ Stale; WRITING/FULL at g ⇒ Duplicate
///  take:  (g, FULL) ─read slot, CAS─▶ (g, EMPTY)  spins, then parks, until FULL
/// ```
///
/// The generation only grows, so a state word never recurs across an
/// `issue`: the CAS that ends `take` succeeds only if nothing touched the
/// cell since the `FULL` it read the slot under, which is what makes the
/// slot read untorn. The slot words are written only between a won
/// `WRITING` CAS and the `FULL` store, by that one thread. One thread at a
/// time may wait in `take` (the cell belongs to one client slot); every
/// other interleaving of the three calls from any threads is allowed.
#[derive(Default)]
pub struct ReplyCell {
    state: AtomicU64,
    /// The response, as `Response::to_words` splits it.
    kind: AtomicU64,
    value: AtomicU64,
    waiter: Waiter,
    duplicate_puts: AtomicU64,
    stale_puts: AtomicU64,
}

impl ReplyCell {
    pub fn new() -> Self {
        Self::default()
    }

    /// Arm the cell for the next request: bump the generation, clear any
    /// undelivered (now stale) response, and return the new tag.
    pub fn issue(&self) -> u64 {
        let mut s = self.state.load(Ordering::Acquire);
        loop {
            if s & TAG_MASK == WRITING {
                // A put is two stores from done (unless descheduled, so
                // offer it the core): bumping now would let the next put
                // write beside it.
                std::thread::yield_now();
                s = self.state.load(Ordering::Acquire);
                continue;
            }
            let gen = (s >> TAG_BITS) + 1;
            // AcqRel: carries the previous take's slot reads (its Release
            // CAS) forward to the next put's Acquire CAS.
            match self.state.compare_exchange_weak(
                s,
                gen << TAG_BITS | EMPTY,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return gen,
                Err(cur) => s = cur,
            }
        }
    }

    /// Deliver the response for generation `gen` (worker side). Never
    /// blocks; makes a syscall only when the client is parked in `take`.
    pub fn put(&self, gen: u64, resp: Response) -> PutStatus {
        // On the serving path the executor prefetched this line when it
        // claimed the batch, so the load usually hits. Opening with the CAS
        // instead (expecting `(gen, EMPTY)`) saved 4–6 ns in a put/take
        // ping-pong but moved neither service time nor latency there.
        let mut s = self.state.load(Ordering::Acquire);
        loop {
            if s >> TAG_BITS != gen {
                self.stale_puts.fetch_add(1, Ordering::Relaxed);
                return PutStatus::Stale;
            }
            if s & TAG_MASK != EMPTY {
                self.duplicate_puts.fetch_add(1, Ordering::Relaxed);
                return PutStatus::Duplicate;
            }
            // Acquire: the slot stores below come after every earlier
            // reader's loads (released by the CAS ending its `take`).
            match self.state.compare_exchange_weak(
                s,
                s | WRITING,
                Ordering::Acquire,
                Ordering::Acquire,
            ) {
                Ok(_) => break,
                Err(cur) => s = cur,
            }
        }
        let (kind, value) = resp.to_words();
        self.kind.store(kind, Ordering::Relaxed);
        self.value.store(value, Ordering::Relaxed);
        // Nobody else moves a WRITING word, so a plain store publishes.
        // SeqCst: Release for the slot words, and the store half of the
        // waiter's Dekker pair (`wake` loads `parked` next).
        self.state.store(gen << TAG_BITS | FULL, Ordering::SeqCst);
        self.waiter.wake();
        PutStatus::Delivered
    }

    /// Wait (spin, then park) until the current generation's response
    /// arrives and take it (client side).
    pub fn take(&self) -> Response {
        loop {
            let s = self.state.load(Ordering::Acquire);
            if s & TAG_MASK != FULL {
                self.waiter.wait(None, || {
                    self.state.load(Ordering::SeqCst) & TAG_MASK == FULL
                });
                continue;
            }
            let kind = self.kind.load(Ordering::Relaxed);
            let value = self.value.load(Ordering::Relaxed);
            // Release keeps the two loads above before the CAS. Failure
            // means the cell was reissued meanwhile: what was read belongs
            // to an abandoned generation, so wait for the current one.
            if self
                .state
                .compare_exchange(
                    s,
                    s & !TAG_MASK | EMPTY,
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                )
                .is_ok()
            {
                return Response::from_words(kind, value);
            }
        }
    }

    /// Start moving the state word's line toward this core: an executor
    /// calls it for every envelope of a batch it has just claimed, so the
    /// transfers overlap the batch's execution instead of each stalling
    /// its own `put`.
    #[inline]
    pub fn prefetch(&self) {
        tcp_core::pad::prefetch(&self.state);
    }

    /// Misdelivery counters: `(duplicate_puts, stale_puts)`.
    pub fn faults(&self) -> (u64, u64) {
        (
            self.duplicate_puts.load(Ordering::Relaxed),
            self.stale_puts.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(k: u64) -> Envelope {
        Envelope::new(Request::Get(k), Arc::new(ReplyCell::new()), 1)
    }

    #[test]
    fn sheds_on_full_and_returns_the_envelope() {
        let q = ShardQueue::new(2);
        assert_eq!(q.try_push(env(0)).ok(), Some(1));
        assert_eq!(q.try_push(env(1)).ok(), Some(2));
        let shed = match q.try_push(env(7)) {
            Err(e) => e,
            Ok(_) => panic!("full queue must shed"),
        };
        assert_eq!(shed.req, Request::Get(7), "shed hands the request back");
        // Draining frees capacity again.
        assert!(q.pop().is_some());
        assert_eq!(q.try_push(env(8)).ok(), Some(2));
    }

    #[test]
    fn capacity_is_logical_not_ring_size() {
        // Ring size rounds 3 up to 4, but admission must stop at 3.
        let q = ShardQueue::new(3);
        for k in 0..3 {
            assert!(q.try_push(env(k)).is_ok());
        }
        assert!(q.try_push(env(9)).is_err(), "logical capacity is 3");
        assert_eq!(q.depth(), 3);
    }

    #[test]
    fn close_drains_backlog_then_signals_exit() {
        let q = ShardQueue::new(4);
        q.try_push(env(1)).unwrap_or_else(|_| panic!("push"));
        q.try_push(env(2)).unwrap_or_else(|_| panic!("push"));
        q.close();
        assert!(q.try_push(env(3)).is_err(), "closed queue admits nothing");
        assert_eq!(q.pop().map(|e| e.req), Some(Request::Get(1)));
        assert_eq!(q.pop().map(|e| e.req), Some(Request::Get(2)));
        assert!(q.pop().is_none(), "drained + closed ⇒ worker exit signal");
    }

    #[test]
    fn pop_batch_respects_max_and_drains_fifo() {
        let q = ShardQueue::new(8);
        for k in 0..6 {
            q.try_push(env(k)).unwrap_or_else(|_| panic!("push"));
        }
        let mut out = Vec::new();
        assert_eq!(q.pop_batch(4, &mut out), 4);
        assert_eq!(q.pop_batch(4, &mut out), 2);
        let keys: Vec<_> = out.iter().map(|e| e.req.clone()).collect();
        assert_eq!(
            keys,
            (0..6).map(Request::Get).collect::<Vec<_>>(),
            "batch pops preserve queue order"
        );
        q.close();
        assert_eq!(q.pop_batch(4, &mut out), 0, "closed + drained ⇒ 0");
    }

    #[test]
    fn pop_blocks_until_push() {
        let q = Arc::new(ShardQueue::new(1));
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.pop().map(|e| e.req));
        // Give the popper a moment to park, then feed it.
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.try_push(env(9)).unwrap_or_else(|_| panic!("push"));
        assert_eq!(h.join().unwrap(), Some(Request::Get(9)));
    }

    #[test]
    fn ring_wraps_across_many_laps() {
        let q = ShardQueue::new(2);
        for lap in 0..100u64 {
            q.try_push(env(lap)).unwrap_or_else(|_| panic!("push"));
            assert_eq!(q.pop().map(|e| e.req), Some(Request::Get(lap)));
        }
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn dropping_a_nonempty_queue_releases_envelopes() {
        let q = ShardQueue::new(4);
        let reply = Arc::new(ReplyCell::new());
        for k in 0..3 {
            q.try_push(Envelope::new(Request::Get(k), Arc::clone(&reply), k))
                .unwrap_or_else(|_| panic!("push"));
        }
        drop(q);
        // All envelope Arcs released: ours is the only strong ref left.
        assert_eq!(Arc::strong_count(&reply), 1);
    }

    #[test]
    fn reply_cell_roundtrip_across_threads() {
        let cell = Arc::new(ReplyCell::new());
        let gen = cell.issue();
        let c2 = Arc::clone(&cell);
        let h = std::thread::spawn(move || c2.take());
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert_eq!(cell.put(gen, Response::Added(5)), PutStatus::Delivered);
        assert_eq!(h.join().unwrap(), Response::Added(5));
        // Reusable for the next request in the closed loop.
        let gen2 = cell.issue();
        assert_eq!(cell.put(gen2, Response::Written), PutStatus::Delivered);
        assert_eq!(cell.take(), Response::Written);
        assert_eq!(cell.faults(), (0, 0));
    }

    #[test]
    fn reply_cell_reports_double_put() {
        let cell = ReplyCell::new();
        let gen = cell.issue();
        assert_eq!(cell.put(gen, Response::Written), PutStatus::Delivered);
        // Same generation, slot still occupied: a double-delivery. The
        // first response must win; the fault is counted, not asserted.
        assert_eq!(cell.put(gen, Response::Added(9)), PutStatus::Duplicate);
        assert_eq!(cell.take(), Response::Written, "first delivery wins");
        assert_eq!(cell.faults(), (1, 0));
    }

    #[test]
    fn reply_cell_detects_stale_generation() {
        let cell = ReplyCell::new();
        let old = cell.issue();
        let current = cell.issue(); // the client moved on
        assert_eq!(cell.put(old, Response::Written), PutStatus::Stale);
        assert_eq!(cell.faults(), (0, 1));
        // The current generation still delivers normally.
        assert_eq!(cell.put(current, Response::Added(1)), PutStatus::Delivered);
        assert_eq!(cell.take(), Response::Added(1));
    }

    #[test]
    fn reissue_discards_undelivered_stale_response() {
        let cell = ReplyCell::new();
        let gen = cell.issue();
        assert_eq!(cell.put(gen, Response::Written), PutStatus::Delivered);
        // Client abandons the request (e.g. it timed it out) and reissues:
        // the undelivered response must not leak into the next take.
        let gen2 = cell.issue();
        assert_eq!(cell.put(gen2, Response::Added(2)), PutStatus::Delivered);
        assert_eq!(cell.take(), Response::Added(2));
    }

    #[test]
    fn put_classifies_every_state_tag_against_every_generation() {
        // The cell at generation 5 in each phase, met by a put of an
        // older, the same, a newer and an unrepresentable generation:
        // only (5, EMPTY) takes the response; every other put leaves the
        // word alone and counts one fault of its kind.
        use PutStatus::{Delivered, Duplicate, Stale};
        const AT: u64 = 5;
        let expected = |tag: u64, gen: u64| match (tag, gen) {
            (EMPTY, AT) => Delivered,
            (_, AT) => Duplicate,
            _ => Stale,
        };
        for tag in [EMPTY, WRITING, FULL] {
            for gen in [AT - 1, AT, AT + 1, (u64::MAX >> TAG_BITS) + 1, u64::MAX] {
                let cell = ReplyCell::new();
                cell.state.store(AT << TAG_BITS | tag, Ordering::Relaxed);
                let status = cell.put(gen, Response::Added(gen));
                let case = format!("tag {tag}, put gen {gen}");
                assert_eq!(status, expected(tag, gen), "{case}");
                let faults = match status {
                    Delivered => (0, 0),
                    Duplicate => (1, 0),
                    Stale => (0, 1),
                };
                assert_eq!(cell.faults(), faults, "{case}");
                let after = if status == Delivered { FULL } else { tag };
                assert_eq!(
                    cell.state.load(Ordering::Relaxed),
                    AT << TAG_BITS | after,
                    "{case}"
                );
                if status == Delivered {
                    assert_eq!(cell.take(), Response::Added(gen), "{case}");
                }
            }
        }
        // `take` empties the cell without moving its generation, so a
        // second put of the same generation is delivered again rather
        // than counted: a duplicate is only caught while the first
        // response is still in the cell.
        let cell = ReplyCell::new();
        let gen = cell.issue();
        assert_eq!(cell.put(gen, Response::Written), Delivered);
        assert_eq!(cell.take(), Response::Written);
        assert_eq!(cell.put(gen, Response::Added(3)), Delivered);
        assert_eq!(cell.put(gen, Response::Added(4)), Duplicate);
        assert_eq!(cell.take(), Response::Added(3));
        assert_eq!(cell.faults(), (1, 0));
    }

    /// Yield until `cond` holds: how these tests pin an interleaving (the
    /// peer *is* parked, the peer *has* entered the call) without sleeping.
    fn wait_for(cond: impl Fn() -> bool) {
        let mut spins = 0u32;
        while !cond() {
            spins += 1;
            if spins.is_multiple_of(256) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// A response whose payload names its own variant, so a slot read torn
    /// between two rounds (variant of one, payload of the other) shows.
    fn round_response(round: u64) -> Response {
        let v = round * 8 + round % 6;
        match round % 6 {
            0 => Response::Value(v),
            1 => Response::Written,
            2 => Response::Added(v),
            3 => Response::RmwSum(v),
            4 => Response::RangeSum(v),
            _ => Response::ManySum(v),
        }
    }

    #[test]
    fn response_words_roundtrip_every_variant() {
        for round in 0..12 {
            let resp = round_response(round);
            let (kind, value) = resp.to_words();
            assert_eq!(Response::from_words(kind, value), resp);
        }
    }

    /// Let the calling thread's next wait start with a spin phase, as on a
    /// thread that has found its core its own (new threads park at once).
    fn spin_on_the_next_wait() {
        CROWDED.set((0, 0));
    }

    #[test]
    fn a_lost_core_is_charged_per_budget_lost_and_fourfold_in_a_row() {
        let budgets = |n: u32| SPIN_BUDGET * n;
        // A pause barely over the budget costs one parked wait; a scheduler
        // slice behind a busy neighbour costs as many as it was worth.
        assert_eq!(crowded_waits(0, budgets(1)), 1);
        assert_eq!(crowded_waits(0, budgets(150)), 150);
        // Losing the core again right after the parked stretch: four times
        // the last charge, unless this loss alone was worth more.
        assert_eq!(crowded_waits(150, budgets(2)), 600);
        assert_eq!(crowded_waits(4, budgets(100)), 100);
        assert_eq!(
            crowded_waits(MAX_CROWDED_WAITS, budgets(1)),
            MAX_CROWDED_WAITS
        );
        assert_eq!(crowded_waits(u32::MAX, budgets(1)), MAX_CROWDED_WAITS);
    }

    #[test]
    fn a_new_thread_parks_at_once_until_its_first_spin_phase() {
        std::thread::spawn(|| {
            let q = ShardQueue::new(4);
            assert!(q.park_consumer_timeout(Duration::from_micros(50)));
            assert_eq!(
                CROWDED.get(),
                (FIRST_CROWDED_WAITS - 1, FIRST_CROWDED_WAITS),
                "the wait went straight to the park and used up one of the first waits"
            );
            // A wait that starts with a spin phase leaves a verdict either
            // way: the core was kept (charge cleared) or lost (charged).
            spin_on_the_next_wait();
            q.park_consumer_timeout(Duration::from_micros(50));
            let (skip, penalty) = CROWDED.get();
            assert_eq!(skip, penalty);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn reply_cell_ping_pong_spin_and_park_paths() {
        // main → ping → echo thread → pong → main, 100k rounds. Every 64th
        // round each putter holds its put until the peer's waiter says
        // "parked", so that take goes down the park path with the put
        // landing right at the Dekker window; every other round the reply
        // arrives within the spin budget (both threads start out spinning;
        // one that loses its core to the rest of the test run parks at once
        // for a stretch, as designed). A lost wake-up hangs the test, a lost
        // or torn response fails the equality.
        const ROUNDS: u64 = 100_000;
        const PARK_EVERY: u64 = 64;
        let ping = Arc::new(ReplyCell::new());
        let pong = Arc::new(ReplyCell::new());
        let echo = {
            let (ping, pong) = (Arc::clone(&ping), Arc::clone(&pong));
            std::thread::spawn(move || {
                spin_on_the_next_wait();
                for round in 0..ROUNDS {
                    let resp = ping.take();
                    if round % PARK_EVERY == 0 {
                        wait_for(|| pong.waiter.parked.load(Ordering::SeqCst));
                    }
                    // main issues each cell once per round: gen = round + 1.
                    assert_eq!(pong.put(round + 1, resp), PutStatus::Delivered);
                }
            })
        };
        spin_on_the_next_wait();
        for round in 0..ROUNDS {
            let (ping_gen, pong_gen) = (ping.issue(), pong.issue());
            assert_eq!((ping_gen, pong_gen), (round + 1, round + 1));
            if round % PARK_EVERY == 0 {
                wait_for(|| ping.waiter.parked.load(Ordering::SeqCst));
            }
            assert_eq!(
                ping.put(ping_gen, round_response(round)),
                PutStatus::Delivered
            );
            assert_eq!(pong.take(), round_response(round), "round {round}");
        }
        echo.join().unwrap();
        assert_eq!(ping.faults(), (0, 0));
        assert_eq!(pong.faults(), (0, 0));
    }

    #[test]
    fn reply_cell_put_racing_issue_is_delivered_or_stale() {
        // Per round: main reissues the cell while the putter thread puts
        // the generation being abandoned, both released together (main
        // staggers itself by a few spins so either side wins some rounds).
        // The put either lands first (Delivered, then discarded by the
        // reissue) or loses (Stale, counted) — and in both cases the new
        // generation starts empty.
        const ROUNDS: u64 = 20_000;
        let cell = &ReplyCell::new();
        let (go, done) = (&AtomicU64::new(0), &AtomicU64::new(0));
        let statuses = std::thread::scope(|s| {
            let putter = s.spawn(move || {
                (0..ROUNDS)
                    .map(|round| {
                        wait_for(|| go.load(Ordering::SeqCst) > round);
                        let old = 2 * round + 1;
                        let status = cell.put(old, Response::Value(old));
                        done.fetch_add(1, Ordering::SeqCst);
                        status
                    })
                    .collect::<Vec<_>>()
            });
            for round in 0..ROUNDS {
                let old = cell.issue();
                go.store(round + 1, Ordering::SeqCst);
                for _ in 0..round % 8 {
                    std::hint::spin_loop();
                }
                assert_eq!(cell.issue(), old + 1);
                wait_for(|| done.load(Ordering::SeqCst) > round);
                // The abandoned reply must not leak into the new generation.
                let fresh = Response::Added(old);
                assert_eq!(cell.put(old + 1, fresh), PutStatus::Delivered);
                assert_eq!(cell.take(), fresh, "round {round}");
            }
            putter.join().unwrap()
        });
        assert!(
            statuses
                .iter()
                .all(|s| matches!(s, PutStatus::Delivered | PutStatus::Stale)),
            "one put per generation cannot be a Duplicate"
        );
        let stale = statuses.iter().filter(|&&s| s == PutStatus::Stale).count();
        assert_eq!(cell.faults(), (0, stale as u64));
    }

    #[test]
    fn reply_cell_double_put_racing_take_first_delivery_wins() {
        // Two puts of one generation race each other and the take. The
        // take returns a Delivered put's response; a put that found the
        // slot occupied is Duplicate and counted. (Both may be Delivered
        // when the take lands between them — the second then sits in the
        // cell until the next issue discards it.)
        const ROUNDS: u64 = 20_000;
        let cell = &ReplyCell::new();
        let mut duplicates = 0;
        for round in 0..ROUNDS {
            let gen = cell.issue();
            let puts = [Response::Added(round), Response::RmwSum(round)];
            let (statuses, taken) = std::thread::scope(|s| {
                let putters = puts.map(|resp| s.spawn(move || cell.put(gen, resp)));
                let taken = cell.take();
                (putters.map(|h| h.join().unwrap()), taken)
            });
            let delivered: Vec<_> = (0..2)
                .filter(|&i| statuses[i] == PutStatus::Delivered)
                .map(|i| puts[i])
                .collect();
            assert!(
                statuses
                    .iter()
                    .all(|s| matches!(s, PutStatus::Delivered | PutStatus::Duplicate)),
                "round {round}: {statuses:?}"
            );
            assert!(delivered.contains(&taken), "round {round}: took {taken:?}");
            duplicates += 2 - delivered.len() as u64;
            assert_eq!(cell.faults(), (duplicates, 0), "round {round}");
        }
    }

    #[test]
    fn closed_loop_producers_never_shed_below_capacity() {
        // Four producers with one request outstanding each can never fill
        // 64 slots, so any shed is spurious. (A producer whose `tail`
        // snapshot went stale against a fresher `head` used to read the
        // wrapped difference as "full".)
        const PER_PRODUCER: u64 = 20_000;
        let q = &ShardQueue::new(64);
        let sheds = std::thread::scope(|s| {
            let producers: Vec<_> = (0..4u64)
                .map(|p| {
                    s.spawn(move || {
                        let cell = Arc::new(ReplyCell::new());
                        let mut sheds = 0;
                        for _ in 0..PER_PRODUCER {
                            let gen = cell.issue();
                            match q.try_push(Envelope::new(Request::Get(p), Arc::clone(&cell), gen))
                            {
                                Ok(_) => assert_eq!(cell.take(), Response::Written),
                                Err(_) => sheds += 1,
                            }
                        }
                        sheds
                    })
                })
                .collect();
            s.spawn(move || {
                while let Some(env) = q.pop() {
                    assert_eq!(
                        env.reply.put(env.gen, Response::Written),
                        PutStatus::Delivered
                    );
                }
            });
            let sheds: u64 = producers.into_iter().map(|h| h.join().unwrap()).sum();
            q.close();
            sheds
        });
        assert_eq!(sheds, 0);
    }

    #[test]
    fn push_after_the_spin_budget_wakes_the_parked_consumer() {
        for batch in [false, true] {
            let q = Arc::new(ShardQueue::new(4));
            let q2 = Arc::clone(&q);
            let consumer = std::thread::spawn(move || {
                if batch {
                    let mut out = Vec::new();
                    q2.pop_batch(4, &mut out);
                    out.pop().map(|e| e.req)
                } else {
                    q2.pop().map(|e| e.req)
                }
            });
            wait_for(|| q.consumer_parked());
            q.try_push(env(3)).unwrap_or_else(|_| panic!("push"));
            assert_eq!(consumer.join().unwrap(), Some(Request::Get(3)));
        }
    }

    #[test]
    fn close_ends_a_blocking_pop_in_either_wait_phase() {
        // `parked`: close once the consumer has parked. Otherwise close as
        // soon as it has entered the call, i.e. (on a multicore host)
        // within its spin budget. Either way the pop must return the exit
        // signal; a missed wake-up hangs the test.
        for parked in [false, true] {
            for batch in [false, true] {
                for _ in 0..50 {
                    let q = Arc::new(ShardQueue::new(4));
                    let entered = Arc::new(AtomicBool::new(false));
                    let (q2, entered2) = (Arc::clone(&q), Arc::clone(&entered));
                    let consumer = std::thread::spawn(move || {
                        if !parked {
                            spin_on_the_next_wait();
                        }
                        entered2.store(true, Ordering::SeqCst);
                        if batch {
                            q2.pop_batch(4, &mut Vec::new())
                        } else {
                            q2.pop().map_or(0, |_| 1)
                        }
                    });
                    if parked {
                        wait_for(|| q.consumer_parked());
                    } else {
                        wait_for(|| entered.load(Ordering::SeqCst));
                    }
                    q.close();
                    assert_eq!(consumer.join().unwrap(), 0, "closed + empty ⇒ exit");
                }
            }
        }
    }

    #[test]
    fn park_consumer_timeout_returns_by_its_deadline() {
        let q = ShardQueue::new(4);
        let timeout = Duration::from_millis(2);
        let start = Instant::now();
        assert!(
            q.park_consumer_timeout(timeout),
            "an idle ring really parks"
        );
        let waited = start.elapsed();
        // Generous slack: the bound guards against "never", not jitter.
        assert!(waited < timeout + Duration::from_millis(500), "{waited:?}");
        assert!(!q.consumer_parked(), "the flag is cleared on the way out");
        // Work already there (or a closed ring) ends the wait at the first
        // check: no park, so the executor counts no idle park.
        q.try_push(env(1)).unwrap_or_else(|_| panic!("push"));
        assert!(!q.park_consumer_timeout(Duration::from_secs(60)));
        let closed = ShardQueue::new(4);
        closed.close();
        assert!(!closed.park_consumer_timeout(Duration::from_secs(60)));
    }
}
