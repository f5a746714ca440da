//! The discrete-event HTM simulator.
//!
//! Single-threaded, cycle-granularity, deterministic under a fixed seed.
//! Each core repeatedly runs transactions from a [`WorkloadGen`]; accesses
//! go through a private L1 / shared-directory MSI protocol (Algorithm 1 of
//! the paper); conflicts consult the configured [`GracePolicy`] and are
//! resolved requestor-wins or requestor-aborts, as the policy's
//! [`machine_mode`] says, after the sampled grace period, exactly as in
//! the paper's Graphite-based prototype (§8.2).
//!
//! ## Event model
//!
//! Three event kinds drive everything:
//! * `STEP(core)` — the core finishes its current instruction and issues
//!   the next one;
//! * `DEADLINE(req)` — a grace period expires; resolves the conflict
//!   against the surviving holders (requestor-wins) or the requestor
//!   (requestor-aborts);
//! * `RETRY(core)` — abort cleanup finished; restart the transaction.
//!
//! An event is one 16-byte integer: its time, then its sequence number,
//! then one byte of kind and index, so the queue orders by `(time, seq)`.
//! The sequence number doubles as the event's identity: a core remembers
//! the one `STEP`/`RETRY` it is waiting for and a parked request the one
//! `DEADLINE` armed for it, and an event that is no longer the remembered
//! one (the core aborted, the deadline was re-armed) is stale and ignored.
//!
//! A stalled requestor has *no* scheduled event; it is resumed by the grant
//! path when the blocking transaction commits, aborts, or is aborted by the
//! deadline.
//!
//! ## Cost per event
//!
//! The steady-state loop allocates nothing: lines are interned to dense
//! ids ([`crate::mem`]), sets of cores are `u64` masks, each core's
//! [`TxnProgram`] is refilled in place, and the grant sweep orders the
//! pending slab in an array on the stack.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use tcp_core::conflict::ResolutionMode;
use tcp_core::engine::{AbortKind, ConflictArbiter, SeedFanout, ShardedStats};
use tcp_core::policy::{machine_mode, GracePolicy};
use tcp_core::rng::Xoshiro256StarStar;
use tcp_workloads::programs::{Op, TxnProgram, WorkloadGen};

use crate::config::SimConfig;
use crate::mem::{cores_in, CopyState, Directory, Install, L1Cache, LineTable};

const STEP: u64 = 0;
const DEADLINE: u64 = 1;
const RETRY: u64 = 2;
/// Bits of an [`Ev`] below the sequence number: 2 of kind over 6 of
/// index (a core, or a pending-slab slot — there are at most 64 of either).
const KEY_BITS: u32 = 8;

/// `time << 64 | seq << 8 | kind << 6 | index` in one integer, so that the
/// queue's comparisons are single branch-free compares. `seq` is unique:
/// the order is `(time, seq)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Ev(u128);

impl Ev {
    fn new(time: u64, seq: u64, kind: u64, index: usize) -> Self {
        debug_assert!(seq >> (64 - KEY_BITS) == 0 && kind < 4 && index < 64);
        let key = seq << KEY_BITS | kind << 6 | index as u64;
        Self(u128::from(time) << 64 | u128::from(key))
    }

    fn time(self) -> u64 {
        (self.0 >> 64) as u64
    }

    fn seq(self) -> u64 {
        self.0 as u64 >> KEY_BITS
    }

    fn kind(self) -> u64 {
        self.0 as u64 >> 6 & 3
    }

    fn index(self) -> usize {
        (self.0 & 63) as usize
    }
}

/// A coherence request stalled behind a grace period.
#[derive(Clone, Copy, Debug)]
struct PendingReq {
    /// Sequence number of the `DEADLINE` event currently armed for it.
    deadline: u64,
    requestor: usize,
    line: u32,
    write: bool,
    stall_start: u64,
    /// The receiver this request's grace period was armed against, and its
    /// epoch at arming time. A deadline only aborts *this* victim; if the
    /// line changed hands in the meantime that is a new conflict and the
    /// deadline re-arms (NACK-and-retry semantics, matching the theory's
    /// per-conflict cost model).
    victim: usize,
    victim_epoch: u64,
}

#[derive(Clone, Debug)]
struct Core {
    program: TxnProgram,
    pc: usize,
    /// Transactions issued so far (drives the workload generator).
    seq_no: u64,
    /// Start time of the current attempt.
    attempt_start: u64,
    /// Start time of the first attempt of the current transaction.
    first_start: u64,
    /// Consecutive aborts of the current transaction.
    attempts: u32,
    /// Aborts so far; tells a parked request whether its victim is still
    /// the transaction it was armed against.
    epoch: u64,
    /// Sequence number of the one `STEP`/`RETRY` event this core is waiting
    /// for; 0 while it has none (stalled, or inside its own handler).
    awaited: u64,
    /// This core's engine-layer consultation loop (policy + §7 backoff).
    arbiter: ConflictArbiter<Arc<dyn GracePolicy>>,
    /// Slab index of the pending request this core is stalled on.
    waiting_req: Option<usize>,
    /// Core this one is (transitively) waiting behind, for chain-length
    /// computation and cycle detection. Written by
    /// [`Simulator::set_waiting_on`] only.
    waiting_on: Option<usize>,
    /// The reverse edges: mask of cores whose `waiting_on` is this core.
    waited_by: u64,
    /// Slow-path mode after `max_retries` consecutive aborts: conflicts
    /// resolve immediately in this core's favour (models the lock-free /
    /// lock-based fallback of the paper's benchmarks).
    unkillable: bool,
    /// Stall cycles accumulated during the current attempt (subtracted
    /// from the attempt duration when profiling the fast-path length).
    attempt_stall: u64,
    rng: Xoshiro256StarStar,
}

/// The simulator. Construct with [`Simulator::new`], drive with
/// [`Simulator::run`], read the [`ShardedStats`] afterwards.
pub struct Simulator {
    cfg: SimConfig,
    /// Which side a conflict aborts: the policy's, fixed for the run.
    mode: ResolutionMode,
    workload: Arc<dyn WorkloadGen>,
    now: u64,
    seq: u64,
    events: BinaryHeap<Reverse<Ev>>,
    cores: Vec<Core>,
    lines: LineTable,
    caches: Vec<L1Cache>,
    dir: Directory,
    /// Parked requests. A new one takes the first free slot: slot ids break
    /// `stall_start` ties in the grant sweep.
    pending: Vec<Option<PendingReq>>,
    pub stats: ShardedStats,
}

impl Simulator {
    /// # Panics
    /// If `cfg` fails [`SimConfig::validate`].
    pub fn new(cfg: SimConfig, workload: Arc<dyn WorkloadGen>) -> Self {
        cfg.assert_valid();
        let mut fan = SeedFanout::new(cfg.seed);
        let mut cores = Vec::with_capacity(cfg.cores);
        let mut caches = Vec::with_capacity(cfg.cores);
        for _ in 0..cfg.cores {
            cores.push(Core {
                program: TxnProgram::default(),
                pc: 0,
                seq_no: 0,
                attempt_start: 0,
                first_start: 0,
                attempts: 0,
                epoch: 0,
                awaited: 0,
                arbiter: ConflictArbiter::new(Arc::clone(&cfg.policy))
                    .with_backoff(cfg.backoff)
                    .with_grace_cap(cfg.grace_cap_factor),
                waiting_req: None,
                waiting_on: None,
                waited_by: 0,
                unkillable: false,
                attempt_stall: 0,
                rng: fan.stream(),
            });
            caches.push(L1Cache::default());
        }
        let stats = ShardedStats::new(cfg.cores);
        // A core parks at most one request: the slab never outgrows this.
        let pending = Vec::with_capacity(cfg.cores);
        let mut sim = Self {
            mode: machine_mode(&cfg.policy),
            cfg,
            workload,
            now: 0,
            seq: 0,
            events: BinaryHeap::new(),
            cores,
            lines: LineTable::default(),
            caches,
            dir: Directory::default(),
            pending,
            stats,
        };
        for c in 0..sim.cfg.cores {
            sim.start_next_txn(c, c as u64); // staggered start breaks symmetry
        }
        sim
    }

    /// Run until the configured horizon; returns the statistics.
    pub fn run(&mut self) -> &ShardedStats {
        while let Some(&Reverse(ev)) = self.events.peek() {
            if ev.time() > self.cfg.horizon {
                break;
            }
            self.events.pop();
            debug_assert!(ev.time() >= self.now, "time went backwards");
            self.now = ev.time();
            match ev.kind() {
                STEP => self.handle_step(ev.index(), ev.seq()),
                RETRY => self.handle_retry(ev.index(), ev.seq()),
                _ => self.handle_deadline(ev.index(), ev.seq()),
            }
        }
        self.stats.global.cycles = self.cfg.horizon;
        &self.stats
    }

    // -- scheduling helpers -------------------------------------------------

    /// Queue an event; returns its sequence number.
    fn schedule(&mut self, time: u64, kind: u64, index: usize) -> u64 {
        self.seq += 1;
        self.events
            .push(Reverse(Ev::new(time, self.seq, kind, index)));
        self.seq
    }

    /// Queue the one `STEP`/`RETRY` core `c` will wait for.
    fn schedule_core(&mut self, time: u64, kind: u64, c: usize) {
        // Two live events for one core would both fire; the remembered
        // sequence number only stands in for the epoch check while a core
        // never has more than one.
        debug_assert_eq!(self.cores[c].awaited, 0, "core {c} already awaits an event");
        self.cores[c].awaited = self.schedule(time, kind, c);
    }

    fn schedule_step(&mut self, c: usize, time: u64) {
        self.schedule_core(time, STEP, c);
    }

    /// Consume core `c`'s awaited event, if `seq` is it.
    fn take_awaited(&mut self, c: usize, seq: u64) -> bool {
        let fresh = self.cores[c].awaited == seq;
        if fresh {
            self.cores[c].awaited = 0;
        }
        fresh
    }

    // -- transaction lifecycle ----------------------------------------------

    fn start_next_txn(&mut self, c: usize, at: u64) {
        let core = &mut self.cores[c];
        self.workload
            .fill_txn(c, core.seq_no, &mut core.rng, &mut core.program);
        core.seq_no += 1;
        core.pc = 0;
        core.attempts = 0;
        core.unkillable = false;
        core.arbiter.on_commit();
        core.attempt_start = at;
        core.attempt_stall = 0;
        core.first_start = at;
        self.schedule_step(c, at);
    }

    fn commit(&mut self, c: usize) {
        self.caches[c].commit_txn();
        let latency = self.now - self.cores[c].first_start;
        // Fast-path length = attempt duration minus time parked behind
        // other transactions' grace periods.
        let attempt =
            (self.now - self.cores[c].attempt_start).saturating_sub(self.cores[c].attempt_stall);
        let stats = &mut self.stats.per_thread[c];
        stats.commits += 1;
        stats.total_latency += latency;
        self.stats.global.record_latency(latency);
        if let Some(p) = &self.cfg.profiler {
            // The successful attempt's duration — the "fast-path length"
            // a profiler would report.
            p.record_commit(attempt as f64);
        }
        // Requests stalled behind this transaction may now be free.
        self.grant_unblocked(true);
        self.start_next_txn(c, self.now + 1);
    }

    fn abort_core(&mut self, v: usize, cause: AbortKind) {
        let wasted = self.now.saturating_sub(self.cores[v].attempt_start);
        self.stats.record_abort(v, cause, wasted);
        self.dir.purge(v, self.caches[v].txn_lines());
        self.caches[v].abort_txn();
        let core = &mut self.cores[v];
        core.epoch += 1;
        core.awaited = 0; // whatever it was waiting for is stale now
        core.arbiter.on_abort();
        core.attempts += 1;
        // If the victim was itself stalled as a requestor, cancel its request.
        if let Some(id) = core.waiting_req.take() {
            self.pending[id] = None;
        }
        self.set_waiting_on(v, None);
        let core = &mut self.cores[v];
        if core.attempts >= self.cfg.max_retries && !core.unkillable {
            core.unkillable = true;
            self.stats.per_thread[v].fallbacks += 1;
        }
        // Randomized exponential restart backoff: resynchronized retries
        // re-form the same conflict (and the same waiting cycle) forever on
        // hot multi-object workloads. Jitter grows with the abort count,
        // capped at 64x cleanup.
        let exp = core.attempts.min(6);
        let jitter_range = self.cfg.abort_cleanup.saturating_mul(1 << exp);
        let jitter = tcp_core::rng::uniform_u64_below(&mut core.rng, jitter_range.max(1));
        self.schedule_core(self.now + self.cfg.abort_cleanup + jitter, RETRY, v);
        // Dropping the victim's lines may unblock other requests.
        self.grant_unblocked(false);
    }

    fn handle_retry(&mut self, c: usize, seq: u64) {
        if !self.take_awaited(c, seq) {
            return;
        }
        let core = &mut self.cores[c];
        core.pc = 0;
        core.attempt_start = self.now;
        core.attempt_stall = 0;
        self.schedule_step(c, self.now);
    }

    // -- instruction execution ----------------------------------------------

    fn handle_step(&mut self, c: usize, seq: u64) {
        if !self.take_awaited(c, seq) {
            return;
        }
        debug_assert!(self.cores[c].waiting_req.is_none(), "stalled core stepped");
        let core = &mut self.cores[c];
        let Some(&op) = core.program.ops.get(core.pc) else {
            self.commit(c);
            return;
        };
        match op {
            Op::Compute(n) => {
                core.pc += 1;
                self.schedule_step(c, self.now + n as u64);
            }
            Op::Read(a) | Op::Write(a) => {
                let line = self.lines.intern(a);
                self.access(c, line, matches!(op, Op::Write(_)));
            }
        }
    }

    /// Cores whose copy of `line` conflicts with a request by `c`, as a
    /// mask. Writes conflict with every transactional copy; reads only with
    /// a transactional Modified owner (Algorithm 1, lines 9 and 12).
    fn conflicting_holders(&self, c: usize, line: u32, write: bool) -> u64 {
        let entry = self.dir.entry(line);
        let candidates = if write {
            entry.holders_except(c)
        } else {
            entry.owner.map_or(0, |o| 1u64 << o) & !(1u64 << c)
        };
        let mut out = 0;
        for h in cores_in(candidates) {
            if self.caches[h].is_txn(line) {
                out |= 1u64 << h;
            }
        }
        out
    }

    /// The members of a waiting cycle that parking `c` behind `victims`
    /// would close (without `c` itself), or 0: follow each victim's
    /// `waiting_on` chain and see whether it leads back to `c`.
    fn would_close_cycle(&self, c: usize, victims: u64) -> u64 {
        for v in cores_in(victims) {
            let mut path = 0u64;
            let mut cur = Some(v);
            let mut hops = 0;
            while let Some(x) = cur {
                if x == c {
                    return path;
                }
                path |= 1u64 << x;
                hops += 1;
                if hops > self.cfg.cores {
                    return path; // defensive: runaway chain
                }
                cur = self.cores[x].waiting_on;
            }
        }
        0
    }

    fn access(&mut self, c: usize, line: u32, write: bool) {
        if self.caches[c].touch(line, write) {
            self.cores[c].pc += 1;
            self.schedule_step(c, self.now + self.cfg.latencies.l1_hit);
            return;
        }
        // Miss: go to the directory.
        let victims = self.conflicting_holders(c, line, write);
        if victims == 0 {
            self.perform_miss(c, line, write, self.now);
            return;
        }
        self.stats.global.conflicts += 1;
        // Cycle detection (§3.2(c)): if anyone we would wait behind is
        // already (transitively) waiting on us, a waiting cycle would form.
        // Break it by aborting the *youngest* transaction in the cycle
        // (greedy timestamp order) — always aborting the requestor would
        // let two transactions cycle-break each other forever.
        let cycle = self.would_close_cycle(c, victims);
        if cycle != 0 {
            let youngest = cores_in(cycle | 1u64 << c)
                .max_by_key(|&m| (self.cores[m].first_start, m))
                .expect("cycle has members");
            self.abort_core(youngest, AbortKind::CycleBreak);
            if youngest != c {
                // The cycle is broken; retry the access (it may park
                // normally now, or find the line free).
                self.access(c, line, write);
            }
            return;
        }
        // Slow-path (unkillable) transactions: resolved by age, oldest
        // first — the greedy timestamp rule that makes the fallback a
        // serializing lock rather than a livelock.
        if self.cores[c].unkillable && cores_in(victims).all(|v| self.can_kill(c, v)) {
            for v in cores_in(victims) {
                self.abort_core(v, AbortKind::Conflict);
            }
            self.access(c, line, write); // re-check: the sweep may have granted others
            return;
        }
        // Consult the policy. The conflict chain contains the receiver, the
        // requestor, every transaction already parked behind the receiver,
        // and every transaction parked behind the requestor (§4.1).
        let primary = victims.trailing_zeros() as usize;
        let k = 2 + self.transitive_waiters_on(c) + self.transitive_waiters_on(primary);
        self.stats.record_chain(k);
        let k_policy = if self.cfg.chain_aware { k } else { 2 };
        let grace = self.sample_grace(c, primary, k_policy);
        if grace == 0 {
            match self.mode {
                ResolutionMode::RequestorWins => {
                    if cores_in(victims).all(|v| self.can_kill(c, v)) {
                        for v in cores_in(victims) {
                            self.abort_core(v, AbortKind::Conflict);
                        }
                        // The abort sweep may have handed the line to a parked
                        // requestor; re-run the access to re-check conflicts.
                        self.access(c, line, write);
                    } else {
                        // A protected slow-path victim holds the line; the
                        // requestor yields instead.
                        self.abort_core(c, AbortKind::Conflict);
                    }
                }
                ResolutionMode::RequestorAborts => {
                    self.abort_core(c, AbortKind::Conflict);
                }
            }
            return;
        }
        // Delayed resolution: park the request and arm the deadline.
        self.stats.global.delayed_conflicts += 1;
        let id = match self.pending.iter().position(Option::is_none) {
            Some(i) => i,
            None => {
                self.pending.push(None);
                self.pending.len() - 1
            }
        };
        let deadline = self.schedule(self.now + grace, DEADLINE, id);
        self.pending[id] = Some(PendingReq {
            deadline,
            requestor: c,
            line,
            write,
            stall_start: self.now,
            victim: primary,
            victim_epoch: self.cores[primary].epoch,
        });
        self.cores[c].waiting_req = Some(id);
        self.set_waiting_on(c, Some(primary));
    }

    /// Sample the grace period `requestor` grants against `primary` for a
    /// chain of length `k`, in cycles.
    ///
    /// The *costed* core's arbiter knows the inflated abort cost (it is the
    /// side that would die); the *requestor's* arbiter samples the grace
    /// with the requestor's own random stream. The arbiter clamps to the
    /// policy cap; the horizon clamp is simulator-specific (backoff can
    /// inflate B geometrically, and a grace period beyond the horizon is
    /// equivalent to "never abort" within this run).
    fn sample_grace(&mut self, requestor: usize, primary: usize, k: usize) -> u64 {
        let costed = match self.mode {
            ResolutionMode::RequestorWins => primary,
            ResolutionMode::RequestorAborts => requestor,
        };
        let elapsed = self.now.saturating_sub(self.cores[costed].attempt_start);
        let b = self.cores[costed]
            .arbiter
            .effective_cost((elapsed + self.cfg.abort_cleanup) as f64);
        let core = &mut self.cores[requestor];
        core.arbiter
            .sample(b, k, &mut core.rng)
            .grace
            .min(self.cfg.horizon as f64)
            .round() as u64
    }

    /// Complete a conflict-free miss: run the MSI transitions, install the
    /// line, and schedule the instruction completion.
    fn perform_miss(&mut self, c: usize, line: u32, write: bool, start: u64) {
        let entry = self.dir.entry(line);
        let cold = entry.is_cold();
        let mut remote = false;
        let e = self.dir.entry_mut(line);
        if write {
            for h in cores_in(entry.holders_except(c)) {
                self.caches[h].remove(line);
                e.remove_core(h);
                remote = true;
            }
            e.remove_core(c); // drop our own Shared bit on upgrade
            e.owner = Some(c);
        } else {
            if let Some(o) = entry.owner.filter(|&o| o != c) {
                // Downgrade the (non-transactional) owner to Shared.
                self.caches[o].downgrade(line);
                e.owner = None;
                e.add_sharer(o);
                remote = true;
            }
            e.add_sharer(c);
        }
        let state = if write {
            CopyState::Modified
        } else {
            CopyState::Shared
        };
        match self.caches[c].install(line, state, true, self.cfg.l1_capacity) {
            Install::CapacityAbort => {
                // Roll the directory back for the line we failed to install.
                e.remove_core(c);
                self.abort_core(c, AbortKind::Capacity);
                return;
            }
            Install::Evicted(victim_line) => {
                self.dir.entry_mut(victim_line).remove_core(c);
            }
            Install::Ok => {}
        }
        debug_assert!(self.dir.check_invariants().is_ok());
        let lat = self.cfg.miss_latency(remote, cold);
        self.cores[c].pc += 1;
        self.schedule_step(c, start + lat);
    }

    // -- conflict resolution -------------------------------------------------

    fn handle_deadline(&mut self, id: usize, seq: u64) {
        let Some(req) = self.pending[id] else { return };
        if req.deadline != seq {
            return;
        }
        match self.mode {
            ResolutionMode::RequestorWins => {
                // The grace period was armed against a specific receiver. If
                // that receiver is gone (committed/aborted) and the line
                // changed hands, this is a *new* conflict: re-arm with a
                // fresh grace period. Otherwise the grace truly expired:
                // abort the holders (protected slow-path victims survive).
                let victims = self.conflicting_holders(req.requestor, req.line, req.write);
                let original_still_holds = victims >> req.victim & 1 == 1
                    && self.cores[req.victim].epoch == req.victim_epoch;
                if !original_still_holds {
                    self.rearm_deadline(id);
                    return;
                }
                for v in cores_in(victims) {
                    if self.can_kill(req.requestor, v) {
                        self.abort_core(v, AbortKind::Conflict);
                    }
                }
                if self.pending[id].is_some() {
                    self.rearm_deadline(id);
                }
            }
            ResolutionMode::RequestorAborts => {
                self.abort_core(req.requestor, AbortKind::Conflict);
            }
        }
    }

    /// Re-arm a still-pending request against its new blocking holder with
    /// a freshly sampled grace period.
    fn rearm_deadline(&mut self, id: usize) {
        let Some(req) = self.pending[id] else { return };
        let victims = self.conflicting_holders(req.requestor, req.line, req.write);
        if victims == 0 {
            self.grant(id, false);
            return;
        }
        let primary = victims.trailing_zeros() as usize;
        let k = if self.cfg.chain_aware {
            2 + self.transitive_waiters_on(req.requestor) + self.transitive_waiters_on(primary)
        } else {
            2
        };
        // Re-armed deadlines must advance time: floor at 1 cycle.
        let grace = self.sample_grace(req.requestor, primary, k).max(1);
        let deadline = self.schedule(self.now + grace, DEADLINE, id);
        let victim_epoch = self.cores[primary].epoch;
        if let Some(r) = self.pending[id].as_mut() {
            r.deadline = deadline;
            r.victim = primary;
            r.victim_epoch = victim_epoch;
        }
        self.set_waiting_on(req.requestor, Some(primary));
    }

    /// Grant every pending request that is no longer blocked by a
    /// transactional holder. `by_commit` marks grants caused by the blocking
    /// transaction committing (the "delay paid off" statistic).
    fn grant_unblocked(&mut self, by_commit: bool) {
        // FIFO by park time, slab slot breaking ties: the longest-waiting
        // requestor gets the line first (prevents starvation of early
        // parkers when slab slots are reused LIFO). The order is fixed up
        // front — on the stack: a core parks at most one request, so the
        // slab never outgrows 64 slots — because a grant can abort
        // (capacity) and so re-enter this sweep.
        let mut order = [0u8; 64];
        let mut parked = 0;
        for (id, req) in self.pending.iter().enumerate() {
            let Some(req) = req else { continue };
            // Insertion sort; slots arrive in ascending id, so equal park
            // times keep slab order.
            let mut at = parked;
            while at > 0
                && self.pending[order[at - 1] as usize]
                    .is_some_and(|earlier| earlier.stall_start > req.stall_start)
            {
                order[at] = order[at - 1];
                at -= 1;
            }
            order[at] = id as u8;
            parked += 1;
        }
        // Re-check holders before each grant — an earlier grant in this
        // sweep may have re-blocked the line, or cancelled the request.
        for &id in &order[..parked] {
            let id = usize::from(id);
            if let Some(req) = self.pending[id] {
                if self.conflicting_holders(req.requestor, req.line, req.write) == 0 {
                    self.grant(id, by_commit);
                }
            }
        }
    }

    fn grant(&mut self, id: usize, by_commit: bool) {
        let Some(req) = self.pending[id].take() else {
            return;
        };
        let r = req.requestor;
        self.cores[r].waiting_req = None;
        self.set_waiting_on(r, None);
        self.cores[r].attempt_stall += self.now - req.stall_start;
        self.stats.per_thread[r].wait_cycles += self.now - req.stall_start;
        if by_commit {
            self.stats.global.saved_by_delay += 1;
        }
        self.perform_miss(r, req.line, req.write, self.now);
    }

    /// May `killer`'s conflict resolution abort `victim`? Ordinary
    /// transactions are always killable; slow-path (unkillable) victims only
    /// yield to older slow-path transactions (greedy timestamp priority).
    fn can_kill(&self, killer: usize, victim: usize) -> bool {
        if !self.cores[victim].unkillable {
            return true;
        }
        if !self.cores[killer].unkillable {
            return false;
        }
        (self.cores[killer].first_start, killer) < (self.cores[victim].first_start, victim)
    }

    // -- waiting-graph queries ------------------------------------------------

    /// Point `c`'s waiting edge at `target`, keeping the reverse masks in
    /// step.
    fn set_waiting_on(&mut self, c: usize, target: Option<usize>) {
        if let Some(old) = self.cores[c].waiting_on {
            self.cores[old].waited_by &= !(1u64 << c);
        }
        if let Some(new) = target {
            self.cores[new].waited_by |= 1u64 << c;
        }
        self.cores[c].waiting_on = target;
    }

    /// Number of cores transitively waiting on `c` (the `k − 2` extra
    /// members of the conflict chain beyond requestor and receiver).
    fn transitive_waiters_on(&self, c: usize) -> usize {
        let mut seen = 1u64 << c;
        let mut frontier = seen;
        while frontier != 0 {
            let t = frontier.trailing_zeros() as usize;
            frontier &= frontier - 1;
            let new = self.cores[t].waited_by & !seen;
            seen |= new;
            frontier |= new;
        }
        seen.count_ones() as usize - 1
    }

    /// Consistency check, run by tests and the benchmark harness after
    /// every simulation: the directory's own invariant, then every
    /// transactional line each cache lists against the (separately
    /// maintained) directory entry for it.
    pub fn check_coherence(&self) -> Result<(), String> {
        self.dir.check_invariants()?;
        for (c, cache) in self.caches.iter().enumerate() {
            for &id in cache.txn_lines() {
                let a = self.lines.addr(id);
                let Some(line) = cache.get(id).filter(|l| l.txn) else {
                    return Err(format!(
                        "core {c} lists {a:#x} as transactional but holds no such copy"
                    ));
                };
                let entry = self.dir.entry(id);
                match line.state {
                    CopyState::Modified => {
                        if entry.owner != Some(c) {
                            return Err(format!("core {c} has M on {a:#x} w/o ownership"));
                        }
                    }
                    CopyState::Shared => {
                        if entry.sharers >> c & 1 == 0 {
                            return Err(format!("core {c} has S on {a:#x} w/o sharer bit"));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcp_core::policy::{DetRw, HandTuned, NoDelay};
    use tcp_core::profiler::{AdaptiveMean, MeanProfiler};
    use tcp_core::randomized::{RandRa, RandRw};
    use tcp_workloads::programs::{ListWorkload, QueueWorkload, StackWorkload, TxAppWorkload};

    fn run_with(cores: usize, policy: Arc<dyn GracePolicy>, horizon: u64) -> ShardedStats {
        let mut cfg = SimConfig::new(cores, policy);
        cfg.horizon = horizon;
        let mut sim = Simulator::new(cfg, Arc::new(StackWorkload::default()));
        sim.run();
        sim.check_coherence().expect("coherence violated");
        sim.stats.clone()
    }

    #[test]
    fn single_core_commits_without_aborts() {
        let s = run_with(1, Arc::new(NoDelay::requestor_wins()), 200_000);
        assert!(s.commits() > 1000, "commits {}", s.commits());
        assert_eq!(s.aborts(), 0);
        assert_eq!(s.global.conflicts, 0);
    }

    #[test]
    fn contended_no_delay_aborts_a_lot() {
        let s = run_with(8, Arc::new(NoDelay::requestor_wins()), 200_000);
        assert!(s.commits() > 0);
        assert!(s.aborts() > 0, "hot stack with 8 threads must conflict");
        assert!(s.global.conflicts > 0);
    }

    #[test]
    fn delay_policies_reduce_wasted_work_under_contention() {
        let nd = run_with(12, Arc::new(NoDelay::requestor_wins()), 400_000);
        let rw = run_with(12, Arc::new(RandRw), 400_000);
        assert!(
            rw.commits() > nd.commits(),
            "delaying should beat NO_DELAY on a hot stack: {} vs {}",
            rw.commits(),
            nd.commits()
        );
        assert!(
            rw.global.saved_by_delay > 0,
            "some receivers must commit within grace"
        );
    }

    #[test]
    fn requestor_aborts_mode_also_progresses() {
        let s = run_with(8, Arc::new(RandRa), 300_000);
        assert!(s.commits() > 500, "commits {}", s.commits());
    }

    #[test]
    fn deterministic_under_seed() {
        let a = run_with(6, Arc::new(RandRw), 100_000);
        let b = run_with(6, Arc::new(RandRw), 100_000);
        assert_eq!(a.commits(), b.commits());
        assert_eq!(a.aborts(), b.aborts());
        assert_eq!(a.global.conflicts, b.global.conflicts);
        assert_eq!(a.merged().wait_cycles, b.merged().wait_cycles);
    }

    #[test]
    fn different_seeds_differ() {
        let mk = |seed| {
            let mut cfg = SimConfig::new(6, Arc::new(RandRw));
            cfg.horizon = 100_000;
            cfg.seed = seed;
            let mut sim = Simulator::new(cfg, Arc::new(StackWorkload::default()));
            sim.run().commits()
        };
        assert_ne!(mk(1), mk(2));
    }

    #[test]
    fn capacity_aborts_engage_with_tiny_cache() {
        let mut cfg = SimConfig::new(1, Arc::new(NoDelay::requestor_wins()));
        cfg.l1_capacity = 1; // stack txns touch 2 lines
        cfg.horizon = 50_000;
        cfg.max_retries = u32::MAX; // fallback cannot mask capacity aborts
        let mut sim = Simulator::new(cfg, Arc::new(StackWorkload::default()));
        sim.run();
        assert!(
            sim.stats.per_thread[0].capacity_aborts > 0,
            "2-line cache must overflow"
        );
    }

    #[test]
    fn fallback_engages_under_extreme_contention() {
        let mut cfg = SimConfig::new(16, Arc::new(NoDelay::requestor_wins()));
        cfg.horizon = 400_000;
        cfg.max_retries = 2;
        let mut sim = Simulator::new(cfg, Arc::new(StackWorkload::default()));
        sim.run();
        let fallbacks: u64 = sim.stats.per_thread.iter().map(|c| c.fallbacks).sum();
        assert!(fallbacks > 0, "with max_retries=2 some core must fall back");
        assert!(sim.stats.commits() > 0);
    }

    #[test]
    fn all_cores_make_progress_with_delays() {
        let mut cfg = SimConfig::new(8, Arc::new(DetRw));
        cfg.horizon = 1_000_000;
        let mut sim = Simulator::new(cfg, Arc::new(StackWorkload::default()));
        sim.run();
        for (i, c) in sim.stats.per_thread.iter().enumerate() {
            assert!(c.commits > 0, "core {i} starved: {c:?}");
        }
    }

    #[test]
    fn queue_less_contended_than_stack() {
        let mk = |w: Arc<dyn WorkloadGen>| {
            let mut cfg = SimConfig::new(8, Arc::new(NoDelay::requestor_wins()));
            cfg.horizon = 300_000;
            let mut sim = Simulator::new(cfg, w);
            sim.run();
            sim.stats.abort_ratio()
        };
        let stack = mk(Arc::new(StackWorkload::default()));
        let queue = mk(Arc::new(QueueWorkload::default()));
        assert!(
            queue < stack,
            "two hotspots should abort less than one: queue {queue} vs stack {stack}"
        );
    }

    #[test]
    fn txapp_scales_better_than_stack() {
        let mk = |w: Arc<dyn WorkloadGen>| {
            let mut cfg = SimConfig::new(16, Arc::new(RandRw));
            cfg.horizon = 300_000;
            let mut sim = Simulator::new(cfg, w);
            sim.run();
            sim.stats.global.conflicts as f64 / sim.stats.commits() as f64
        };
        let stack = mk(Arc::new(StackWorkload::default()));
        let txapp = mk(Arc::new(TxAppWorkload::default()));
        assert!(
            txapp < stack,
            "64 objects dilute contention (conflicts/commit): {txapp} vs {stack}"
        );
    }

    #[test]
    fn chains_longer_than_two_are_observed() {
        let mut cfg = SimConfig::new(
            16,
            Arc::new(HandTuned::new(ResolutionMode::RequestorWins, 500.0)),
        );
        cfg.horizon = 300_000;
        let mut sim = Simulator::new(cfg, Arc::new(StackWorkload::default()));
        sim.run();
        let long_chains: u64 = sim.stats.global.chain_hist[3..].iter().sum();
        assert!(
            long_chains > 0,
            "16 threads on one hotspot with long delays must form chains: {:?}",
            sim.stats.global.chain_hist
        );
    }

    #[test]
    fn stall_cycles_accrue_only_with_delays() {
        let nd = run_with(8, Arc::new(NoDelay::requestor_wins()), 200_000);
        assert_eq!(nd.merged().wait_cycles, 0, "NO_DELAY never parks a request");
        let det = run_with(8, Arc::new(DetRw), 200_000);
        assert!(det.merged().wait_cycles > 0);
    }

    #[test]
    fn latency_accounting_is_sane() {
        let s = run_with(4, Arc::new(RandRw), 200_000);
        // Average latency per committed txn must be at least the body length.
        let avg = s.merged().total_latency as f64 / s.commits() as f64;
        assert!(avg >= StackWorkload::default().mean_body_cycles());
        assert!(avg < 100_000.0, "implausible avg latency {avg}");
    }

    #[test]
    fn single_thread_throughput_is_highest_per_thread() {
        let per_thread = |cores: usize| {
            let nd = Arc::new(NoDelay::requestor_wins());
            let s = run_with(cores, nd, 200_000);
            s.ops_per_second(1.0) / cores as f64
        };
        assert!(
            per_thread(8) < per_thread(1),
            "contention must reduce per-thread throughput"
        );
    }

    #[test]
    fn adaptive_arm_profiles_and_performs() {
        // The profiler-driven policy closes its loop through the simulator:
        // one MeanProfiler handle on the config, fed each commit's
        // fast-path length, and in the policy, read at each conflict.
        let run = |policy: Arc<dyn GracePolicy>, profiler| {
            let mut cfg = SimConfig::new(8, policy);
            cfg.horizon = 400_000;
            cfg.seed = 7;
            cfg.profiler = profiler;
            let mut sim = Simulator::new(cfg, Arc::new(StackWorkload::default()));
            sim.run().ops_per_second(1.0)
        };
        let profiler = MeanProfiler::shared();
        let adaptive = AdaptiveMean::requestor_wins(Arc::clone(&profiler));
        let adaptive = run(Arc::new(adaptive), Some(Arc::clone(&profiler)));
        // The profiler saw the commits...
        assert!(profiler.samples() > 100);
        let mu = profiler.mean().unwrap();
        assert!(mu > 10.0 && mu < 10_000.0, "profiled mean {mu}");
        // ...and the adaptive arm stays within 2x of the tuned arm.
        let delay = StackWorkload::default().tuned_delay();
        let tuned = run(
            Arc::new(HandTuned::new(ResolutionMode::RequestorWins, delay)),
            None,
        );
        assert!(
            adaptive > tuned / 2.0,
            "adaptive {adaptive} vs tuned {tuned}"
        );
    }

    // -- configuration is validated where it is used -------------------------

    /// A simulator built from a configuration edited after `SimConfig::new`.
    fn build_with(edit: impl FnOnce(&mut SimConfig)) -> Simulator {
        let mut cfg = SimConfig::new(4, Arc::new(RandRw));
        edit(&mut cfg);
        Simulator::new(cfg, Arc::new(StackWorkload::default()))
    }

    #[test]
    #[should_panic(expected = "invalid SimConfig: 1..=64 cores supported, got 65")]
    fn a_65th_core_is_rejected_not_aliased_onto_core_0() {
        build_with(|cfg| cfg.cores = 65);
    }

    #[test]
    #[should_panic(expected = "invalid SimConfig: 1..=64 cores supported, got 0")]
    fn zero_cores_are_rejected() {
        build_with(|cfg| cfg.cores = 0);
    }

    #[test]
    #[should_panic(expected = "invalid SimConfig: l1_capacity must be at least 1")]
    fn zero_capacity_cache_is_rejected() {
        build_with(|cfg| cfg.l1_capacity = 0);
    }

    #[test]
    #[should_panic(expected = "invalid SimConfig: horizon must be at least 1")]
    fn zero_horizon_is_rejected() {
        build_with(|cfg| cfg.horizon = 0);
    }

    #[test]
    #[should_panic(expected = "invalid SimConfig: grace_cap_factor must be positive, got 0")]
    fn zero_grace_cap_is_rejected() {
        build_with(|cfg| cfg.grace_cap_factor = 0.0);
    }

    #[test]
    #[should_panic(expected = "invalid SimConfig: grace_cap_factor must be positive, got NaN")]
    fn nan_grace_cap_is_rejected() {
        build_with(|cfg| cfg.grace_cap_factor = f64::NAN);
    }

    #[test]
    fn infinite_grace_cap_means_uncapped() {
        let mut sim = build_with(|cfg| {
            cfg.grace_cap_factor = f64::INFINITY;
            cfg.horizon = 50_000;
        });
        assert!(sim.run().commits() > 0);
    }

    #[test]
    fn sixty_four_cores_use_the_top_mask_bit() {
        let mut cfg = SimConfig::new(64, Arc::new(RandRw));
        cfg.horizon = 30_000;
        let mut sim = Simulator::new(cfg, Arc::new(TxAppWorkload::default()));
        sim.run();
        sim.check_coherence().expect("coherence violated");
        assert!(sim.stats.per_thread[63].commits > 0, "core 63 starved");
    }

    // -- check_coherence still has teeth --------------------------------------

    /// A simulator stopped mid-flight, with some core `c` holding line `id`
    /// in its running transaction in state `state`.
    fn stopped_with_txn_line(state: CopyState) -> (Simulator, usize, u32) {
        let mut cfg = SimConfig::new(4, Arc::new(DetRw));
        cfg.horizon = 20_000;
        // Writers hold their lines for most of a txapp transaction, readers
        // for most of a list traversal.
        let workload: Arc<dyn WorkloadGen> = match state {
            CopyState::Modified => Arc::new(TxAppWorkload::default()),
            CopyState::Shared => Arc::new(ListWorkload::default()),
        };
        let mut sim = Simulator::new(cfg, workload);
        sim.run();
        sim.check_coherence().expect("coherent before corruption");
        let found = sim.caches.iter().enumerate().find_map(|(c, cache)| {
            let id = cache
                .txn_lines()
                .iter()
                .find(|&&id| cache.get(id).unwrap().state == state)?;
            Some((c, *id))
        });
        let (c, id) = found.expect("some transaction holds such a line at the horizon");
        (sim, c, id)
    }

    #[test]
    fn check_coherence_catches_an_owner_with_a_foreign_sharer() {
        let (mut sim, c, id) = stopped_with_txn_line(CopyState::Modified);
        sim.dir.entry_mut(id).add_sharer((c + 1) % 4);
        let err = sim.check_coherence().expect_err("corruption missed");
        assert!(err.contains("coexists with sharers"), "{err}");
    }

    #[test]
    fn check_coherence_catches_a_modified_copy_the_directory_does_not_own() {
        let (mut sim, c, id) = stopped_with_txn_line(CopyState::Modified);
        sim.dir.entry_mut(id).owner = None;
        let err = sim.check_coherence().expect_err("corruption missed");
        assert!(err.contains(&format!("core {c} has M")), "{err}");
    }

    #[test]
    fn check_coherence_catches_a_shared_copy_without_its_sharer_bit() {
        let (mut sim, c, id) = stopped_with_txn_line(CopyState::Shared);
        sim.dir.entry_mut(id).remove_core(c);
        let err = sim.check_coherence().expect_err("corruption missed");
        assert!(err.contains(&format!("core {c} has S")), "{err}");
    }

    #[test]
    fn check_coherence_catches_a_listed_line_that_is_not_resident() {
        let (mut sim, c, _) = stopped_with_txn_line(CopyState::Shared);
        let absent = (0..sim.lines.len() as u32)
            .find(|&id| sim.caches[c].get(id).is_none())
            .expect("some line is not in this cache");
        sim.caches[c].corrupt_txn_list(absent);
        let err = sim.check_coherence().expect_err("corruption missed");
        assert!(err.contains("holds no such copy"), "{err}");
    }

    #[test]
    fn addresses_are_only_names() {
        // The same programs over two address ranges that intern to the same
        // ids: no simulated quantity may depend on the addresses themselves.
        let run = |base: u64| {
            let programs = (0..8u64)
                .map(|i| TxnProgram {
                    ops: vec![
                        Op::Write(base + i % 3),
                        Op::Compute(20),
                        Op::Read(base + 3 + i % 2),
                    ],
                })
                .collect();
            let mut cfg = SimConfig::new(4, Arc::new(RandRw));
            cfg.horizon = 40_000;
            let mut sim = Simulator::new(
                cfg,
                Arc::new(tcp_workloads::programs::FixedProgramsWorkload::new(
                    programs,
                )),
            );
            sim.run();
            sim.check_coherence().expect("coherence violated");
            sim.stats.clone()
        };
        assert_eq!(run(0), run(1 << 30));
    }
}
