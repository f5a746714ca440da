//! The workspace's one bounded lock-free MPMC ring (Vyukov's bounded queue:
//! per-slot sequence numbers, CAS-claimed cursors). The server's shard
//! queues hand requests through it and the lifecycle trace records events
//! into it; the slot protocol, its `unsafe` and its argument live here and
//! nowhere else.
//!
//! **Slot invariant.** Position `pos` lives in slot `pos & mask`, and the
//! slot's `seq` says whose turn it is:
//!
//! * `seq == pos` — free for the producer that wins ticket `pos`;
//! * `seq == pos + 1` — the value is published, readable by the consumer
//!   that claims position `pos`;
//! * `seq == pos + slots` — that consumer has read the value out; the slot
//!   is free for the next lap.
//!
//! The three must be distinct, so a ring never has fewer than 2 slots (with
//! one, "published at `pos`" and "free for `pos + 1`" are both
//! `seq == pos + 1`).
//!
//! **Linearization.** A push takes effect at its ticket CAS on `tail`, a pop
//! at its claim CAS on `head`. A consumer scans forward from `head` over
//! the run of published slots (up to what it asked for) and claims the
//! whole run with that one CAS, so [`Ring::try_pop_batch`] of n costs one
//! `head` write, not n, and linearizes as n pops at the CAS; [`Ring::try_pop`]
//! is the run of one. A consumer CASes only after it has seen every slot of
//! the run published, so the CAS transfers ownership of the values and any
//! number of concurrent consumers partition the values exactly once, in
//! ticket order. `close` sets a bit in the `tail` word itself, so "was this
//! ticket won before the close" has one answer: no push can win a ticket
//! after it. The slot's `seq` store (`Release`) / load (`Acquire`) pair is
//! what carries the value from producer to consumer and the emptied slot
//! back.
//!
//! **Refusals.** [`Ring::try_push`] never waits and hands a refused value
//! back with the reason: [`Refusal::Closed`], [`Refusal::Full`] (depth ≥
//! capacity) or [`Refusal::Lapped`] — the slot of this ticket is still in
//! the hands of a consumer that has claimed its previous lap's position and
//! not yet released it. Lapped is not fullness (depth < capacity) and ends
//! as soon as that consumer runs; a caller that sheds load re-checks after a
//! `yield_now`, a caller that must never wait drops.
//!
//! Every `tail`/`head` access is `SeqCst` (the shard queue's parked-consumer
//! hand-off reads them as one half of a Dekker pair); whether any of them
//! may be weaker is ROADMAP item 1(c)'s question, to be answered with an
//! interleaving explorer rather than here.

use std::cell::UnsafeCell;
use std::cmp::Ordering as Cmp;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::pad::CachePadded;

/// Why [`Ring::try_push`] handed the value back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Refusal {
    /// [`Ring::close`] was called; nothing is admitted any more.
    Closed,
    /// Depth ≥ capacity.
    Full,
    /// Depth < capacity, but the slot is not yet released by the in-flight
    /// consumer of its previous lap. Transient: re-check.
    Lapped,
}

/// A refused push: the value, back with its owner, and the reason.
#[derive(Debug)]
pub struct Refused<T> {
    pub value: T,
    pub why: Refusal,
}

/// What a consumer would find at `head` right now (see [`Ring::front`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Front {
    /// A published value: `try_pop` will take it unless another consumer
    /// does first.
    Ready,
    /// A ticket is won but its value is not yet published (the producer is
    /// between its CAS and its `seq` store), or another consumer is just
    /// claiming it. Re-check.
    Publishing,
    /// No ticket is outstanding and the ring is open.
    Empty,
    /// Closed, and every won ticket has been claimed: final.
    Finished,
}

struct Slot<T> {
    seq: AtomicUsize,
    value: UnsafeCell<MaybeUninit<T>>,
}

/// High bit of `tail`: set by [`Ring::close`]. Ticket positions use the
/// remaining bits (exhausting 63 of them would take centuries of pushes).
const CLOSED_BIT: usize = 1 << (usize::BITS - 1);
const TICKET_MASK: usize = CLOSED_BIT - 1;

/// A bounded lock-free multi-producer multi-consumer FIFO of `T`.
pub struct Ring<T> {
    slots: Box<[Slot<T>]>,
    /// `slots.len() - 1`; the length is a power of two ≥ max(capacity, 2).
    mask: usize,
    /// Logical bound: at most this many values are admitted and unclaimed.
    capacity: usize,
    /// Producer ticket cursor with [`CLOSED_BIT`] folded in. Written on
    /// every push, so it has a cache line to itself.
    tail: CachePadded<AtomicUsize>,
    /// Consumer cursor. Written on every pop; a line to itself too.
    head: CachePadded<AtomicUsize>,
}

// SAFETY: a slot's value is written only by the producer that won the
// slot's ticket, before its `Release` store of `seq = pos + 1`, and read
// only by the consumer whose `head` CAS claimed `pos`, after an `Acquire`
// load saw that store; that consumer's `Release` store of `seq = pos +
// slots` hands the emptied slot to the next lap's producer the same way. So
// no two threads ever touch a slot's value at once, and each value moves
// from one thread to one other (or is dropped by whoever drops the ring):
// `T: Send` is all that takes. `slots`, `mask` and `capacity` never change;
// the cursors are atomics.
unsafe impl<T: Send> Send for Ring<T> {}
unsafe impl<T: Send> Sync for Ring<T> {}

#[cfg(test)]
thread_local! {
    /// Test-only: what this thread runs between winning a `head` CAS and
    /// releasing the slot — the window a descheduled consumer leaves open.
    static CLAIM_PAUSE: std::cell::RefCell<Option<Box<dyn FnMut()>>> =
        const { std::cell::RefCell::new(None) };
}

impl<T> Ring<T> {
    /// A ring admitting at most `capacity` values at a time.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a zero-capacity ring would refuse everything");
        let slots = capacity.max(2).next_power_of_two();
        Self {
            slots: (0..slots)
                .map(|i| Slot {
                    seq: AtomicUsize::new(i),
                    value: UnsafeCell::new(MaybeUninit::uninit()),
                })
                .collect(),
            mask: slots - 1,
            capacity,
            tail: CachePadded::new(AtomicUsize::new(0)),
            head: CachePadded::new(AtomicUsize::new(0)),
        }
    }

    /// `tail − head` clamped to `0..=capacity`: the cursors are read one
    /// after the other, so either may have moved on.
    fn depth(&self, tail: usize, head: usize) -> usize {
        (tail.wrapping_sub(head) as isize).clamp(0, self.capacity as isize) as usize
    }

    /// Values admitted and not yet claimed (racy snapshot, `0..=capacity`).
    pub fn len(&self) -> usize {
        let tail = self.tail.load(Ordering::SeqCst) & TICKET_MASK;
        self.depth(tail, self.head.load(Ordering::SeqCst))
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Admit `value`, or hand it back with the reason. On success returns
    /// the depth just after the push (exact when uncontended, a snapshot
    /// under concurrency, never above `capacity`).
    ///
    /// Never waits. Lock-free: a push finishes in a bounded number of steps
    /// unless other producers keep winning the ticket CAS.
    ///
    /// `#[inline]`: out of line, `value` is copied into the call and back
    /// out of a refusal instead of being written straight into its slot
    /// (`queue.push_ns` in the repo benchmark: +2.4 ns on 21).
    #[inline]
    pub fn try_push(&self, value: T) -> Result<usize, Refused<T>> {
        let refuse = |value, why| Err(Refused { value, why });
        let mut tail = self.tail.load(Ordering::SeqCst);
        loop {
            // The closed bit lives in the ticket word, so this check and
            // the CAS below are one admission decision: once `close` sets
            // the bit, no CAS against a clean expected value can win.
            if tail & CLOSED_BIT != 0 {
                return refuse(value, Refusal::Closed);
            }
            // `head` only advances, so a depth that passes here can only
            // have shrunk by the time the CAS wins: the bound holds.
            let depth = tail.wrapping_sub(self.head.load(Ordering::SeqCst)) as isize;
            if depth < 0 {
                // `head` was read after `tail` and has already passed it:
                // the ticket snapshot is stale, not the ring full.
                tail = self.tail.load(Ordering::SeqCst);
                continue;
            }
            if depth as usize >= self.capacity {
                return refuse(value, Refusal::Full);
            }
            let slot = &self.slots[tail & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            match (seq as isize).wrapping_sub(tail as isize).cmp(&0) {
                Cmp::Equal => {
                    match self.tail.compare_exchange_weak(
                        tail,
                        tail + 1,
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                    ) {
                        Ok(_) => {
                            // SAFETY: the CAS won ticket `tail` while the
                            // slot's `seq` said it is free for exactly that
                            // ticket; nobody else touches the value until
                            // the store below publishes it.
                            unsafe { (*slot.value.get()).write(value) };
                            slot.seq.store(tail.wrapping_add(1), Ordering::Release);
                            return Ok(self.depth(tail + 1, self.head.load(Ordering::SeqCst)));
                        }
                        Err(t) => tail = t,
                    }
                }
                // Still last lap's `seq`, although the depth check says its
                // position is claimed: the claimant has not released it yet.
                Cmp::Less => return refuse(value, Refusal::Lapped),
                // Another producer won this ticket between the loads.
                Cmp::Greater => tail = self.tail.load(Ordering::SeqCst),
            }
        }
    }

    /// Claim and take the oldest published value, if there is one: the
    /// one-slot case of [`try_pop_batch`](Self::try_pop_batch).
    pub fn try_pop(&self) -> Option<T> {
        let mut got = None;
        self.claim(1, |value| got = Some(value));
        got
    }

    /// Claim up to `max` of the oldest published values with one `head`
    /// CAS and append them to `out` in ticket order; returns how many (0
    /// when nothing is published at `head`, or `max` is 0). Safe from any
    /// number of threads at once; never waits (a value whose producer is
    /// mid-publish ends the run).
    pub fn try_pop_batch(&self, max: usize, out: &mut Vec<T>) -> usize {
        // Grow before claiming, so no reallocation holds claimed slots
        // unreleased.
        out.reserve(max.min(self.capacity));
        self.claim(max, |value| out.push(value))
    }

    /// The ring's one claim: scan forward from `head` while slots are
    /// published (`seq == pos + 1`), up to `max`, claim that whole run with
    /// one CAS of `head`, then read out and release each claimed slot in
    /// order, handing its value to `take`.
    ///
    /// A slot seen published stays published until the consumer of its
    /// position releases it, and that consumer must first have moved
    /// `head` past it. So a CAS that finds `head` unchanged since the scan
    /// claims exactly the run the scan saw: it linearizes as that many
    /// pops, each in ticket order.
    #[inline]
    fn claim(&self, max: usize, mut take: impl FnMut(T)) -> usize {
        if max == 0 {
            return 0;
        }
        // How far the slot of `pos` is past "published for `pos`": 0 when
        // it is, negative while its value is not yet there, positive once
        // a consumer has taken it.
        let published = |pos: usize| {
            let seq = self.slots[pos & self.mask].seq.load(Ordering::Acquire);
            (seq as isize).wrapping_sub(pos.wrapping_add(1) as isize)
        };
        let mut head = self.head.load(Ordering::SeqCst);
        loop {
            match published(head).cmp(&0) {
                // Nothing published at `head`.
                Cmp::Less => return 0,
                // Another consumer already took this lap's value; reload.
                Cmp::Greater => {
                    head = self.head.load(Ordering::SeqCst);
                    continue;
                }
                Cmp::Equal => {}
            }
            let mut n = 1;
            while n < max && published(head.wrapping_add(n)) == 0 {
                n += 1;
            }
            if let Err(h) = self.head.compare_exchange_weak(
                head,
                head.wrapping_add(n),
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                head = h; // another consumer claimed some of the run
                continue;
            }
            #[cfg(test)]
            CLAIM_PAUSE.with_borrow_mut(|pause| {
                if let Some(pause) = pause {
                    pause()
                }
            });
            for pos in (0..n).map(|i| head.wrapping_add(i)) {
                let slot = &self.slots[pos & self.mask];
                // SAFETY: the scan's `Acquire` load saw the value published
                // for `pos`, and the CAS made this thread the one consumer
                // of that position; the slot is not reused before the
                // store below.
                let value = unsafe { (*slot.value.get()).assume_init_read() };
                slot.seq
                    .store(pos.wrapping_add(self.slots.len()), Ordering::Release);
                take(value);
            }
            return n;
        }
    }

    /// What is at `head` right now — the question a consumer asks before
    /// it decides to wait. `Finished` is final; the rest are snapshots.
    pub fn front(&self) -> Front {
        let head = self.head.load(Ordering::SeqCst);
        let tail = self.tail.load(Ordering::SeqCst);
        if head != tail & TICKET_MASK {
            let seq = self.slots[head & self.mask].seq.load(Ordering::Acquire);
            if seq == head.wrapping_add(1) {
                Front::Ready
            } else {
                Front::Publishing
            }
        } else if tail & CLOSED_BIT != 0 {
            // The closed bit shares the ticket word: no further ticket can
            // be won, so `head == tickets` stays true.
            Front::Finished
        } else {
            Front::Empty
        }
    }

    /// Stop admitting. Linearizes with admission: every push either won its
    /// ticket before this call (and will be popped) or is refused.
    pub fn close(&self) {
        self.tail.fetch_or(CLOSED_BIT, Ordering::SeqCst);
    }
}

impl<T> Drop for Ring<T> {
    fn drop(&mut self) {
        // Values admitted but never popped are dropped with the ring.
        while self.try_pop().is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::mpsc;

    /// A payload that counts its drops, so "delivered exactly once" also
    /// means "neither leaked nor dropped twice".
    struct Counted<'a> {
        id: u64,
        drops: &'a AtomicU64,
    }

    impl Drop for Counted<'_> {
        fn drop(&mut self) {
            self.drops.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn counted(id: u64, drops: &AtomicU64) -> Counted<'_> {
        Counted { id, drops }
    }

    fn why<T>(r: Result<usize, Refused<T>>) -> Option<Refusal> {
        r.err().map(|refused| refused.why)
    }

    #[test]
    fn fifo_with_exact_refusals_and_capacity_below_slot_count() {
        // 5 rounds up to 8 slots; admission still stops at 5.
        let drops = AtomicU64::new(0);
        let ring = Ring::new(5);
        for id in 0..5 {
            assert_eq!(
                ring.try_push(counted(id, &drops)).ok(),
                Some(id as usize + 1)
            );
        }
        for id in 5..9 {
            let refused = ring.try_push(counted(id, &drops)).unwrap_err();
            assert_eq!(refused.why, Refusal::Full);
            assert_eq!(refused.value.id, id, "a refusal hands the value back");
        }
        assert_eq!(drops.load(Ordering::SeqCst), 4, "only the refused ones");
        assert_eq!(ring.len(), 5);
        for id in 0..5 {
            assert_eq!(ring.try_pop().map(|c| c.id), Some(id), "FIFO");
        }
        assert!(ring.try_pop().is_none());
        assert_eq!(ring.front(), Front::Empty);
        // Popping frees capacity again.
        assert_eq!(ring.try_push(counted(9, &drops)).ok(), Some(1));
        assert_eq!(ring.front(), Front::Ready);
    }

    #[test]
    fn wraps_across_a_hundred_laps() {
        let drops = AtomicU64::new(0);
        let ring = Ring::new(2);
        for id in 0..200 {
            assert_eq!(ring.try_push(counted(id, &drops)).ok(), Some(1));
            assert_eq!(ring.try_pop().map(|c| c.id), Some(id));
        }
        assert!(ring.is_empty());
        assert_eq!(drops.load(Ordering::SeqCst), 200);
    }

    #[test]
    fn close_is_a_hard_admission_barrier_and_the_backlog_drains() {
        let drops = AtomicU64::new(0);
        let ring = Ring::new(64);
        for id in 0..10 {
            assert!(ring.try_push(counted(id, &drops)).is_ok());
        }
        ring.close();
        std::thread::scope(|s| {
            for t in 1..4 {
                let (ring, drops) = (&ring, &drops);
                s.spawn(move || {
                    for i in 0..100 {
                        let r = ring.try_push(counted(t * 1000 + i, drops));
                        assert_eq!(why(r), Some(Refusal::Closed));
                    }
                });
            }
        });
        assert_eq!(ring.front(), Front::Ready, "closed, not yet drained");
        for id in 0..10 {
            assert_eq!(ring.try_pop().map(|c| c.id), Some(id));
        }
        assert!(ring.try_pop().is_none());
        assert_eq!(ring.front(), Front::Finished);
    }

    #[test]
    fn drop_releases_the_leftovers() {
        let drops = AtomicU64::new(0);
        let ring = Ring::new(8);
        for id in 0..6 {
            assert!(ring.try_push(counted(id, &drops)).is_ok());
        }
        drop(ring.try_pop());
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        drop(ring);
        assert_eq!(drops.load(Ordering::SeqCst), 6, "each value dropped once");
    }

    /// Pop with claims of up to `max` until the ring is finished,
    /// returning the ids in claim order.
    fn drain_claims(ring: &Ring<Counted<'_>>, max: usize) -> Vec<u64> {
        let mut got = Vec::new();
        let mut buf = Vec::new();
        while ring.front() != Front::Finished {
            let n = ring.try_pop_batch(max, &mut buf);
            assert!(n <= max, "claimed {n} of at most {max}");
            if n == 0 {
                std::thread::yield_now();
            }
            got.extend(buf.drain(..).map(|c| c.id));
        }
        got
    }

    /// `producers` threads push `per_producer` values each (ids
    /// `p * per_producer + i`) while one consumer per entry of `claims`
    /// pops with claims of up to that many until the ring is finished; the
    /// producers give up on a value at the first `Full`. Returns what each
    /// consumer popped, in its pop order, and the number of refused values.
    fn hammer<'a>(
        ring: &Ring<Counted<'a>>,
        drops: &'a AtomicU64,
        producers: u64,
        per_producer: u64,
        claims: &[usize],
    ) -> (Vec<Vec<u64>>, u64) {
        std::thread::scope(|s| {
            let consumers: Vec<_> = claims
                .iter()
                .map(|&max| s.spawn(move || drain_claims(ring, max)))
                .collect();
            let producers: Vec<_> = (0..producers)
                .map(|p| {
                    s.spawn(move || {
                        let mut refused = 0;
                        for i in 0..per_producer {
                            let mut value = counted(p * per_producer + i, drops);
                            loop {
                                match ring.try_push(value) {
                                    // A snapshot: 0 when a consumer took the
                                    // value before this thread re-read `head`.
                                    Ok(depth) => assert!(depth <= ring.capacity),
                                    Err(r) if r.why == Refusal::Lapped => {
                                        value = r.value;
                                        std::thread::yield_now();
                                        continue;
                                    }
                                    Err(r) => {
                                        assert_eq!(r.why, Refusal::Full);
                                        refused += 1;
                                    }
                                }
                                break;
                            }
                        }
                        refused
                    })
                })
                .collect();
            let refused = producers.into_iter().map(|h| h.join().unwrap()).sum();
            ring.close();
            let got = consumers.into_iter().map(|h| h.join().unwrap()).collect();
            (got, refused)
        })
    }

    /// 4 producers against one consumer per entry of `claims` on 8 slots:
    /// pushed = popped + refused, every popped id exactly once, each
    /// consumer sees each producer's ids in push order, and every value —
    /// popped or refused — is dropped exactly once.
    fn lose_and_duplicate_nothing(claims: &[usize]) {
        const PRODUCERS: u64 = 4;
        const PER_PRODUCER: u64 = 20_000;
        let drops = AtomicU64::new(0);
        let ring = Ring::new(8);
        let (got, refused) = hammer(&ring, &drops, PRODUCERS, PER_PRODUCER, claims);
        let popped: u64 = got.iter().map(|g| g.len() as u64).sum();
        assert_eq!(popped + refused, PRODUCERS * PER_PRODUCER);
        assert_eq!(drops.load(Ordering::SeqCst), PRODUCERS * PER_PRODUCER);
        let mut seen = vec![false; (PRODUCERS * PER_PRODUCER) as usize];
        for got in &got {
            let mut last = [None; PRODUCERS as usize];
            for &id in got {
                assert!(
                    !std::mem::replace(&mut seen[id as usize], true),
                    "{id} twice"
                );
                let p = (id / PER_PRODUCER) as usize;
                assert!(last[p] < Some(id), "producer {p}: {id} after {:?}", last[p]);
                last[p] = Some(id);
            }
        }
    }

    #[test]
    fn producers_and_consumers_lose_and_duplicate_nothing() {
        lose_and_duplicate_nothing(&[1]);
        lose_and_duplicate_nothing(&[1, 1, 1]);
    }

    #[test]
    fn batch_claims_of_mixed_size_lose_and_duplicate_nothing() {
        // One CAS claims a whole run: consumers asking for 1, 3 and 16 at
        // a time still partition the values exactly once, each in FIFO
        // per producer.
        lose_and_duplicate_nothing(&[1, 3, 16]);
    }

    #[test]
    fn a_zero_claim_takes_nothing() {
        let drops = AtomicU64::new(0);
        let ring = Ring::new(4);
        for id in 0..3 {
            assert!(ring.try_push(counted(id, &drops)).is_ok());
        }
        let mut out = Vec::new();
        assert_eq!(ring.try_pop_batch(0, &mut out), 0);
        assert!(out.is_empty());
        assert_eq!(ring.len(), 3, "nothing was claimed");
        assert_eq!(ring.try_pop_batch(2, &mut out), 2);
        assert_eq!(out.iter().map(|c| c.id).collect::<Vec<_>>(), [0, 1]);
        assert_eq!(drops.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn close_mid_stream_under_an_owner_and_three_stealers() {
        // Two producers push until refused `Closed` (a `Full` or `Lapped`
        // push is retried), while an owner claiming 8 at a time and three
        // stealers claiming 1, 3 and 16 drain; the ring is closed once
        // 10 000 values have been popped. Every pushed value is popped
        // exactly once, every refused one is handed back, and the ring
        // ends finished.
        const PRODUCERS: u64 = 2;
        const ID_SPACE: u64 = 1 << 32;
        let drops = AtomicU64::new(0);
        let ring = Ring::new(8);
        let (ring, drops) = (&ring, &drops);
        let (got, pushed) = std::thread::scope(|s| {
            let consumers: Vec<_> = [8, 1, 3, 16]
                .into_iter()
                .map(|max| s.spawn(move || drain_claims(ring, max)))
                .collect();
            // Each producer returns how many values it got in before its
            // one refusal.
            let producers: Vec<_> = (0..PRODUCERS)
                .map(|p| {
                    s.spawn(move || {
                        for i in 0.. {
                            let mut value = counted(p * ID_SPACE + i, drops);
                            loop {
                                match ring.try_push(value) {
                                    Ok(_) => break,
                                    Err(r) if r.why == Refusal::Closed => {
                                        assert_eq!(r.value.id, p * ID_SPACE + i);
                                        return i;
                                    }
                                    Err(r) => {
                                        value = r.value;
                                        std::thread::yield_now();
                                    }
                                }
                            }
                        }
                        unreachable!("the ring closes")
                    })
                })
                .collect();
            while drops.load(Ordering::SeqCst) < 10_000 {
                std::thread::yield_now();
            }
            ring.close();
            let pushed: Vec<u64> = producers.into_iter().map(|h| h.join().unwrap()).collect();
            let got: Vec<Vec<u64>> = consumers.into_iter().map(|h| h.join().unwrap()).collect();
            (got, pushed)
        });
        assert_eq!(ring.front(), Front::Finished);
        let (pushed_total, refused) = (pushed.iter().sum::<u64>(), PRODUCERS);
        let mut popped: Vec<u64> = got.concat();
        assert_eq!(
            popped.len() as u64,
            pushed_total,
            "pushed = popped + refused"
        );
        assert_eq!(drops.load(Ordering::SeqCst), pushed_total + refused);
        popped.sort_unstable();
        let expect: Vec<u64> = (0..PRODUCERS)
            .flat_map(|p| (0..pushed[p as usize]).map(move |i| p * ID_SPACE + i))
            .collect();
        assert_eq!(popped, expect, "every pushed value popped exactly once");
    }

    #[test]
    fn capacity_one_delivers_a_million_in_order_exactly_once() {
        // One slot of capacity over the 2-slot floor. A 1-slot ring wedges
        // or skips here: "published at pos" and "free for pos + 1" would
        // be the same `seq`.
        const PUSHES: u64 = 1_000_000;
        let drops = AtomicU64::new(0);
        let ring = Ring::new(1);
        std::thread::scope(|s| {
            let (ring, drops) = (&ring, &drops);
            s.spawn(move || {
                for id in 0..PUSHES {
                    let mut value = counted(id, drops);
                    while let Err(refused) = ring.try_push(value) {
                        assert_ne!(refused.why, Refusal::Closed);
                        value = refused.value;
                        std::thread::yield_now();
                    }
                }
                ring.close();
            });
            let mut next = 0;
            while ring.front() != Front::Finished {
                match ring.try_pop() {
                    Some(c) => {
                        assert_eq!(c.id, next, "in order, none skipped");
                        next += 1;
                    }
                    None => std::thread::yield_now(),
                }
            }
            assert_eq!(next, PUSHES);
        });
        assert_eq!(drops.load(Ordering::SeqCst), PUSHES);
    }

    #[test]
    fn a_slot_held_by_an_in_flight_consumer_is_lapped_not_full() {
        // A consumer stops between its head CAS and the slot release (the
        // pause hook; in production, a descheduled thread). The producer's
        // next ticket maps to that slot while depth is below capacity 2:
        // 1 when the claim took one slot (`try_pop`), 0 when it took the
        // run of both (`try_pop_batch`).
        for max in [1, 16] {
            let drops = AtomicU64::new(0);
            let ring = Ring::new(2);
            assert!(ring.try_push(counted(0, &drops)).is_ok());
            assert!(ring.try_push(counted(1, &drops)).is_ok());
            let claimed = max.min(2);
            let (claimed_tx, claimed_rx) = mpsc::channel();
            let (resume_tx, resume_rx) = mpsc::channel::<()>();
            std::thread::scope(|s| {
                let ring = &ring;
                let consumer = s.spawn(move || {
                    CLAIM_PAUSE.set(Some(Box::new(move || {
                        claimed_tx.send(()).unwrap();
                        resume_rx.recv().unwrap();
                    })));
                    let got: Vec<u64> = if max == 1 {
                        ring.try_pop().map(|c| c.id).into_iter().collect()
                    } else {
                        let mut out = Vec::new();
                        ring.try_pop_batch(max, &mut out);
                        out.iter().map(|c| c.id).collect()
                    };
                    CLAIM_PAUSE.set(None);
                    got
                });
                claimed_rx.recv().unwrap();
                assert_eq!(ring.len(), 2 - claimed, "max {max}: claimed, not released");
                let refused = ring.try_push(counted(2, &drops)).unwrap_err();
                assert_eq!(refused.why, Refusal::Lapped, "below capacity is never Full");
                resume_tx.send(()).unwrap();
                let expect: Vec<u64> = (0..claimed as u64).collect();
                assert_eq!(consumer.join().unwrap(), expect);
                // Released: the same push now goes through.
                assert_eq!(ring.try_push(refused.value).ok(), Some(3 - claimed));
            });
            let mut rest = Vec::new();
            ring.try_pop_batch(4, &mut rest);
            let rest: Vec<u64> = rest.into_iter().map(|c| c.id).collect();
            assert_eq!(rest, (claimed as u64..3).collect::<Vec<_>>());
            assert_eq!(drops.load(Ordering::SeqCst), 3);
        }
    }

    #[test]
    fn head_and_tail_sit_on_separate_cache_lines() {
        let ring = Ring::<u64>::new(4);
        let tail = &*ring.tail as *const AtomicUsize as usize;
        let head = &*ring.head as *const AtomicUsize as usize;
        assert_eq!(tail % 128, 0);
        assert_eq!(head % 128, 0);
        assert!(tail.abs_diff(head) >= 128);
    }
}
