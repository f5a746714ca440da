//! Concurrency property tests for the shard queue: `tcp_core::ring::Ring`
//! (whose own properties are tested with it) under the queue's shedding,
//! stealing and park/wake.
//!
//! The properties the serving path leans on, each driven with real
//! producer threads against the consumer side:
//!
//! 1. **capacity respected** — no `try_push` ever reports a depth above
//!    capacity;
//! 2. **no lost or duplicated envelopes** — popped ∪ shed = issued,
//!    exactly once each;
//! 3. **per-producer FIFO** — the consumer sees each producer's envelopes
//!    in that producer's push order;
//! 4. **close/drain** — after `close`, no new envelope is admitted, the
//!    already-admitted backlog is fully drained, and the consumer then
//!    gets the exit signal;
//! 5. **steal safety** — an owner pop racing any number of concurrent
//!    stealers (`try_pop_batch` from non-owner threads) partitions the
//!    envelopes exactly-once, each consumer still observing per-producer
//!    FIFO in its own claim order, and close/drain stays exact with a
//!    stealer pending;
//! 6. **capacity 1** — `ServeConfig` admits it, so one producer and one
//!    blocking consumer must hand over in lock step without wedging.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tcp_server::prelude::{Envelope, ReplyCell, Request, ShardQueue};

/// Tag an envelope with (producer, sequence) through the Put request.
fn tagged(producer: u64, seq: u64) -> Envelope {
    Envelope::new(Request::Put(producer, seq), Arc::new(ReplyCell::new()), seq)
}

fn tag_of(env: &Envelope) -> (u64, u64) {
    match env.req {
        Request::Put(p, s) => (p, s),
        ref other => panic!("untagged request {other:?}"),
    }
}

/// Drive `producers × per_producer` pushes against one batch-popping
/// consumer; return (popped tags in pop order, per-producer shed tags).
fn hammer(
    q: &Arc<ShardQueue>,
    producers: u64,
    per_producer: u64,
    capacity: usize,
    batch: usize,
) -> (Vec<(u64, u64)>, Vec<HashSet<u64>>) {
    let max_depth = AtomicU64::new(0);
    let mut popped = Vec::new();
    let mut shed: Vec<HashSet<u64>> = Vec::new();
    std::thread::scope(|s| {
        let producer_handles: Vec<_> = (0..producers)
            .map(|p| {
                let q = Arc::clone(q);
                let max_depth = &max_depth;
                s.spawn(move || {
                    let mut shed = HashSet::new();
                    for i in 0..per_producer {
                        match q.try_push(tagged(p, i)) {
                            Ok(depth) => {
                                max_depth.fetch_max(depth as u64, Ordering::SeqCst);
                            }
                            Err(env) => {
                                // A shed hands the request back intact.
                                assert_eq!(tag_of(&env), (p, i));
                                shed.insert(i);
                            }
                        }
                        if i % 64 == 0 {
                            std::thread::yield_now(); // vary interleavings
                        }
                    }
                    shed
                })
            })
            .collect();
        let q2 = Arc::clone(q);
        let consumer = s.spawn(move || {
            let mut got = Vec::new();
            let mut buf = Vec::new();
            loop {
                let n = q2.pop_batch(batch, &mut buf);
                assert!(n <= batch, "pop_batch overran max");
                if n == 0 {
                    break;
                }
                got.extend(buf.drain(..).map(|e| tag_of(&e)));
            }
            got
        });
        shed = producer_handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect();
        // All producers done: closing now lets the consumer drain and exit.
        q.close();
        popped = consumer.join().unwrap();
    });
    assert!(
        max_depth.load(Ordering::SeqCst) <= capacity as u64,
        "reported depth above capacity"
    );
    (popped, shed)
}

#[test]
fn mpsc_no_loss_no_duplication_per_producer_fifo() {
    const PRODUCERS: u64 = 4;
    const PER_PRODUCER: u64 = 5_000;
    const CAPACITY: usize = 8;
    let q = Arc::new(ShardQueue::new(CAPACITY));
    let (popped, shed) = hammer(&q, PRODUCERS, PER_PRODUCER, CAPACITY, 3);

    let total_sheds: u64 = shed.iter().map(|s| s.len() as u64).sum();
    assert_eq!(
        popped.len() as u64 + total_sheds,
        PRODUCERS * PER_PRODUCER,
        "popped + shed must account for every push"
    );
    // Exactly-once: the popped multiset and the shed sets partition the
    // issued set — no duplicates, no overlap, nothing missing.
    let mut seen: HashSet<(u64, u64)> = HashSet::new();
    for &(p, s) in &popped {
        assert!(seen.insert((p, s)), "duplicate envelope ({p}, {s})");
        assert!(
            !shed[p as usize].contains(&s),
            "({p}, {s}) both popped and shed"
        );
    }
    // Per-producer FIFO in the consumer's pop order.
    let mut last_seen: HashMap<u64, u64> = HashMap::new();
    for &(p, s) in &popped {
        if let Some(&prev) = last_seen.get(&p) {
            assert!(s > prev, "producer {p}: seq {s} after {prev} breaks FIFO");
        }
        last_seen.insert(p, s);
    }
}

#[test]
fn uncontended_queue_never_sheds() {
    // A queue with capacity ≥ total pushes and a live consumer must admit
    // everything (shedding is a capacity decision, never spurious).
    const PRODUCERS: u64 = 4;
    const PER_PRODUCER: u64 = 1_000;
    let q = Arc::new(ShardQueue::new((PRODUCERS * PER_PRODUCER) as usize));
    let (popped, shed) = hammer(
        &q,
        PRODUCERS,
        PER_PRODUCER,
        (PRODUCERS * PER_PRODUCER) as usize,
        16,
    );
    assert_eq!(shed.iter().map(HashSet::len).sum::<usize>(), 0);
    assert_eq!(popped.len() as u64, PRODUCERS * PER_PRODUCER);
}

#[test]
fn close_is_a_hard_admission_barrier_and_backlog_drains() {
    let q = Arc::new(ShardQueue::new(64));
    for i in 0..10 {
        assert!(q.try_push(tagged(0, i)).is_ok());
    }
    q.close();
    // Post-close pushes are rejected from any thread.
    std::thread::scope(|s| {
        for p in 1..4u64 {
            let q = Arc::clone(&q);
            s.spawn(move || {
                for i in 0..100 {
                    assert!(q.try_push(tagged(p, i)).is_err(), "closed queue admitted");
                }
            });
        }
    });
    // The pre-close backlog drains completely, in order, then exits.
    let mut buf = Vec::new();
    while q.pop_batch(4, &mut buf) > 0 {}
    let tags: Vec<_> = buf.iter().map(tag_of).collect();
    assert_eq!(tags, (0..10).map(|i| (0, i)).collect::<Vec<_>>());
    assert!(q.pop().is_none(), "exit signal must persist");
}

/// Assert a consumer's local claim order respects every producer's push
/// order — the FIFO guarantee that survives stealing: claims are taken
/// from a single monotone head, so each consumer sees an increasing
/// subsequence of any one producer's envelopes.
fn assert_per_producer_fifo(label: &str, popped: &[(u64, u64)]) {
    let mut last_seen: HashMap<u64, u64> = HashMap::new();
    for &(p, s) in popped {
        if let Some(&prev) = last_seen.get(&p) {
            assert!(
                s > prev,
                "{label}: producer {p} seq {s} after {prev} breaks FIFO"
            );
        }
        last_seen.insert(p, s);
    }
}

#[test]
fn owner_pop_racing_stealers_partitions_exactly_once() {
    // Real producers against a blocking owner AND two non-owner stealers:
    // the union of all consumers' claims plus the sheds must equal the
    // issued set exactly once, and every consumer individually observes
    // per-producer FIFO.
    const PRODUCERS: u64 = 4;
    const PER_PRODUCER: u64 = 5_000;
    const CAPACITY: usize = 8;
    let q = Arc::new(ShardQueue::new(CAPACITY));
    let mut owner_got = Vec::new();
    let mut stealer_got: Vec<Vec<(u64, u64)>> = Vec::new();
    let mut shed: Vec<HashSet<u64>> = Vec::new();
    std::thread::scope(|s| {
        let producer_handles: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    let mut shed = HashSet::new();
                    for i in 0..PER_PRODUCER {
                        if let Err(env) = q.try_push(tagged(p, i)) {
                            assert_eq!(tag_of(&env), (p, i));
                            shed.insert(i);
                        }
                        if i % 64 == 0 {
                            std::thread::yield_now();
                        }
                    }
                    shed
                })
            })
            .collect();
        // The owner uses the blocking batch pop, exactly as a non-stealing
        // executor would.
        let q_owner = Arc::clone(&q);
        let owner = s.spawn(move || {
            let mut got = Vec::new();
            let mut buf = Vec::new();
            while q_owner.pop_batch(3, &mut buf) > 0 {
                got.extend(buf.drain(..).map(|e| tag_of(&e)));
            }
            got
        });
        // Stealers use the non-blocking claim path until the ring is
        // closed and drained, as an idle sibling executor would.
        let stealers: Vec<_> = (0..2)
            .map(|_| {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    let mut got = Vec::new();
                    let mut buf = Vec::new();
                    while !q.is_finished() {
                        if q.try_pop_batch(2, &mut buf) == 0 {
                            std::thread::yield_now();
                        }
                        got.extend(buf.drain(..).map(|e| tag_of(&e)));
                    }
                    got
                })
            })
            .collect();
        shed = producer_handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect();
        q.close();
        owner_got = owner.join().unwrap();
        stealer_got = stealers.into_iter().map(|h| h.join().unwrap()).collect();
    });

    let total_sheds: u64 = shed.iter().map(|s| s.len() as u64).sum();
    let consumed: Vec<(&str, &Vec<(u64, u64)>)> = std::iter::once(("owner", &owner_got))
        .chain(stealer_got.iter().map(|g| ("stealer", g)))
        .collect();
    let popped_total: u64 = consumed.iter().map(|(_, g)| g.len() as u64).sum();
    assert_eq!(
        popped_total + total_sheds,
        PRODUCERS * PER_PRODUCER,
        "claims + sheds must account for every push"
    );
    let mut seen: HashSet<(u64, u64)> = HashSet::new();
    for (who, got) in &consumed {
        for &(p, s) in got.iter() {
            assert!(seen.insert((p, s)), "duplicate claim ({p}, {s}) by {who}");
            assert!(
                !shed[p as usize].contains(&s),
                "({p}, {s}) both claimed and shed"
            );
        }
    }
    for (who, got) in &consumed {
        assert_per_producer_fifo(who, got);
    }
}

#[test]
fn close_drains_exactly_once_with_a_pending_stealer() {
    // A stealer keeps claiming while the queue is closed under it: the
    // pre-close backlog must drain exactly once (split arbitrarily between
    // owner and stealer), post-close pushes must shed, and both consumers
    // must observe the exit condition.
    let q = Arc::new(ShardQueue::new(64));
    for i in 0..40 {
        assert!(q.try_push(tagged(0, i)).is_ok());
    }
    let mut owner_got = Vec::new();
    let mut stealer_got = Vec::new();
    std::thread::scope(|s| {
        let q_st = Arc::clone(&q);
        let stealer = s.spawn(move || {
            let mut got = Vec::new();
            let mut buf = Vec::new();
            while !q_st.is_finished() {
                q_st.try_pop_batch(1, &mut buf);
                got.extend(buf.drain(..).map(|e| tag_of(&e)));
                std::thread::yield_now();
            }
            got
        });
        // Close from another thread while the stealer is mid-drain.
        std::thread::sleep(std::time::Duration::from_millis(1));
        q.close();
        assert!(q.try_push(tagged(1, 0)).is_err(), "closed queue admits");
        let mut buf = Vec::new();
        while q.pop_batch(8, &mut buf) > 0 {
            owner_got.extend(buf.drain(..).map(|e| tag_of(&e)));
        }
        stealer_got = stealer.join().unwrap();
    });
    assert!(q.is_finished(), "exit condition must persist");
    assert!(q.pop().is_none(), "owner exit signal must persist");
    let mut all: Vec<_> = owner_got.iter().chain(stealer_got.iter()).collect();
    all.sort();
    let expect: Vec<(u64, u64)> = (0..40).map(|i| (0, i)).collect();
    assert_eq!(
        all,
        expect.iter().collect::<Vec<_>>(),
        "backlog must drain exactly once across owner + stealer"
    );
    assert_per_producer_fifo("owner", &owner_got);
    assert_per_producer_fifo("stealer", &stealer_got);
}

#[test]
fn consumer_parks_and_wakes_across_bursts() {
    // Bursty producers with idle gaps force the consumer through repeated
    // park/unpark cycles; every envelope must still arrive exactly once.
    let q = Arc::new(ShardQueue::new(16));
    std::thread::scope(|s| {
        let q2 = Arc::clone(&q);
        let consumer = s.spawn(move || {
            let mut got = Vec::new();
            let mut buf = Vec::new();
            while q2.pop_batch(8, &mut buf) > 0 {
                got.extend(buf.drain(..).map(|e| tag_of(&e)));
            }
            got
        });
        for burst in 0..20u64 {
            for i in 0..8 {
                while q.try_push(tagged(0, burst * 8 + i)).is_err() {
                    std::thread::yield_now();
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        q.close();
        let got = consumer.join().unwrap();
        assert_eq!(got.len(), 160);
        assert!(got.windows(2).all(|w| w[0].1 < w[1].1), "FIFO across parks");
    });
}

#[test]
fn capacity_one_hands_over_in_lock_step() {
    const ENVELOPES: u64 = 100_000;
    let q = &ShardQueue::new(1);
    std::thread::scope(|s| {
        s.spawn(move || {
            for i in 0..ENVELOPES {
                let mut env = tagged(0, i);
                while let Err(shed) = q.try_push(env) {
                    env = shed;
                    std::thread::yield_now();
                }
            }
            q.close();
        });
        let mut next = 0;
        while let Some(env) = q.pop() {
            assert_eq!(tag_of(&env), (0, next), "in order, none skipped");
            next += 1;
        }
        assert_eq!(next, ENVELOPES);
    });
}
