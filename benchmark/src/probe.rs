//! Layer microbenches: each times one public function of one layer from
//! outside, on one thread (the two wake probes use two). A probe reports
//! [`BATCHES`] batch means; the report prints their median, min and max.
//!
//! The probes are independent of the workload seed's traffic but draw
//! their keys and requests from it, so `--seed` reaches them too.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tcp_core::conflict::Conflict;
use tcp_core::engine::{ConflictArbiter, EngineStats};
use tcp_core::hist::LatencyHistogram;
use tcp_core::policy::GracePolicy;
use tcp_core::randomized::RandRw;
use tcp_core::rng::Xoshiro256StarStar;
use tcp_server::executor::execute_snapshot;
use tcp_server::prelude::*;
use tcp_stm::runtime::{Stm, TxCtx};
use tcp_workloads::dist::{Exponential, Zipf};
use tcp_workloads::synthetic::{run_synthetic, RemainingTime, SyntheticConfig};

use crate::serve::KEYS;

pub const BATCHES: usize = 7;
/// Operations per timed block: amortises the two clock reads to < 1 ns/op.
const BLOCK: usize = 32;
/// Handshakes per wake probe (the ISSUE's "median of 2 000"), split over
/// the batches.
const WAKES: usize = 2_000;
/// Long enough for the other thread to go back to sleep before the next
/// handshake.
const SETTLE: Duration = Duration::from_micros(50);

pub struct Probe {
    pub name: &'static str,
    pub unit: &'static str,
    /// One value per batch.
    pub samples: Vec<f64>,
}

/// `BATCHES` batch means of `op`, each over `iters` calls, in ns per call.
fn batches(iters: usize, mut op: impl FnMut()) -> Vec<f64> {
    for _ in 0..iters / 10 {
        op(); // warm-up: page in, fill the small-sets
    }
    (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                op();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect()
}

/// Like [`batches`] for an operation that needs untimed preparation and
/// clean-up around each block of [`BLOCK`] calls: `block(&mut timed_ns)`
/// adds the time of the calls it wants counted and returns how many it
/// made.
fn block_batches(blocks: usize, mut block: impl FnMut(&mut Duration) -> usize) -> Vec<f64> {
    (0..=BATCHES)
        .map(|_| {
            let (mut timed, mut calls) = (Duration::ZERO, 0);
            for _ in 0..blocks {
                calls += block(&mut timed);
            }
            timed.as_nanos() as f64 / calls.max(1) as f64
        })
        .skip(1) // the first batch is the warm-up
        .collect()
}

fn serve_config(seed: u64) -> ServeConfig {
    ServeConfig {
        shards: 1,
        keys: KEYS,
        seed,
        ..Default::default()
    }
}

fn envelope(k: u64, cell: &Arc<ReplyCell>) -> Envelope {
    Envelope::new(Request::Get(k), Arc::clone(cell), 1)
}

/// Run every probe. `scale` shrinks the iteration counts (`--quick`).
pub fn run_all(seed: u64, scale: f64) -> Vec<Probe> {
    let n = |iters: usize| ((iters as f64 * scale) as usize).max(BLOCK);
    let mut out = Vec::new();
    let mut push = |name, unit, samples| {
        out.push(Probe {
            name,
            unit,
            samples,
        })
    };
    let mut rng = Xoshiro256StarStar::new(seed);
    let cfg = serve_config(seed);
    let gen = RequestGen::from_config(&cfg);

    // client: drawing one request of the default mix.
    push(
        "client.draw_ns",
        "ns",
        batches(n(200_000), || {
            std::hint::black_box(gen.draw(&mut rng));
        }),
    );

    // router + queue: one ring, filled and drained in blocks so the timed
    // part is only the call under test.
    let cell = Arc::new(ReplyCell::new());
    let router = Router::new(1, 2 * BLOCK);
    let queue = router.queue(0);
    let mut popped = Vec::with_capacity(2 * BLOCK);
    let mut reqs: Vec<Request> = Vec::with_capacity(BLOCK);
    push(
        "router.submit_ns",
        "ns",
        block_batches(n(6_000), |timed| {
            reqs.extend((0..BLOCK).map(|_| gen.draw(&mut rng)));
            let t = Instant::now();
            for req in reqs.drain(..) {
                let _ = std::hint::black_box(router.submit(req, &cell, 1));
            }
            *timed += t.elapsed();
            popped.clear();
            queue.try_pop_batch(BLOCK, &mut popped);
            BLOCK
        }),
    );
    let mut envs: Vec<Envelope> = Vec::with_capacity(2 * BLOCK);
    push(
        "queue.push_ns",
        "ns",
        block_batches(n(6_000), |timed| {
            envs.extend((0..BLOCK as u64).map(|k| envelope(k, &cell)));
            let t = Instant::now();
            for env in envs.drain(..) {
                let _ = std::hint::black_box(queue.try_push(env));
            }
            *timed += t.elapsed();
            popped.clear();
            queue.try_pop_batch(BLOCK, &mut popped);
            BLOCK
        }),
    );
    let batch_max = cfg.batch_max;
    push(
        "queue.pop_batch_ns_per_env",
        "ns",
        block_batches(n(6_000), |timed| {
            for k in 0..BLOCK as u64 {
                let _ = queue.try_push(envelope(k, &cell));
            }
            let t = Instant::now();
            let mut got = 0;
            while got < BLOCK {
                got += queue.pop_batch(batch_max, &mut popped);
            }
            *timed += t.elapsed();
            popped.clear();
            BLOCK
        }),
    );
    // The steal entry point as an idle sibling uses it: one claim of half
    // a deep ring through `try_pop_batch`.
    push(
        "queue.steal_ns_per_env",
        "ns",
        block_batches(n(3_000), |timed| {
            for k in 0..2 * BLOCK as u64 {
                let _ = queue.try_push(envelope(k, &cell));
            }
            let t = Instant::now();
            let got = queue.try_pop_batch(BLOCK, &mut popped);
            *timed += t.elapsed();
            queue.try_pop_batch(BLOCK, &mut popped);
            popped.clear();
            got
        }),
    );
    push(
        "queue.reply_rtt_ns",
        "ns",
        batches(n(200_000), || {
            let tag = cell.issue();
            let _ = cell.put(tag, Response::Written);
            std::hint::black_box(cell.take());
        }),
    );
    push("queue.wake_us", "us", wake_probe(n(WAKES) / BATCHES));
    push(
        "queue.reply_wake_us",
        "us",
        reply_wake_probe(n(WAKES) / BATCHES),
    );

    // executor: inline `execute` per request class on one context, through
    // the path the executor would choose for that class.
    let mode = RandRw.mode(&Conflict::pair(1000.0));
    let stm = Stm::with_layout(KEYS as usize, 1, 1, mode);
    let mut ctx = TxCtx::new(&stm, 0, RandRw, Xoshiro256StarStar::new(seed ^ 1));
    type Class = (&'static str, fn(&Request) -> bool, ServeConfig);
    let classes: [Class; 4] = [
        (
            "executor.execute_get_ns",
            |r| matches!(r, Request::Get(_)),
            ServeConfig {
                read_fraction: 1.0,
                rmw_fraction: 0.0,
                ..serve_config(seed)
            },
        ),
        (
            "executor.execute_add_ns",
            |r| matches!(r, Request::Add(..)),
            ServeConfig {
                read_fraction: 0.0,
                rmw_fraction: 0.0,
                ..serve_config(seed)
            },
        ),
        (
            "executor.execute_rmw_ns",
            |r| matches!(r, Request::Rmw { .. }),
            ServeConfig {
                rmw_fraction: 1.0,
                ..serve_config(seed)
            },
        ),
        (
            "executor.execute_scan_ns",
            |r| matches!(r, Request::GetRange { .. } | Request::GetMany { .. }),
            ServeConfig {
                rmw_fraction: 0.0,
                scan_fraction: 1.0,
                scan_span: 16,
                ..serve_config(seed)
            },
        ),
    ];
    for (name, is_class, class_cfg) in classes {
        let class_gen = RequestGen::from_config(&class_cfg);
        let reqs: Vec<Request> = (0..4096).map(|_| class_gen.draw(&mut rng)).collect();
        assert!(reqs.iter().all(is_class), "{name}: mix drew another class");
        let mut i = 0;
        push(
            name,
            "ns",
            batches(n(200_000), || {
                let req = &reqs[i % reqs.len()];
                i += 1;
                std::hint::black_box(if cfg.snapshot_reads && req.is_read_only() {
                    execute_snapshot(&mut ctx, req, 0)
                } else {
                    execute(&mut ctx, req, 0)
                });
            }),
        );
    }

    // stm: the `stm_hot` bench's transaction shapes on the two-shard
    // layout the STM workloads use.
    let words = 1024;
    let stm = Stm::with_layout(words, 2, 2, mode);
    for k in 0..words {
        stm.write_direct(k, k as u64);
    }
    let mut ctx = TxCtx::new(&stm, 0, RandRw, Xoshiro256StarStar::new(seed ^ 2));
    let mut k = 0;
    push(
        "stm.read_txn_ns",
        "ns",
        batches(n(200_000), || {
            k = (k + 97) % (words - 8);
            std::hint::black_box(ctx.run(|tx| {
                let mut acc = 0u64;
                for i in 0..8 {
                    acc = acc.wrapping_add(tx.read(k + i)?);
                }
                Ok(acc)
            }));
        }),
    );
    push(
        "stm.commit_ns",
        "ns",
        batches(n(200_000), || {
            k = (k + 97) % (words - 4);
            ctx.run(|tx| {
                for i in 0..4 {
                    tx.write(k + i, (k + i) as u64)?;
                }
                Ok(())
            });
        }),
    );
    push(
        "stm.snapshot_ns",
        "ns",
        batches(n(200_000), || {
            k = (k + 97) % (words - 16);
            std::hint::black_box(ctx.run_snapshot(|snap| {
                let mut acc = 0u64;
                for i in 0..16 {
                    acc = acc.wrapping_add(snap.read(k + i)?);
                }
                Ok(acc)
            }));
        }),
    );
    assert_eq!(ctx.stats.aborts, 0, "an uncontended probe never aborts");

    // core
    let arbiter = ConflictArbiter::new(RandRw);
    push(
        "core.grace_decide_ns",
        "ns",
        batches(n(400_000), || {
            std::hint::black_box(arbiter.decide(1000.0, 2, &mut rng));
        }),
    );
    let mut hist = LatencyHistogram::new();
    let mut v = 1u64;
    push(
        "core.hist_record_ns",
        "ns",
        batches(n(1_000_000), || {
            v = v
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            hist.record(v >> 40);
        }),
    );
    let mut shard = EngineStats::default();
    for v in 0..10_000u64 {
        shard.record_latency_streaming(v * 7);
        shard.record_queue_wait(v * 3);
        shard.record_service(v);
    }
    let mut total = EngineStats::default();
    push(
        "core.stats_merge_ns",
        "ns",
        batches(n(20_000), || {
            total.merge(std::hint::black_box(&shard));
        }),
    );

    // workloads
    let zipf = Zipf::new(KEYS as usize, 0.9);
    push(
        "workloads.zipf_sample_ns",
        "ns",
        batches(n(400_000), || {
            std::hint::black_box(zipf.sample(&mut rng));
        }),
    );
    let trials = n(20_000);
    let synthetic = SyntheticConfig {
        trials,
        seed,
        ..SyntheticConfig::figure2a()
    };
    let dist = Exponential::with_mean(500.0);
    push(
        "workloads.synthetic_trial_ns",
        "ns",
        batches(4, || {
            std::hint::black_box(run_synthetic(
                &synthetic,
                &RemainingTime::FromLengths(&dist),
                &RandRw,
            ));
        })
        .into_iter()
        .map(|ns_per_run| ns_per_run / trials as f64)
        .collect(),
    );
    out
}

/// Push to a ring whose consumer is parked → the consumer's pop returns,
/// measured from the envelope's enqueue stamp; batch medians, µs.
fn wake_probe(per_batch: usize) -> Vec<f64> {
    let queue = Arc::new(ShardQueue::new(8));
    let consumer = {
        let queue = Arc::clone(&queue);
        std::thread::spawn(move || {
            let mut waits = Vec::new();
            while let Some(env) = queue.pop() {
                waits.push(env.enqueued_at.elapsed().as_nanos() as f64 / 1e3);
            }
            waits
        })
    };
    let cell = Arc::new(ReplyCell::new());
    for k in 0..(per_batch * BATCHES) as u64 {
        std::thread::sleep(SETTLE);
        let _ = queue.try_push(envelope(k, &cell));
    }
    std::thread::sleep(SETTLE);
    queue.close();
    let waits = consumer.join().expect("wake consumer panicked");
    waits
        .chunks(per_batch.max(1))
        .take(BATCHES)
        .map(crate::stats::median)
        .collect()
}

/// `put` into a cell whose client is blocked in `take` → `take` returns;
/// the reply carries the put's timestamp. Batch medians, µs.
fn reply_wake_probe(per_batch: usize) -> Vec<f64> {
    let rounds = per_batch * BATCHES;
    let cell = Arc::new(ReplyCell::new());
    let epoch = Instant::now();
    let waiter = {
        let cell = Arc::clone(&cell);
        std::thread::spawn(move || {
            (0..rounds)
                .map(|_| {
                    let Response::Value(sent_ns) = cell.take() else {
                        unreachable!("the probe only sends Value")
                    };
                    let wake = epoch.elapsed().as_nanos() as u64 - sent_ns;
                    cell.issue();
                    wake as f64 / 1e3
                })
                .collect::<Vec<f64>>()
        })
    };
    // The waiter arms generation g+1 after taking g; a put that races
    // ahead of it is reported Stale and simply retried.
    let first = cell.issue();
    for tag in first..first + rounds as u64 {
        std::thread::sleep(SETTLE);
        while cell.put(tag, Response::Value(epoch.elapsed().as_nanos() as u64))
            != PutStatus::Delivered
        {
            std::hint::spin_loop();
        }
    }
    let wakes = waiter.join().expect("reply waiter panicked");
    wakes
        .chunks(per_batch.max(1))
        .take(BATCHES)
        .map(crate::stats::median)
        .collect()
}
