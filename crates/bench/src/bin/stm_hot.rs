//! Hot-path microbenchmark for the STM heap: per-operation latency of the
//! paths the memory layout decides — validated read transactions,
//! write-commit transactions, MVCC snapshot-read transactions, the raw
//! direct-read cost of one heap word as a floor — each single-threaded
//! and uncontended, plus one **two-thread** row: two workers on
//! word-disjoint key sets, which conflict never and share cache lines
//! only if the layout makes them.
//!
//! Flat (`shards = 1`) and shard-major (`shards = 8`) layouts run the
//! same loops in interleaved rounds, so each row is a median with its
//! own min/max and a layout effect shows as a delta between the two row
//! groups that exceeds those spreads. Single-threaded, the two layouts
//! must cost the same (the slot mapping is the only difference). In the
//! two-thread row they must not: worker `i` touches the keys ≡ `i`
//! (mod 2) of a 64-word window, which the flat layout interleaves on the
//! same lines (every publish invalidates the neighbour's line) and the
//! shard-major layout keeps in separate segments — the false-sharing
//! cost the layout exists to remove.
//!
//! Results land in `BENCH_stm_hot.json` and are tracked warn-only by
//! `trend_check`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use tcp_bench::report::{bench_report, write_report, Json};
use tcp_bench::table;
use tcp_core::conflict::ResolutionMode;
use tcp_core::policy::NoDelay;
use tcp_core::rng::{uniform_u64_below, Xoshiro256StarStar};
use tcp_stm::prelude::{Stm, TxCtx};

const WORDS: usize = 1024;
const READS_PER_TXN: usize = 8;
const WRITES_PER_TXN: usize = 4;
const SNAP_SPAN: usize = 16;
/// The two workers' shared window: small enough (16 hot lines when flat)
/// that interleaved keys collide on a line every few transactions.
const DISJOINT_WINDOW: usize = 64;
const WORKERS: usize = 2;

/// `(op, words touched per transaction)`, in the order [`measure`]
/// reports them.
const OPS: [(&str, usize); 5] = [
    ("read_direct", 1),
    ("read_txn", READS_PER_TXN),
    ("commit_txn", WRITES_PER_TXN),
    ("snapshot_txn", SNAP_SPAN),
    ("disjoint_2t_txn", 4),
];

/// Time `iters` repetitions of `f`, returning mean ns per repetition.
fn time_ns(iters: u64, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

fn ctx(stm: &Stm, id: usize) -> TxCtx<'_, NoDelay> {
    TxCtx::new(
        stm,
        id,
        NoDelay::requestor_aborts(),
        Xoshiro256StarStar::new(id as u64 + 1),
    )
}

/// Two workers, each running `iters` read-2 / increment-2 transactions on
/// its own half of the window (keys ≡ id mod 2): mean ns per transaction
/// as one worker sees it.
fn disjoint_two_threads(shards: usize, iters: u64) -> f64 {
    let stm = Stm::with_layout(WORDS, WORKERS, shards, ResolutionMode::RequestorAborts);
    // A spin barrier, not a blocking one: a worker woken from a futex
    // wait is queued on its waker's core, and at these run lengths the
    // two would then run one after the other instead of side by side.
    let arrived = AtomicUsize::new(0);
    let per_worker: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|id| {
                let (stm, arrived) = (&stm, &arrived);
                s.spawn(move || {
                    let mut t = ctx(stm, id);
                    // Random picks, not a fixed walk: two workers stepping
                    // through the window in lockstep either always or never
                    // meet on a line, depending on their phase at the start.
                    let mut rng = Xoshiro256StarStar::new(0x5eed + id as u64);
                    let half = (DISJOINT_WINDOW / WORKERS) as u64;
                    arrived.fetch_add(1, Ordering::SeqCst);
                    while arrived.load(Ordering::SeqCst) < WORKERS {
                        std::hint::spin_loop();
                    }
                    let ns = time_ns(iters, || {
                        let i = uniform_u64_below(&mut rng, half);
                        let j = (i + 1 + uniform_u64_below(&mut rng, half - 1)) % half;
                        let (a, b) = (i as usize * WORKERS + id, j as usize * WORKERS + id);
                        t.run(|tx| {
                            let sum = tx.read(a)? ^ tx.read(b)?;
                            tx.write_add(a, 1)?;
                            tx.write_add(b, 1)?;
                            Ok(sum)
                        });
                    });
                    assert_eq!(t.stats.aborts, 0, "word-disjoint workers never abort");
                    ns
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    per_worker.iter().sum::<f64>() / WORKERS as f64
}

/// One measurement pass over a layout: ns/op for each of [`OPS`].
/// `stride` walks the key space so consecutive transactions touch
/// different words (no same-line artificial locality), deterministically.
fn measure(shards: usize, iters: u64) -> [f64; OPS.len()] {
    let stm = Stm::with_layout(WORDS, 1, shards, ResolutionMode::RequestorAborts);
    for k in 0..WORDS {
        stm.write_direct(k, k as u64);
    }
    let mut ctx = ctx(&stm, 0);

    // Floor: a bare versioned read of one heap word, outside any txn.
    let mut k = 0usize;
    let read_direct = time_ns(iters * 4, || {
        k = (k + 97) % WORDS;
        std::hint::black_box(stm.read_direct(k));
    });

    // Read-only transaction: rv sample + N validated reads + read-set
    // validation at commit.
    let mut k = 0usize;
    let read_txn = time_ns(iters, || {
        k = (k + 97) % (WORDS - READS_PER_TXN);
        let base = k;
        let sum = ctx.run(|tx| {
            let mut acc = 0u64;
            for i in 0..READS_PER_TXN {
                acc += tx.read(base + i)?;
            }
            Ok(acc)
        });
        std::hint::black_box(sum);
    });

    // Write commit: N buffered writes + lock/validate/publish + one
    // clock bump + chain pushes.
    let mut k = 0usize;
    let commit_txn = time_ns(iters, || {
        k = (k + 97) % (WORDS - WRITES_PER_TXN);
        let base = k;
        ctx.run(|tx| {
            for i in 0..WRITES_PER_TXN {
                tx.write(base + i, (base + i) as u64)?;
            }
            Ok(())
        });
    });

    // Snapshot scan: one MVCC read-only transaction over a key range —
    // the `GetRange` fast path.
    let mut k = 0usize;
    let snapshot_txn = time_ns(iters, || {
        k = (k + 97) % (WORDS - SNAP_SPAN);
        let base = k;
        let sum = ctx.run_snapshot(|snap| {
            let mut acc = 0u64;
            for i in 0..SNAP_SPAN {
                acc += snap.read(base + i)?;
            }
            Ok(acc)
        });
        std::hint::black_box(sum);
    });
    assert_eq!(ctx.stats.aborts, 0, "uncontended run must never abort");

    [
        read_direct,
        read_txn,
        commit_txn,
        snapshot_txn,
        disjoint_two_threads(shards, iters * 4),
    ]
}

fn main() {
    let quick = table::quick();
    let iters: u64 = if quick { 20_000 } else { 200_000 };
    let rounds = if quick { 5 } else { 9 };
    let layouts = [("flat", 1usize), ("shard_major_8", 8)];
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "# stm_hot: hot-path latency, {WORDS} words, {iters} iters/op, \
         median of {rounds} interleaved rounds, {cores} cores"
    );
    if cores < WORKERS {
        println!("# fewer than {WORKERS} cores: disjoint_2t_txn measures the scheduler");
    }
    table::header(&[
        "layout",
        "op",
        "ns/op",
        "min",
        "max",
        "ops/s",
        "touches/txn",
    ]);

    // Warm-up pass (discarded): page in the heap and let the small-sets
    // reach their steady-state footprint.
    let _ = measure(1, iters / 10);

    // Interleave the layouts round by round so host drift lands on both.
    let mut samples = vec![Vec::new(); layouts.len()];
    for _ in 0..rounds {
        for (li, &(_, shards)) in layouts.iter().enumerate() {
            samples[li].push(measure(shards, iters));
        }
    }

    let mut rows = Vec::new();
    for (&(layout, _), passes) in layouts.iter().zip(&samples) {
        for (oi, &(op, touches)) in OPS.iter().enumerate() {
            let mut ns: Vec<f64> = passes.iter().map(|p| p[oi]).collect();
            ns.sort_by(f64::total_cmp);
            let (median, min, max) = (ns[ns.len() / 2], ns[0], ns[ns.len() - 1]);
            table::row(&[
                layout.into(),
                op.into(),
                table::num(median),
                table::num(min),
                table::num(max),
                table::num(1e9 / median),
                touches.to_string(),
            ]);
            rows.push(Json::obj([
                ("layout", Json::from(layout)),
                ("op", Json::from(op)),
                ("ns_per_op", Json::from(median)),
                ("ns_min", Json::from(min)),
                ("ns_max", Json::from(max)),
                ("ops_per_sec", Json::from(1e9 / median)),
                ("touches_per_txn", Json::from(touches)),
            ]));
        }
    }

    let config = Json::obj([
        ("quick", Json::from(quick)),
        ("words", Json::from(WORDS)),
        ("iters", Json::from(iters)),
        ("rounds", Json::from(rounds as u64)),
        ("cores", Json::from(cores)),
        ("reads_per_txn", Json::from(READS_PER_TXN)),
        ("writes_per_txn", Json::from(WRITES_PER_TXN)),
        ("snap_span", Json::from(SNAP_SPAN)),
        ("disjoint_window", Json::from(DISJOINT_WINDOW)),
    ]);
    write_report("BENCH_stm_hot.json", &bench_report("stm_hot", config, rows));
}
