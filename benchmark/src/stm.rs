//! The STM workloads: two `TxCtx` workers directly on one two-shard heap,
//! the calling thread asleep for the round — two busy threads.
//!
//! Each transaction reads two words, computes for ~200 xorshift steps, and
//! `write_add`s both (the paper's Fig. 3 "txapp" shape). Every worker
//! tallies its own increments per word, so the final heap is checked word
//! by word, not just in sum.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use tcp_core::conflict::Conflict;
use tcp_core::engine::{EngineStats, SeedFanout};
use tcp_core::policy::GracePolicy;
use tcp_core::randomized::RandRw;
use tcp_core::rng::{uniform_u64_below, Xoshiro256StarStar};
use tcp_stm::runtime::{Stm, TxCtx};

use crate::round::Round;
use crate::stats::percentile;
use crate::trace::{Sink, Span, Tracer};

const WORKERS: usize = 2;
/// One transaction in this many is timed (and, in a traced round, spanned):
/// two clock reads per ~600 ns transaction would be a tenth of it.
const SAMPLE_EVERY: u64 = 64;
const COMPUTE_STEPS: u32 = 200;

pub struct StmSpec {
    pub name: &'static str,
    words: usize,
    /// Worker `i` only touches words ≡ `i` (mod 2): its own shard-major
    /// segment, so nothing ever conflicts.
    disjoint: bool,
}

pub const STM_CONTEND: StmSpec = StmSpec {
    name: "stm_contend",
    words: 64,
    disjoint: false,
};

pub const STM_DISJOINT: StmSpec = StmSpec {
    name: "stm_disjoint",
    words: 4096,
    disjoint: true,
};

/// Pins where the heap's header falls relative to cache lines.
///
/// `Stm` keeps the global version clock (bumped by every commit of both
/// workers) next to read-mostly fields every access loads, so how the
/// struct straddles a line boundary decides how much they false-share. On
/// the stack that offset follows ASLR in 16-byte steps: unpinned,
/// `stm_disjoint`'s ops/s moved by +-15% from one process to the next while
/// staying put within each (medians 1.81-2.47 M/s over ten runs; 1.78-1.99
/// pinned). Every run now measures the same one layout.
#[repr(align(128))]
struct LinePinned(Stm);

struct WorkerOut {
    stats: EngineStats,
    /// Increments this worker committed, per word.
    tally: Vec<u32>,
    /// Durations of the sampled `TxCtx::run` calls, ns.
    samples: Vec<u32>,
    elapsed: Duration,
    spans: Vec<Span>,
    spans_dropped: u64,
}

/// In-transaction compute the optimiser cannot fold away.
#[inline]
fn compute(mut x: u64) -> u64 {
    x |= 1;
    for _ in 0..COMPUTE_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    x
}

impl StmSpec {
    /// Two distinct words for worker `id`'s next transaction.
    #[inline]
    fn pick(&self, id: usize, rng: &mut Xoshiro256StarStar) -> (usize, usize) {
        let n = if self.disjoint {
            (self.words / WORKERS) as u64
        } else {
            self.words as u64
        };
        let a = uniform_u64_below(rng, n);
        let mut b = uniform_u64_below(rng, n - 1);
        if b >= a {
            b += 1;
        }
        if self.disjoint {
            (a as usize * WORKERS + id, b as usize * WORKERS + id)
        } else {
            (a as usize, b as usize)
        }
    }

    /// Samples (and, traced, spans) one worker can record in `secs`.
    fn sample_capacity(&self, secs: f64) -> usize {
        // Generous for the sampled share of ≤ 4 M transactions per second.
        (4e6 * secs) as usize / SAMPLE_EVERY as usize + 16
    }

    /// One round of `secs` seconds. A traced round (`trace` = the trace
    /// epoch) records a span around every sampled `TxCtx::run`.
    pub fn round(&self, seed: u64, secs: f64, trace: Option<Instant>) -> Round {
        let t0 = Instant::now();
        let LinePinned(stm) = &LinePinned(Stm::with_layout(
            self.words,
            WORKERS,
            WORKERS,
            RandRw.mode(&Conflict::pair(1000.0)),
        ));
        // Two substreams per worker: policy sampling, word picking.
        let mut fan = SeedFanout::new(seed);
        let rngs: Vec<_> = (0..WORKERS).map(|_| (fan.stream(), fan.stream())).collect();
        let stop = AtomicBool::new(false);
        let ready = Barrier::new(WORKERS + 1);
        let sample_cap = self.sample_capacity(secs);

        // Everything a worker needs is built here, before the spawn, so
        // `setup_s` covers it. It stops when the spawns return, not when
        // both workers have reached the barrier: how long a new thread
        // waits for its first timeslice is the host scheduler's doing (it
        // ranges from 50 us to 7 ms on this box) and would drown the rest.
        let kits: Vec<_> = rngs
            .into_iter()
            .enumerate()
            .map(|(id, (policy_rng, pick_rng))| {
                let ctx = TxCtx::new(stm, id, RandRw, policy_rng);
                let tally = vec![0u32; self.words];
                let samples: Vec<u32> = Vec::with_capacity(sample_cap);
                let tracer = trace.map(|epoch| Tracer::new(epoch, id as u32 + 1, sample_cap + 1));
                (id, ctx, pick_rng, tally, samples, tracer)
            })
            .collect();

        let (setup_s, outs) = std::thread::scope(|s| {
            let handles: Vec<_> = kits
                .into_iter()
                .map(
                    |(id, mut ctx, mut pick_rng, mut tally, mut samples, mut tracer)| {
                        let (stop, ready) = (&stop, &ready);
                        s.spawn(move || {
                            let root = tracer.as_mut().map(|t| t.open("stm.worker"));
                            ready.wait();
                            let start = Instant::now();
                            let mut n = 0u64;
                            while !stop.load(Ordering::Relaxed) {
                                let (a, b) = self.pick(id, &mut pick_rng);
                                let sampled =
                                    n.is_multiple_of(SAMPLE_EVERY) && samples.len() < sample_cap;
                                let t = sampled.then(Instant::now);
                                ctx.run(|tx| {
                                    let x = tx.read(a)?;
                                    let y = tx.read(b)?;
                                    std::hint::black_box(compute(x ^ y));
                                    tx.write_add(a, 1)?;
                                    tx.write_add(b, 1)?;
                                    Ok(())
                                });
                                if let Some(t) = t {
                                    let ns = t.elapsed().as_nanos() as u64;
                                    samples.push(ns.min(u32::MAX as u64) as u32);
                                    if let Some(tr) = tracer.as_mut() {
                                        let end = tr.now();
                                        tr.span("stm.run", end.saturating_sub(ns), end, n);
                                    }
                                }
                                tally[a] += 1;
                                tally[b] += 1;
                                n += 1;
                            }
                            let elapsed = start.elapsed();
                            if let (Some(tr), Some(root)) = (tracer.as_mut(), root) {
                                tr.close(root);
                            }
                            let (spans, spans_dropped) =
                                tracer.map_or((Vec::new(), 0), |t| (t.spans, t.dropped));
                            WorkerOut {
                                stats: ctx.stats,
                                tally,
                                samples,
                                elapsed,
                                spans,
                                spans_dropped,
                            }
                        })
                    },
                )
                .collect();
            let setup_s = t0.elapsed().as_secs_f64();
            ready.wait();
            std::thread::sleep(Duration::from_secs_f64(secs));
            stop.store(true, Ordering::Relaxed);
            let outs: Vec<WorkerOut> = handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect();
            (setup_s, outs)
        });

        let mut round = Round::default();
        let name = self.name;
        let mut stats = EngineStats::default();
        let mut samples = Vec::new();
        let mut expected = vec![0u64; self.words];
        let mut elapsed = Duration::ZERO;
        let mut spans_dropped = 0;
        for out in outs {
            stats.merge(&out.stats);
            samples.extend(out.samples);
            for (e, t) in expected.iter_mut().zip(&out.tally) {
                *e += u64::from(*t);
            }
            elapsed = elapsed.max(out.elapsed);
            spans_dropped += out.spans_dropped;
            if trace.is_some() {
                round.spans.push(out.spans);
            }
        }

        let heap = stm.snapshot_direct();
        let heap_sum: u64 = heap.iter().sum();
        round.check(heap_sum == 2 * stats.commits, || {
            format!(
                "{name}: heap sum {heap_sum} != 2 x commits {}",
                stats.commits
            )
        });
        let wrong = heap.iter().zip(&expected).filter(|(a, b)| a != b).count();
        round.check(wrong == 0, || {
            format!("{name}: {wrong} heap words differ from the workers' tallies")
        });
        if self.disjoint {
            round.check(stats.aborts == 0 && stats.arbiter_consults == 0, || {
                format!(
                    "{name}: disjoint workers saw {} aborts, {} arbiter consults",
                    stats.aborts, stats.arbiter_consults
                )
            });
        }
        round.attempted = stats.commits;

        round.put("ops_s", stats.commits as f64 / elapsed.as_secs_f64());
        round.put("lat_p50_us", percentile(&mut samples, 50.0).0 / 1e3);
        round.put("lat_p95_us", percentile(&mut samples, 95.0).0 / 1e3);
        round.put("setup_s", setup_s);
        round.put_stm_counters(&stats);
        if trace.is_some() {
            let spans: usize = round.spans.iter().map(Vec::len).sum();
            round.put("trace.spans", spans as f64);
            round.put("trace.spans_dropped", spans_dropped as f64);
        }
        round
    }
}
