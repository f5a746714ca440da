//! Real-thread throughput harness: run a transactional workload on the STM
//! for a fixed wall-clock duration per policy and thread count. This is the
//! software analogue of the HTM Figure 3 sweeps, validating the policies
//! outside the simulator. Each heap resolves conflicts in the policy's own
//! mode ([`machine_mode`]), as the simulator and the server do.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use tcp_core::engine::{EngineStats, SeedFanout};
use tcp_core::policy::{machine_mode, GracePolicy};
use tcp_core::rng::{uniform_u64_below, Xoshiro256StarStar};

use crate::runtime::{Stm, TxCtx};
use crate::structures::TStack;

/// Outcome of one throughput measurement.
#[derive(Clone, Copy, Debug, Default)]
pub struct Throughput {
    pub threads: usize,
    pub ops: u64,
    pub wall_ns: u64,
    pub aborts: u64,
}

impl Throughput {
    pub fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / (self.wall_ns as f64 / 1e9)
    }
}

/// Hammer a shared transactional stack (alternating push/pop) from
/// `threads` threads for `dur`, under the given policy.
pub fn stack_throughput<P: GracePolicy + Clone>(
    policy: P,
    threads: usize,
    dur: Duration,
    seed: u64,
) -> Throughput {
    let cap = 1 << 16;
    let stm = heap(&policy, TStack::words(cap), threads);
    let st = TStack::new(0, cap);
    run_workers(&stm, policy, threads, dur, seed, |t, _, i| {
        if i.is_multiple_of(2) {
            t.run(|tx| st.push(tx, i));
        } else {
            t.run(|tx| st.pop(tx));
        }
    })
}

/// Hammer the 64-object transactional application (acquire and modify two
/// random objects per transaction).
pub fn txapp_throughput<P: GracePolicy + Clone>(
    policy: P,
    threads: usize,
    objects: u64,
    dur: Duration,
    seed: u64,
) -> Throughput {
    let stm = heap(&policy, objects as usize, threads);
    run_workers(&stm, policy, threads, dur, seed, |t, pick, _| {
        let a = uniform_u64_below(pick, objects) as usize;
        let mut b = uniform_u64_below(pick, objects - 1) as usize;
        if b >= a {
            b += 1;
        }
        t.run(|tx| {
            let x = tx.read(a)?;
            let y = tx.read(b)?;
            tx.write(a, x + 1)?;
            tx.write(b, y + 1)
        });
    })
}

/// A zeroed heap of `words` words for `threads` contexts that resolves
/// conflicts the way `policy` says.
fn heap<P: GracePolicy>(policy: &P, words: usize, threads: usize) -> Stm {
    Stm::with_mode(words, threads, machine_mode(policy))
}

/// The one worker loop: `threads` threads each run `body(ctx, pick, i)`
/// for `i = 0, 1, ...` until `dur` has passed, then their stats merge.
/// Each thread gets two independent substreams of `seed`: one drives the
/// policy, one (`pick`) is the body's own.
fn run_workers<P: GracePolicy + Clone>(
    stm: &Stm,
    policy: P,
    threads: usize,
    dur: Duration,
    seed: u64,
    body: impl Fn(&mut TxCtx<'_, P>, &mut Xoshiro256StarStar, u64) + Sync,
) -> Throughput {
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let mut totals = EngineStats::default();
    let mut fan = SeedFanout::new(seed);
    let rngs: Vec<_> = (0..threads).map(|_| (fan.stream(), fan.stream())).collect();
    std::thread::scope(|s| {
        let (stop, body) = (&stop, &body);
        let handles: Vec<_> = (0..threads)
            .zip(rngs)
            .map(|(id, (policy_rng, mut pick))| {
                let policy = policy.clone();
                s.spawn(move || {
                    let mut t = TxCtx::new(stm, id, policy, policy_rng);
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        body(&mut t, &mut pick, i);
                        i += 1;
                    }
                    t.stats
                })
            })
            .collect();
        std::thread::sleep(dur);
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            totals.merge(&h.join().expect("worker panicked"));
        }
    });
    Throughput {
        threads,
        ops: totals.commits,
        wall_ns: start.elapsed().as_nanos() as u64,
        aborts: totals.aborts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcp_core::conflict::ResolutionMode;
    use tcp_core::policy::NoDelay;
    use tcp_core::randomized::{RandRa, RandRw};

    #[test]
    fn harness_heap_resolves_in_the_policy_mode() {
        assert_eq!(heap(&RandRw, 4, 2).mode, ResolutionMode::RequestorWins);
        assert_eq!(heap(&RandRa, 4, 2).mode, ResolutionMode::RequestorAborts);
    }

    #[test]
    fn stack_throughput_measures_commits() {
        let r = stack_throughput(RandRa, 2, Duration::from_millis(100), 1);
        assert!(r.ops > 100, "ops {}", r.ops);
        assert!(r.wall_ns >= 100_000_000);
    }

    #[test]
    fn txapp_throughput_runs_all_thread_counts() {
        for threads in [1usize, 3] {
            let r = txapp_throughput(
                NoDelay::requestor_aborts(),
                threads,
                64,
                Duration::from_millis(60),
                2,
            );
            assert!(r.ops > 0);
            assert_eq!(r.threads, threads);
        }
    }
}
