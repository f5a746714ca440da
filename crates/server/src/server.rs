//! Run orchestration for the sharded, thread-per-shard transactional KV
//! server.
//!
//! One shared TL2 heap (`tcp_stm::Stm`), one batch executor thread per
//! shard (see [`crate::executor`]), a [`Router`](crate::router::Router)
//! for admission, and a fleet of closed- or open-loop clients (see
//! [`crate::client`]). This module wires them together for one complete
//! run and snapshots the result.

use std::sync::Arc;
use std::time::Instant;

use tcp_core::engine::{SeedFanout, ShardedStats};
use tcp_core::policy::{machine_mode, GracePolicy};
use tcp_core::trace::{Trace, TraceReport};
use tcp_stm::runtime::Stm;

use crate::client::{run_client, run_client_open, RequestGen};
use crate::config::{LoadMode, ServeConfig};
use crate::executor::{run_executor, ExecutorConfig};
use crate::router::Router;

/// Everything a serving run reports.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// `per_thread[i]` = shard `i`'s transaction tally (commits, aborts by
    /// cause, wait time, the queue-wait/service/sojourn histograms, and
    /// per-interval throughput samples); `global` = the merged client-side
    /// view (sheds, queue depth) plus the wall-clock horizon in `cycles`
    /// (nanoseconds, STM convention).
    pub stats: ShardedStats,
    /// Wall-clock duration of the run, nanoseconds.
    pub wall_ns: u64,
    /// Sum of every word in the final heap. Because all writes in the
    /// generated workload are commutative increments, this equals
    /// [`increments_applied`](Self::increments_applied) on a quiesced heap
    /// regardless of interleaving.
    pub state_sum: u64,
    /// FNV-style digest of the final heap — the per-key distribution, not
    /// just the sum, so different key-skew seeds are distinguishable.
    pub state_checksum: u64,
    /// Σ increments of all admitted (non-shed) requests.
    pub increments_applied: u64,
    /// Reply-cell misdeliveries (duplicate + stale-generation `put`s)
    /// across every client. Non-zero means the response path violated the
    /// one-delivery-per-request protocol.
    pub reply_faults: u64,
    /// Final value of the STM's global version clock = write publishes
    /// performed. With group commit this is what shrinks: one bump per
    /// disjoint group instead of one per writing transaction.
    pub clock_bumps: u64,
    /// Display name of the grace policy that served the run.
    pub policy: String,
    /// The drained lifecycle trace, when `cfg.trace.enabled` (events,
    /// per-cause attribution, per-shard hot-key tables).
    pub trace: Option<TraceReport>,
}

impl ServeReport {
    /// Committed requests per second of wall-clock time.
    pub fn ops_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.stats.commits() as f64 / (self.wall_ns as f64 / 1e9)
        }
    }

    /// Global-clock bumps per committed transaction — the coherence-traffic
    /// ratio group commit exists to push below 1.0. (Read-only commits
    /// never bump, so even per-tx commit sits at the write fraction.)
    pub fn clock_bumps_per_commit(&self) -> f64 {
        let commits = self.stats.commits();
        if commits == 0 {
            0.0
        } else {
            self.clock_bumps as f64 / commits as f64
        }
    }
}

/// Run the full service experiment described by `cfg` under `policy`, to
/// completion: spawn shard executors and clients (closed- or open-loop per
/// `cfg.mode`), drain, join, and snapshot the heap.
///
/// The resolution mode (requestor aborts vs requestor wins) follows the
/// policy's own preference, as in the HTM simulator.
pub fn run_server<P>(cfg: &ServeConfig, policy: P) -> ServeReport
where
    P: GracePolicy + Clone,
{
    cfg.validate();
    let mode = machine_mode(&policy);
    // Shard-major heap layout: each executor's keys occupy contiguous,
    // exclusively-owned cache lines, so shards never false-share.
    let stm = Stm::with_layout(cfg.keys as usize, cfg.shards, cfg.shards, mode);
    let trace = cfg
        .trace
        .enabled
        .then(|| Arc::new(Trace::new(cfg.shards, &cfg.trace)));
    let router = Router::new(cfg.shards, cfg.queue_capacity)
        .with_slo_us(cfg.slo_us)
        .with_trace(trace.clone());
    let queues = router.queues();
    let gen = RequestGen::from_config(cfg);

    // Fixed fan-out order — shard executors first, clients second — keeps a
    // run bit-reproducible from the one master seed.
    let mut fan = SeedFanout::new(cfg.seed);
    let worker_rngs: Vec<_> = (0..cfg.shards).map(|_| fan.stream()).collect();
    let client_rngs: Vec<_> = (0..cfg.clients).map(|_| fan.stream()).collect();

    let mut stats = ShardedStats::new(cfg.shards);
    let mut increments_applied = 0u64;
    let mut reply_faults = 0u64;
    let start = Instant::now();
    std::thread::scope(|s| {
        let stm_ref = &stm;
        let queues_ref = &queues;
        let workers: Vec<_> = worker_rngs
            .into_iter()
            .enumerate()
            .map(|(shard, rng)| {
                let policy = policy.clone();
                let exec_cfg = ExecutorConfig {
                    shard,
                    batch_max: cfg.batch_max,
                    work_ns: cfg.work_ns,
                    stats_interval_ns: cfg.stats_interval_ns,
                    run_start: start,
                    steal: cfg.steal,
                    steal_min_depth: cfg.steal_min_depth,
                    group_commit: cfg.group_commit,
                    snapshot_reads: cfg.snapshot_reads,
                    trace: trace.clone(),
                };
                s.spawn(move || run_executor(stm_ref, policy, rng, queues_ref, &exec_cfg))
            })
            .collect();

        let (gen_ref, router_ref) = (&gen, &router);
        let ops = cfg.ops_per_client;
        let clients: Vec<_> = client_rngs
            .into_iter()
            .map(|rng| match cfg.mode {
                LoadMode::Closed => {
                    let think_ns = cfg.think_ns;
                    s.spawn(move || run_client(gen_ref, router_ref, ops, think_ns, rng))
                }
                LoadMode::Open {
                    rate_per_client,
                    window,
                } => s.spawn(move || {
                    run_client_open(gen_ref, router_ref, ops, rate_per_client, window, rng)
                }),
            })
            .collect();

        // Both loops bound their outstanding requests, so every client
        // returns only after all its admitted requests were answered;
        // closing afterwards leaves no request behind.
        for c in clients {
            let outcome = c.join().expect("client panicked");
            stats.global.merge(&outcome.stats);
            increments_applied += outcome.increments_applied;
            reply_faults += outcome.reply_faults;
        }
        router.close();
        for (shard, w) in workers.into_iter().enumerate() {
            stats.per_thread[shard] = w.join().expect("shard executor panicked");
        }
    });
    let wall_ns = start.elapsed().as_nanos() as u64;
    stats.global.cycles = wall_ns;

    let snapshot = stm.snapshot_direct();
    let state_sum = snapshot.iter().copied().fold(0u64, u64::wrapping_add);
    // Drain the trace only after every emitter has joined, so the report
    // is a complete, quiescent view of the run.
    let trace_report = trace.map(|t| t.finish());
    ServeReport {
        stats,
        wall_ns,
        state_sum,
        state_checksum: checksum(&snapshot),
        increments_applied,
        reply_faults,
        clock_bumps: stm.clock_value(),
        policy: policy.name(),
        trace: trace_report,
    }
}

/// FNV-1a over the heap words: a stable digest of the full per-key state.
fn checksum(words: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &w in words {
        h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcp_core::policy::{DetRw, NoDelay};
    use tcp_core::randomized::RandRw;

    fn small(shards: usize, rmw_fraction: f64, seed: u64) -> ServeConfig {
        ServeConfig {
            shards,
            clients: 4,
            ops_per_client: 400,
            keys: 128,
            zipf_s: 0.9,
            read_fraction: 0.5,
            rmw_fraction,
            rmw_span: 3,
            think_ns: 0,
            work_ns: 0,
            queue_capacity: 16,
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn every_admitted_request_commits_exactly_once() {
        let cfg = small(2, 0.2, 7);
        let r = run_server(&cfg, RandRw);
        let m = r.stats.merged();
        assert_eq!(
            m.commits + m.sheds,
            cfg.total_requests(),
            "commits + sheds must account for every issued request"
        );
        assert!(
            m.latency_hist.count() == m.commits,
            "one sojourn sample per commit"
        );
        assert_eq!(
            m.queue_wait_hist.count(),
            m.commits,
            "one queue-wait sample per commit"
        );
        assert_eq!(
            m.service_hist.count(),
            m.commits,
            "one service sample per commit"
        );
        assert_eq!(r.reply_faults, 0, "no misdelivered replies");
    }

    #[test]
    fn heap_conserves_admitted_increments_under_contention() {
        // All writes are commutative increments, so whatever the
        // interleaving and however many aborts/retries cross-shard RMWs
        // suffer, the quiesced heap must sum to exactly the admitted
        // increments — the STM's exactly-once commit, end to end.
        for policy_run in [
            run_server(&small(4, 0.5, 11), NoDelay::requestor_aborts()),
            run_server(&small(4, 0.5, 11), DetRw),
            run_server(&small(4, 0.5, 11), RandRw),
        ] {
            assert_eq!(
                policy_run.state_sum, policy_run.increments_applied,
                "increment conservation violated under {}",
                policy_run.policy
            );
        }
    }

    #[test]
    fn cross_shard_rmw_exercises_the_arbiter() {
        // With a hot Zipf head and half the requests spanning 3 shards,
        // workers must collide at least occasionally; conflicts are
        // resolved (not crashed) and the run completes.
        let cfg = ServeConfig {
            shards: 4,
            clients: 8,
            ops_per_client: 1_000,
            keys: 64,
            zipf_s: 1.2,
            rmw_fraction: 0.5,
            think_ns: 0,
            ..Default::default()
        };
        let r = run_server(&cfg, RandRw);
        let m = r.stats.merged();
        assert_eq!(m.commits + m.sheds, cfg.total_requests());
        assert_eq!(r.state_sum, r.increments_applied);
        assert!(r.ops_per_sec() > 0.0);
    }

    #[test]
    fn single_shard_single_client_is_conflict_free() {
        let cfg = ServeConfig {
            shards: 1,
            clients: 1,
            ops_per_client: 500,
            keys: 32,
            rmw_fraction: 0.3,
            rmw_span: 4,
            think_ns: 0,
            ..Default::default()
        };
        let r = run_server(&cfg, NoDelay::requestor_aborts());
        let m = r.stats.merged();
        assert_eq!(m.commits, 500);
        assert_eq!(m.aborts, 0, "a lone client can never conflict");
        assert_eq!(
            m.sheds, 0,
            "one in-flight request can't overflow capacity 64"
        );
    }

    #[test]
    fn overload_sheds_and_accounting_stays_conserved() {
        // Drive the shed path end to end: one slow worker (50µs of
        // in-transaction work per request), a 2-deep queue, and 8 clients
        // bursting with zero think time. Admission control must shed, and
        // every shed request must be excluded from both the commit count
        // and the heap (no double-counts, no lost envelopes).
        let cfg = ServeConfig {
            shards: 1,
            clients: 8,
            ops_per_client: 100,
            keys: 64,
            zipf_s: 0.0,
            read_fraction: 0.0,
            rmw_fraction: 0.2,
            rmw_span: 2,
            think_ns: 0,
            work_ns: 50_000,
            queue_capacity: 2,
            seed: 9,
            ..Default::default()
        };
        let r = run_server(&cfg, NoDelay::requestor_aborts());
        let m = r.stats.merged();
        assert!(
            m.sheds > 0,
            "a 2-deep queue against 8 bursting clients must shed"
        );
        assert_eq!(m.commits + m.sheds, cfg.total_requests());
        assert_eq!(m.latency_hist.count(), m.commits, "sheds record no latency");
        assert_eq!(
            r.state_sum, r.increments_applied,
            "shed requests must never reach the heap"
        );
        assert!(m.queue_depth_max <= 2, "depth can never exceed capacity");
    }

    #[test]
    fn adaptive_admission_sheds_on_slo_breach_and_conserves() {
        // One slow shard (50µs of in-transaction work per request) offered
        // ~100k req/s open loop — 5× its service capacity — against an
        // ample ring but a 100µs queue-wait SLO. The windowed p99 crosses
        // the SLO within a couple of estimator windows and adaptive
        // admission sheds *early* (slo_sheds), while every admitted
        // request still commits exactly once.
        let cfg = ServeConfig {
            shards: 1,
            clients: 2,
            ops_per_client: 2_000,
            keys: 64,
            zipf_s: 0.0,
            read_fraction: 0.0,
            rmw_fraction: 0.0,
            rmw_span: 1,
            work_ns: 50_000,
            queue_capacity: 4096,
            slo_us: 100,
            mode: LoadMode::Open {
                rate_per_client: 50_000.0,
                window: 64,
            },
            seed: 17,
            ..Default::default()
        };
        let r = run_server(&cfg, NoDelay::requestor_aborts());
        let m = r.stats.merged();
        assert!(
            m.slo_sheds > 0,
            "sustained 5× overload must trip the SLO gate"
        );
        assert!(m.slo_sheds <= m.sheds, "slo_sheds is a subset of sheds");
        assert_eq!(m.commits + m.sheds, cfg.total_requests());
        assert_eq!(r.state_sum, r.increments_applied);
        assert_eq!(r.reply_faults, 0);
    }

    #[test]
    fn open_loop_offers_load_and_accounts_every_request() {
        // Open loop on an ample queue/window: every request is admitted,
        // executed exactly once, and measured (queue wait + service +
        // sojourn all have one sample per commit).
        let cfg = ServeConfig {
            shards: 2,
            clients: 3,
            ops_per_client: 500,
            keys: 128,
            zipf_s: 0.9,
            rmw_fraction: 0.2,
            rmw_span: 2,
            work_ns: 0,
            queue_capacity: 1024,
            mode: LoadMode::Open {
                rate_per_client: 200_000.0,
                window: 32,
            },
            ..Default::default()
        };
        let r = run_server(&cfg, RandRw);
        let m = r.stats.merged();
        assert_eq!(m.commits + m.sheds, cfg.total_requests());
        assert_eq!(m.sheds, 0, "ample capacity must not shed");
        assert_eq!(m.latency_hist.count(), m.commits);
        assert_eq!(m.queue_wait_hist.count(), m.commits);
        assert_eq!(m.service_hist.count(), m.commits);
        assert_eq!(r.state_sum, r.increments_applied);
        assert_eq!(r.reply_faults, 0);
        assert!(
            m.interval_commits.iter().sum::<u64>() == m.commits,
            "every commit lands in a throughput interval"
        );
    }

    #[test]
    fn open_loop_overload_sheds_at_the_queue() {
        // One slow shard (20µs service) offered ~200k req/s against a
        // 4-deep queue: the schedule outruns service, the ring fills, and
        // admission control sheds — while conservation still holds.
        let cfg = ServeConfig {
            shards: 1,
            clients: 2,
            ops_per_client: 300,
            keys: 64,
            zipf_s: 0.0,
            read_fraction: 0.0,
            rmw_fraction: 0.0,
            rmw_span: 1,
            work_ns: 20_000,
            queue_capacity: 4,
            mode: LoadMode::Open {
                rate_per_client: 100_000.0,
                window: 4,
            },
            seed: 13,
            ..Default::default()
        };
        let r = run_server(&cfg, NoDelay::requestor_aborts());
        let m = r.stats.merged();
        assert!(m.sheds > 0, "overload must shed at the bounded ring");
        assert_eq!(m.commits + m.sheds, cfg.total_requests());
        assert_eq!(r.state_sum, r.increments_applied);
        assert!(m.queue_depth_max <= 4, "depth can never exceed capacity");
        assert_eq!(r.reply_faults, 0);
    }

    #[test]
    fn group_commit_serves_and_conserves_under_contention() {
        // Same cross-shard contended config as the conservation test, but
        // with batch-aware group commit on: every admitted request still
        // commits exactly once, the heap still sums to the admitted
        // increments, and the clock never bumps more often than commits.
        let cfg = ServeConfig {
            group_commit: true,
            ..small(4, 0.5, 11)
        };
        let r = run_server(&cfg, RandRw);
        let m = r.stats.merged();
        assert_eq!(m.commits + m.sheds, cfg.total_requests());
        assert_eq!(r.state_sum, r.increments_applied);
        assert_eq!(m.latency_hist.count(), m.commits);
        assert_eq!(r.reply_faults, 0);
        assert!(
            r.clock_bumps <= m.commits,
            "clock bumps ({}) can never exceed commits ({})",
            r.clock_bumps,
            m.commits
        );
        assert!(
            m.group_fallbacks <= m.commits,
            "fallbacks are a subset of commits"
        );
    }

    #[test]
    fn snapshot_fast_path_serves_pure_reads_without_arbiter_or_aborts() {
        // A 100% read mix with scans, under contention-friendly settings
        // (hot Zipf head, several shards): on the snapshot path the read
        // side must finish with ZERO arbiter consultations and ZERO
        // aborts of any kind — the practical-wait-freedom claim of the
        // read path, counter-asserted end to end.
        let cfg = ServeConfig {
            shards: 4,
            clients: 8,
            ops_per_client: 500,
            keys: 128,
            zipf_s: 1.2,
            read_fraction: 1.0,
            rmw_fraction: 0.0,
            scan_fraction: 0.3,
            scan_span: 8,
            think_ns: 0,
            queue_capacity: 64,
            snapshot_reads: true,
            seed: 23,
            ..Default::default()
        };
        let r = run_server(&cfg, RandRw);
        let m = r.stats.merged();
        assert_eq!(m.commits + m.sheds, cfg.total_requests());
        assert!(m.snapshot_reads > 0, "the snapshot path must actually run");
        assert_eq!(m.arbiter_consults, 0, "snapshot reads never consult");
        assert_eq!(m.validation_aborts, 0, "snapshot reads never validate");
        assert_eq!(m.aborts, 0, "snapshot reads never abort");
        assert_eq!(m.read_aborts, 0);
        assert_eq!(r.reply_faults, 0);
        assert_eq!(r.state_sum, 0, "a pure-read run leaves the heap zero");
    }

    #[test]
    fn read_modes_agree_on_final_state_same_seed() {
        // Same seed, same mix — snapshot on vs off must land the same
        // heap: reads never change state, whichever path serves them.
        let mix = ServeConfig {
            scan_fraction: 0.2,
            scan_span: 4,
            steal: false,
            ..small(2, 0.2, 31)
        };
        let on = run_server(
            &ServeConfig {
                snapshot_reads: true,
                ..mix.clone()
            },
            NoDelay::requestor_aborts(),
        );
        let off = run_server(
            &ServeConfig {
                snapshot_reads: false,
                ..mix
            },
            NoDelay::requestor_aborts(),
        );
        assert_eq!(on.state_checksum, off.state_checksum);
        assert_eq!(on.state_sum, off.state_sum);
        let m_on = on.stats.merged();
        assert!(m_on.snapshot_reads > 0);
        assert_eq!(off.stats.merged().snapshot_reads, 0);
        assert_eq!(m_on.read_aborts, 0, "aborts can't reach the snapshot path");
    }

    #[test]
    fn steal_min_depth_gates_stealing_without_losing_work() {
        // A high threshold keeps executors from stealing shallow backlogs
        // but must never strand envelopes: the run still completes with
        // every request accounted for.
        let cfg = ServeConfig {
            steal_min_depth: 1_000_000,
            ..small(4, 0.2, 5)
        };
        let r = run_server(&cfg, NoDelay::requestor_aborts());
        let m = r.stats.merged();
        assert_eq!(m.commits + m.sheds, cfg.total_requests());
        assert_eq!(m.steals, 0, "an unreachable threshold disables steals");
        assert_eq!(r.state_sum, r.increments_applied);
    }

    #[test]
    fn report_wall_clock_backs_throughput() {
        let r = run_server(&small(2, 0.0, 3), NoDelay::requestor_aborts());
        assert!(r.wall_ns > 0);
        assert_eq!(r.stats.merged().cycles, r.wall_ns);
        let ops = r.stats.merged().commits as f64 / (r.wall_ns as f64 / 1e9);
        assert!((r.ops_per_sec() - ops).abs() < 1e-6);
    }
}
