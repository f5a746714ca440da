//! Satellite of the engine-layer refactor: every substrate, driven through
//! the shared `tcp_core::engine` seed fan-out, must be bit-reproducible —
//! two runs with the same master seed produce *identical* `EngineStats`
//! (full struct equality, not just a couple of counters).

use std::sync::Arc;

use transactional_conflict::prelude::*;

/// The HTM simulator is single-threaded and cycle-granular: everything,
/// including per-core shards and the run-global counters, must match.
#[test]
fn htm_sim_same_seed_identical_stats() {
    let run = |seed: u64| -> ShardedStats {
        let mut cfg = SimConfig::new(6, Arc::new(RandRw));
        cfg.horizon = 150_000;
        cfg.seed = seed;
        let mut sim = Simulator::new(cfg, Arc::new(StackWorkload::default()));
        sim.run();
        sim.stats.clone()
    };
    let a = run(7);
    assert_eq!(a, run(7), "same seed must reproduce every counter");
    assert!(
        a.commits() > 0 && a.global.conflicts > 0,
        "workload too idle"
    );
    let b = run(8);
    assert_ne!(
        a.merged().commits,
        b.merged().commits,
        "different seeds should visibly diverge on a contended stack"
    );
}

/// The STM runs real threads, so wall-clock counters are only meaningful
/// under contention; a single-context seeded workload must nevertheless
/// reproduce its logical counters exactly. The op mix is driven by the
/// same fan-out stream that seeds the policy RNG.
#[test]
fn stm_same_seed_identical_stats() {
    let run = |seed: u64| -> EngineStats {
        let mut fan = SeedFanout::new(seed);
        let policy_rng = fan.stream();
        let mut mix = fan.stream();
        let stm = Stm::new(TStack::words(64), 1);
        let st = TStack::new(0, 64);
        let mut ctx = TxCtx::new(&stm, 0, RandRa, policy_rng);
        for _ in 0..2_000 {
            if uniform01(&mut mix) < 0.6 {
                ctx.run(|tx| st.push(tx, 1));
            } else {
                ctx.run(|tx| st.pop(tx));
            }
        }
        ctx.stats
    };
    let a = run(11);
    let b = run(11);
    assert_eq!(a, b);
    assert_eq!(a.commits, 2_000);
    assert_eq!(a.aborts, 0, "uncontended run must never abort");
}

/// The KV server runs real shard and client threads, so wall-clock fields
/// (latency histogram, wait cycles) vary between runs — but the *logical*
/// counters must not. This is the **steal-disabled exact-stats variant**:
/// with stealing off, shard-partitioned keys, and no cross-shard RMWs
/// there is no contention at all: same seed ⇒ identical commits, aborts
/// (= 0), sheds (= 0, capacity ≥ clients bounds the closed loop), and —
/// because all writes are commutative increments — the exact final heap.
/// (With stealing on, abort counts become timing-dependent — two
/// executors can race on a hot ring's keys — which is why the steal-on
/// tests below assert only placement-independent quantities.)
#[test]
fn server_same_seed_identical_logical_stats() {
    let run = |seed: u64| {
        let cfg = ServeConfig {
            shards: 2,
            clients: 3,
            ops_per_client: 400,
            keys: 128,
            zipf_s: 0.9,
            read_fraction: 0.5,
            rmw_fraction: 0.0,
            rmw_span: 2,
            think_ns: 0,
            work_ns: 0,
            queue_capacity: 16,
            steal: false,
            seed,
            ..Default::default()
        };
        let r = run_server(&cfg, NoDelay::requestor_aborts());
        let m = r.stats.merged();
        (m.commits, m.aborts, m.sheds, r.state_sum, r.state_checksum)
    };
    let a = run(21);
    assert_eq!(a, run(21), "same seed must reproduce every logical counter");
    let (commits, aborts, sheds, _, checksum) = a;
    assert_eq!(commits, 3 * 400, "every issued request must commit");
    assert_eq!(aborts, 0, "partitioned keys cannot conflict");
    assert_eq!(
        sheds, 0,
        "capacity ≥ clients keeps the closed loop admitted"
    );
    assert_ne!(
        run(22).4,
        checksum,
        "a different seed must draw different keys and land a different heap"
    );
}

/// Group-commit variant of the steal-disabled exact-stats test: batching
/// transactions into one clock bump must not change a single logical
/// counter *or* the heap. With stealing off, partitioned keys, and no
/// cross-shard RMWs, every popped batch folds into one conflict-free
/// group, so commits/aborts/sheds stay exact — and because grouping only
/// reorders commutative increments, the final checksum must equal the
/// grouping-OFF run of the same seed (observable state is independent of
/// commit grouping).
#[test]
fn server_steal_disabled_exact_stats_group_commit_both_modes() {
    let run = |seed: u64, group_commit: bool| {
        let cfg = ServeConfig {
            shards: 2,
            clients: 3,
            ops_per_client: 400,
            keys: 128,
            zipf_s: 0.9,
            read_fraction: 0.5,
            rmw_fraction: 0.0,
            rmw_span: 2,
            think_ns: 0,
            work_ns: 0,
            queue_capacity: 16,
            steal: false,
            group_commit,
            seed,
            ..Default::default()
        };
        let r = run_server(&cfg, NoDelay::requestor_aborts());
        let m = r.stats.merged();
        (m.commits, m.aborts, m.sheds, r.state_sum, r.state_checksum)
    };
    let grouped = run(21, true);
    assert_eq!(
        grouped,
        run(21, true),
        "same seed must reproduce every logical counter with grouping on"
    );
    let (commits, aborts, sheds, _, checksum) = grouped;
    assert_eq!(commits, 3 * 400, "every issued request must commit");
    assert_eq!(aborts, 0, "partitioned keys cannot conflict");
    assert_eq!(sheds, 0);
    assert_eq!(
        run(21, false).4,
        checksum,
        "the heap must be identical with grouping on and off"
    );
}

/// Open-loop, steal-disabled, group-commit-ON exact-stats variant: even
/// the per-shard commit tallies stay pure functions of the seed when
/// batches commit as groups, and nothing ever aborts or falls back
/// (partitioned keys make every group conflict-free).
#[test]
fn server_open_loop_steal_disabled_exact_stats_group_commit_on() {
    let run = |seed: u64| {
        let cfg = ServeConfig {
            shards: 2,
            clients: 3,
            ops_per_client: 400,
            keys: 128,
            zipf_s: 0.9,
            read_fraction: 0.5,
            rmw_fraction: 0.0,
            rmw_span: 1,
            think_ns: 0,
            work_ns: 0,
            queue_capacity: 4096,
            steal: false,
            group_commit: true,
            mode: LoadMode::Open {
                rate_per_client: 150_000.0,
                window: 64,
            },
            seed,
            ..Default::default()
        };
        let r = run_server(&cfg, NoDelay::requestor_aborts());
        let per_shard_commits: Vec<u64> = r.stats.per_thread.iter().map(|t| t.commits).collect();
        let m = r.stats.merged();
        (
            per_shard_commits,
            m.aborts,
            m.sheds,
            m.group_fallbacks,
            r.state_checksum,
        )
    };
    let a = run(51);
    assert_eq!(
        a,
        run(51),
        "steal-off per-shard stats must be exact across same-seed runs"
    );
    let (per_shard, aborts, sheds, fallbacks, _) = a;
    assert_eq!(per_shard.iter().sum::<u64>(), 3 * 400);
    assert_eq!(aborts, 0, "partitioned keys without stealing cannot abort");
    assert_eq!(sheds, 0);
    assert_eq!(fallbacks, 0, "conflict-free groups never fall back");
}

/// Under genuine cross-shard contention — and with work stealing
/// explicitly on, so envelopes may execute on any executor — the abort
/// counts become timing-dependent, but the *state* must stay a pure
/// function of the seed: commutative increments make the final heap
/// placement-independent, and with capacity ≥ clients no request is ever
/// shed.
#[test]
fn server_cross_shard_state_is_seed_deterministic() {
    let run = |seed: u64| {
        let cfg = ServeConfig {
            shards: 4,
            clients: 6,
            ops_per_client: 300,
            keys: 64,
            zipf_s: 1.1,
            read_fraction: 0.4,
            rmw_fraction: 0.4,
            rmw_span: 3,
            think_ns: 0,
            work_ns: 0,
            queue_capacity: 16,
            steal: true,
            seed,
            ..Default::default()
        };
        let r = run_server(&cfg, RandRw);
        let m = r.stats.merged();
        (
            m.commits,
            m.sheds,
            r.state_sum,
            r.state_checksum,
            r.increments_applied,
        )
    };
    let a = run(31);
    let b = run(31);
    assert_eq!(a, b, "logical outcome must survive real-thread racing");
    assert_eq!(a.0, 6 * 300);
    assert_eq!(a.1, 0);
    assert_eq!(a.2, a.4, "final heap must sum to the admitted increments");
}

/// Open-loop mode adds a seeded arrival *schedule* on top of the seeded
/// request sequence, and this variant runs with work stealing **on** (the
/// default): envelopes may execute on any executor, yet with capacity and
/// window sized above the offered burst nothing is ever shed, so the
/// logical outcome — admitted count, shed count, the exact final heap
/// checksum (commutative increments are placement-independent) — must be
/// identical across same-seed runs, and the schedule itself must diverge
/// between different seeds.
#[test]
fn server_open_loop_schedule_is_seed_deterministic() {
    let run = |seed: u64| {
        let cfg = ServeConfig {
            shards: 2,
            clients: 3,
            ops_per_client: 400,
            keys: 128,
            zipf_s: 0.9,
            read_fraction: 0.5,
            rmw_fraction: 0.2,
            rmw_span: 2,
            think_ns: 0,
            work_ns: 0,
            queue_capacity: 4096,
            steal: true,
            mode: LoadMode::Open {
                rate_per_client: 150_000.0,
                window: 64,
            },
            seed,
            ..Default::default()
        };
        let r = run_server(&cfg, RandRw);
        let m = r.stats.merged();
        (
            m.commits,
            m.sheds,
            r.state_sum,
            r.state_checksum,
            r.reply_faults,
        )
    };
    let a = run(41);
    assert_eq!(
        a,
        run(41),
        "same seed must reproduce admitted/shed counts and the heap"
    );
    let (commits, sheds, state_sum, checksum, reply_faults) = a;
    assert_eq!(commits, 3 * 400, "ample capacity admits every arrival");
    assert_eq!(sheds, 0);
    assert_eq!(reply_faults, 0);
    assert!(state_sum > 0, "increments must have landed");
    assert_ne!(
        run(42).3,
        checksum,
        "a different seed must draw a different schedule and heap"
    );
}

/// Open-loop, steal-disabled exact-stats variant: with stealing off and
/// no cross-shard RMWs, every shard executes exactly the requests routed
/// to it, so even the *per-shard* commit tallies — not just the global
/// ones — are pure functions of the seed, and nothing ever aborts.
#[test]
fn server_open_loop_steal_disabled_exact_stats() {
    let run = |seed: u64| {
        let cfg = ServeConfig {
            shards: 2,
            clients: 3,
            ops_per_client: 400,
            keys: 128,
            zipf_s: 0.9,
            read_fraction: 0.5,
            rmw_fraction: 0.0,
            rmw_span: 1,
            think_ns: 0,
            work_ns: 0,
            queue_capacity: 4096,
            steal: false,
            mode: LoadMode::Open {
                rate_per_client: 150_000.0,
                window: 64,
            },
            seed,
            ..Default::default()
        };
        let r = run_server(&cfg, NoDelay::requestor_aborts());
        let per_shard_commits: Vec<u64> = r.stats.per_thread.iter().map(|t| t.commits).collect();
        let m = r.stats.merged();
        (
            per_shard_commits,
            m.aborts,
            m.sheds,
            m.steals,
            r.state_checksum,
        )
    };
    let a = run(51);
    assert_eq!(
        a,
        run(51),
        "steal-off per-shard stats must be exact across same-seed runs"
    );
    let (per_shard, aborts, sheds, steals, _) = a;
    assert_eq!(per_shard.iter().sum::<u64>(), 3 * 400);
    assert_eq!(aborts, 0, "partitioned keys without stealing cannot abort");
    assert_eq!(sheds, 0);
    assert_eq!(steals, 0, "stealing is disabled");
}

/// Read-mode variant of the determinism suite: serving reads (including
/// multi-key `GetRange`/`GetMany` scans) through the MVCC snapshot fast
/// path instead of validated transactions must not change a single
/// observable — same seed ⇒ same final heap, and snapshot-on vs
/// snapshot-off agree on the checksum. With partitioned writes (no RMWs,
/// stealing off) the snapshot arm is conflict-free end to end: zero
/// aborts, zero read-side aborts, every read on the fast path. The
/// validated arm's scans *can* cross shards and take timing-dependent
/// validation aborts, which is exactly why only placement-independent
/// quantities are compared across modes.
#[test]
fn server_read_modes_same_seed_identical_state() {
    let run = |seed: u64, snapshot_reads: bool| {
        let cfg = ServeConfig {
            shards: 2,
            clients: 3,
            ops_per_client: 400,
            keys: 128,
            zipf_s: 0.9,
            read_fraction: 0.6,
            rmw_fraction: 0.0,
            rmw_span: 2,
            scan_fraction: 0.2,
            scan_span: 8,
            snapshot_reads,
            think_ns: 0,
            work_ns: 0,
            queue_capacity: 16,
            steal: false,
            seed,
            ..Default::default()
        };
        let r = run_server(&cfg, NoDelay::requestor_aborts());
        let m = r.stats.merged();
        (
            (m.commits, m.sheds, r.state_sum, r.state_checksum),
            (m.aborts, m.read_aborts, m.snapshot_reads),
        )
    };
    let (snap, snap_counters) = run(61, true);
    assert_eq!(
        snap,
        run(61, true).0,
        "same seed must reproduce the snapshot-mode outcome"
    );
    let (validated, _) = run(61, false);
    assert_eq!(
        snap, validated,
        "read mode must not change commits, sheds, or the final heap"
    );
    assert_eq!(snap.0, 3 * 400, "every issued request must commit");
    assert_eq!(
        snap.1, 0,
        "capacity ≥ clients keeps the closed loop admitted"
    );
    let (aborts, read_aborts, snapshot_reads) = snap_counters;
    assert_eq!(
        aborts, 0,
        "partitioned writes + snapshot reads cannot conflict"
    );
    assert_eq!(read_aborts, 0, "the snapshot fast path never aborts a read");
    assert!(snapshot_reads > 0, "reads must actually ride the fast path");
    assert_eq!(
        run(61, false).1 .2,
        0,
        "snapshot-off must not touch the fast path"
    );
    assert_ne!(
        run(62, true).0 .3,
        snap.3,
        "a different seed must land a different heap"
    );
}

/// The single-conflict kernel reports through a RegretTally; its
/// internal seeding must reproduce the f64 accumulators exactly — for the
/// Figure 2 procedure and for §4.2's ski rental (Karlin's continuous
/// strategy, `RandRa`, against a fixed season), each seeing both outcomes.
#[test]
fn synthetic_testbed_same_seed_identical_stats() {
    let dist = Exponential::with_mean(500.0);
    let inputs: [(f64, RemainingTime, &dyn GracePolicy); 2] = [
        (2000.0, RemainingTime::FromLengths(&dist), &RandRw),
        (100.0, RemainingTime::Fixed(60.0), &RandRa),
    ];
    for (abort_cost, remaining, policy) in &inputs {
        let run = |seed: u64| {
            let cfg = SyntheticConfig {
                abort_cost: *abort_cost,
                chain: 2,
                trials: 20_000,
                seed,
            };
            run_synthetic(&cfg, remaining, *policy)
        };
        let a = run(5);
        assert_eq!(a, run(5));
        assert_eq!(a.trials, 20_000);
        assert!(
            a.aborts > 0 && a.trials > a.aborts,
            "both outcomes must occur"
        );
        assert_ne!(a, run(6), "different seeds must draw different graces");
    }
}
