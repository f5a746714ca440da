//! Property-based tests (proptest) on the public API: invariants that must
//! hold for arbitrary parameters, not just the benchmarked ones.

use proptest::prelude::*;
use transactional_conflict::prelude::*;

fn conflicts() -> impl Strategy<Value = Conflict> {
    (1.0f64..1e6, 2usize..12).prop_map(|(b, k)| Conflict::chain(b, k))
}

proptest! {
    /// Every policy's grace period lies in [0, B/(k-1)] — the support the
    /// theory prescribes (waiting longer than B/(k-1) is dominated).
    #[test]
    fn grace_periods_stay_in_support(c in conflicts(), seed in 0u64..1000) {
        let mut rng = Xoshiro256StarStar::new(seed);
        let hi = c.abort_cost / c.waiters() + 1e-9;
        for p in [
            Box::new(RandRw) as Box<dyn GracePolicy>,
            Box::new(RandRwUniform),
            Box::new(RandRa),
            Box::new(DetRw),
        ] {
            let x = p.grace(&c, &mut rng);
            prop_assert!((0.0..=hi).contains(&x), "{}: {x} outside [0, {hi}]", p.name());
        }
        // DetRa waits B (its own support).
        let x = DetRa.grace(&c, &mut rng);
        prop_assert!(x == c.abort_cost);
    }

    /// Mean-aware strategies also respect the support, for any µ.
    #[test]
    fn mean_policies_stay_in_support(
        c in conflicts(),
        mu in 0.001f64..1e6,
        seed in 0u64..1000,
    ) {
        let mut rng = Xoshiro256StarStar::new(seed);
        let hi = c.abort_cost / c.waiters() + 1e-9;
        let x = RandRwMean::new(mu).grace(&c, &mut rng);
        prop_assert!((0.0..=hi).contains(&x));
        let x = RandRaMean::new(mu).grace(&c, &mut rng);
        prop_assert!((0.0..=hi).contains(&x));
    }

    /// Online cost never beats the offline optimum, in either mode.
    #[test]
    fn cost_dominates_opt(c in conflicts(), d in 1e-6f64..1e7, x in 0f64..1e7) {
        prop_assert!(rw_cost(&c, d, x) >= rw_opt(&c, d) - 1e-9);
        prop_assert!(ra_cost(&c, d, x) >= ra_opt(&c, d) - 1e-9);
    }

    /// The cost model is monotone in the grace period on the abort branch:
    /// waiting longer before an abort only adds cost.
    #[test]
    fn abort_branch_cost_monotone(c in conflicts(), d in 1.0f64..1e6, dx in 0.0f64..0.5) {
        let x1 = d * (1.0 - dx) * 0.9;
        let x2 = x1 * 0.5;
        // both x1, x2 < d: abort branch
        prop_assert!(rw_cost(&c, d, x2) <= rw_cost(&c, d, x1) + 1e-9);
        prop_assert!(ra_cost(&c, d, x2) <= ra_cost(&c, d, x1) + 1e-9);
    }

    /// Every PDF in the family integrates to 1 and has non-negative density
    /// over its support, for arbitrary B and k.
    #[test]
    fn pdfs_are_distributions(b in 1.0f64..1e5, k in 2usize..10) {
        let pdfs: Vec<Box<dyn GracePdf>> = {
            let mut v: Vec<Box<dyn GracePdf>> = vec![
                Box::new(RwUnconstrainedPdf::new(b, k)),
                Box::new(RwUniformPdf::new(b, k)),
                Box::new(RaUnconstrainedPdf::new(b, k)),
                Box::new(RaMeanPdf::new(b, k)),
            ];
            if k == 2 {
                v.push(Box::new(RwMeanK2Pdf::new(b)));
            } else {
                v.push(Box::new(RwMeanChainPdf::new(b, k)));
            }
            v
        };
        for p in pdfs {
            let mass = p.total_mass();
            prop_assert!((mass - 1.0).abs() < 1e-3, "mass {mass}");
            for i in 0..=20 {
                let x = p.hi() * i as f64 / 20.0;
                prop_assert!(p.density(x) >= -1e-9);
            }
            // CDF endpoints.
            prop_assert!(p.cdf(0.0).abs() < 1e-6);
            prop_assert!((p.cdf(p.hi()) - 1.0).abs() < 1e-3);
        }
    }

    /// Quantile inverts the CDF for the closed-form strategies.
    #[test]
    fn quantile_inverts_cdf(b in 1.0f64..1e5, k in 2usize..10, u in 0.0f64..=1.0) {
        let p = RwUnconstrainedPdf::new(b, k);
        prop_assert!((p.cdf(p.quantile(u)) - u).abs() < 1e-6);
        let q = RaUnconstrainedPdf::new(b, k);
        prop_assert!((q.cdf(q.quantile(u)) - u).abs() < 1e-6);
    }

    /// Backoff inflation is monotone and resets cleanly.
    #[test]
    fn backoff_monotone(b in 1.0f64..1e6, bumps in 0u32..40) {
        let mut s = BackoffState::default();
        let mut prev = s.effective_cost(b);
        for _ in 0..bumps {
            s.bump();
            let now = s.effective_cost(b);
            prop_assert!(now >= prev);
            prev = now;
        }
        s.reset();
        prop_assert!((s.effective_cost(b) - b).abs() < 1e-12);
    }

    /// Competitive-ratio formulas: sane ranges everywhere.
    #[test]
    fn ratio_formulas_in_range(k in 2usize..64, b in 1.0f64..1e6, mu in 0.001f64..1e6) {
        let e = std::f64::consts::E;
        prop_assert!(rand_rw_ratio(k) >= e / (e - 1.0) - 1e-9);
        prop_assert!(rand_rw_ratio(k) <= 2.0 + 1e-9);
        prop_assert!(rand_ra_ratio(k) >= e / (e - 1.0) - 1e-9);
        prop_assert!(det_rw_ratio(k) > 2.0 && det_rw_ratio(k) <= 3.0);
        prop_assert!(rand_rw_mean_ratio(k, b, mu) >= 1.0);
        prop_assert!(rand_ra_mean_ratio(k, b, mu) >= 1.0);
        // Corollary 1's bound is always in [1, 2).
        let w = mu / b;
        let bound = corollary1_bound(w);
        prop_assert!((1.0..2.0).contains(&bound));
    }

    /// Distribution sampling stays positive and near its nominal mean.
    #[test]
    fn distributions_sane(mu in 2.0f64..2000.0, seed in 0u64..100) {
        let mut rng = Xoshiro256StarStar::new(seed);
        for d in figure2_distributions(mu) {
            for _ in 0..50 {
                let x = d.sample(&mut rng);
                prop_assert!(x > 0.0, "{}", d.name());
            }
            prop_assert!((d.mean() - mu).abs() < 1e-9);
        }
    }
}

mod stats_merge_properties {
    //! The engine-layer tallies are commutative monoids: merging shards
    //! must give the same aggregate whatever the grouping or order —
    //! including the shed/backpressure counters, the streaming latency
    //! histogram and the cost-vs-OPT sums.

    use super::*;
    use rand::RngCore;

    /// A pseudo-random but fully deterministic `EngineStats` derived from
    /// one seed.
    fn arb_stats(seed: u64) -> EngineStats {
        let mut rng = Xoshiro256StarStar::new(seed);
        let mut draw = |m: u64| rng.next_u64() % m;
        let mut s = EngineStats {
            commits: draw(1000),
            fallbacks: draw(10),
            wait_cycles: draw(100_000),
            total_latency: draw(100_000),
            conflicts: draw(500),
            delayed_conflicts: draw(300),
            saved_by_delay: draw(200),
            sheds: draw(50),
            queue_depth_max: draw(64),
            cycles: draw(1_000_000),
            ..Default::default()
        };
        for _ in 0..draw(6) {
            s.record_abort(AbortKind::Conflict, draw(100));
            s.record_abort(AbortKind::Capacity, draw(100));
        }
        for _ in 0..draw(8) {
            s.record_chain(draw(20) as usize);
        }
        for _ in 0..draw(12) {
            s.record_latency(draw(1 << 20));
        }
        s
    }

    /// A deterministic `RegretTally` from one seed. Integer costs keep the
    /// f64 sums exact, so they stay associative under reordering (the
    /// property under test is merge's algebra, not float rounding).
    fn arb_tally(seed: u64) -> RegretTally {
        let mut rng = Xoshiro256StarStar::new(seed);
        let mut draw = |m: u64| rng.next_u64() % m;
        let mut t = RegretTally::default();
        for _ in 0..draw(10) {
            t.record(draw(1000) as f64, (1 + draw(500)) as f64, draw(2) == 0);
        }
        t
    }

    fn merged(parts: &[&EngineStats]) -> EngineStats {
        let mut out = EngineStats::default();
        for p in parts {
            out.merge(p);
        }
        out
    }

    fn merged_tally(parts: &[&RegretTally]) -> RegretTally {
        let mut out = RegretTally::default();
        for p in parts {
            out.merge(p);
        }
        out
    }

    proptest! {
        #[test]
        fn merge_is_associative(sa in 0u64..5000, sb in 0u64..5000, sc in 0u64..5000) {
            let (a, b, c) = (arb_stats(sa), arb_stats(sb), arb_stats(sc));
            let mut left = a.clone();
            left.merge(&b);
            left.merge(&c);
            let mut bc = b.clone();
            bc.merge(&c);
            let mut right = a.clone();
            right.merge(&bc);
            prop_assert_eq!(left, right);
            let (a, b, c) = (arb_tally(sa), arb_tally(sb), arb_tally(sc));
            let mut left = a;
            left.merge(&b);
            left.merge(&c);
            let mut bc = b;
            bc.merge(&c);
            let mut right = a;
            right.merge(&bc);
            prop_assert_eq!(left, right);
        }

        #[test]
        fn merge_is_order_independent(sa in 0u64..5000, sb in 0u64..5000, sc in 0u64..5000) {
            let (a, b, c) = (arb_stats(sa), arb_stats(sb), arb_stats(sc));
            let abc = merged(&[&a, &b, &c]);
            let cba = merged(&[&c, &b, &a]);
            let bac = merged(&[&b, &a, &c]);
            prop_assert_eq!(&abc, &cba);
            prop_assert_eq!(&abc, &bac);
            // Spot-check the counters the server leans on.
            prop_assert_eq!(abc.sheds, a.sheds + b.sheds + c.sheds);
            prop_assert_eq!(
                abc.queue_depth_max,
                a.queue_depth_max.max(b.queue_depth_max).max(c.queue_depth_max)
            );
            prop_assert_eq!(
                abc.latency_hist.count(),
                a.latency_hist.count() + b.latency_hist.count() + c.latency_hist.count()
            );
            let (a, b, c) = (arb_tally(sa), arb_tally(sb), arb_tally(sc));
            let abc = merged_tally(&[&a, &b, &c]);
            prop_assert_eq!(abc, merged_tally(&[&c, &b, &a]));
            prop_assert_eq!(abc, merged_tally(&[&b, &a, &c]));
            prop_assert_eq!(abc.trials, a.trials + b.trials + c.trials);
        }

        #[test]
        fn sharded_merged_ignores_shard_order(sa in 0u64..5000, sb in 0u64..5000, sc in 0u64..5000) {
            let mut fwd = ShardedStats::new(0);
            fwd.per_thread = vec![arb_stats(sa), arb_stats(sb), arb_stats(sc)];
            fwd.global = arb_stats(sa ^ sb ^ sc);
            let mut rev = fwd.clone();
            rev.per_thread.reverse();
            prop_assert_eq!(fwd.merged(), rev.merged());
            prop_assert_eq!(fwd.commits(), rev.commits());
        }
    }
}

mod sim_properties {
    //! Property tests of the HTM simulator itself: random transaction
    //! programs over a small shared address space must never violate
    //! coherence, always make progress under a delay policy, and stay
    //! deterministic.

    use super::*;

    use std::sync::Arc;

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u64..12).prop_map(Op::Read),
            (0u64..12).prop_map(Op::Write),
            (0u32..40).prop_map(Op::Compute),
        ]
    }

    fn arb_program() -> impl Strategy<Value = TxnProgram> {
        prop::collection::vec(arb_op(), 1..12).prop_map(|ops| TxnProgram { ops })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn random_programs_preserve_coherence_and_progress(
            programs in prop::collection::vec(arb_program(), 1..6),
            cores in 2usize..8,
            seed in 0u64..1000,
        ) {
            let w = Arc::new(FixedProgramsWorkload::new(programs));
            let mut cfg = SimConfig::new(cores, Arc::new(RandRw));
            cfg.horizon = 60_000;
            cfg.seed = seed;
            let mut sim = Simulator::new(cfg, w);
            sim.run();
            prop_assert!(sim.check_coherence().is_ok(), "{:?}", sim.check_coherence());
            prop_assert!(sim.stats.commits() > 0, "no progress: {:?}", sim.stats.aborts());
        }

        #[test]
        fn random_programs_deterministic(
            programs in prop::collection::vec(arb_program(), 1..4),
            seed in 0u64..100,
        ) {
            let run = || {
                let w = Arc::new(FixedProgramsWorkload::new(programs.clone()));
                let mut cfg = SimConfig::new(4, Arc::new(RandRa));
                cfg.horizon = 30_000;
                cfg.seed = seed;
                let mut sim = Simulator::new(cfg, w);
                sim.run();
                (sim.stats.commits(), sim.stats.aborts(), sim.stats.global.conflicts)
            };
            prop_assert_eq!(run(), run());
        }
    }
}

/// Sequential model check of the STM stack against `Vec` (not proptest-
/// randomized input, but a long deterministic mixed workload).
#[test]
fn stm_stack_matches_vec_model() {
    let stm = Stm::new(TStack::words(64), 1);
    let st = TStack::new(0, 64);
    let mut ctx = TxCtx::new(
        &stm,
        0,
        NoDelay::requestor_aborts(),
        Xoshiro256StarStar::new(8),
    );
    let mut model: Vec<u64> = Vec::new();
    let mut rng = Xoshiro256StarStar::new(9);
    for step in 0..2_000u64 {
        if uniform01(&mut rng) < 0.6 && model.len() < 64 {
            let pushed = ctx.run(|tx| st.push(tx, step));
            assert!(pushed);
            model.push(step);
        } else {
            let got = ctx.run(|tx| st.pop(tx));
            assert_eq!(got, model.pop());
        }
    }
    assert_eq!(st.contents_direct(&stm), model);
}

/// Batch-aware group commit must be observationally equivalent to per-tx
/// commit: for arbitrary batches — disjoint writes, overlapping
/// commutative increments, overlapping absolute writes, interleaved
/// reads — the final heap (every key, not just the sum) is identical,
/// and grouping never spends *more* clock bumps.
mod group_commit_equivalence {
    use super::*;

    /// One transaction-body step: `kind % 3` selects read / set / add.
    type Step = (usize, u8, u64);

    fn run_steps<P: GracePolicy>(tx: &mut Tx<'_, '_, P>, steps: &[Step]) -> Result<(), Abort> {
        for &(a, kind, v) in steps {
            match kind % 3 {
                0 => {
                    tx.read(a)?;
                }
                1 => tx.write(a, v)?,
                _ => {
                    tx.write_add(a, v)?;
                }
            }
        }
        Ok(())
    }

    const WORDS: usize = 8;

    fn batches() -> impl Strategy<Value = Vec<Vec<Step>>> {
        prop::collection::vec(
            prop::collection::vec((0..WORDS, 0u8..3, 1u64..100), 1..4),
            1..12,
        )
    }

    proptest! {
        #[test]
        fn grouped_commit_matches_per_tx_heap(batch in batches()) {
            // Grouped: speculate the whole batch, commit through the
            // planner, re-run evictions per-tx inside the fallback hook
            // (the executor's protocol).
            let grouped = Stm::new(WORDS, 1);
            let mut ctx = TxCtx::new(
                &grouped,
                0,
                NoDelay::requestor_aborts(),
                Xoshiro256StarStar::new(1),
            );
            let mut members: Vec<PreparedTx> = batch
                .iter()
                .map(|steps| {
                    let mut p = PreparedTx::new();
                    ctx.speculate_into(&mut p, |tx| run_steps(tx, steps))
                        .expect("single-threaded speculation cannot conflict");
                    p
                })
                .collect();
            let mut gc = GroupCommit::new();
            let mut outcomes = Vec::new();
            let mut stats = EngineStats::default();
            gc.commit_batch_with(&grouped, 0, &mut members, &mut stats, &mut outcomes, |mi| {
                ctx.run(|tx| run_steps(tx, &batch[mi]));
            });

            // Per-tx: the same bodies, committed one by one in order.
            let per_tx = Stm::new(WORDS, 1);
            let mut ctx = TxCtx::new(
                &per_tx,
                0,
                NoDelay::requestor_aborts(),
                Xoshiro256StarStar::new(2),
            );
            for steps in &batch {
                ctx.run(|tx| run_steps(tx, steps));
            }

            // Per-key state must be independent of commit grouping.
            prop_assert_eq!(grouped.snapshot_direct(), per_tx.snapshot_direct());
            prop_assert!(
                grouped.clock_value() <= per_tx.clock_value(),
                "grouping must never add clock bumps ({} vs {})",
                grouped.clock_value(),
                per_tx.clock_value()
            );
        }
    }
}

/// The same equivalence one layer up, through the executor: a group
/// member's reply is its speculative one shifted by how far its group
/// resolved its keys, and that must be the reply per-tx commit gives.
/// Random single-shard request streams — repeated keys, `Rmw`s that
/// revisit a key, absolute `Put`s among the increments, scans — land the
/// same heap and the same reply to every writing request with group
/// commit on and off, under either read path. (Read-only members
/// serialize at the front of their group, a legal but different
/// linearization, so their replies are not compared.)
mod executor_group_equivalence {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    const WORDS: u64 = 8;

    fn request() -> impl Strategy<Value = Request> {
        let keys = || prop::collection::vec(0..WORDS, 1..5);
        prop_oneof![
            (0..WORDS, 1u64..100).prop_map(|(k, d)| Request::Add(k, d)),
            (0..WORDS, 1u64..100).prop_map(|(k, v)| Request::Put(k, v)),
            (keys(), 1u64..10).prop_map(|(keys, delta)| Request::Rmw { keys, delta }),
            (0..WORDS).prop_map(Request::Get),
            (0..WORDS, 1u64..6).prop_map(|(start, len)| Request::GetRange { start, len }),
            keys().prop_map(|keys| Request::GetMany { keys }),
        ]
    }

    /// Serve `reqs` from one pre-filled, closed ring; the final heap and
    /// every reply, in request order.
    fn serve(
        reqs: &[Request],
        batch_max: usize,
        group_commit: bool,
        snapshot_reads: bool,
    ) -> (Vec<u64>, Vec<Response>) {
        let stm = Stm::new(WORDS as usize, 1);
        let queue = Arc::new(ShardQueue::new(reqs.len()));
        let cells: Vec<_> = reqs.iter().map(|_| Arc::new(ReplyCell::new())).collect();
        for (req, cell) in reqs.iter().zip(&cells) {
            let gen = cell.issue();
            queue
                .try_push(Envelope::new(req.clone(), Arc::clone(cell), gen))
                .unwrap_or_else(|_| panic!("push"));
        }
        queue.close();
        let cfg = ExecutorConfig {
            shard: 0,
            batch_max,
            work_ns: 0,
            stats_interval_ns: 0,
            run_start: Instant::now(),
            steal: false,
            steal_min_depth: 0,
            group_commit,
            snapshot_reads,
            trace: None,
        };
        let policy = NoDelay::requestor_aborts();
        let stats = run_executor(&stm, policy, Xoshiro256StarStar::new(1), &[queue], &cfg);
        assert_eq!(stats.commits, reqs.len() as u64);
        (
            stm.snapshot_direct(),
            cells.iter().map(|c| c.take()).collect(),
        )
    }

    proptest! {
        #[test]
        fn group_executor_matches_per_tx_replies_and_heap(
            reqs in prop::collection::vec(request(), 1..40),
            batch_max in 2usize..17,
        ) {
            for snapshot_reads in [false, true] {
                let (heap_g, resp_g) = serve(&reqs, batch_max, true, snapshot_reads);
                let (heap_p, resp_p) = serve(&reqs, batch_max, false, snapshot_reads);
                prop_assert_eq!(heap_g, heap_p);
                for ((req, g), p) in reqs.iter().zip(&resp_g).zip(&resp_p) {
                    prop_assert!(
                        req.is_read_only() || g == p,
                        "{req:?}: grouped {g:?}, per-tx {p:?} (snapshot_reads {snapshot_reads})"
                    );
                }
            }
        }
    }
}

/// MVCC snapshot reads must be atomic with respect to writer commits:
/// with every writer transaction adding 1 to *all* of `K` cells, the heap
/// sum is a multiple of `K` at every clock value — so any snapshot range
/// sum that is *not* a multiple of `K` is a torn read (a mix of two
/// committed states), and any sum that goes backwards within one reader
/// violates snapshot monotonicity. This is the concurrent analogue of the
/// executor's `GetRange`: sum-over-cells served from one `run_snapshot`.
mod snapshot_atomicity {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        #[test]
        fn concurrent_range_sums_hit_committed_states_only(
            k in 2usize..7,
            seed in 0u64..1000,
        ) {
            const WRITERS: usize = 2;
            const READERS: usize = 2;
            const TXNS_PER_WRITER: u64 = 1_500;
            let stm = Stm::new(k, WRITERS + READERS);
            let done = AtomicBool::new(false);
            let torn = std::thread::scope(|s| {
                let (stm, done) = (&stm, &done);
                let mut readers = Vec::new();
                for r in 0..READERS {
                    readers.push(s.spawn(move || {
                        let mut ctx = TxCtx::new(
                            stm,
                            WRITERS + r,
                            NoDelay::requestor_wins(),
                            Xoshiro256StarStar::new(seed ^ r as u64),
                        );
                        let mut last = 0u64;
                        while !done.load(Ordering::SeqCst) {
                            let sum = ctx.run_snapshot(|snap| {
                                let mut acc = 0u64;
                                for a in 0..k {
                                    acc += snap.read(a)?;
                                }
                                Ok(acc)
                            });
                            if !sum.is_multiple_of(k as u64) || sum < last {
                                return Err((last, sum));
                            }
                            last = sum;
                        }
                        Ok(last)
                    }));
                }
                for w in 0..WRITERS {
                    s.spawn(move || {
                        let mut ctx = TxCtx::new(
                            stm,
                            w,
                            NoDelay::requestor_wins(),
                            Xoshiro256StarStar::new(seed.wrapping_add(w as u64)),
                        );
                        for _ in 0..TXNS_PER_WRITER {
                            ctx.run(|tx| {
                                for a in 0..k {
                                    tx.write_add(a, 1)?;
                                }
                                Ok(())
                            });
                        }
                        done.store(true, Ordering::SeqCst);
                    });
                }
                readers
                    .into_iter()
                    .map(|h| h.join().unwrap())
                    .collect::<Vec<_>>()
            });
            let final_sum = k as u64 * WRITERS as u64 * TXNS_PER_WRITER;
            for outcome in torn {
                match outcome {
                    Err((last, sum)) => prop_assert!(
                        false,
                        "torn or regressed snapshot sum: {last} -> {sum} (k = {k})"
                    ),
                    Ok(last) => prop_assert!(
                        last <= final_sum,
                        "snapshot observed a future state: {last} > {final_sum}"
                    ),
                }
            }
            // Every writer increment landed exactly once.
            prop_assert_eq!(
                stm.snapshot_direct().iter().sum::<u64>(),
                final_sum
            );
        }
    }
}

/// The shard-major heap layout must map keys to slots bijectively —
/// every key gets exactly one slot, no two keys collide — and must never
/// place keys of different shards on the same cache line of the hot *or*
/// the cold array (that would reintroduce the false sharing the layout
/// exists to eliminate). The mapping divides by reciprocal; that must
/// agree with `/` and `%` everywhere.
mod shard_layout_bijection {
    use super::*;

    proptest! {
        #[test]
        fn key_to_slot_is_a_bijection(words in 1usize..500, shards in 1usize..16) {
            let l = ShardLayout::new(words, shards);
            let mut hit = vec![false; l.slots()];
            for k in 0..words {
                let s = l.slot(k);
                prop_assert!(s < l.slots(), "slot {s} out of bounds (words={words}, shards={shards})");
                prop_assert!(!hit[s], "keys collide at slot {s} (words={words}, shards={shards})");
                hit[s] = true;
            }
        }

        #[test]
        fn shards_never_share_a_cache_line(words in 1usize..300, shards in 1usize..12) {
            let l = ShardLayout::new(words, shards);
            // line -> owning shard, per array; a line owned by two shards
            // is a bug. A 72-byte cold cell overlaps up to two lines.
            let mut hot_owner = std::collections::HashMap::new();
            let mut cold_owner = std::collections::HashMap::new();
            for k in 0..words {
                let slot = l.slot(k);
                let shard = k % l.shards();
                let hot = ShardLayout::line_of_slot(slot);
                let prev = *hot_owner.entry(hot).or_insert(shard);
                prop_assert!(
                    prev == shard,
                    "hot line {hot} shared by shards {prev} and {shard} (words={words}, shards={shards})"
                );
                for cold in ShardLayout::cold_lines_of_slot(slot) {
                    let prev = *cold_owner.entry(cold).or_insert(shard);
                    prop_assert!(
                        prev == shard,
                        "cold line {cold} shared by shards {prev} and {shard} (words={words}, shards={shards})"
                    );
                }
            }
        }

        #[test]
        fn reciprocal_agrees_with_division(k in 0u64..1 << 32, shards in 1u32..4097) {
            let k = k as u32;
            prop_assert_eq!(Reciprocal::new(shards).div_rem(k), (k / shards, k % shards));
        }

        #[test]
        fn sharded_heap_round_trips_every_key(words in 1usize..200, shards in 1usize..8) {
            // End-to-end through the Stm: direct writes land on the right
            // key regardless of the physical permutation.
            let stm = Stm::with_layout(words, 1, shards, ResolutionMode::RequestorAborts);
            for k in 0..words {
                stm.write_direct(k, k as u64 + 1000);
            }
            for k in 0..words {
                prop_assert_eq!(stm.read_direct(k), k as u64 + 1000);
            }
            // snapshot_direct is key-ordered, not slot-ordered.
            let snap = stm.snapshot_direct();
            prop_assert_eq!(snap.len(), words);
            for (k, v) in snap.iter().enumerate() {
                prop_assert_eq!(*v, k as u64 + 1000);
            }
        }
    }
}
