//! End-to-end integration tests spanning every crate: the same policies
//! drive the synthetic testbed, the HTM simulator, the STM runtime, and the
//! adversarial analysis, and the headline claims of the paper hold in each.

use std::sync::Arc;

use transactional_conflict::prelude::*;

/// Figure 3's headline: under contention, delaying beats immediate aborts
/// on the hot stack, in the simulator.
#[test]
fn delays_beat_no_delay_on_contended_stack() {
    let run = |policy: Arc<dyn GracePolicy>| {
        let mut cfg = SimConfig::new(12, policy);
        cfg.horizon = 400_000;
        let mut sim = Simulator::new(cfg, Arc::new(StackWorkload::default()));
        sim.run();
        sim.stats.commits()
    };
    let nd = run(Arc::new(NoDelay::requestor_wins()));
    let det = run(Arc::new(DetRw));
    let rnd = run(Arc::new(RandRw));
    assert!(det > nd, "DELAY_DET {det} must beat NO_DELAY {nd}");
    assert!(rnd > nd, "DELAY_RAND {rnd} must beat NO_DELAY {nd}");
    // The paper reports up to 4x; our simulator gives at least 1.5x.
    assert!(det as f64 / nd as f64 > 1.5, "{det} vs {nd}");
}

/// Uncontended runs must not be hurt by delays (paper §1: "does not
/// adversely impact performance in uncontended" settings).
#[test]
fn delays_do_not_hurt_single_thread() {
    let run = |policy: Arc<dyn GracePolicy>| {
        let mut cfg = SimConfig::new(1, policy);
        cfg.horizon = 300_000;
        let mut sim = Simulator::new(cfg, Arc::new(StackWorkload::default()));
        sim.run();
        sim.stats.commits()
    };
    let nd = run(Arc::new(NoDelay::requestor_wins()));
    let rnd = run(Arc::new(RandRw));
    assert_eq!(nd, rnd, "no conflicts → identical executions");
}

/// The same policy object drives the simulator and the STM runtime.
#[test]
fn one_policy_many_substrates() {
    let policy = RandRa;
    // Simulator (as Arc<dyn>).
    let mut cfg = SimConfig::new(4, Arc::new(policy));
    cfg.horizon = 100_000;
    let mut sim = Simulator::new(cfg, Arc::new(QueueWorkload::default()));
    assert!(sim.run().commits() > 100);
    // STM (by value).
    let stm = Stm::new(8, 2);
    let mut ctx = TxCtx::new(&stm, 0, policy, Xoshiro256StarStar::new(5));
    let v = ctx.run(|tx| {
        tx.write(0, 9)?;
        tx.read(0)
    });
    assert_eq!(v, 9);
    // Synthetic testbed (by reference).
    let cfg = SyntheticConfig {
        abort_cost: 100.0,
        chain: 2,
        trials: 5_000,
        seed: 1,
    };
    let lens = Uniform::with_mean(50.0);
    let r = run_synthetic(&cfg, &RemainingTime::FromLengths(&lens), &policy);
    assert!(r.cost_ratio() < rand_ra_ratio(2) + 0.05);
}

/// Determinism across the whole stack: same seed, same numbers.
#[test]
fn full_stack_determinism() {
    let run = || {
        let mut cfg = SimConfig::new(8, Arc::new(RandRw));
        cfg.horizon = 150_000;
        cfg.seed = 99;
        let mut sim = Simulator::new(cfg, Arc::new(TxAppWorkload::default()));
        sim.run();
        (
            sim.stats.commits(),
            sim.stats.aborts(),
            sim.stats.global.conflicts,
        )
    };
    assert_eq!(run(), run());
}

/// The bimodal story: hand-tuning to the mean misfires when transaction
/// lengths alternate between short and very long (§8.2).
#[test]
fn bimodal_defeats_hand_tuning() {
    let w = BimodalWorkload::default();
    let run = |policy: Arc<dyn GracePolicy>| {
        let mut cfg = SimConfig::new(12, policy);
        cfg.horizon = 400_000;
        let mut sim = Simulator::new(cfg, Arc::new(w));
        sim.run();
        sim.stats.commits()
    };
    let tuned = run(Arc::new(HandTuned::new(
        ResolutionMode::RequestorWins,
        w.tuned_delay(),
    )));
    let rand = run(Arc::new(RandRw));
    assert!(
        rand > tuned,
        "randomized ({rand}) should beat mean-tuned ({tuned}) on bimodal lengths"
    );
}

/// Requestor aborts beats requestor wins for pair conflicts; the hybrid
/// never does worse than either (paper §5.3 and §1).
#[test]
fn mode_comparison_and_hybrid() {
    let cfg = SyntheticConfig {
        abort_cost: 2000.0,
        chain: 2,
        trials: 100_000,
        seed: 11,
    };
    let lens = Exponential::with_mean(500.0);
    let rem = RemainingTime::FromLengths(&lens);
    let rw = run_synthetic(&cfg, &rem, &RandRw);
    let ra = run_synthetic(&cfg, &rem, &RandRa);
    let hy = run_synthetic(&cfg, &rem, &Hybrid::new(None));
    assert!(ra.mean_cost() < rw.mean_cost());
    assert!(hy.mean_cost() <= ra.mean_cost() * 1.02);
}

/// Chain conflicts flip the comparison: requestor wins has the better
/// guarantee for k ≥ 8 (paper §1 "Implications").
#[test]
fn long_chains_favor_requestor_wins() {
    for k in [8usize, 16] {
        assert!(rand_rw_ratio(k) < rand_ra_ratio(k), "k={k}");
    }
    assert!(rand_ra_ratio(2) < rand_rw_ratio(2));
}

/// Corollary 1 holds end-to-end through the workloads crate's length
/// distributions.
#[test]
fn corollary1_through_distributions() {
    for (seed, dist) in [(1u64, "geometric"), (2, "poisson")] {
        let lens: Box<dyn LengthDist> = match dist {
            "geometric" => Box::new(Geometric::with_mean(300.0)),
            _ => Box::new(Poisson::with_mean(300.0)),
        };
        let cfg = GlobalConfig {
            threads: 4,
            txns_per_thread: 2_000,
            lengths: lens.as_ref(),
            conflicts_per_txn: 1.0,
            cleanup: 50.0,
            chain: 2,
            seed,
        };
        let r = run_global(&cfg, &UniformStrike, &RandRw);
        assert!(
            r.ratio <= r.bound + 0.02,
            "{dist}: {} vs {}",
            r.ratio,
            r.bound
        );
    }
}
