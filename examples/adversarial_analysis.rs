//! Verifying the paper's guarantees against adversaries: the equalizing
//! property of the optimal strategies, the worst case of the deterministic
//! one, Corollary 1's global bound, and Corollary 2's progress guarantee.
//!
//! Run with: `cargo run --release --example adversarial_analysis`

use transactional_conflict::prelude::*;

fn main() {
    let b = 120.0;
    let c = Conflict::pair(b);

    // --- The equalizing property ---------------------------------------------
    // The optimal randomized strategy makes every adversary choice equally
    // (un)profitable: the expected-cost-to-OPT ratio is flat in D.
    println!("RRW expected ratio across adversarial D (should be flat at 2):");
    for i in 1..=6 {
        let d = b * i as f64 / 6.0;
        let p = expected_cost_at(&RandRw, &c, d, 100_000, 42 + i);
        println!("  D = {d:6.1}: ratio = {:.3}", p.ratio);
    }

    // --- The deterministic worst case (Figure 2c) ----------------------------
    let cfg = |trials, seed| SyntheticConfig {
        abort_cost: b,
        chain: 2,
        trials,
        seed,
    };
    let d_worst = det_worst_case_remaining(&cfg(1, 0));
    let worst = RemainingTime::Fixed(d_worst);
    let det_cost = run_synthetic(&cfg(10, 1), &worst, &DetRw).mean_cost();
    let rnd_cost = run_synthetic(&cfg(100_000, 2), &worst, &RandRw).mean_cost();
    let opt = rw_opt(&c, d_worst);
    println!("\nagainst DET's worst case (D just above B/(k-1)):");
    println!(
        "  DET pays {:.2}x OPT (Theorem 4 says {})",
        det_cost / opt,
        det_rw_ratio(2)
    );
    println!(
        "  RRW pays {:.2}x OPT (Theorem 5 says {})",
        rnd_cost / opt,
        rand_rw_ratio(2)
    );

    // --- Corollary 1: global competitiveness ---------------------------------
    let lengths = Exponential::with_mean(400.0);
    let cfg = GlobalConfig {
        threads: 8,
        txns_per_thread: 5_000,
        lengths: &lengths,
        conflicts_per_txn: 1.5,
        cleanup: 100.0,
        chain: 2,
        seed: 3,
    };
    println!("\nCorollary 1 (sum of running times vs offline OPT, 8 threads):");
    for adv in [
        &UniformStrike as &dyn InterruptAdversary,
        &EarlyStrike,
        &LateStrike,
    ] {
        let r = run_global(&cfg, adv, &RandRw);
        println!(
            "  {:8} adversary: waste w = {:.3}, ratio = {:.3} <= bound (2w+1)/(w+1) = {:.3}",
            adv.name(),
            r.waste,
            r.ratio,
            r.bound
        );
        assert!(r.ratio <= r.bound + 0.02);
    }

    // --- Corollary 2: progress via backoff -----------------------------------
    let pcfg = ProgressConfig {
        y: 400.0,
        gamma: 4,
        b: 50.0,
        k: 2,
        max_attempts: 300,
    };
    let r = run_progress(&pcfg, RandRw, 3_000, 4);
    println!(
        "\nCorollary 2: txn of length {} with {} conflicts/attempt commits within\n  {} attempts with probability {:.2} (guarantee: >= 0.5)",
        pcfg.y, pcfg.gamma, r.bound, r.frac_within_bound
    );
    assert!(r.frac_within_bound >= 0.5);
}
