//! Ski rental *is* the requestor-aborts conflict (paper §4.2): with abort
//! cost `B`, delaying the requestor one more step is renting, aborting it
//! is buying, and the receiver's unknown remaining time `D` is the season.
//! So the classic strategies are `tcp-core`'s requestor-aborts policies,
//! measured by the same single-conflict kernel as every other claim.
//!
//! Run with: `cargo run --release --example ski_rental`

use transactional_conflict::prelude::*;

fn main() {
    let b = 100.0;
    let cfg = |trials, seed| SyntheticConfig {
        abort_cost: b,
        chain: 2,
        trials,
        seed,
    };
    println!("ski rental with B = {b} (rent = 1/day) = a requestor-aborts pair conflict:");

    // The mapping: rent until x, then buy — unless the season ends first.
    // That is `ra_cost` at k = 2, and OPT = min(D, B) is `ra_opt`.
    let c = Conflict::pair(b);
    let ski = |d: f64, x: f64| if d <= x { d } else { x + b };
    for (d, x) in [(30.0, 50.0), (80.0, 50.0), (300.0, 0.0)] {
        assert_eq!(ski(d, x), ra_cost(&c, d, x));
        assert_eq!(d.min(b), ra_opt(&c, d));
    }
    println!("  mapping check: ra_cost == ski rental cost on every branch ✓");

    // Deterministic buy-at-B (`DetRa`): 2-competitive. Its worst season
    // ends just after the purchase — `D = B(1+ε)`, since a receiver that
    // finishes exactly at the deadline still commits.
    let d = det_worst_case_remaining(&cfg(1, 0));
    let r = run_synthetic(&cfg(1_000, 1), &RemainingTime::Fixed(d), &DetRa);
    println!(
        "  DetRa (buy at B) vs worst case: ratio {:.3} (theory: 2)",
        r.cost_ratio()
    );

    // Karlin's randomized strategy (`RandRa`; `DiscreteRandRa` per day):
    // e/(e-1) ≈ 1.582 whatever the season.
    for d in [30.0, 60.0, 100.0, 400.0] {
        let r = run_synthetic(&cfg(200_000, 2), &RemainingTime::Fixed(d), &RandRa);
        println!(
            "  RandRa vs D = {d:5.0}: ratio {:.3} (theory: <= {:.3})",
            r.cost_ratio(),
            rand_ra_ratio(2)
        );
    }

    // Khanafer et al.'s mean-constrained strategy (Theorem 2, `RandRaMean`)
    // against seasons from exp(µ) lengths interrupted at a uniform point.
    let mu = 20.0;
    let lengths = Exponential::with_mean(mu);
    let honest = RemainingTime::FromLengths(&lengths);
    let con = run_synthetic(&cfg(200_000, 3), &honest, &RandRaMean::new(mu));
    let unc = run_synthetic(&cfg(200_000, 3), &honest, &RandRa);
    println!(
        "  mean-aware vs exp({mu}) lengths: {:.3} (unconstrained: {:.3})",
        con.cost_ratio(),
        unc.cost_ratio()
    );
    assert!(con.cost_ratio() < unc.cost_ratio());
}
