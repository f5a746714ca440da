//! The single-conflict game: an adversary chooses the receiver's remaining
//! time `D`, the policy chooses a grace period, costs follow §4. Monte-Carlo
//! estimation of expected cost and competitive ratio, used to verify every
//! theorem's ratio empirically.

use tcp_core::conflict::{offline_opt, Conflict};
use tcp_core::policy::GracePolicy;
use tcp_workloads::synthetic::{run_synthetic, RemainingTime, SyntheticConfig};

/// Empirical conflict-game outcome for one adversary choice of `D`.
#[derive(Clone, Copy, Debug)]
pub struct GamePoint {
    pub d: f64,
    pub mean_cost: f64,
    pub opt: f64,
    pub ratio: f64,
}

/// Expected cost of `policy` against fixed remaining time `d`, by
/// Monte-Carlo over the policy's randomness: `trials` runs of the one
/// single-conflict kernel, [`run_synthetic`], with `D` a point mass.
pub fn expected_cost_at(
    policy: &dyn GracePolicy,
    c: &Conflict,
    d: f64,
    trials: usize,
    seed: u64,
) -> GamePoint {
    let cfg = SyntheticConfig {
        abort_cost: c.abort_cost,
        chain: c.chain,
        trials,
        seed,
    };
    let mean_cost = run_synthetic(&cfg, &RemainingTime::Fixed(d), policy).mean_cost();
    let opt = offline_opt(policy.mode(c), c, d);
    GamePoint {
        d,
        mean_cost,
        opt,
        ratio: mean_cost / opt,
    }
}

/// Worst empirical ratio over a grid of adversarial `D` values in
/// `(0, d_max]`. For the optimal randomized strategies this converges to
/// the analytic competitive ratio (the equalizing property makes every grid
/// point near-worst-case).
pub fn worst_case_ratio(
    policy: &dyn GracePolicy,
    c: &Conflict,
    d_max: f64,
    grid: usize,
    trials: usize,
    seed: u64,
) -> f64 {
    let mut worst: f64 = 0.0;
    for i in 1..=grid {
        let d = d_max * i as f64 / grid as f64;
        let p = expected_cost_at(policy, c, d, trials, seed ^ (i as u64) << 20);
        worst = worst.max(p.ratio);
    }
    worst
}

/// Verify a policy's analytic competitive ratio empirically: returns
/// `(empirical_worst, analytic)`.
pub fn verify_ratio(
    policy: &dyn GracePolicy,
    c: &Conflict,
    trials: usize,
    seed: u64,
) -> (f64, Option<f64>) {
    // Two-scale adversary grid: fine over the grace support [0, B/(k−1)]
    // (where the randomized strategies' worst cases live) and coarse out to
    // 3B (where the requestor-aborts deterministic strategy, which waits a
    // full B, has its worst case at D just above B).
    let fine = 3.0 * c.abort_cost / c.waiters();
    let coarse = 3.0 * c.abort_cost;
    let w_fine = worst_case_ratio(policy, c, fine, 60, trials, seed);
    let w_coarse = worst_case_ratio(policy, c, coarse, 60, trials, seed ^ 0xF00D);
    (w_fine.max(w_coarse), policy.competitive_ratio(c))
}

/// Worst **expected per-instance ratio** `E_y[Cost(y)/OPT(y)]` against
/// mean-respecting adversaries: two-point distributions over `{d_lo, d_hi}`
/// mixed so that `E[y] = µ`.
///
/// This is exactly the objective of the constrained LP in Theorems 2/3/5/6:
/// the Lagrangian constraints force the pointwise ratio to be *linear* in
/// `y` (`Cost(p, y)/OPT(y) = λ₁ + λ₂y`), so any mean-µ adversary yields
/// expected ratio `C2 = λ₁ + λ₂µ`. Note this is a different metric from the
/// unconstrained worst case (ratio of expectations at a fixed `y`).
pub fn worst_case_ratio_mean(
    policy: &dyn GracePolicy,
    c: &Conflict,
    mu: f64,
    grid: usize,
    trials: usize,
    seed: u64,
) -> f64 {
    let hi = c.abort_cost / c.waiters(); // the support end K = B/(k−1)
    let mut worst: f64 = 0.0;
    for i in 1..=grid {
        let d = hi * i as f64 / grid as f64;
        // Pair d with whichever endpoint allows a valid mixture mean µ.
        let (a, b) = if d <= mu {
            (d, hi.max(mu))
        } else {
            (mu * 1e-3, d)
        };
        if (a - b).abs() < 1e-12 {
            continue;
        }
        let q = ((b - mu) / (b - a)).clamp(0.0, 1.0);
        let pa = expected_cost_at(policy, c, a.max(1e-9), trials, seed ^ (i as u64) << 16);
        let pb = expected_cost_at(policy, c, b, trials, seed ^ (i as u64) << 17);
        worst = worst.max(q * pa.ratio + (1.0 - q) * pb.ratio);
    }
    worst
}

/// Verify the LP structure directly: the pointwise expected ratio of a
/// constrained-optimal strategy is linear in `y`. Returns the maximum
/// absolute deviation of `E[Cost(y)]/OPT(y)` from the best-fit line over
/// the support.
pub fn pointwise_ratio_linearity(
    policy: &dyn GracePolicy,
    c: &Conflict,
    grid: usize,
    trials: usize,
    seed: u64,
) -> f64 {
    let hi = c.abort_cost / c.waiters();
    let pts: Vec<(f64, f64)> = (1..=grid)
        .map(|i| {
            let d = hi * i as f64 / grid as f64;
            (
                d,
                expected_cost_at(policy, c, d, trials, seed ^ (i as u64) << 8).ratio,
            )
        })
        .collect();
    // Least-squares line fit.
    let n = pts.len() as f64;
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    let slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    let icept = (sy - slope * sx) / n;
    pts.iter()
        .map(|&(x, y)| (y - (icept + slope * x)).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcp_core::competitive;
    use tcp_core::policy::{DetRa, DetRw};
    use tcp_core::randomized::{Hybrid, RandRa, RandRaMean, RandRw, RandRwMean};

    const B: f64 = 120.0;
    const TRIALS: usize = 6_000;

    #[test]
    fn rand_rw_ratio_verified_for_k_2_to_6() {
        for k in 2..=6 {
            let c = Conflict::chain(B, k);
            let (emp, analytic) = verify_ratio(&RandRw, &c, TRIALS, 7);
            let a = analytic.unwrap();
            // 6% headroom: the max over ~120 noisy grid estimates is
            // upward-biased (extreme-value effect).
            assert!(
                emp < a * 1.06,
                "k={k}: empirical {emp} exceeds analytic {a}"
            );
            assert!(
                emp > a * 0.90,
                "k={k}: empirical {emp} far below analytic {a} — adversary too weak?"
            );
        }
    }

    #[test]
    fn rand_ra_ratio_verified_for_k_2_to_6() {
        for k in 2..=6 {
            let c = Conflict::chain(B, k);
            let (emp, analytic) = verify_ratio(&RandRa, &c, TRIALS, 11);
            let a = analytic.unwrap();
            assert!(emp < a * 1.06, "k={k}: {emp} vs {a}");
            assert!(emp > a * 0.90, "k={k}: {emp} vs {a}");
        }
    }

    #[test]
    fn deterministic_policies_hit_their_ratios() {
        for k in [2usize, 3, 5] {
            let c = Conflict::chain(B, k);
            let (emp, analytic) = verify_ratio(&DetRw, &c, 1, 13);
            assert!(
                (emp - analytic.unwrap()).abs() < 0.1,
                "DET k={k}: {emp} vs {analytic:?}"
            );
        }
        let c = Conflict::pair(B);
        let (emp, analytic) = verify_ratio(&DetRa, &c, 1, 17);
        assert!(
            (emp - analytic.unwrap()).abs() < 0.1,
            "{emp} vs {analytic:?}"
        );
    }

    #[test]
    fn mean_constrained_beats_unconstrained_against_honest_adversary() {
        // Honest adversary: D is a point mass at µ (respecting the prior).
        let c = Conflict::pair(B);
        let mu = 25.0;
        let p_con = expected_cost_at(&RandRwMean::new(mu), &c, mu, 40_000, 19);
        let p_unc = expected_cost_at(&RandRw, &c, mu, 40_000, 23);
        assert!(
            p_con.mean_cost < p_unc.mean_cost,
            "constrained {} vs unconstrained {}",
            p_con.mean_cost,
            p_unc.mean_cost
        );
        // And its realized ratio at D=µ is within the analytic C2.
        let c2 = competitive::rand_rw_mean_ratio(2, B, mu);
        assert!(p_con.ratio <= c2 + 0.05, "{} vs {c2}", p_con.ratio);
        // Same for requestor aborts.
        let r_con = expected_cost_at(&RandRaMean::new(mu), &c, mu, 40_000, 29);
        let r_unc = expected_cost_at(&RandRa, &c, mu, 40_000, 31);
        assert!(r_con.mean_cost < r_unc.mean_cost);
    }

    #[test]
    fn mean_respecting_worst_case_matches_c2() {
        let c = Conflict::pair(B);
        let mu = 0.15 * B;
        // RW constrained: C2 = 1 + µ/(2B(ln4−1)).
        let emp = worst_case_ratio_mean(&RandRwMean::new(mu), &c, mu, 40, 20_000, 51);
        let c2 = competitive::rand_rw_mean_ratio(2, B, mu);
        assert!(
            emp <= c2 + 0.05,
            "RW mean-respecting worst case {emp} exceeds C2 {c2}"
        );
        // RA constrained: C2 = 1 + µ/(2B(e−2)).
        let emp_ra = worst_case_ratio_mean(&RandRaMean::new(mu), &c, mu, 40, 20_000, 53);
        let c2_ra = competitive::rand_ra_mean_ratio(2, B, mu);
        assert!(
            emp_ra <= c2_ra + 0.05,
            "RA mean-respecting worst case {emp_ra} exceeds C2 {c2_ra}"
        );
        // And the constrained strategy must beat the unconstrained one on
        // this metric under the constraint:
        let unc = worst_case_ratio_mean(&RandRw, &c, mu, 40, 20_000, 57);
        assert!(
            emp < unc,
            "constrained {emp} should beat unconstrained {unc}"
        );
    }

    #[test]
    fn constrained_strategies_have_linear_pointwise_ratio() {
        // The LP's defining property: Cost(p, y)/y = λ₁ + λ₂y on the
        // support. Deviation from linearity should be statistical noise.
        let c = Conflict::pair(B);
        let dev = pointwise_ratio_linearity(&RandRwMean::new(0.15 * B), &c, 25, 40_000, 61);
        assert!(dev < 0.03, "RW(µ) pointwise ratio not linear: dev {dev}");
        let dev_ra = pointwise_ratio_linearity(&RandRaMean::new(0.15 * B), &c, 25, 40_000, 67);
        assert!(
            dev_ra < 0.03,
            "RA(µ) pointwise ratio not linear: dev {dev_ra}"
        );
    }

    #[test]
    fn hybrid_matches_best_mode_everywhere() {
        for k in [2usize, 8] {
            let c = Conflict::chain(B, k);
            let (emp, analytic) = verify_ratio(&Hybrid::new(None), &c, TRIALS, 37);
            let a = analytic.unwrap();
            assert!(emp < a * 1.06, "k={k}: {emp} vs {a}");
        }
    }

    #[test]
    fn ratio_is_flat_across_d_for_optimal_randomized() {
        // The equalizing property: expected ratio ~constant over the support.
        let c = Conflict::pair(B);
        let mut ratios = vec![];
        for i in 1..=10 {
            let d = B * i as f64 / 10.0;
            ratios.push(expected_cost_at(&RandRw, &c, d, 60_000, 41 + i).ratio);
        }
        let (lo, hi) = ratios
            .iter()
            .fold((f64::MAX, f64::MIN), |(l, h), &r| (l.min(r), h.max(r)));
        assert!(hi - lo < 0.08, "ratio spread [{lo}, {hi}] too wide");
    }
}
