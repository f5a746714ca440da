//! Discrete-time formulations of the strategies.
//!
//! The paper's Theorem 1 (and the classic ski-rental literature it builds
//! on) is stated in discrete days; the transactional strategies are their
//! continuous limits. Hardware, however, counts cycles — so this module
//! provides exact discrete counterparts: probability mass functions over
//! integer grace periods, with the discrete competitive ratios that
//! converge to the continuous ones as `B → ∞`.

use rand::RngCore;

use crate::conflict::{Conflict, ResolutionMode};
use crate::policy::GracePolicy;
use crate::rng::uniform01;

/// The discrete randomized ski-rental strategy of Theorem 1: buy on day
/// `i ∈ {1..B}` with mass `p(i) = q^{B−i} / (B(1 − q^B))·(1−q)⁻¹`… in the
/// standard normalized form `p(i) = q^{B−i}(1−q)/(1−q^B)`, `q = 1 − 1/B`.
///
/// Its expected cost is `(e/(e−1))·min(D, B)` in the large-`B` limit; for
/// finite `B` the exact ratio is `1/(1 − (1 − 1/B)^B)`, which this module
/// exposes for the convergence tests.
#[derive(Clone, Copy, Debug)]
pub struct DiscreteKarlin {
    b: u32,
}

impl DiscreteKarlin {
    pub fn new(b: u32) -> Self {
        assert!(b >= 1);
        Self { b }
    }

    /// Probability of buying on day `i` (1-based, `i ≤ B`).
    pub fn pmf(&self, i: u32) -> f64 {
        assert!((1..=self.b).contains(&i));
        let b = self.b as f64;
        let q = 1.0 - 1.0 / b;
        q.powi((self.b - i) as i32) * (1.0 - q) / (1.0 - q.powi(self.b as i32))
    }

    /// CDF over buy days.
    pub fn cdf(&self, i: u32) -> f64 {
        let b = self.b as f64;
        let q = 1.0 - 1.0 / b;
        q.powi((self.b - i) as i32) * (1.0 - q.powi(i as i32)) / (1.0 - q.powi(self.b as i32))
    }

    /// Sample a buy day by inverse-CDF binary search.
    pub fn sample_day(&self, rng: &mut dyn RngCore) -> u32 {
        let u = uniform01(rng);
        let (mut lo, mut hi) = (1u32, self.b);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.cdf(mid) < u {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Exact competitive ratio at this `B`: `1/(1 − (1 − 1/B)^B)`.
    pub fn exact_ratio(&self) -> f64 {
        let q = 1.0 - 1.0 / self.b as f64;
        1.0 / (1.0 - q.powi(self.b as i32))
    }
}

/// Discrete uniform requestor-wins strategy: grace drawn uniformly from
/// `{0, 1, …, ⌈B/(k−1)⌉ − 1}` — the integer-cycle version of Theorem 5.
#[derive(Clone, Copy, Debug, Default)]
pub struct DiscreteRandRw;

impl GracePolicy for DiscreteRandRw {
    fn mode(&self, _c: &Conflict) -> ResolutionMode {
        ResolutionMode::RequestorWins
    }
    fn grace(&self, c: &Conflict, rng: &mut dyn RngCore) -> f64 {
        let hi = (c.abort_cost / c.waiters()).ceil().max(1.0);
        (uniform01(rng) * hi).floor()
    }
    fn name(&self) -> String {
        "RRW_DISCRETE".into()
    }
    fn competitive_ratio(&self, c: &Conflict) -> Option<f64> {
        // The discretization adds at most k/B to the ratio (one extra step
        // of delay per conflict).
        Some(2.0 + c.chain as f64 / c.abort_cost)
    }
}

/// Discrete requestor-aborts strategy: the Theorem 1 distribution applied
/// to the conflict support `{0, …, ⌈B/(k−1)⌉ − 1}` (the geometric-like PMF
/// rises towards the deadline exactly like the continuous exponential).
#[derive(Clone, Copy, Debug, Default)]
pub struct DiscreteRandRa;

impl GracePolicy for DiscreteRandRa {
    fn mode(&self, _c: &Conflict) -> ResolutionMode {
        ResolutionMode::RequestorAborts
    }
    fn grace(&self, c: &Conflict, rng: &mut dyn RngCore) -> f64 {
        let hi = (c.abort_cost / c.waiters()).ceil().max(1.0) as u32;
        // Theorem 1's PMF on {1..hi}, shifted to a 0-based grace.
        (DiscreteKarlin::new(hi).sample_day(rng) - 1) as f64
    }
    fn name(&self) -> String {
        "RRA_DISCRETE".into()
    }
    fn competitive_ratio(&self, c: &Conflict) -> Option<f64> {
        let hi = (c.abort_cost / c.waiters()).ceil().max(1.0) as u32;
        Some(DiscreteKarlin::new(hi).exact_ratio())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conflict::{ra_cost, ra_opt, rw_cost, rw_opt};
    use crate::rng::Xoshiro256StarStar;
    use std::f64::consts::E;

    #[test]
    fn karlin_pmf_normalizes_for_many_b() {
        for b in [1u32, 2, 3, 10, 100, 10_000] {
            let k = DiscreteKarlin::new(b);
            let total: f64 = (1..=b).map(|i| k.pmf(i)).sum();
            assert!((total - 1.0).abs() < 1e-9, "B={b}: {total}");
        }
    }

    #[test]
    fn exact_ratio_converges_to_e_over_e_minus_1() {
        // (1 − 1/B)^B increases towards 1/e, so the exact discrete ratio
        // 1/(1 − (1−1/B)^B) increases towards e/(e−1) *from below*:
        // finite-B discreteness slightly helps the online player.
        let limit = E / (E - 1.0);
        let mut prev = DiscreteKarlin::new(2).exact_ratio();
        for b in [4u32, 16, 64, 256, 4096] {
            let r = DiscreteKarlin::new(b).exact_ratio();
            assert!(r > prev, "ratio must increase towards the limit");
            assert!(r < limit, "and stay below it");
            prev = r;
        }
        assert!((DiscreteKarlin::new(100_000).exact_ratio() - limit).abs() < 1e-4);
    }

    #[test]
    fn pmf_is_increasing_towards_the_deadline() {
        let k = DiscreteKarlin::new(50);
        let mut prev = 0.0;
        for i in 1..=50 {
            let p = k.pmf(i);
            assert!(p > prev, "day {i}");
            prev = p;
        }
    }

    #[test]
    fn discrete_buy_at_b_ratio_is_2_minus_1_over_b() {
        // Classic discrete ski rental (§3.3): rent B − 1 days, buy on day
        // B — a requestor-aborts pair granted the integer grace B − 1.
        // Seasons shorter than the grace cost what they last; any longer
        // one costs (B − 1) + B against OPT = min(D, B), so the worst
        // integer season is D = B and the ratio is exactly 2 − 1/B.
        for b in [1.0, 2.0, 10.0, 100.0] {
            let c = Conflict::pair(b);
            let x = b - 1.0;
            assert_eq!(ra_cost(&c, x, x), x); // the season ends on the last rental day
            assert_eq!(ra_cost(&c, b, x), 2.0 * b - 1.0); // D = B: bought on day B
            let worst = (1..=4 * b as u32)
                .map(|d| ra_cost(&c, d as f64, x) / ra_opt(&c, d as f64))
                .fold(0.0, f64::max);
            assert!((worst - (2.0 - 1.0 / b)).abs() < 1e-12, "B={b}: {worst}");
        }
    }

    #[test]
    fn discrete_rw_grace_is_integer_in_support() {
        let p = DiscreteRandRw;
        let c = Conflict::chain(100.0, 3);
        let mut rng = Xoshiro256StarStar::new(1);
        for _ in 0..5_000 {
            let x = p.grace(&c, &mut rng);
            assert_eq!(x, x.floor());
            assert!((0.0..=50.0).contains(&x));
        }
    }

    #[test]
    fn discrete_ra_grace_is_integer_in_support() {
        let p = DiscreteRandRa;
        let c = Conflict::pair(100.0);
        let mut rng = Xoshiro256StarStar::new(2);
        for _ in 0..5_000 {
            let x = p.grace(&c, &mut rng);
            assert_eq!(x, x.floor());
            assert!((0.0..100.0).contains(&x));
        }
    }

    #[test]
    fn discrete_strategies_respect_continuous_ratios_with_slack() {
        // Empirical worst case over integer adversaries stays within the
        // discretization slack of the continuous ratio.
        let mut rng = Xoshiro256StarStar::new(3);
        let c = Conflict::pair(200.0);
        let trials = 40_000;
        let mut worst_rw: f64 = 0.0;
        let mut worst_ra: f64 = 0.0;
        for d in (1..=220).step_by(7) {
            let d = d as f64;
            let mut rw_sum = 0.0;
            let mut ra_sum = 0.0;
            for _ in 0..trials {
                rw_sum += rw_cost(&c, d, DiscreteRandRw.grace(&c, &mut rng));
                ra_sum += ra_cost(&c, d, DiscreteRandRa.grace(&c, &mut rng));
            }
            worst_rw = worst_rw.max(rw_sum / trials as f64 / rw_opt(&c, d));
            worst_ra = worst_ra.max(ra_sum / trials as f64 / ra_opt(&c, d));
        }
        assert!(worst_rw < 2.0 + 0.06, "discrete RW worst {worst_rw}");
        let exact = DiscreteKarlin::new(200).exact_ratio();
        assert!(
            worst_ra < exact + 0.06,
            "discrete RA worst {worst_ra} vs {exact}"
        );
    }

    #[test]
    fn sample_day_matches_pmf() {
        let k = DiscreteKarlin::new(8);
        let mut rng = Xoshiro256StarStar::new(4);
        let n = 200_000;
        let mut counts = [0usize; 9];
        for _ in 0..n {
            counts[k.sample_day(&mut rng) as usize] += 1;
        }
        for i in 1..=8u32 {
            let emp = counts[i as usize] as f64 / n as f64;
            assert!(
                (emp - k.pmf(i)).abs() < 0.005,
                "day {i}: {emp} vs {}",
                k.pmf(i)
            );
        }
    }
}
