//! The randomized optimal policies (Theorems 1–3, 5, 6) and the hybrid
//! strategy suggested in the paper's "Implications" discussion.
//!
//! Randomized policies construct the per-conflict distribution lazily from
//! `(B, k)`; nothing is cached between conflicts. That construction used to
//! be the whole cost of a decision: at `k = 2` — every conflict the HTM
//! simulator's default (chain-blind) mode, Figure 2 and the STM ever ask
//! about — [`RandRw`] paid two `powf` calls per sample, `(2/1)^1` for the
//! chain constant and `(1 + u)^(1/1)` in the quantile, and the repo
//! benchmark's `core.grace_decide_ns` probe read 64 ns [57–75] (86 on a
//! slower day) against ~28 ns for a whole `DetRw` synthetic trial.
//! [`crate::pdfs`] now evaluates those pair arms in closed form and the
//! probe reads 10 ns [9–22] (medians and ranges of six alternating runs on
//! the 2-vCPU benchmark host); a `RandRw` synthetic trial went 91 → 26 ns.
//!
//! The closed form is exact, not approximately equal: `powf(x, 1.0)` is `x`
//! and `powf(x, 0.0)` is `1.0` for every finite `x`, so the pair arm spells
//! out the *same expression* minus the call — `B·((1 + u·(r − 1)) − 1)`, not
//! the algebraically equal `B·u`, because `1 + u` rounds away low bits of
//! `u` and every grace ever sampled has been rounded that way.
//! `pdfs::tests::pair_closed_forms_equal_the_general_expressions_bit_for_bit`
//! compares the two forms over 120 000 draws, and
//! `crates/workloads/tests/golden.rs` pins whole synthetic runs to the last
//! bit of their cost ratio, captured before the change.

use rand::RngCore;

use crate::competitive;
use crate::conflict::{Conflict, ResolutionMode};
use crate::pdf::GracePdf;
use crate::pdfs::{
    RaMeanPdf, RaUnconstrainedPdf, RwMeanChainPdf, RwMeanK2Pdf, RwUnconstrainedPdf, RwUniformPdf,
};
use crate::policy::GracePolicy;

/// Optimal unconstrained randomized requestor-wins strategy (`RRW`).
///
/// Uniform on `[0, B]` at `k = 2` (Theorem 5), the polynomial density of
/// Theorem 6 (λ₂ = 0) for longer chains; ratio `r/(r−1)`.
#[derive(Clone, Copy, Debug, Default)]
pub struct RandRw;

impl GracePolicy for RandRw {
    fn mode(&self, _c: &Conflict) -> ResolutionMode {
        ResolutionMode::RequestorWins
    }
    fn grace(&self, c: &Conflict, rng: &mut dyn RngCore) -> f64 {
        RwUnconstrainedPdf::new(c.abort_cost, c.chain).sample(rng)
    }
    fn name(&self) -> String {
        "RRW".into()
    }
    fn competitive_ratio(&self, c: &Conflict) -> Option<f64> {
        Some(competitive::rand_rw_ratio(c.chain))
    }
}

/// The uniform-on-`[0, B/(k−1)]` strategy stated in Theorem 5's remark for
/// `k > 2`: 2-competitive for every chain length, dominated by [`RandRw`]
/// for `k ≥ 3`. Kept for ablation.
#[derive(Clone, Copy, Debug, Default)]
pub struct RandRwUniform;

impl GracePolicy for RandRwUniform {
    fn mode(&self, _c: &Conflict) -> ResolutionMode {
        ResolutionMode::RequestorWins
    }
    fn grace(&self, c: &Conflict, rng: &mut dyn RngCore) -> f64 {
        RwUniformPdf::new(c.abort_cost, c.chain).sample(rng)
    }
    fn name(&self) -> String {
        "RRW_UNIF".into()
    }
    fn competitive_ratio(&self, c: &Conflict) -> Option<f64> {
        Some(competitive::rand_rw_uniform_ratio(c.chain))
    }
}

/// Mean-aware randomized requestor-wins strategy (`RRW(µ)`).
///
/// Uses the constrained distribution (Theorem 5 log-density at `k = 2`,
/// corrected Theorem 6 density for `k ≥ 3`) whenever the mean improves the
/// guarantee, and falls back to the unconstrained optimum otherwise —
/// exactly the case split of the theorems.
#[derive(Clone, Copy, Debug)]
pub struct RandRwMean {
    /// Known (e.g. profiled) mean of the transaction-length distribution.
    pub mu: f64,
}

impl RandRwMean {
    pub fn new(mu: f64) -> Self {
        assert!(mu.is_finite() && mu > 0.0, "mean must be positive");
        Self { mu }
    }
}

impl GracePolicy for RandRwMean {
    fn mode(&self, _c: &Conflict) -> ResolutionMode {
        ResolutionMode::RequestorWins
    }
    fn grace(&self, c: &Conflict, rng: &mut dyn RngCore) -> f64 {
        let (b, k) = (c.abort_cost, c.chain);
        if !competitive::rw_mean_helps(k, b, self.mu) {
            return RwUnconstrainedPdf::new(b, k).sample(rng);
        }
        if k == 2 {
            RwMeanK2Pdf::new(b).sample(rng)
        } else {
            RwMeanChainPdf::new(b, k).sample(rng)
        }
    }
    fn name(&self) -> String {
        "RRW(mu)".into()
    }
    fn competitive_ratio(&self, c: &Conflict) -> Option<f64> {
        let (b, k) = (c.abort_cost, c.chain);
        Some(competitive::rand_rw_mean_ratio(k, b, self.mu).min(competitive::rand_rw_ratio(k)))
    }
}

/// Optimal unconstrained randomized requestor-aborts strategy (`RRA`):
/// the continuous ski-rental exponential density, ratio
/// `e^{1/(k−1)}/(e^{1/(k−1)}−1)` (classic `e/(e−1)` at `k = 2`).
#[derive(Clone, Copy, Debug, Default)]
pub struct RandRa;

impl GracePolicy for RandRa {
    fn mode(&self, _c: &Conflict) -> ResolutionMode {
        ResolutionMode::RequestorAborts
    }
    fn grace(&self, c: &Conflict, rng: &mut dyn RngCore) -> f64 {
        RaUnconstrainedPdf::new(c.abort_cost, c.chain).sample(rng)
    }
    fn name(&self) -> String {
        "RRA".into()
    }
    fn competitive_ratio(&self, c: &Conflict) -> Option<f64> {
        Some(competitive::rand_ra_ratio(c.chain))
    }
}

/// Mean-aware randomized requestor-aborts strategy (`RRA(µ)`): Theorem 2 at
/// `k = 2`, Theorem 3's constrained branch in general, with automatic
/// fallback when the mean does not help.
#[derive(Clone, Copy, Debug)]
pub struct RandRaMean {
    pub mu: f64,
}

impl RandRaMean {
    pub fn new(mu: f64) -> Self {
        assert!(mu.is_finite() && mu > 0.0, "mean must be positive");
        Self { mu }
    }
}

impl GracePolicy for RandRaMean {
    fn mode(&self, _c: &Conflict) -> ResolutionMode {
        ResolutionMode::RequestorAborts
    }
    fn grace(&self, c: &Conflict, rng: &mut dyn RngCore) -> f64 {
        let (b, k) = (c.abort_cost, c.chain);
        if competitive::ra_mean_helps(k, b, self.mu) {
            RaMeanPdf::new(b, k).sample(rng)
        } else {
            RaUnconstrainedPdf::new(b, k).sample(rng)
        }
    }
    fn name(&self) -> String {
        "RRA(mu)".into()
    }
    fn competitive_ratio(&self, c: &Conflict) -> Option<f64> {
        let (b, k) = (c.abort_cost, c.chain);
        Some(competitive::rand_ra_mean_ratio(k, b, self.mu).min(competitive::rand_ra_ratio(k)))
    }
}

/// Hybrid strategy sketched in §1 ("Implications"): requestor aborts is more
/// efficient under low contention (`k = 2`, ratio `e/(e−1) < 2`), requestor
/// wins when conflicts chain (`k ≥ 3`, ratio `r/(r−1)` beats the growing RA
/// ratio). This policy picks the mode with the better guarantee per
/// conflict; it is only realizable on systems that support both resolutions
/// (e.g. PleaseTM-style hardware), and in this workspace it is exercised by
/// the synthetic testbed and the `hybrid_ablation` bench.
#[derive(Clone, Copy, Debug)]
pub struct Hybrid {
    /// Optional mean knowledge, forwarded to the constrained strategies.
    pub mu: Option<f64>,
}

impl Hybrid {
    pub fn new(mu: Option<f64>) -> Self {
        if let Some(m) = mu {
            assert!(m.is_finite() && m > 0.0);
        }
        Self { mu }
    }

    fn pick(&self, c: &Conflict) -> (ResolutionMode, f64) {
        let (b, k) = (c.abort_cost, c.chain);
        let rw = match self.mu {
            Some(mu) => {
                competitive::rand_rw_mean_ratio(k, b, mu).min(competitive::rand_rw_ratio(k))
            }
            None => competitive::rand_rw_ratio(k),
        };
        let ra = match self.mu {
            Some(mu) => {
                competitive::rand_ra_mean_ratio(k, b, mu).min(competitive::rand_ra_ratio(k))
            }
            None => competitive::rand_ra_ratio(k),
        };
        if ra <= rw {
            (ResolutionMode::RequestorAborts, ra)
        } else {
            (ResolutionMode::RequestorWins, rw)
        }
    }
}

impl GracePolicy for Hybrid {
    fn mode(&self, c: &Conflict) -> ResolutionMode {
        self.pick(c).0
    }
    fn grace(&self, c: &Conflict, rng: &mut dyn RngCore) -> f64 {
        match (self.pick(c).0, self.mu) {
            (ResolutionMode::RequestorAborts, Some(mu)) => RandRaMean::new(mu).grace(c, rng),
            (ResolutionMode::RequestorAborts, None) => RandRa.grace(c, rng),
            (ResolutionMode::RequestorWins, Some(mu)) => RandRwMean::new(mu).grace(c, rng),
            (ResolutionMode::RequestorWins, None) => RandRw.grace(c, rng),
        }
    }
    fn name(&self) -> String {
        match self.mu {
            Some(_) => "HYBRID(mu)".into(),
            None => "HYBRID".into(),
        }
    }
    fn competitive_ratio(&self, c: &Conflict) -> Option<f64> {
        Some(self.pick(c).1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256StarStar;

    const B: f64 = 100.0;

    fn samples<P: GracePolicy>(p: &P, c: &Conflict, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = Xoshiro256StarStar::new(seed);
        (0..n).map(|_| p.grace(c, &mut rng)).collect()
    }

    #[test]
    fn rand_rw_support_is_b_over_k_minus_1() {
        for k in [2usize, 3, 6] {
            let c = Conflict::chain(B, k);
            let hi = B / (k as f64 - 1.0);
            for x in samples(&RandRw, &c, 2000, 3) {
                assert!(
                    (0.0..=hi + 1e-9).contains(&x),
                    "k={k}: {x} outside [0,{hi}]"
                );
            }
        }
    }

    #[test]
    fn rand_rw_k2_uniform_mean_is_b_over_2() {
        let c = Conflict::pair(B);
        let xs = samples(&RandRw, &c, 50_000, 4);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - B / 2.0).abs() < 1.0, "mean {mean}");
    }

    #[test]
    fn rand_rw_mean_uses_constraint_below_threshold() {
        // Small µ: the constrained PDF has p(0)=0, so tiny samples are rare;
        // the unconstrained uniform has full density at 0.
        let c = Conflict::pair(B);
        let constrained = RandRwMean::new(1.0);
        let near_zero = samples(&constrained, &c, 20_000, 5)
            .into_iter()
            .filter(|&x| x < 0.05 * B)
            .count() as f64
            / 20_000.0;
        // Uniform would put 5% below 0.05B; log density puts ≈0.32%.
        assert!(
            near_zero < 0.02,
            "constrained density near 0 too high: {near_zero}"
        );
    }

    #[test]
    fn rand_rw_mean_falls_back_above_threshold() {
        let c = Conflict::pair(B);
        // µ/B = 5 ≫ 2(ln4−1): must behave like the uniform strategy.
        let p = RandRwMean::new(500.0);
        let xs = samples(&p, &c, 50_000, 6);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - B / 2.0).abs() < 1.0, "fallback mean {mean}");
        assert_eq!(p.competitive_ratio(&c), Some(2.0));
    }

    #[test]
    fn rand_ra_matches_exponential_quantiles() {
        let c = Conflict::pair(B);
        let mut xs = samples(&RandRa, &c, 50_000, 7);
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        // Median of x = B ln(1 + u(e−1)) at u=0.5: B ln((e+1)/2)
        let med = xs[xs.len() / 2];
        let expect = B * ((std::f64::consts::E + 1.0) / 2.0).ln();
        assert!((med - expect).abs() < 2.0, "median {med} vs {expect}");
    }

    #[test]
    fn hybrid_picks_ra_for_pairs_and_rw_for_chains() {
        let h = Hybrid::new(None);
        assert_eq!(h.mode(&Conflict::pair(B)), ResolutionMode::RequestorAborts);
        assert_eq!(
            h.mode(&Conflict::chain(B, 16)),
            ResolutionMode::RequestorWins
        );
        // Its guarantee is the min of the two strategies everywhere.
        for k in 2..20 {
            let c = Conflict::chain(B, k);
            let r = h.competitive_ratio(&c).unwrap();
            assert!(
                r <= competitive::rand_rw_ratio(k) + 1e-12
                    && r <= competitive::rand_ra_ratio(k) + 1e-12
            );
        }
    }

    #[test]
    fn ratios_reported_match_competitive_module() {
        let c = Conflict::chain(B, 4);
        assert_eq!(
            RandRw.competitive_ratio(&c),
            Some(competitive::rand_rw_ratio(4))
        );
        assert_eq!(
            RandRa.competitive_ratio(&c),
            Some(competitive::rand_ra_ratio(4))
        );
        let mu = 10.0;
        assert_eq!(
            RandRaMean::new(mu).competitive_ratio(&c),
            Some(competitive::rand_ra_mean_ratio(4, B, mu))
        );
    }
}
