//! Concrete grace-period distributions derived in the paper.
//!
//! Throughout, `B` is the fixed abort cost, `k ≥ 2` the conflict chain
//! length, and `r = (k/(k−1))^{k−1}` (so `r = 2` at `k = 2` and `r → e`).
//! All supports are `[0, B]` for `k = 2` and `[0, B/(k−1)]` in general.
//!
//! | Type | Paper result | Density on support |
//! |------|--------------|--------------------|
//! | [`RwUnconstrainedPdf`] | Thm 5 (k=2) / Thm 6 λ₂=0 | `(k−1)(1+x/B)^{k−2} / (B(r−1))` |
//! | [`RwMeanK2Pdf`] | Thm 5 constrained | `ln(1+x/B) / (B(ln4−1))` |
//! | [`RwMeanChainPdf`] | Thm 6 constrained (corrected) | `(k−1)[(1+x/B)^{k−2}−1] / (B(r−2))` |
//! | [`RaUnconstrainedPdf`] | Thm 1/3 | `e^{x/B} / (B(e^{1/(k−1)}−1))` |
//! | [`RaMeanPdf`] | Thm 2/3 constrained | `(k−1)(e^{x/B}−1) / (B·g)` |
//!
//! The module [`paper_literal`] reproduces Theorem 6's *printed* constrained
//! coefficients, which do not form a distribution (README, "Deviations from
//! the paper", 1); it exists so the test-suite can demonstrate the defect.

use crate::pdf::GracePdf;

/// `r = (k/(k−1))^{k−1}`, the constant governing every chain-length formula.
///
/// A pair conflict (`k = 2`, the only case the paper's hardware prototype
/// and Figure 2 ever ask for) is `(2/1)^1`: returned as the constant, which
/// is what `powf` computes for it, bit for bit.
#[inline]
pub fn chain_r(k: usize) -> f64 {
    debug_assert!(k >= 2);
    if k == 2 {
        return 2.0;
    }
    let k = k as f64;
    (k / (k - 1.0)).powf(k - 1.0)
}

/// ln(4) − 1 ≈ 0.3863, the normalizing constant of the k = 2 mean-aware
/// requestor-wins strategy.
pub const LN4_MINUS_1: f64 = 0.386_294_361_119_890_6;

fn check_params(b: f64, k: usize) {
    assert!(
        b.is_finite() && b > 0.0,
        "abort cost must be positive, got {b}"
    );
    assert!(k >= 2, "chain length must be at least 2, got {k}");
}

// ---------------------------------------------------------------------------
// Requestor wins
// ---------------------------------------------------------------------------

/// Optimal unconstrained requestor-wins strategy (Theorem 5 for `k = 2`,
/// Theorem 6 with λ₂ = 0 for `k ≥ 3`).
///
/// At `k = 2` this is the uniform distribution on `[0, B]` with competitive
/// ratio 2; in general the density is proportional to `(B+x)^{k−2}` on
/// `[0, B/(k−1)]` with ratio `r/(r−1)`.
#[derive(Clone, Copy, Debug)]
pub struct RwUnconstrainedPdf {
    b: f64,
    k: usize,
    r: f64,
}

impl RwUnconstrainedPdf {
    pub fn new(b: f64, k: usize) -> Self {
        check_params(b, k);
        Self {
            b,
            k,
            r: chain_r(k),
        }
    }

    /// Analytic competitive ratio `r/(r−1)`.
    pub fn ratio(&self) -> f64 {
        self.r / (self.r - 1.0)
    }
}

impl GracePdf for RwUnconstrainedPdf {
    fn hi(&self) -> f64 {
        self.b / (self.k as f64 - 1.0)
    }

    // At `k = 2` every exponent below is 0 or 1. `powf(x, 1.0)` is `x` and
    // `powf(x, 0.0)` is `1.0`, exactly, so the pair arms spell out the same
    // expressions without the call: same operations in the same order, same
    // rounding (`(1 + u) − 1`, not `u` — the sum drops low bits of `u` and
    // every sampled grace must keep dropping them).
    fn density(&self, x: f64) -> f64 {
        let km1 = self.k as f64 - 1.0;
        if self.k == 2 {
            return km1 / (self.b * (self.r - 1.0));
        }
        km1 * (1.0 + x / self.b).powf(km1 - 1.0) / (self.b * (self.r - 1.0))
    }

    fn cdf(&self, x: f64) -> f64 {
        if self.k == 2 {
            return ((1.0 + x / self.b) - 1.0) / (self.r - 1.0);
        }
        let km1 = self.k as f64 - 1.0;
        (((1.0 + x / self.b).powf(km1)) - 1.0) / (self.r - 1.0)
    }

    fn quantile(&self, u: f64) -> f64 {
        if self.k == 2 {
            return self.b * ((1.0 + u * (self.r - 1.0)) - 1.0);
        }
        let km1 = self.k as f64 - 1.0;
        self.b * ((1.0 + u * (self.r - 1.0)).powf(1.0 / km1) - 1.0)
    }
}

/// The plain uniform strategy on `[0, B/(k−1)]` — the 2-competitive strategy
/// stated in Theorem 5's remark for `k > 2`. Identical to
/// [`RwUnconstrainedPdf`] at `k = 2`; strictly dominated by it for `k ≥ 3`
/// (kept for the ablation benchmarks).
#[derive(Clone, Copy, Debug)]
pub struct RwUniformPdf {
    b: f64,
    k: usize,
}

impl RwUniformPdf {
    pub fn new(b: f64, k: usize) -> Self {
        check_params(b, k);
        Self { b, k }
    }
}

impl GracePdf for RwUniformPdf {
    fn hi(&self) -> f64 {
        self.b / (self.k as f64 - 1.0)
    }

    fn density(&self, _x: f64) -> f64 {
        1.0 / self.hi()
    }

    fn cdf(&self, x: f64) -> f64 {
        (x / self.hi()).clamp(0.0, 1.0)
    }

    fn quantile(&self, u: f64) -> f64 {
        u * self.hi()
    }
}

/// Mean-constrained requestor-wins strategy for a pair conflict
/// (Theorem 5): `p(x) = ln(1 + x/B) / (B(ln4 − 1))` on `[0, B]`.
///
/// Optimal when `µ/B < 2(ln4 − 1)`, improving the ratio to
/// `1 + µ/(2B(ln4 − 1))`. Callers are expected to fall back to
/// [`RwUnconstrainedPdf`] above the threshold (the [`crate::policy`] layer
/// does this automatically).
#[derive(Clone, Copy, Debug)]
pub struct RwMeanK2Pdf {
    b: f64,
}

impl RwMeanK2Pdf {
    pub fn new(b: f64) -> Self {
        check_params(b, 2);
        Self { b }
    }

    /// Ratio `1 + µ/(2B(ln4−1))` achieved when the mean constraint binds.
    pub fn ratio(&self, mu: f64) -> f64 {
        1.0 + mu / (2.0 * self.b * LN4_MINUS_1)
    }
}

impl GracePdf for RwMeanK2Pdf {
    fn hi(&self) -> f64 {
        self.b
    }

    fn density(&self, x: f64) -> f64 {
        (1.0 + x / self.b).ln() / (self.b * LN4_MINUS_1)
    }

    fn cdf(&self, x: f64) -> f64 {
        let t = x / self.b;
        ((1.0 + t) * (1.0 + t).ln() - t) / LN4_MINUS_1
    }
}

/// Mean-constrained requestor-wins strategy for chains `k ≥ 3`
/// (Theorem 6, **corrected** — README, "Deviations from the paper", 1):
///
/// `p(x) = (k−1)·[(1+x/B)^{k−2} − 1] / (B(r−2))` on `[0, B/(k−1)]`,
///
/// with `p(0) = 0`, ratio `1 + µ(k−2)/(2B(r−2))`, optimal while that ratio
/// beats `r/(r−1)`.
#[derive(Clone, Copy, Debug)]
pub struct RwMeanChainPdf {
    b: f64,
    k: usize,
    r: f64,
}

impl RwMeanChainPdf {
    pub fn new(b: f64, k: usize) -> Self {
        check_params(b, k);
        assert!(k >= 3, "use RwMeanK2Pdf for pair conflicts");
        Self {
            b,
            k,
            r: chain_r(k),
        }
    }

    /// Ratio `1 + µ(k−2)/(2B(r−2))` achieved when the mean constraint binds.
    pub fn ratio(&self, mu: f64) -> f64 {
        1.0 + mu * (self.k as f64 - 2.0) / (2.0 * self.b * (self.r - 2.0))
    }
}

impl GracePdf for RwMeanChainPdf {
    fn hi(&self) -> f64 {
        self.b / (self.k as f64 - 1.0)
    }

    fn density(&self, x: f64) -> f64 {
        let km1 = self.k as f64 - 1.0;
        km1 * ((1.0 + x / self.b).powf(km1 - 1.0) - 1.0) / (self.b * (self.r - 2.0))
    }

    fn cdf(&self, x: f64) -> f64 {
        let km1 = self.k as f64 - 1.0;
        let t = x / self.b;
        ((1.0 + t).powf(km1) - 1.0 - km1 * t) / (self.r - 2.0)
    }
}

// ---------------------------------------------------------------------------
// Requestor aborts (ski-rental family)
// ---------------------------------------------------------------------------

/// Optimal unconstrained requestor-aborts strategy (continuous ski rental;
/// Theorem 1 at `k = 2`, Theorem 3 "otherwise" branch in general):
/// `p(x) = e^{x/B} / (B(e^{1/(k−1)} − 1))` on `[0, B/(k−1)]`,
/// with ratio `e^{1/(k−1)}/(e^{1/(k−1)} − 1)` — the classic `e/(e−1)` at
/// `k = 2`.
#[derive(Clone, Copy, Debug)]
pub struct RaUnconstrainedPdf {
    b: f64,
    k: usize,
    /// `e^{1/(k−1)} − 1`
    em1: f64,
}

impl RaUnconstrainedPdf {
    pub fn new(b: f64, k: usize) -> Self {
        check_params(b, k);
        let em1 = (1.0 / (k as f64 - 1.0)).exp() - 1.0;
        Self { b, k, em1 }
    }

    /// Analytic competitive ratio `e^{1/(k−1)}/(e^{1/(k−1)} − 1)`.
    pub fn ratio(&self) -> f64 {
        (self.em1 + 1.0) / self.em1
    }
}

impl GracePdf for RaUnconstrainedPdf {
    fn hi(&self) -> f64 {
        self.b / (self.k as f64 - 1.0)
    }

    fn density(&self, x: f64) -> f64 {
        (x / self.b).exp() / (self.b * self.em1)
    }

    fn cdf(&self, x: f64) -> f64 {
        ((x / self.b).exp() - 1.0) / self.em1
    }

    fn quantile(&self, u: f64) -> f64 {
        self.b * (1.0 + u * self.em1).ln()
    }
}

/// Mean-constrained requestor-aborts strategy (Theorem 2 at `k = 2`,
/// Theorem 3 constrained branch in general):
/// `p(x) = (k−1)(e^{x/B} − 1) / (B·g)` with
/// `g = (k−1)(e^{1/(k−1)} − 1) − 1`, ratio `1 + µ(k−1)/(2B·g)`.
#[derive(Clone, Copy, Debug)]
pub struct RaMeanPdf {
    b: f64,
    k: usize,
    /// `g = (k−1)(e^{1/(k−1)} − 1) − 1` (= e − 2 at k = 2)
    g: f64,
}

impl RaMeanPdf {
    pub fn new(b: f64, k: usize) -> Self {
        check_params(b, k);
        let km1 = k as f64 - 1.0;
        let g = km1 * ((1.0 / km1).exp() - 1.0) - 1.0;
        Self { b, k, g }
    }

    /// Ratio `1 + µ(k−1)/(2B·g)` achieved when the mean constraint binds.
    pub fn ratio(&self, mu: f64) -> f64 {
        1.0 + mu * (self.k as f64 - 1.0) / (2.0 * self.b * self.g)
    }
}

impl GracePdf for RaMeanPdf {
    fn hi(&self) -> f64 {
        self.b / (self.k as f64 - 1.0)
    }

    fn density(&self, x: f64) -> f64 {
        (self.k as f64 - 1.0) * ((x / self.b).exp() - 1.0) / (self.b * self.g)
    }

    fn cdf(&self, x: f64) -> f64 {
        let t = x / self.b;
        (self.k as f64 - 1.0) * (t.exp() - 1.0 - t) / self.g
    }
}

/// The Theorem 6 constrained PDF *exactly as printed in the paper*, kept so
/// the test-suite can demonstrate it is not a probability distribution
/// (negative near 0, even though its total mass is 1). Never use this for
/// sampling.
pub mod paper_literal {
    use crate::pdf::GracePdf;

    /// Printed Theorem 6 constrained density:
    /// `A(B+x)^{k−2} − C` with
    /// `A = (k−1)^k(2(k−1)^{k−1}+k^{k−1}) / (B^{k−1}(k^{k−1}−(k−1)^{k−1})(k^{k−1}−2(k−1)^{k−1}))`
    /// and `C = 4(k−1)^k / (B(k^{k−1}−2(k−1)^{k−1}))`.
    #[derive(Clone, Copy, Debug)]
    pub struct Thm6LiteralPdf {
        pub b: f64,
        pub k: usize,
    }

    impl GracePdf for Thm6LiteralPdf {
        fn hi(&self) -> f64 {
            self.b / (self.k as f64 - 1.0)
        }

        fn density(&self, x: f64) -> f64 {
            let k = self.k as f64;
            let b = self.b;
            let kk = k.powf(k - 1.0);
            let km = (k - 1.0).powf(k - 1.0);
            let a = (k - 1.0).powf(k) * (2.0 * km + kk)
                / (b.powf(k - 1.0) * (kk - km) * (kk - 2.0 * km));
            let c = 4.0 * (k - 1.0).powf(k) / (b * (kk - 2.0 * km));
            a * (b + x).powf(k - 2.0) - c
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pdf::GracePdf;
    use crate::rng::Xoshiro256StarStar;

    const B: f64 = 100.0;
    const TOL: f64 = 1e-6;

    fn assert_is_pdf<P: GracePdf>(p: &P, label: &str) {
        let mass = p.total_mass();
        assert!((mass - 1.0).abs() < 1e-4, "{label}: total mass {mass}");
        // density non-negative across the support
        for i in 0..=200 {
            let x = p.hi() * i as f64 / 200.0;
            assert!(
                p.density(x) >= -TOL,
                "{label}: p({x}) = {} < 0",
                p.density(x)
            );
        }
        // CDF monotone, hits 0 and 1
        assert!(p.cdf(0.0).abs() < 1e-9, "{label}: F(0) != 0");
        assert!((p.cdf(p.hi()) - 1.0).abs() < 1e-4, "{label}: F(hi) != 1");
        let mut prev = 0.0;
        for i in 0..=100 {
            let x = p.hi() * i as f64 / 100.0;
            let f = p.cdf(x);
            assert!(f >= prev - 1e-9, "{label}: CDF not monotone at {x}");
            prev = f;
        }
    }

    #[test]
    fn rw_unconstrained_is_pdf_for_all_k() {
        for k in 2..=10 {
            assert_is_pdf(
                &RwUnconstrainedPdf::new(B, k),
                &format!("RwUnconstrained k={k}"),
            );
        }
    }

    #[test]
    fn rw_unconstrained_k2_is_uniform() {
        let p = RwUnconstrainedPdf::new(B, 2);
        for x in [0.0, 25.0, 50.0, 99.0] {
            assert!((p.density(x) - 1.0 / B).abs() < 1e-12);
        }
        assert!((p.ratio() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn rw_unconstrained_quantile_closed_form_matches_cdf() {
        for k in [2, 3, 5, 8] {
            let p = RwUnconstrainedPdf::new(B, k);
            for u in [0.0, 0.1, 0.5, 0.9, 1.0] {
                let x = p.quantile(u);
                assert!((p.cdf(x) - u).abs() < 1e-9, "k={k} u={u}");
            }
        }
    }

    #[test]
    fn pair_closed_forms_equal_the_general_expressions_bit_for_bit() {
        // The general arms, with the exponents `k = 2` gives them.
        let r = (2.0f64 / 1.0).powf(1.0);
        assert_eq!(chain_r(2).to_bits(), r.to_bits());
        let mut rng = Xoshiro256StarStar::new(2);
        for b in [1.0, 100.0, 540.0, 2000.0, 1e9, 0.3] {
            let p = RwUnconstrainedPdf::new(b, 2);
            for _ in 0..20_000 {
                let u = crate::rng::uniform01(&mut rng);
                let quantile = b * ((1.0 + u * (r - 1.0)).powf(1.0 / 1.0) - 1.0);
                assert_eq!(p.quantile(u).to_bits(), quantile.to_bits(), "b={b} u={u}");
                let x = u * b;
                let cdf = ((1.0 + x / b).powf(1.0) - 1.0) / (r - 1.0);
                assert_eq!(p.cdf(x).to_bits(), cdf.to_bits(), "b={b} x={x}");
                let density = 1.0 * (1.0 + x / b).powf(0.0) / (b * (r - 1.0));
                assert_eq!(p.density(x).to_bits(), density.to_bits(), "b={b} x={x}");
            }
        }
    }

    #[test]
    fn rw_uniform_is_pdf() {
        for k in 2..=6 {
            assert_is_pdf(&RwUniformPdf::new(B, k), &format!("RwUniform k={k}"));
        }
    }

    #[test]
    fn rw_mean_k2_is_pdf_and_matches_paper_constants() {
        let p = RwMeanK2Pdf::new(B);
        assert_is_pdf(&p, "RwMeanK2");
        // density at B is ln2/(B(ln4-1)) ≈ 1.794/B — the §5.3 "1.8/B".
        let d = p.density(B) * B;
        assert!((d - 2f64.ln() / LN4_MINUS_1).abs() < 1e-12);
        assert!((d - 1.794).abs() < 0.01, "density*B = {d}");
    }

    #[test]
    fn rw_mean_chain_is_pdf_for_all_k() {
        for k in 3..=10 {
            let p = RwMeanChainPdf::new(B, k);
            assert_is_pdf(&p, &format!("RwMeanChain k={k}"));
            assert!(p.density(0.0).abs() < 1e-12, "corrected PDF has p(0)=0");
        }
    }

    #[test]
    fn thm6_paper_literal_is_not_a_pdf() {
        // The printed coefficients integrate to 1 but are negative near 0:
        // not a probability distribution. This documents the paper erratum.
        use paper_literal::Thm6LiteralPdf;
        let p = Thm6LiteralPdf { b: B, k: 3 };
        let mass = crate::pdf::simpson(|x| p.density(x), 0.0, p.hi(), 2048);
        assert!((mass - 1.0).abs() < 1e-3, "mass is 1 as printed: {mass}");
        assert!(p.density(0.0) < 0.0, "but density is negative at 0");
    }

    #[test]
    fn ra_unconstrained_is_pdf_and_classic_at_k2() {
        for k in 2..=10 {
            assert_is_pdf(
                &RaUnconstrainedPdf::new(B, k),
                &format!("RaUnconstrained k={k}"),
            );
        }
        let p = RaUnconstrainedPdf::new(B, 2);
        let e = std::f64::consts::E;
        assert!((p.ratio() - e / (e - 1.0)).abs() < 1e-12);
        // closed-form quantile inverts the CDF
        for u in [0.0, 0.3, 0.7, 1.0] {
            assert!((p.cdf(p.quantile(u)) - u).abs() < 1e-12);
        }
    }

    #[test]
    fn ra_mean_is_pdf_and_matches_thm2_at_k2() {
        for k in 2..=10 {
            assert_is_pdf(&RaMeanPdf::new(B, k), &format!("RaMean k={k}"));
        }
        let p = RaMeanPdf::new(B, 2);
        let e = std::f64::consts::E;
        // Theorem 2 density: (e^{x/B} - 1)/(B(e-2))
        for x in [0.0, 30.0, 99.0] {
            let expect = ((x / B).exp() - 1.0) / (B * (e - 2.0));
            assert!((p.density(x) - expect).abs() < 1e-12);
        }
        // §5.3: density at B is (e-1)/(B(e-2)) ≈ 2.39/B
        let d = p.density(B) * B;
        assert!((d - 2.392).abs() < 0.01, "density*B = {d}");
        // Theorem 2 ratio: 1 + µ/(2B(e−2))
        let mu = 30.0;
        assert!((p.ratio(mu) - (1.0 + mu / (2.0 * B * (e - 2.0)))).abs() < 1e-12);
    }

    #[test]
    fn chain_r_limits() {
        assert!((chain_r(2) - 2.0).abs() < 1e-12);
        assert!((chain_r(1000) - std::f64::consts::E).abs() < 0.002);
        // r is increasing in k
        let mut prev = chain_r(2);
        for k in 3..50 {
            let r = chain_r(k);
            assert!(r > prev);
            prev = r;
        }
    }

    #[test]
    fn sample_means_match_numeric_means() {
        let mut rng = Xoshiro256StarStar::new(99);
        let n = 40_000;
        let mut check = |p: &dyn GracePdf, label: &str| {
            let analytic = p.mean();
            let emp: f64 = (0..n).map(|_| p.sample(&mut rng)).sum::<f64>() / n as f64;
            let tol = 0.02 * p.hi().max(1.0);
            assert!(
                (emp - analytic).abs() < tol,
                "{label}: empirical {emp} vs analytic {analytic}"
            );
        };
        check(&RwUnconstrainedPdf::new(B, 2), "rw2");
        check(&RwUnconstrainedPdf::new(B, 4), "rw4");
        check(&RwMeanK2Pdf::new(B), "rwm2");
        check(&RwMeanChainPdf::new(B, 4), "rwm4");
        check(&RaUnconstrainedPdf::new(B, 2), "ra2");
        check(&RaMeanPdf::new(B, 3), "ram3");
    }
}
