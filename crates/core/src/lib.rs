//! # tcp-core — optimal online algorithms for the transactional conflict problem
//!
//! Reproduction of the algorithmic core of *"The Transactional Conflict
//! Problem"* (Alistarh, Haider, Kübler, Nadiradze — SPAA 2018).
//!
//! When two hardware transactions clash on a cache line, the system can
//! abort one immediately or grant a *grace period* Δ hoping the victim
//! commits first. Choosing Δ online — knowing only the abort cost `B`, the
//! conflict chain length `k`, and optionally the mean `µ` of the
//! transaction-length distribution — is a ski-rental-like problem whose
//! optimal solutions this crate implements:
//!
//! | Policy | Mode | Ratio | Paper |
//! |--------|------|-------|-------|
//! | [`policy::DetRw`] | requestor wins | `2 + 1/(k−1)` | Thm 4 |
//! | [`randomized::RandRw`] | requestor wins | `r/(r−1)`, `r=(k/(k−1))^{k−1}` | Thm 5/6 |
//! | [`randomized::RandRwMean`] | requestor wins | `1 + µ(k−2)/(2B(r−2))` (log form at k=2) | Thm 5/6 |
//! | [`policy::DetRa`] | requestor aborts | 2 | classic |
//! | [`randomized::RandRa`] | requestor aborts | `e^{1/(k−1)}/(e^{1/(k−1)}−1)` | Thm 1/3 |
//! | [`randomized::RandRaMean`] | requestor aborts | `1 + µ(k−1)/(2Bg)` | Thm 2/3 |
//! | [`randomized::Hybrid`] | per-conflict | min of the two families | §1 |
//!
//! Baselines [`policy::NoDelay`] and [`policy::HandTuned`] correspond to the
//! paper's `NO_DELAY` and `DELAY_TUNED` experimental arms.
//!
//! ## Quick example
//!
//! ```
//! use tcp_core::prelude::*;
//!
//! let mut rng = Xoshiro256StarStar::new(7);
//! let conflict = Conflict::pair(2000.0); // B = 2000, k = 2
//!
//! let policy = RandRw; // optimal 2-competitive requestor-wins strategy
//! let grace = policy.grace(&conflict, &mut rng);
//! assert!((0.0..=2000.0).contains(&grace));
//!
//! // The cost actually incurred if the victim needed D = 500 more cycles:
//! let cost = rw_cost(&conflict, 500.0, grace);
//! assert!(cost >= rw_opt(&conflict, 500.0));
//! ```

pub mod clock;
pub mod competitive;
pub mod conflict;
pub mod discrete;
pub mod engine;
pub mod hist;
pub mod pad;
pub mod pdf;
pub mod pdfs;
pub mod policy;
pub mod profiler;
pub mod progress;
pub mod randomized;
pub mod ring;
pub mod rng;
pub mod smallset;
pub mod trace;

/// Convenient glob-import of the whole public API.
pub mod prelude {
    pub use crate::competitive::*;
    pub use crate::conflict::{
        conflict_cost, offline_opt, ra_cost, ra_opt, rw_cost, rw_opt, Conflict, ResolutionMode,
    };
    pub use crate::discrete::{DiscreteKarlin, DiscreteRandRa, DiscreteRandRw};
    pub use crate::engine::{
        AbortKind, ConflictArbiter, EngineStats, GraceDecision, QueueWaitEstimator, RegretTally,
        SeedFanout, ShardedStats,
    };
    pub use crate::hist::LatencyHistogram;
    pub use crate::pad::CachePadded;
    pub use crate::pdf::GracePdf;
    pub use crate::pdfs::{
        chain_r, RaMeanPdf, RaUnconstrainedPdf, RwMeanChainPdf, RwMeanK2Pdf, RwUnconstrainedPdf,
        RwUniformPdf,
    };
    pub use crate::policy::{machine_mode, DetRa, DetRw, GracePolicy, HandTuned, NoDelay};
    pub use crate::profiler::{AdaptiveMean, MeanProfiler};
    pub use crate::progress::BackoffState;
    pub use crate::randomized::{Hybrid, RandRa, RandRaMean, RandRw, RandRwMean, RandRwUniform};
    pub use crate::rng::{uniform01, uniform_in, uniform_u64_below, Xoshiro256StarStar};
    pub use crate::smallset::{InlineVec, KeyFilter};
    pub use crate::trace::{
        HotKeyTable, Trace, TraceCause, TraceConfig, TraceEvent, TraceKind, TraceReport, TraceTag,
    };
}

#[cfg(test)]
mod expected_cost_ratios {
    //! End-to-end checks: the *expected* cost of each randomized strategy
    //! against its worst-case adversary matches the analytic competitive
    //! ratio (within numeric-integration tolerance).

    use crate::conflict::{ra_cost, ra_opt, rw_cost, rw_opt, Conflict};
    use crate::pdf::{expected_cost, GracePdf};
    use crate::pdfs::*;

    const B: f64 = 100.0;

    /// Worst-case ratio over a grid of adversarial D values.
    fn worst_ratio<P: GracePdf>(
        p: &P,
        c: &Conflict,
        cost: impl Fn(&Conflict, f64, f64) -> f64 + Copy,
        opt: impl Fn(&Conflict, f64) -> f64 + Copy,
    ) -> f64 {
        let mut worst: f64 = 0.0;
        // Adversary space: D in (0, 3B]. Beyond the support the cost is
        // constant in D while OPT saturates, so the grid suffices.
        for i in 1..=600 {
            let d = 3.0 * B * i as f64 / 600.0;
            let e = expected_cost(p, d, |dd, x| cost(c, dd, x));
            let ratio = e / opt(c, d);
            worst = worst.max(ratio);
        }
        worst
    }

    #[test]
    fn rw_unconstrained_hits_ratio_for_each_k() {
        for k in [2usize, 3, 5] {
            let c = Conflict::chain(B, k);
            let p = RwUnconstrainedPdf::new(B, k);
            let w = worst_ratio(&p, &c, rw_cost, rw_opt);
            let analytic = p.ratio();
            assert!(
                (w - analytic).abs() < 0.02 * analytic,
                "k={k}: worst {w} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn rw_unconstrained_equalizes_adversary() {
        // The optimal randomized strategy makes the adversary indifferent:
        // the ratio should be (near-)constant in D on (0, hi].
        let c = Conflict::pair(B);
        let p = RwUnconstrainedPdf::new(B, 2);
        let mut ratios = vec![];
        for i in 1..=20 {
            let d = B * i as f64 / 20.0;
            let e = expected_cost(&p, d, |dd, x| rw_cost(&c, dd, x));
            ratios.push(e / rw_opt(&c, d));
        }
        let (lo, hi) = ratios
            .iter()
            .fold((f64::MAX, f64::MIN), |(l, h), &r| (l.min(r), h.max(r)));
        assert!(hi - lo < 0.05, "equalizing property violated: [{lo}, {hi}]");
    }

    #[test]
    fn ra_unconstrained_hits_ratio_for_each_k() {
        for k in [2usize, 3, 5] {
            let c = Conflict::chain(B, k);
            let p = RaUnconstrainedPdf::new(B, k);
            let w = worst_ratio(&p, &c, ra_cost, ra_opt);
            let analytic = p.ratio();
            assert!(
                (w - analytic).abs() < 0.02 * analytic,
                "k={k}: worst {w} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn mean_constrained_rw_beats_unconstrained_on_average() {
        // Against an adversary that honours the mean constraint (point mass
        // at D = µ plus mass at K = B with the right weights), the
        // constrained strategy's expected-cost-to-OPT ratio must not exceed
        // its analytic C2, which is below 2.
        let c = Conflict::pair(B);
        let mu = 20.0; // µ/B = 0.2 < 2(ln4-1)
        let p = RwMeanK2Pdf::new(B);
        let analytic = p.ratio(mu);
        assert!(analytic < 2.0);
        // Adversary: any D with mean µ; try point mass at µ itself.
        let e = expected_cost(&p, mu, |dd, x| rw_cost(&c, dd, x));
        let ratio = e / rw_opt(&c, mu);
        assert!(
            ratio <= analytic + 0.02,
            "point-mass-at-mean ratio {ratio} vs C2 {analytic}"
        );
    }

    #[test]
    fn mean_constrained_ra_respects_c2_against_mean_adversary() {
        let c = Conflict::pair(B);
        let mu = 20.0;
        let p = RaMeanPdf::new(B, 2);
        let analytic = p.ratio(mu);
        let e = expected_cost(&p, mu, |dd, x| ra_cost(&c, dd, x));
        let ratio = e / ra_opt(&c, mu);
        assert!(ratio <= analytic + 0.02, "{ratio} vs {analytic}");
    }

    #[test]
    fn deterministic_rw_ratio_matches_thm4() {
        // DET aborts at exactly B/(k-1); adversary sets D = x (commit just
        // misses). Cost = kx + B = kB/(k-1) + B, OPT = B.
        for k in [2usize, 3, 4, 7] {
            let c = Conflict::chain(B, k);
            let x = B / (k as f64 - 1.0);
            let worst = rw_cost(&c, x + 1e-9, x) / rw_opt(&c, x + 1e-9);
            let analytic = crate::competitive::det_rw_ratio(k);
            assert!(
                (worst - analytic).abs() < 1e-6,
                "k={k}: {worst} vs {analytic}"
            );
        }
    }
}
