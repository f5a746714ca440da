//! The Corollary 2 progress experiment: a transaction with running time `y`
//! suffers `γ` conflicts per execution attempt; with multiplicative
//! abort-cost inflation it commits within
//! `log y + log γ + log k − log B + 2` attempts with probability ≥ 1/2.

use tcp_core::engine::ConflictArbiter;
use tcp_core::policy::GracePolicy;
use tcp_core::progress::BackoffState;
use tcp_core::rng::Xoshiro256StarStar;

/// Parameters of the repeated-conflict adversary.
#[derive(Clone, Copy, Debug)]
pub struct ProgressConfig {
    /// Victim transaction length.
    pub y: f64,
    /// Conflicts per execution attempt.
    pub gamma: usize,
    /// Base abort cost.
    pub b: f64,
    /// Conflict chain length.
    pub k: usize,
    /// Cap on attempts per trial (defensive).
    pub max_attempts: u32,
}

/// Distribution of attempts-to-commit over `trials` runs.
#[derive(Clone, Debug)]
pub struct ProgressReport {
    pub attempts: Vec<u32>,
    /// Corollary 2's bound on attempts.
    pub bound: f64,
    /// Fraction of trials that committed within the bound.
    pub frac_within_bound: f64,
}

/// Run the experiment for `policy` under the engine's §7 backoff: each
/// trial is one transaction with its own [`ConflictArbiter`], which
/// doubles the reported abort cost on every abort.
pub fn run_progress<P: GracePolicy>(
    cfg: &ProgressConfig,
    policy: P,
    trials: usize,
    seed: u64,
) -> ProgressReport {
    let mut rng = Xoshiro256StarStar::new(seed);
    let bound =
        BackoffState::corollary2_attempt_bound(cfg.y, cfg.gamma as f64, cfg.k, cfg.b).ceil();
    let mut attempts_out = Vec::with_capacity(trials);
    let mut within = 0usize;
    for _ in 0..trials {
        let mut arbiter = ConflictArbiter::new(&policy);
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            // The adversary spreads γ conflicts across the execution; the
            // j-th strikes when y·(1 − j/γ) work remains (front-loaded —
            // the harshest spread consistent with the corollary's proof).
            let mut survived = true;
            for j in 0..cfg.gamma {
                let remaining = cfg.y * (1.0 - j as f64 / cfg.gamma as f64);
                if arbiter.decide(cfg.b, cfg.k, &mut rng).grace < remaining {
                    survived = false;
                    break;
                }
            }
            if survived || attempts >= cfg.max_attempts {
                break;
            }
            arbiter.on_abort();
        }
        if f64::from(attempts) <= bound {
            within += 1;
        }
        attempts_out.push(attempts);
    }
    ProgressReport {
        attempts: attempts_out,
        bound,
        frac_within_bound: within as f64 / trials as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcp_core::randomized::{RandRa, RandRw};

    #[test]
    fn corollary2_holds_for_rw_across_parameters() {
        for (y, gamma, b) in [(200.0, 4usize, 50.0), (1000.0, 2, 25.0), (400.0, 8, 100.0)] {
            let cfg = ProgressConfig {
                y,
                gamma,
                b,
                k: 2,
                max_attempts: 300,
            };
            let r = run_progress(&cfg, RandRw, 1_500, 42);
            assert!(
                r.frac_within_bound >= 0.5,
                "y={y} γ={gamma} B={b}: {} < 0.5 (bound {})",
                r.frac_within_bound,
                r.bound
            );
        }
    }

    #[test]
    fn corollary2_holds_for_ra() {
        // The paper notes the RA strategy is *less* likely to abort, so the
        // RW bound carries over.
        let cfg = ProgressConfig {
            y: 300.0,
            gamma: 4,
            b: 50.0,
            k: 2,
            max_attempts: 300,
        };
        let r = run_progress(&cfg, RandRa, 1_500, 43);
        assert!(r.frac_within_bound >= 0.5, "{}", r.frac_within_bound);
    }

    #[test]
    fn attempts_distribution_shifts_with_b() {
        // Larger base B ⇒ longer graces ⇒ fewer attempts.
        let mk = |b: f64| {
            let cfg = ProgressConfig {
                y: 400.0,
                gamma: 4,
                b,
                k: 2,
                max_attempts: 300,
            };
            let r = run_progress(&cfg, RandRw, 1_000, 44);
            r.attempts.iter().map(|&a| a as f64).sum::<f64>() / r.attempts.len() as f64
        };
        assert!(mk(400.0) < mk(20.0));
    }
}
