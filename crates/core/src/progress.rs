//! Probabilistic progress via multiplicative abort-cost inflation (§7,
//! Corollary 2).
//!
//! The throughput-optimal policies may starve a transaction whose remaining
//! execution time consistently exceeds its abort cost. The paper's fix:
//! double the *reported* abort cost on every abort, making the transaction
//! exponentially harder to kill. Corollary 2 shows a transaction with
//! running time `y` that suffers `γ` conflicts commits within
//! `log y + log γ + log k − log B + 2` attempts with probability ≥ 1/2.

/// Per-transaction abort-cost inflation state.
///
/// [`ConflictArbiter`](crate::engine::ConflictArbiter) keeps one per
/// thread: its `on_abort` calls [`bump`](Self::bump), its `on_commit`
/// calls [`reset`](Self::reset), and its `decide` consults the policy with
/// the [`effective_cost`](Self::effective_cost).
#[derive(Clone, Copy, Debug)]
pub struct BackoffState {
    /// Number of aborts this transaction has suffered since its last commit.
    pub attempts: u32,
    /// Multiplier applied per abort (2.0 = the paper's doubling scheme).
    pub factor: f64,
    /// Cap on the inflation exponent, to keep `effective_cost` finite.
    pub max_attempts: u32,
}

impl Default for BackoffState {
    fn default() -> Self {
        Self {
            attempts: 0,
            factor: 2.0,
            max_attempts: 62,
        }
    }
}

impl BackoffState {
    pub fn new(factor: f64) -> Self {
        assert!(factor >= 1.0 && factor.is_finite());
        Self {
            factor,
            ..Self::default()
        }
    }

    /// Effective abort cost after inflation: `B · factor^attempts`.
    #[inline]
    pub fn effective_cost(&self, base: f64) -> f64 {
        base * self
            .factor
            .powi(self.attempts.min(self.max_attempts) as i32)
    }

    /// Record an abort.
    #[inline]
    pub fn bump(&mut self) {
        self.attempts = self.attempts.saturating_add(1).min(self.max_attempts);
    }

    /// Record a commit.
    #[inline]
    pub fn reset(&mut self) {
        self.attempts = 0;
    }

    /// Corollary 2's attempt bound for a transaction of length `y` facing
    /// `γ` conflicts per execution in chains of length `k`, starting from
    /// base cost `b` (natural doubling, so logs are base 2).
    pub fn corollary2_attempt_bound(y: f64, gamma: f64, k: usize, b: f64) -> f64 {
        (y.log2() + gamma.log2() + (k as f64).log2() - b.log2() + 2.0).max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ConflictArbiter;
    use crate::randomized::RandRw;
    use crate::rng::Xoshiro256StarStar;

    #[test]
    fn effective_cost_doubles() {
        let mut s = BackoffState::default();
        assert_eq!(s.effective_cost(100.0), 100.0);
        s.bump();
        assert_eq!(s.effective_cost(100.0), 200.0);
        s.bump();
        assert_eq!(s.effective_cost(100.0), 400.0);
        s.reset();
        assert_eq!(s.effective_cost(100.0), 100.0);
    }

    #[test]
    fn attempts_are_capped() {
        let mut s = BackoffState::default();
        for _ in 0..10_000 {
            s.bump();
        }
        assert!(s.effective_cost(1.0).is_finite());
    }

    #[test]
    fn backoff_widens_grace_distribution() {
        // After inflation the sampled grace periods should grow with the
        // effective cost (support is [0, B_eff/(k-1)]).
        let mut rng = Xoshiro256StarStar::new(1);
        let mut mean_at = |attempts: u32| {
            let mut arb = ConflictArbiter::new(RandRw);
            for _ in 0..attempts {
                arb.on_abort();
            }
            let n = 20_000;
            (0..n)
                .map(|_| arb.decide(100.0, 2, &mut rng).grace)
                .sum::<f64>()
                / n as f64
        };
        let m0 = mean_at(0);
        let m3 = mean_at(3);
        assert!(
            (m3 / m0 - 8.0).abs() < 0.5,
            "3 doublings should scale the mean ~8x: {m0} -> {m3}"
        );
    }

    #[test]
    fn corollary2_bound_shape() {
        // Bound grows logarithmically in y and γ and shrinks in B.
        let b1 = BackoffState::corollary2_attempt_bound(1024.0, 4.0, 2, 64.0);
        let b2 = BackoffState::corollary2_attempt_bound(2048.0, 4.0, 2, 64.0);
        assert!((b2 - b1 - 1.0).abs() < 1e-9, "doubling y adds one attempt");
        let b3 = BackoffState::corollary2_attempt_bound(1024.0, 4.0, 2, 128.0);
        assert!(
            (b1 - b3 - 1.0).abs() < 1e-9,
            "doubling B removes one attempt"
        );
    }
}
