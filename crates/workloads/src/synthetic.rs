//! The synthetic conflict testbed of §8.1 (Figure 2).
//!
//! One trial: draw a transaction length `r` from a length distribution,
//! pick the interrupt point `i` uniformly at random in `[0, r]` (so the
//! remaining time is `D = r − i`), let the policy choose a grace period,
//! and charge the conflict cost of the policy's resolution mode. Averaging
//! over many trials reproduces the bars of Figures 2a–2c.

use tcp_core::conflict::{conflict_cost, offline_opt};
use tcp_core::engine::{ConflictArbiter, RegretTally};
use tcp_core::policy::GracePolicy;
use tcp_core::rng::{uniform01, Xoshiro256StarStar};

use crate::dist::LengthDist;

/// Parameters shared by a synthetic experiment (one figure panel).
#[derive(Clone, Copy, Debug)]
pub struct SyntheticConfig {
    /// Fixed abort cost `B`.
    pub abort_cost: f64,
    /// Conflict chain length `k` (Figure 2 uses pairs, `k = 2`).
    pub chain: usize,
    /// Number of independent conflicts to average over.
    pub trials: usize,
    /// RNG seed (the harness derives per-strategy substreams).
    pub seed: u64,
}

impl SyntheticConfig {
    /// Figure 2a: high fixed cost (B = 2000, µ = 500 set on the distribution).
    pub fn figure2a() -> Self {
        Self {
            abort_cost: 2000.0,
            chain: 2,
            trials: 200_000,
            seed: 0x2a,
        }
    }

    /// Figure 2b: low fixed cost (B = 200).
    pub fn figure2b() -> Self {
        Self {
            abort_cost: 200.0,
            chain: 2,
            trials: 200_000,
            seed: 0x2b,
        }
    }
}

/// How the remaining time `D` of the interrupted transaction is produced.
pub enum RemainingTime<'a> {
    /// The paper's §8.1 procedure: `D = r − i`, `r ~ dist`, `i ~ U[0, r]`.
    FromLengths(&'a dyn LengthDist),
    /// A point mass — used for the worst-case panel (Figure 2c) and the
    /// theory-verification sweeps.
    Fixed(f64),
}

impl RemainingTime<'_> {
    fn draw(&self, rng: &mut Xoshiro256StarStar) -> f64 {
        match self {
            RemainingTime::FromLengths(dist) => {
                let r = dist.sample(rng);
                let i = uniform01(rng) * r;
                (r - i).max(1e-9)
            }
            RemainingTime::Fixed(d) => *d,
        }
    }
}

/// Run one cell of Figure 2: `trials` conflicts of strategy `policy`
/// against remaining times drawn from `remaining`. Mean cost / OPT /
/// ratio / abort rate come out of the returned [`RegretTally`]'s
/// accessors.
pub fn run_synthetic(
    cfg: &SyntheticConfig,
    remaining: &RemainingTime<'_>,
    policy: &dyn GracePolicy,
) -> RegretTally {
    let mut rng = Xoshiro256StarStar::new(cfg.seed);
    // One isolated conflict per trial: no §7 backoff, no cap — the policy's
    // raw answer (sanitized) is what Figure 2 measures.
    let arbiter = ConflictArbiter::new(policy).with_backoff(false);
    let mut tally = RegretTally::default();
    for _ in 0..cfg.trials {
        let d = remaining.draw(&mut rng);
        let decision = arbiter.sample(cfg.abort_cost, cfg.chain, &mut rng);
        let (c, x) = (decision.conflict, decision.grace);
        let mode = arbiter.mode(&c);
        tally.record(
            conflict_cost(mode, &c, d, x),
            offline_opt(mode, &c, d),
            d > x,
        );
    }
    tally
}

/// The worst-case remaining time for the deterministic requestor-wins
/// strategy (Figure 2c): `D` infinitesimally above DET's abort point
/// `B/(k−1)`, so DET always waits the full grace period and then aborts.
pub fn det_worst_case_remaining(cfg: &SyntheticConfig) -> f64 {
    cfg.abort_cost / (cfg.chain as f64 - 1.0) * (1.0 + 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Exponential, Uniform};
    use tcp_core::policy::{DetRw, NoDelay};
    use tcp_core::randomized::{RandRa, RandRaMean, RandRw, RandRwMean};

    fn cfg(trials: usize) -> SyntheticConfig {
        SyntheticConfig {
            abort_cost: 2000.0,
            chain: 2,
            trials,
            seed: 42,
        }
    }

    #[test]
    fn det_near_optimal_when_b_dominates_mu() {
        // Figure 2a observation: with B ≫ µ, DET (which waits B) almost
        // never aborts, so its cost approaches OPT.
        let cfg = cfg(50_000);
        let dist = Exponential::with_mean(500.0);
        let rem = RemainingTime::FromLengths(&dist);
        let det = run_synthetic(&cfg, &rem, &DetRw);
        assert!(
            det.cost_ratio() < 1.1,
            "DET ratio {} should be near 1",
            det.cost_ratio()
        );
        assert!(det.abort_rate() < 0.03, "abort rate {}", det.abort_rate());
    }

    #[test]
    fn rrw_is_about_twice_opt_and_rra_about_e_over_e_minus_1() {
        // Figure 2a observation: the unconstrained strategies sit at their
        // competitive ratios times OPT on non-adversarial inputs... the
        // ratio is an upper bound, so assert ≤ with slack and ≥ 1.
        let cfg = cfg(100_000);
        let dist = Uniform::with_mean(500.0);
        let rem = RemainingTime::FromLengths(&dist);
        let rrw = run_synthetic(&cfg, &rem, &RandRw);
        let rra = run_synthetic(&cfg, &rem, &RandRa);
        assert!(rrw.cost_ratio() <= 2.02, "RRW {}", rrw.cost_ratio());
        assert!(rra.cost_ratio() <= 1.60, "RRA {}", rra.cost_ratio());
        assert!(rrw.cost_ratio() >= 1.0 && rra.cost_ratio() >= 1.0);
        // And RA beats RW at k = 2 (§5.3).
        assert!(rra.mean_cost() < rrw.mean_cost());
    }

    #[test]
    fn mean_knowledge_helps_when_threshold_holds() {
        // Figure 2a: µ/B = 0.25 < 2(ln4−1), so RRW(µ)/RRA(µ) beat RRW/RRA.
        let cfg = cfg(100_000);
        let dist = Exponential::with_mean(500.0);
        let rem = RemainingTime::FromLengths(&dist);
        let rrw = run_synthetic(&cfg, &rem, &RandRw);
        let rrwm = run_synthetic(&cfg, &rem, &RandRwMean::new(500.0));
        let rra = run_synthetic(&cfg, &rem, &RandRa);
        let rram = run_synthetic(&cfg, &rem, &RandRaMean::new(500.0));
        assert!(
            rrwm.mean_cost() < rrw.mean_cost(),
            "{} !< {}",
            rrwm.mean_cost(),
            rrw.mean_cost()
        );
        assert!(
            rram.mean_cost() < rra.mean_cost(),
            "{} !< {}",
            rram.mean_cost(),
            rra.mean_cost()
        );
    }

    #[test]
    fn no_delay_pays_b_plus_nothing() {
        // NO_DELAY aborts instantly: cost is exactly B every time (RW mode).
        let cfg = cfg(1000);
        let dist = Uniform::with_mean(500.0);
        let rem = RemainingTime::FromLengths(&dist);
        let nd = run_synthetic(&cfg, &rem, &NoDelay::requestor_wins());
        assert!((nd.mean_cost() - cfg.abort_cost).abs() < 1e-9);
        assert!((nd.abort_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn det_worst_case_hits_ratio_3() {
        // Figure 2c: against its worst-case distribution DET pays
        // (2 + 1/(k−1))·OPT = 3·OPT at k = 2.
        let cfg = cfg(1000);
        let d = det_worst_case_remaining(&cfg);
        let rem = RemainingTime::Fixed(d);
        let det = run_synthetic(&cfg, &rem, &DetRw);
        assert!(
            (det.cost_ratio() - 3.0).abs() < 0.01,
            "DET worst-case ratio {}",
            det.cost_ratio()
        );
        // while the randomized strategy stays at ~1.5 against that D
        // (its worst case is spread over all D, cf. equalizing property)
        let rrw = run_synthetic(&cfg, &rem, &RandRw);
        assert!(rrw.cost_ratio() <= 2.02, "RRW {}", rrw.cost_ratio());
    }

    #[test]
    fn reports_are_deterministic_under_seed() {
        let cfg = cfg(10_000);
        let dist = Exponential::with_mean(500.0);
        let rem = RemainingTime::FromLengths(&dist);
        let a = run_synthetic(&cfg, &rem, &RandRw);
        let b = run_synthetic(&cfg, &rem, &RandRw);
        assert_eq!(a.mean_cost(), b.mean_cost());
        assert_eq!(a.abort_rate(), b.abort_rate());
    }
}
