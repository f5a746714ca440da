//! The [`GracePolicy`] trait — the decision interface of the paper — and the
//! deterministic policies (Theorem 4, classic ski rental, hand-tuned and
//! no-delay baselines).
//!
//! A policy is consulted exactly once per conflict, at detection time, with
//! only the locally observable state ([`Conflict`]): this models the HTM
//! setting where decisions are local, immediate, and unchangeable (§1).

use rand::RngCore;

use crate::competitive;
use crate::conflict::{Conflict, ResolutionMode};

/// An online grace-period decision rule.
///
/// Implementations must be `Send + Sync`: the STM runtime consults policies
/// concurrently from many threads.
pub trait GracePolicy: Send + Sync {
    /// Which side aborts when the grace period expires, for a conflict of
    /// shape `c`. Fixed for most policies; the hybrid policy switches on
    /// chain length.
    fn mode(&self, c: &Conflict) -> ResolutionMode;

    /// Grace period Δ ≥ 0 granted before aborting (0 = abort immediately).
    fn grace(&self, c: &Conflict, rng: &mut dyn RngCore) -> f64;

    /// Display name used in benchmark tables (paper abbreviations: DET,
    /// RRW, RRW(µ), RRA, RRA(µ), ...).
    fn name(&self) -> String;

    /// Analytic per-conflict competitive ratio guaranteed for conflicts of
    /// shape `c`, if the strategy has one.
    fn competitive_ratio(&self, c: &Conflict) -> Option<f64> {
        let _ = c;
        None
    }
}

impl<P: GracePolicy + ?Sized> GracePolicy for &P {
    fn mode(&self, c: &Conflict) -> ResolutionMode {
        (**self).mode(c)
    }
    fn grace(&self, c: &Conflict, rng: &mut dyn RngCore) -> f64 {
        (**self).grace(c, rng)
    }
    fn name(&self) -> String {
        (**self).name()
    }
    fn competitive_ratio(&self, c: &Conflict) -> Option<f64> {
        (**self).competitive_ratio(c)
    }
}

impl<P: GracePolicy + ?Sized> GracePolicy for Box<P> {
    fn mode(&self, c: &Conflict) -> ResolutionMode {
        (**self).mode(c)
    }
    fn grace(&self, c: &Conflict, rng: &mut dyn RngCore) -> f64 {
        (**self).grace(c, rng)
    }
    fn name(&self) -> String {
        (**self).name()
    }
    fn competitive_ratio(&self, c: &Conflict) -> Option<f64> {
        (**self).competitive_ratio(c)
    }
}

impl<P: GracePolicy + ?Sized> GracePolicy for std::sync::Arc<P> {
    fn mode(&self, c: &Conflict) -> ResolutionMode {
        (**self).mode(c)
    }
    fn grace(&self, c: &Conflict, rng: &mut dyn RngCore) -> f64 {
        (**self).grace(c, rng)
    }
    fn name(&self) -> String {
        (**self).name()
    }
    fn competitive_ratio(&self, c: &Conflict) -> Option<f64> {
        (**self).competitive_ratio(c)
    }
}

/// The one resolution mode a machine runs under `policy`: the policy's
/// choice for a pair conflict. A substrate (the HTM simulator, the STM
/// heap, the server) runs one protocol for every conflict, so a policy
/// that switches on chain length runs its `k = 2` side.
pub fn machine_mode(policy: &(impl GracePolicy + ?Sized)) -> ResolutionMode {
    policy.mode(&Conflict::pair(1000.0))
}

/// Abort immediately on every conflict — the default behaviour of real HTM
/// implementations and the paper's `NO_DELAY` baseline.
#[derive(Clone, Copy, Debug)]
pub struct NoDelay {
    pub mode: ResolutionMode,
}

impl NoDelay {
    pub fn requestor_wins() -> Self {
        Self {
            mode: ResolutionMode::RequestorWins,
        }
    }
    pub fn requestor_aborts() -> Self {
        Self {
            mode: ResolutionMode::RequestorAborts,
        }
    }
}

impl GracePolicy for NoDelay {
    fn mode(&self, _c: &Conflict) -> ResolutionMode {
        self.mode
    }
    fn grace(&self, _c: &Conflict, _rng: &mut dyn RngCore) -> f64 {
        0.0
    }
    fn name(&self) -> String {
        "NO_DELAY".into()
    }
    // No bounded ratio: an adversary with D → 0 makes the ratio B/((k−1)D)
    // arbitrarily large.
}

/// Fixed grace period chosen offline by a human who profiled the workload —
/// the paper's `DELAY_TUNED` baseline (§8.2).
#[derive(Clone, Copy, Debug)]
pub struct HandTuned {
    pub mode: ResolutionMode,
    /// The fixed delay, typically set to the profiled mean fast-path length.
    pub delay: f64,
}

impl HandTuned {
    pub fn new(mode: ResolutionMode, delay: f64) -> Self {
        assert!(delay >= 0.0 && delay.is_finite());
        Self { mode, delay }
    }
}

impl GracePolicy for HandTuned {
    fn mode(&self, _c: &Conflict) -> ResolutionMode {
        self.mode
    }
    fn grace(&self, _c: &Conflict, _rng: &mut dyn RngCore) -> f64 {
        self.delay
    }
    fn name(&self) -> String {
        "DELAY_TUNED".into()
    }
}

/// Optimal deterministic requestor-wins strategy (Theorem 4): always wait
/// `B/(k−1)`, achieving ratio `2 + 1/(k−1)`.
#[derive(Clone, Copy, Debug, Default)]
pub struct DetRw;

impl GracePolicy for DetRw {
    fn mode(&self, _c: &Conflict) -> ResolutionMode {
        ResolutionMode::RequestorWins
    }
    fn grace(&self, c: &Conflict, _rng: &mut dyn RngCore) -> f64 {
        c.abort_cost / c.waiters()
    }
    fn name(&self) -> String {
        "DET".into()
    }
    fn competitive_ratio(&self, c: &Conflict) -> Option<f64> {
        Some(competitive::det_rw_ratio(c.chain))
    }
}

/// Optimal deterministic requestor-aborts strategy (classic ski rental):
/// always wait `B`, achieving ratio 2.
#[derive(Clone, Copy, Debug, Default)]
pub struct DetRa;

impl GracePolicy for DetRa {
    fn mode(&self, _c: &Conflict) -> ResolutionMode {
        ResolutionMode::RequestorAborts
    }
    fn grace(&self, c: &Conflict, _rng: &mut dyn RngCore) -> f64 {
        c.abort_cost
    }
    fn name(&self) -> String {
        "DET_RA".into()
    }
    fn competitive_ratio(&self, c: &Conflict) -> Option<f64> {
        Some(competitive::det_ra_ratio(c.chain))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256StarStar;

    #[test]
    fn no_delay_always_zero() {
        let p = NoDelay::requestor_wins();
        let mut rng = Xoshiro256StarStar::new(1);
        let c = Conflict::pair(100.0);
        assert_eq!(p.grace(&c, &mut rng), 0.0);
        assert_eq!(p.mode(&c), ResolutionMode::RequestorWins);
        assert!(p.competitive_ratio(&c).is_none());
    }

    #[test]
    fn det_rw_waits_b_over_k_minus_1() {
        let p = DetRw;
        let mut rng = Xoshiro256StarStar::new(1);
        assert_eq!(p.grace(&Conflict::pair(100.0), &mut rng), 100.0);
        assert_eq!(p.grace(&Conflict::chain(100.0, 5), &mut rng), 25.0);
        assert_eq!(p.competitive_ratio(&Conflict::pair(100.0)), Some(3.0));
        assert_eq!(p.competitive_ratio(&Conflict::chain(100.0, 3)), Some(2.5));
    }

    #[test]
    fn det_ra_waits_b() {
        let p = DetRa;
        let mut rng = Xoshiro256StarStar::new(1);
        assert_eq!(p.grace(&Conflict::chain(100.0, 5), &mut rng), 100.0);
        assert_eq!(p.competitive_ratio(&Conflict::pair(100.0)), Some(2.0));
    }

    #[test]
    fn hand_tuned_is_fixed() {
        let p = HandTuned::new(ResolutionMode::RequestorWins, 42.0);
        let mut rng = Xoshiro256StarStar::new(1);
        for b in [1.0, 100.0, 1e6] {
            assert_eq!(p.grace(&Conflict::pair(b), &mut rng), 42.0);
        }
    }

    #[test]
    fn trait_objects_and_smart_pointers_delegate() {
        let boxed: Box<dyn GracePolicy> = Box::new(DetRw);
        let c = Conflict::pair(50.0);
        let mut rng = Xoshiro256StarStar::new(1);
        assert_eq!(boxed.grace(&c, &mut rng), 50.0);
        assert_eq!(boxed.name(), "DET");
        let arc: std::sync::Arc<dyn GracePolicy> = std::sync::Arc::new(DetRa);
        assert_eq!(arc.grace(&c, &mut rng), 50.0);
    }
}
