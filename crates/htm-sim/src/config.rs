//! Simulator configuration: core count, memory-hierarchy latencies, HTM
//! parameters, and the conflict-resolution policy under test. The policy
//! also names the side that aborts (requestor wins or requestor aborts):
//! the simulator runs [`tcp_core::policy::machine_mode`] of it.

use std::sync::Arc;

use tcp_core::policy::GracePolicy;
use tcp_core::profiler::MeanProfiler;

/// Latency model of the private-L1 / shared-L2 hierarchy, in core cycles:
/// one flat constant per kind of miss. Defaults are in the ballpark of the
/// Graphite configuration used by the paper (tiled multicore, directory at
/// the shared L2 slice).
#[derive(Clone, Copy, Debug)]
pub struct Latencies {
    /// L1 hit.
    pub l1_hit: u64,
    /// L1 miss serviced by the L2/directory without remote involvement.
    pub l2: u64,
    /// Extra cost when a remote L1 must be invalidated, downgraded, or
    /// forwards the line (cache-to-cache transfer).
    pub remote: u64,
    /// Cold miss to memory.
    pub mem: u64,
}

impl Default for Latencies {
    fn default() -> Self {
        Self {
            l1_hit: 1,
            l2: 10,
            remote: 15,
            mem: 60,
        }
    }
}

/// Full simulator configuration.
#[derive(Clone)]
pub struct SimConfig {
    /// Number of cores, one hardware thread each (1..=64).
    pub cores: usize,
    pub latencies: Latencies,
    /// Cycles spent cleaning up after an abort before the restart
    /// (invalidating the transactional cache, restoring registers).
    pub abort_cleanup: u64,
    /// Private transactional-cache capacity in lines; overflowing it aborts
    /// the transaction (Algorithm 1, line 4).
    pub l1_capacity: usize,
    /// Conflict-resolution policy under test. Its mode decides which side
    /// aborts when a grace period expires: the paper's HTM is
    /// requestor-wins (§8.2), and a requestor-aborts policy runs the
    /// comparison experiments.
    pub policy: Arc<dyn GracePolicy>,
    /// Enable §7 multiplicative abort-cost inflation for progress.
    pub backoff: bool,
    /// Report the measured conflict-chain length `k` to the policy. The
    /// paper's hardware prototype cannot observe chains and always uses the
    /// pair (`k = 2`) strategies — the default here. Enabling this is the
    /// `chain_aware` ablation.
    pub chain_aware: bool,
    /// After this many consecutive aborts a transaction falls back to an
    /// unkillable slow path (models the paper's lock-free/lock-based slow
    /// path, guaranteeing progress).
    pub max_retries: u32,
    /// Cap on any single grace period, as a multiple of the abort cost
    /// (defensive bound; the optimal policies never exceed `B/(k−1)`).
    pub grace_cap_factor: f64,
    /// Simulated duration in cycles.
    pub horizon: u64,
    /// Master seed; each core receives an independent substream.
    pub seed: u64,
    /// Optional shared profiler fed with the duration of every successful
    /// transaction attempt (§1's "profiler records the empirical mean over
    /// all successful executions"). Share the same handle with an
    /// [`tcp_core::profiler::AdaptiveMean`] policy to close the loop.
    pub profiler: Option<Arc<MeanProfiler>>,
}

impl SimConfig {
    /// Baseline configuration for `cores` cores and a given policy.
    ///
    /// # Panics
    /// If `cores` is outside `1..=64` (see [`validate`](Self::validate)).
    pub fn new(cores: usize, policy: Arc<dyn GracePolicy>) -> Self {
        let cfg = Self {
            cores,
            latencies: Latencies::default(),
            abort_cleanup: 40,
            l1_capacity: 1024,
            policy,
            backoff: true,
            chain_aware: false,
            max_retries: 16,
            grace_cap_factor: 64.0,
            horizon: 1_000_000,
            seed: 0xC0FFEE,
            profiler: None,
        };
        cfg.assert_valid();
        cfg
    }

    /// Panic with the reason unless [`validate`](Self::validate) passes.
    pub(crate) fn assert_valid(&self) {
        if let Err(why) = self.validate() {
            panic!("invalid SimConfig: {why}");
        }
    }

    /// Check the fields the simulator's arithmetic depends on. Every field
    /// is public and may have been changed since [`new`](Self::new), so
    /// [`Simulator::new`](crate::sim::Simulator::new) runs this again: core
    /// sets are `u64` masks (a 65th core would alias core 0's bit in a
    /// release build), and the arbiter rejects a non-positive grace cap.
    /// An infinite cap is legal — it means uncapped.
    pub fn validate(&self) -> Result<(), String> {
        if !(1..=64).contains(&self.cores) {
            return Err(format!("1..=64 cores supported, got {}", self.cores));
        }
        if self.l1_capacity == 0 {
            return Err("l1_capacity must be at least 1 line".into());
        }
        if self.horizon == 0 {
            return Err("horizon must be at least 1 cycle".into());
        }
        if self.grace_cap_factor.is_nan() || self.grace_cap_factor <= 0.0 {
            return Err(format!(
                "grace_cap_factor must be positive, got {}",
                self.grace_cap_factor
            ));
        }
        Ok(())
    }

    /// Latency of a miss given whether a remote cache was involved and
    /// whether the line was cold (memory-resident only).
    pub fn miss_latency(&self, remote_involved: bool, cold: bool) -> u64 {
        let l = &self.latencies;
        l.l2 + if remote_involved { l.remote } else { 0 } + if cold { l.mem } else { 0 }
    }
}

impl std::fmt::Debug for SimConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimConfig")
            .field("cores", &self.cores)
            .field("latencies", &self.latencies)
            .field("abort_cleanup", &self.abort_cleanup)
            .field("l1_capacity", &self.l1_capacity)
            .field("policy", &self.policy.name())
            .field("backoff", &self.backoff)
            .field("max_retries", &self.max_retries)
            .field("horizon", &self.horizon)
            .field("seed", &self.seed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcp_core::policy::NoDelay;

    #[test]
    fn miss_latency_composition() {
        let cfg = SimConfig::new(4, Arc::new(NoDelay::requestor_wins()));
        let l = cfg.latencies;
        assert_eq!(cfg.miss_latency(false, false), l.l2);
        assert_eq!(cfg.miss_latency(true, false), l.l2 + l.remote);
        assert_eq!(cfg.miss_latency(false, true), l.l2 + l.mem);
    }

    #[test]
    #[should_panic(expected = "1..=64 cores supported, got 65")]
    fn too_many_cores_rejected() {
        let _ = SimConfig::new(65, Arc::new(NoDelay::requestor_wins()));
    }

    #[test]
    fn validate_names_the_offending_field() {
        let ok = || SimConfig::new(4, Arc::new(NoDelay::requestor_wins()));
        assert_eq!(ok().validate(), Ok(()));
        let broken = |edit: fn(&mut SimConfig)| {
            let mut cfg = ok();
            edit(&mut cfg);
            cfg.validate().expect_err("must be rejected")
        };
        assert!(broken(|c| c.cores = 0).contains("cores"));
        assert!(broken(|c| c.cores = 65).contains("cores"));
        assert!(broken(|c| c.l1_capacity = 0).contains("l1_capacity"));
        assert!(broken(|c| c.horizon = 0).contains("horizon"));
        assert!(broken(|c| c.grace_cap_factor = 0.0).contains("grace_cap_factor"));
        assert!(broken(|c| c.grace_cap_factor = -1.0).contains("grace_cap_factor"));
        assert!(broken(|c| c.grace_cap_factor = f64::NAN).contains("grace_cap_factor"));
        let mut uncapped = ok();
        uncapped.grace_cap_factor = f64::INFINITY;
        assert_eq!(uncapped.validate(), Ok(()));
    }
}
