//! What one round of one workload hands back to the runner.

use tcp_core::engine::EngineStats;

use crate::trace::Span;

#[derive(Default)]
pub struct Round {
    /// `(metric name, this round's value)` — names are the ones
    /// `BENCHMARK.json` lists.
    pub values: Vec<(&'static str, f64)>,
    /// Operations attempted / failed (sheds, reply faults, unanswered).
    pub attempted: u64,
    pub failed: u64,
    /// Correctness checks that did not hold.
    pub failures: Vec<String>,
    /// One span buffer per harness thread (traced rounds only).
    pub spans: Vec<Vec<Span>>,
}

impl Round {
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Record `what` as a failed correctness check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// The STM-layer counters every real-thread workload reports.
    pub fn put_stm_counters(&mut self, stats: &EngineStats) {
        let commits = stats.commits.max(1) as f64;
        self.put(
            "stm.abort_ratio",
            stats.aborts as f64 / (stats.commits + stats.aborts).max(1) as f64,
        );
        self.put(
            "stm.arbiter_consults_per_kcommit",
            stats.arbiter_consults as f64 * 1e3 / commits,
        );
        // The STM counts its grace waits in nanoseconds in `wait_cycles`.
        self.put("stm.wait_ns_per_commit", stats.wait_cycles as f64 / commits);
    }
}
