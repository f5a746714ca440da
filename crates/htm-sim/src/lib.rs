//! # tcp-htm-sim — a discrete-event multicore HTM simulator
//!
//! The paper evaluates its conflict-resolution policies inside the MIT
//! Graphite multicore simulator, extended with a requestor-wins, lazy-
//! validation hardware transactional memory on a private-L1 / shared-L2
//! directory MSI hierarchy (§8.2). Graphite itself is a ~100 kLoC C++
//! functional simulator that is not available here; this crate implements
//! the *substituted* substrate (README, "Deviations from the paper", 2): a
//! deterministic, cycle-granularity, event-driven model of the same machine
//! that preserves the behaviour the experiments depend on —
//!
//! * a miss costs a flat latency per kind — L2, remote copy, memory
//!   ([`config::Latencies`]) — with no network topology;
//! * conflicts are detected when a coherence request hits a transactional
//!   copy (Algorithm 1 of the paper);
//! * the receiver may delay its response by a policy-chosen grace period;
//!   if it commits first the requestor proceeds, otherwise the side the
//!   policy names aborts (requestor-wins or requestor-aborts — one mode
//!   per run, [`tcp_core::policy::machine_mode`]);
//! * aborts discard all transactional work and restart after a cleanup
//!   penalty, with optional §7 multiplicative backoff;
//! * waiting chains (k > 2) form naturally and are measured; would-be
//!   cycles are detected and broken by aborting the *youngest* transaction
//!   in the cycle (greedy timestamp order, §3.2(c)) — always aborting the
//!   requestor would let two transactions cycle-break each other forever;
//! * capacity overflow of the transactional cache aborts (Algorithm 1,
//!   line 4);
//! * after `max_retries` consecutive aborts a transaction takes an
//!   unkillable slow path, modelling the benchmarks' lock-free fallback.
//!
//! ```
//! use std::sync::Arc;
//! use tcp_htm_sim::prelude::*;
//! use tcp_core::randomized::RandRw;
//! use tcp_workloads::programs::StackWorkload;
//!
//! let mut cfg = SimConfig::new(8, Arc::new(RandRw));
//! cfg.horizon = 100_000;
//! let mut sim = Simulator::new(cfg, Arc::new(StackWorkload::default()));
//! let stats = sim.run();
//! assert!(stats.commits() > 0);
//! ```

pub mod config;
pub mod mem;
pub mod sim;

pub mod prelude {
    pub use crate::config::{Latencies, SimConfig};
    pub use crate::sim::Simulator;
    pub use tcp_core::engine::{AbortKind, EngineStats, ShardedStats};
}
