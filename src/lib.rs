//! # transactional-conflict
//!
//! Umbrella crate for the reproduction of *"The Transactional Conflict
//! Problem"* (Alistarh, Haider, Kübler, Nadiradze — SPAA 2018): optimal
//! online grace-period algorithms for transactional memory conflicts,
//! together with every substrate needed to evaluate them.
//!
//! | Re-export | Crate | Contents |
//! |-----------|-------|----------|
//! | [`core`] | `tcp-core` | the policies (Theorems 1–6), cost model, competitive ratios, backoff; requestor aborts *is* ski rental (§4.2), so `DetRa` / `RandRa` / `RandRaMean` / `DiscreteRandRa` are its classic strategies |
//! //! | [`workloads`] | `tcp-workloads` | length distributions, the single-conflict kernel `run_synthetic` (§8.1 testbed, theorem checks, ski rental), Figure 3 programs |
//! | [`htm_sim`] | `tcp-htm-sim` | the discrete-event multicore HTM simulator (Graphite substitute) |
//! | [`stm`] | `tcp-stm` | a TL2-style STM with pluggable grace-period conflict management |
//! | [`server`] | `tcp-server` | sharded transactional KV service with closed-loop load generation |
//! | [`analysis`] | `tcp-analysis` | adversarial verification of every theorem and corollary |
//!
//! See `README.md` for the quickstart, the crate map, and the shared
//! `tcp_core::engine` layer (conflict arbitration, unified stats,
//! deterministic seed fan-out) that all three substrates run on.
//!
//! ```
//! use transactional_conflict::prelude::*;
//!
//! // A conflict arrives: the receiver has been running for 2000 cycles.
//! let conflict = Conflict::pair(2000.0);
//! let mut rng = Xoshiro256StarStar::new(1);
//!
//! // The optimal requestor-wins strategy: uniform grace on [0, B].
//! let grace = RandRw.grace(&conflict, &mut rng);
//! assert!((0.0..=2000.0).contains(&grace));
//! ```

pub use tcp_analysis as analysis;
pub use tcp_core as core;
pub use tcp_htm_sim as htm_sim;
pub use tcp_server as server;
pub use tcp_stm as stm;
pub use tcp_workloads as workloads;

/// One glob import for the whole public API.
pub mod prelude {
    pub use tcp_analysis::prelude::*;
    pub use tcp_core::prelude::*;
    pub use tcp_htm_sim::prelude::*;
    pub use tcp_server::prelude::*;
    pub use tcp_stm::prelude::*;
    pub use tcp_workloads::prelude::*;
}
