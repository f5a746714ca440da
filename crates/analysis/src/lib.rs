//! # tcp-analysis — adversarial verification of the paper's guarantees
//!
//! Four experiment families, each verifying a theoretical claim of the
//! paper against Monte-Carlo adversaries:
//!
//! * [`conflict_game`] — the single-conflict game; verifies the competitive
//!   ratios of Theorems 1–6 (worst-case grids, honest mean-respecting
//!   adversaries, the equalizing property of the optimal strategies);
//! * [`global_model`] — the §6 n-thread model with decoupled conflicts;
//!   verifies Corollary 1's `(2w+1)/(w+1)` bound on the sum of running
//!   times under uniform/early/late strike adversaries;
//! * [`worst_case`] — the §5.3 abort-probability constants (≈1.8/B vs
//!   ≈2.4/B), analytic and sampled;
//! * [`progress_exp`] — the Corollary 2 probabilistic progress guarantee
//!   under multiplicative abort-cost inflation.

pub mod conflict_game;
pub mod game_solver;
pub mod global_model;
pub mod progress_exp;
pub mod worst_case;

pub mod prelude {
    pub use crate::conflict_game::{
        expected_cost_at, pointwise_ratio_linearity, verify_ratio, worst_case_ratio,
        worst_case_ratio_mean, GamePoint,
    };
    pub use crate::game_solver::{solve_conflict_game, GameSolution};
    pub use crate::global_model::{
        run_global, EarlyStrike, GlobalConfig, GlobalReport, InterruptAdversary, LateStrike,
        UniformStrike,
    };
    pub use crate::progress_exp::{run_progress, ProgressConfig, ProgressReport};
    pub use crate::worst_case::{abort_probability_ra, abort_probability_rw, AbortProbability};
}
