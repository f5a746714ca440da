//! # tcp-bench — the experiment tables of the paper and its extensions
//!
//! One job: each binary prints one experiment table (TSV, `#` banner
//! first) to stdout and asserts the table's invariants as it goes. Nothing
//! is written to disk unless a serving sweep is given `--trace <path>`
//! (a Perfetto export). Whether a change made the code faster is not
//! decided here: numbers that are compared over time live in `benchmark/`
//! (`BENCHMARK.json`), which measures with repeated interleaved rounds and
//! compares against the measured spread.
//!
//! | Binary | Reproduces |
//! |--------|------------|
//! | `fig2a` | Figure 2a — synthetic costs, B = 2000, µ = 500 |
//! | `fig2b` | Figure 2b — synthetic costs, B = 200, µ = 500 |
//! | `fig2c` | Figure 2c — worst-case distribution for DET |
//! | `fig3_stack` | Figure 3 — stack throughput vs threads |
//! | `fig3_queue` | Figure 3 — queue throughput vs threads |
//! | `fig3_txapp` | Figure 3 — transactional application throughput |
//! | `fig3_bimodal` | Figure 3 — bimodal application throughput |
//! | `theory_ratios` | Theorems 1–6 ratio verification table |
//! | `abort_prob` | §5.3 abort probabilities |
//! | `corollary1` | §6 global competitiveness bound |
//! | `corollary2` | §7 progress guarantee |
//! | `stm_throughput` | STM real-thread sweep (extension) |
//! | `hybrid_ablation` | §1 hybrid strategy (extension) |
//! | `chain_ablation` | chain-aware policies in the simulator (extension) |
//! | `optimality` | fictitious-play game values vs analytic optima |
//! | `skew_ablation` | Zipf-skewed contention sweep (extension) |
//! | `backoff_ablation` | §7 abort-cost inflation on/off (extension) |
//! | `tail_latency` | p50/p99/p99.9 commit latency per policy (extension) |
//! | `serve` | sharded KV service, closed loop: policy × shards, throughput + tail latency, group-commit and snapshot-read A/Bs (extension) |
//! | `serve_load` | sharded KV service, open loop: policy × offered load, sojourn = queue wait + service (extension) |
//! | `serve_skew` | sharded KV service at overload: skew × work stealing × SLO admission (extension) |
//! | `tcp` | general-purpose CLI driver (`tcp sim/synthetic/game/list`) |
//!
//! Pass `--quick` to shrink the trial counts by 10× for smoke-testing. The
//! three serving sweeps share one cell runner, [`cell`].

pub mod cell;
pub mod cli;
pub mod perfetto;
pub mod report;

/// Shared output helpers for the figure binaries.
pub mod table {
    /// Print a TSV header line.
    pub fn header(cols: &[&str]) {
        println!("{}", cols.join("\t"));
    }

    /// Print one TSV row of formatted cells.
    pub fn row(cells: &[String]) {
        println!("{}", cells.join("\t"));
    }

    /// Format a float with 4 significant-ish digits for table cells.
    pub fn num(x: f64) -> String {
        if x == 0.0 {
            "0".to_string()
        } else if x.abs() >= 1e6 || x.abs() < 1e-3 {
            format!("{x:.3e}")
        } else {
            format!("{x:.4}")
        }
    }

    /// True when `--quick` was passed (smoke-test mode: 10× fewer trials).
    pub fn quick() -> bool {
        std::env::args().any(|a| a == "--quick")
    }

    /// Scale a trial count down in quick mode.
    pub fn scaled(n: usize) -> usize {
        if quick() {
            (n / 10).max(100)
        } else {
            n
        }
    }
}

/// Shared driver for the Figure 2 panels.
pub mod fig2 {
    use crate::table;
    use tcp_core::policy::{DetRw, GracePolicy, NoDelay};
    use tcp_core::randomized::{Hybrid, RandRa, RandRaMean, RandRw, RandRwMean};
    use tcp_workloads::dist::figure2_distributions;
    use tcp_workloads::synthetic::{run_synthetic, RemainingTime, SyntheticConfig};

    /// The strategy arms of Figure 2, in the paper's order, plus the
    /// NO_DELAY baseline and the §1 hybrid extension.
    pub fn figure2_policies(mu: f64) -> Vec<Box<dyn GracePolicy>> {
        vec![
            Box::new(RandRwMean::new(mu)),
            Box::new(RandRaMean::new(mu)),
            Box::new(RandRw),
            Box::new(RandRa),
            Box::new(DetRw),
            Box::new(NoDelay::requestor_wins()),
            Box::new(Hybrid::new(Some(mu))),
        ]
    }

    /// Print one Figure 2 panel: rows = distributions, columns = OPT and
    /// each strategy's mean conflict cost.
    pub fn run_figure2_panel(label: &str, mut cfg: SyntheticConfig, mu: f64) {
        cfg.trials = table::scaled(cfg.trials);
        println!(
            "# {label}: B={}, mu={mu}, k={}, trials={}",
            cfg.abort_cost, cfg.chain, cfg.trials
        );
        let policies = figure2_policies(mu);
        let mut cols = vec!["distribution".to_string(), "OPT".to_string()];
        cols.extend(policies.iter().map(|p| p.name()));
        table::header(&cols.iter().map(String::as_str).collect::<Vec<_>>());
        for dist in figure2_distributions(mu) {
            let rem = RemainingTime::FromLengths(dist.as_ref());
            let mut cells = vec![dist.name().to_string()];
            let mut opt_printed = false;
            for p in &policies {
                let r = run_synthetic(&cfg, &rem, p.as_ref());
                if !opt_printed {
                    cells.push(table::num(r.mean_opt()));
                    opt_printed = true;
                }
                cells.push(table::num(r.mean_cost()));
            }
            table::row(&cells);
        }
    }
}

/// Shared driver for the Figure 3 panels.
pub mod fig3 {
    use crate::table;
    use std::sync::Arc;
    use tcp_htm_sim::sweep::{figure3_arms, sweep_threads};
    use tcp_workloads::programs::WorkloadGen;

    /// Thread counts matching the paper's x-axis (1..=18).
    pub const THREADS: &[usize] = &[1, 2, 4, 6, 8, 10, 12, 14, 16, 18];

    /// Print one Figure 3 panel: rows = strategy arms, columns = ops/s per
    /// thread count (1 GHz simulated clock, like the paper's y-axis).
    pub fn run_figure3_panel(label: &str, workload: Arc<dyn WorkloadGen>) {
        let horizon = if table::quick() { 100_000 } else { 1_000_000 };
        println!("# {label}: horizon={horizon} cycles @1GHz");
        let mut cols = vec!["strategy".to_string()];
        cols.extend(THREADS.iter().map(|t| t.to_string()));
        table::header(&cols.iter().map(String::as_str).collect::<Vec<_>>());
        for arm in figure3_arms(workload.as_ref()) {
            let pts = sweep_threads(Arc::clone(&workload), arm.policy, THREADS, horizon, 1.0, 42);
            let mut cells = vec![arm.label.to_string()];
            cells.extend(pts.iter().map(|p| table::num(p.ops_per_sec)));
            table::row(&cells);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::table;

    #[test]
    fn num_formats_reasonably() {
        assert_eq!(table::num(0.0), "0");
        assert_eq!(table::num(2.0), "2.0000");
        assert!(table::num(1.5e7).contains('e'));
    }

    /// The crate-doc table above is the experiment index: it names every
    /// `src/bin/*.rs` stem exactly once and nothing else.
    #[test]
    fn experiment_index_lists_every_bin_once() {
        let bin_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
        let mut bins: Vec<String> = std::fs::read_dir(bin_dir)
            .expect("src/bin is readable")
            .map(|e| e.expect("dir entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "rs"))
            .map(|p| p.file_stem().unwrap().to_str().unwrap().to_string())
            .collect();
        bins.sort();
        let mut indexed: Vec<String> = include_str!("lib.rs")
            .lines()
            .filter_map(|l| l.strip_prefix("//! | `"))
            .map(|l| l.split('`').next().unwrap().to_string())
            .collect();
        indexed.sort();
        assert_eq!(indexed, bins, "crate-doc table vs src/bin");
    }

    #[test]
    fn scaled_has_floor() {
        // without --quick in the test environment, scaled is identity
        assert_eq!(table::scaled(5000), 5000);
    }
}
