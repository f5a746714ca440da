//! The experiment table: every paper figure, theorem check and ablation,
//! and the three serving sweeps, is one [`Experiment`], run as
//! `tcp <name> [--quick]` (the serving rows also take `--trace <path>`).
//! An entry prints TSV to stdout, `#` banner first, and asserts its claim
//! where the claim is a bound. Single-conflict entries go through the one
//! kernel, `run_synthetic` (directly or via `tcp_analysis`), and the
//! Corollary 1 and 2 entries through `run_global` / `run_progress`. All
//! three consult through the engine's `ConflictArbiter`; the first two
//! sum cost against the optimum in its `RegretTally`. Simulator entries
//! — the Figure 3 panels and the ablations alike — draw their policies
//! from `figure3_arms` and run each cell through [`sim_cell`]. The
//! serving rows live in [`crate::cell`].

use std::sync::Arc;
use std::time::Duration;

use tcp_analysis::conflict_game::{verify_ratio, worst_case_ratio_mean};
use tcp_analysis::game_solver::{solve_conflict_game_with, Formulation};
use tcp_analysis::global_model::{
    run_global, EarlyStrike, GlobalConfig, InterruptAdversary, LateStrike, UniformStrike,
};
use tcp_analysis::progress_exp::{run_progress, ProgressConfig};
use tcp_analysis::worst_case::{abort_probability_ra, abort_probability_rw, DENSITY_WINDOW};
use tcp_core::competitive::{rand_ra_mean_ratio, rand_ra_ratio, rand_rw_mean_ratio, rand_rw_ratio};
use tcp_core::conflict::{Conflict, ResolutionMode};
use tcp_core::engine::ShardedStats;
use tcp_core::policy::{DetRa, DetRw, GracePolicy, HandTuned, NoDelay};
use tcp_core::randomized::{Hybrid, RandRa, RandRaMean, RandRw, RandRwMean, RandRwUniform};
use tcp_htm_sim::config::SimConfig;
use tcp_htm_sim::sim::Simulator;
use tcp_stm::throughput::{stack_throughput, txapp_throughput, Throughput};
use tcp_workloads::dist::{figure2_distributions, Exponential};
use tcp_workloads::programs::{SkewedTxAppWorkload, StackWorkload, WorkloadGen};
use tcp_workloads::synthetic::{
    det_worst_case_remaining, run_synthetic, RemainingTime, SyntheticConfig,
};

use crate::cell;
use crate::cli::{make_workload, Flags};
use crate::table::{header, num, row, scaled};

/// One row of the experiment table.
pub struct Experiment {
    /// The `tcp` subcommand that prints it.
    pub name: &'static str,
    /// The flags it takes, as [`Flags::only`] checks them.
    pub flags: &'static [&'static str],
    /// What the table reproduces.
    pub reproduces: &'static str,
    /// Print the table; [`flags`](Self::flags) are all it reads.
    pub run: fn(&Flags),
}

impl Experiment {
    /// `[--quick] [--trace <path>]`: the flags as `tcp help` shows them.
    pub fn usage(&self) -> String {
        let flags: Vec<String> = self.flags.iter().map(|f| format!("[--{f}]")).collect();
        flags.join(" ")
    }
}

/// The flags of a paper row: `--quick` cuts trials 10x or shortens the
/// horizon.
const QUICK: &[&str] = &["quick"];
/// The flags of a serving row: `--quick`, and `--trace <path>` for a
/// Perfetto export of one traced cell.
const QUICK_TRACE: &[&str] = &["quick", "trace <path>"];

const fn entry(
    name: &'static str,
    flags: &'static [&'static str],
    reproduces: &'static str,
    run: fn(&Flags),
) -> Experiment {
    Experiment {
        name,
        flags,
        reproduces,
        run,
    }
}

/// Every experiment, in the order `tcp list` names them.
#[rustfmt::skip]
pub const EXPERIMENTS: &[Experiment] = &[
    entry("fig2a", QUICK, "Figure 2a — synthetic costs, B = 2000, µ = 500", fig2a),
    entry("fig2b", QUICK, "Figure 2b — synthetic costs, B = 200, µ = 500", fig2b),
    entry("fig2c", QUICK, "Figure 2c — costs against DET's worst-case D", fig2c),
    entry("fig3_stack", QUICK, "Figure 3 — stack throughput vs threads", |f| figure3_panel(f, "stack")),
    entry("fig3_queue", QUICK, "Figure 3 — queue throughput vs threads", |f| figure3_panel(f, "queue")),
    entry("fig3_txapp", QUICK, "Figure 3 — txapp throughput vs threads", |f| figure3_panel(f, "txapp")),
    entry("fig3_bimodal", QUICK, "Figure 3 — bimodal txapp throughput", |f| figure3_panel(f, "bimodal")),
    entry("theory_ratios", QUICK, "Theorems 1–6 — empirical vs analytic ratios", theory_ratios),
    entry("abort_prob", QUICK, "§5.3 — density at x = B, analytic vs sampled", abort_prob),
    entry("corollary1", QUICK, "§6 Corollary 1 — global competitiveness bound", corollary1),
    entry("corollary2", QUICK, "§7 Corollary 2 — progress guarantee", corollary2),
    entry("optimality", QUICK, "fictitious-play game values vs analytic optima", optimality),
    entry("hybrid_ablation", QUICK, "§1 hybrid strategy across k (extension)", hybrid_ablation),
    entry("chain_ablation", QUICK, "chain-aware policies in the simulator (extension)", chain_ablation),
    entry("skew_ablation", QUICK, "Zipf-skewed contention sweep (extension)", skew_ablation),
    entry("backoff_ablation", QUICK, "§7 abort-cost inflation on/off (extension)", backoff_ablation),
    entry("tail_latency", QUICK, "p50/p99/p99.9 commit latency per policy (extension)", tail_latency),
    entry("stm_throughput", QUICK, "STM real-thread sweep (extension)", stm_throughput),
    entry("serve", QUICK_TRACE, "sharded KV, closed loop: policy × shards, group-commit + snapshot A/Bs (extension)", cell::serve),
    entry("serve_load", QUICK_TRACE, "sharded KV, open loop: policy × offered load, queue wait vs service (extension)", cell::serve_load),
    entry("serve_skew", QUICK_TRACE, "sharded KV at overload: skew × work stealing × SLO admission (extension)", cell::serve_skew),
];

/// One HTM-simulator run: `threads` cores under `policy` on `workload` for
/// `horizon` cycles, `tweak` setting anything else on the config.
pub fn sim_cell(
    threads: usize,
    policy: Arc<dyn GracePolicy>,
    workload: Arc<dyn WorkloadGen>,
    horizon: u64,
    tweak: impl FnOnce(&mut SimConfig),
) -> ShardedStats {
    let mut cfg = SimConfig::new(threads, policy);
    cfg.horizon = horizon;
    tweak(&mut cfg);
    let mut sim = Simulator::new(cfg, workload);
    sim.run();
    std::mem::take(&mut sim.stats)
}

/// A named strategy arm of Figure 3.
struct Arm {
    label: &'static str,
    policy: Arc<dyn GracePolicy>,
}

/// The paper's four experimental arms (§8.2): no delays, hand-tuned fixed
/// delay (knows the profiled mean body length), the deterministic optimal
/// strategy, and the randomized optimal strategy — the one policy list
/// every simulator table draws from.
fn figure3_arms(workload: &dyn WorkloadGen) -> Vec<Arm> {
    let arm = |label, policy| Arm { label, policy };
    let tuned = HandTuned::new(ResolutionMode::RequestorWins, workload.tuned_delay());
    vec![
        arm("NO_DELAY", Arc::new(NoDelay::requestor_wins())),
        arm("DELAY_TUNED", Arc::new(tuned)),
        arm("DELAY_DET", Arc::new(DetRw)),
        arm("DELAY_RAND", Arc::new(RandRw)),
    ]
}

/// The Figure 3 arms labelled `labels`, in that order.
fn arms(workload: &dyn WorkloadGen, labels: &[&str]) -> Vec<Arm> {
    let mut arms = figure3_arms(workload);
    arms.retain(|a| labels.contains(&a.label));
    arms.sort_by_key(|a| labels.iter().position(|l| *l == a.label));
    arms
}

/// The strategy arms of Figure 2, in the paper's order, then the NO_DELAY
/// baseline and the §1 hybrid extension.
fn figure2_policies(mu: f64) -> Vec<Box<dyn GracePolicy>> {
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

/// One Figure 2 panel: rows = distributions, columns = OPT and each
/// strategy's mean conflict cost.
fn figure2_panel(f: &Flags, label: &str, mut cfg: SyntheticConfig, mu: f64) {
    cfg.trials = scaled(cfg.trials, f.flag("quick"));
    println!(
        "# {label}: B={}, mu={mu}, k={}, trials={}",
        cfg.abort_cost, cfg.chain, cfg.trials
    );
    let policies = figure2_policies(mu);
    let mut cols = vec!["distribution".to_string(), "OPT".to_string()];
    cols.extend(policies.iter().map(|p| p.name()));
    header(&cols.iter().map(String::as_str).collect::<Vec<_>>());
    for dist in figure2_distributions(mu) {
        let rem = RemainingTime::FromLengths(dist.as_ref());
        let mut cells = vec![dist.name().to_string()];
        for (i, p) in policies.iter().enumerate() {
            let r = run_synthetic(&cfg, &rem, p.as_ref());
            if i == 0 {
                cells.push(num(r.mean_opt()));
            }
            cells.push(num(r.mean_cost()));
        }
        row(&cells);
    }
}

/// Figure 2a, the high fixed cost regime. Paper: DET is near-optimal (it
/// almost never aborts when B ≫ µ); RRW(µ)/RRA(µ) beat their unconstrained
/// counterparts since µ/B = 0.25 is below both thresholds; RRW ≈ 2×OPT,
/// RRA ≈ e/(e−1)×OPT.
fn fig2a(f: &Flags) {
    figure2_panel(f, "fig2a", SyntheticConfig::figure2a(), 500.0);
}

/// Figure 2b, the low fixed cost regime. Paper: DET degrades (it aborts
/// often when B < µ); mean knowledge stops helping (µ/B = 2.5 exceeds both
/// thresholds); requestor aborts beats requestor wins.
fn fig2b(f: &Flags) {
    figure2_panel(f, "fig2b", SyntheticConfig::figure2b(), 500.0);
}

/// Figure 2c: a point mass just above DET's abort point B/(k−1). Paper:
/// DET pays (2 + 1/(k−1))·OPT = 3·OPT at k = 2; the randomized strategies
/// stay at their ratios.
fn fig2c(f: &Flags) {
    let mut cfg = SyntheticConfig::figure2a();
    cfg.trials = scaled(cfg.trials, f.flag("quick"));
    let d = det_worst_case_remaining(&cfg);
    println!(
        "# fig2c: B={}, worst-case D={d:.1}, trials={}",
        cfg.abort_cost, cfg.trials
    );
    header(&["strategy", "mean_cost", "OPT", "ratio"]);
    let rem = RemainingTime::Fixed(d);
    // Figure 2's arms without the hybrid extension.
    for p in figure2_policies(500.0).iter().take(6) {
        let r = run_synthetic(&cfg, &rem, p.as_ref());
        row(&[
            p.name(),
            num(r.mean_cost()),
            num(r.mean_opt()),
            num(r.cost_ratio()),
        ]);
    }
}

/// Thread counts matching the paper's Figure 3 x-axis (1..=18).
const THREADS: &[usize] = &[1, 2, 4, 6, 8, 10, 12, 14, 16, 18];

/// One Figure 3 panel, the `tcp sim` workload named `workload`: rows =
/// strategy arms, columns = ops/s per thread count (1 GHz simulated clock,
/// like the paper's y-axis). Paper shape: the
/// delay strategies hold near the single-thread rate on the stack while
/// NO_DELAY collapses; the queue has half the stack's contention (two
/// hotspots); on the bimodal application hand-tuning loses (the mean
/// mispredicts both modes) while the randomized strategy stays robust.
fn figure3_panel(f: &Flags, workload: &str) {
    let horizon = if f.flag("quick") { 100_000 } else { 1_000_000 };
    println!("# fig3_{workload}: horizon={horizon} cycles @1GHz");
    let workload = make_workload(workload, 0.0).expect("a Figure 3 workload");
    let mut cols = vec!["strategy".to_string()];
    cols.extend(THREADS.iter().map(|t| t.to_string()));
    header(&cols.iter().map(String::as_str).collect::<Vec<_>>());
    for arm in figure3_arms(workload.as_ref()) {
        let mut cells = vec![arm.label.to_string()];
        for &t in THREADS {
            let policy = Arc::clone(&arm.policy);
            let s = sim_cell(t, policy, Arc::clone(&workload), horizon, |cfg| {
                cfg.seed = 42 ^ ((t as u64) << 32)
            });
            cells.push(num(s.ops_per_second(1.0)));
        }
        row(&cells);
    }
}

/// Theorems 1–6, k = 2..8, against two adversary metrics matching the
/// paper's two analyses: unconstrained strategies — worst ratio of
/// expectations over a grid of fixed D; mean-aware strategies — worst
/// expected per-instance ratio over mean-respecting two-point adversaries
/// (the constrained LP's objective: its pointwise ratio is linear in D, so
/// any mean-µ adversary realizes C2).
fn theory_ratios(f: &Flags) {
    let b = 120.0;
    let trials = scaled(8_000, f.flag("quick"));
    println!("# theory_ratios: B={b}, trials/grid-point={trials}");
    header(&["strategy", "k", "empirical", "analytic", "paper_ref"]);
    for k in 2..=8usize {
        let c = Conflict::chain(b, k);
        let rows: Vec<(Box<dyn GracePolicy>, &str)> = vec![
            (Box::new(DetRw), "Thm 4"),
            (Box::new(DetRa), "classic"),
            (Box::new(RandRw), "Thm 5/6"),
            (Box::new(RandRwUniform), "Thm 5 remark"),
            (Box::new(RandRa), "Thm 1/3"),
            (Box::new(Hybrid::new(None)), "S1 hybrid"),
        ];
        for (p, ref_name) in rows {
            let (emp, analytic) = verify_ratio(p.as_ref(), &c, trials, 0xA5 + k as u64);
            row(&[
                p.name(),
                k.to_string(),
                num(emp),
                analytic.map(num).unwrap_or_else(|| "-".into()),
                ref_name.to_string(),
            ]);
        }
        // Mean-aware strategies under the constrained metric (µ/B = 0.15).
        let mu = 0.15 * b;
        let rw_emp =
            worst_case_ratio_mean(&RandRwMean::new(mu), &c, mu, 40, trials, 0xB5 + k as u64);
        row(&[
            "RRW(mu)".into(),
            k.to_string(),
            num(rw_emp),
            num(rand_rw_mean_ratio(k, b, mu)),
            "Thm 5/6 (mu), corrected".into(),
        ]);
        let ra_emp =
            worst_case_ratio_mean(&RandRaMean::new(mu), &c, mu, 40, trials, 0xC5 + k as u64);
        row(&[
            "RRA(mu)".into(),
            k.to_string(),
            num(ra_emp),
            num(rand_ra_mean_ratio(k, b, mu)),
            "Thm 2/3 (mu)".into(),
        ]);
    }
}

/// §5.3: the mean-constrained strategies' density at x = B — the paper's
/// ≈1.8/B (RW) vs ≈2.4/B (RA) — analytic beside sampled.
fn abort_prob(f: &Flags) {
    // The window's slope bias (≤ 1.6%) plus over 3σ of sampling noise at
    // the quick size (~1.5k samples land in the window).
    const TOLERANCE: f64 = 0.1;
    let trials = scaled(400_000, f.flag("quick"));
    println!(
        "# abort_prob: k=2, trials={trials}, sampled = P[x >= B(1-h)]/h with h={DENSITY_WINDOW}, \
         asserted |sampled/density_at_B - 1| <= {TOLERANCE}"
    );
    header(&[
        "strategy",
        "B",
        "density_at_B_x_B",
        "sampled_x_B",
        "paper_says",
    ]);
    for b in [50.0, 200.0, 2000.0] {
        for (name, p, paper) in [
            ("RRW(mu)", abort_probability_rw(b, trials, 3), "~1.8"),
            ("RRA(mu)", abort_probability_ra(b, trials, 5), "~2.4"),
        ] {
            row(&[
                name.into(),
                num(b),
                num(p.density_at_b_times_b),
                num(p.sampled_density_times_b),
                paper.into(),
            ]);
            let gap = p.sampled_density_times_b / p.density_at_b_times_b - 1.0;
            assert!(gap.abs() <= TOLERANCE, "{name} at B={b}: {p:?}");
        }
    }
    println!("# requestor-aborts concentrates more mass near B: less likely to abort (§5.3)");
}

/// Corollary 1: the sum of running times of the online algorithm vs the
/// perfect-information offline optimum under the §6 adversarial conflict
/// model, against the (2w+1)/(w+1) bound. The randomized strategies sit on
/// the bound in expectation, so a row may print a little above it.
fn corollary1(f: &Flags) {
    let lens = Exponential::with_mean(400.0);
    let txns = scaled(20_000, f.flag("quick"));
    println!("# corollary1: 8 threads, exp(400) lengths, cleanup=100, k=2");
    header(&[
        "policy",
        "adversary",
        "conflicts/txn",
        "waste_w",
        "ratio",
        "bound_(2w+1)/(w+1)",
    ]);
    let advs: [&dyn InterruptAdversary; 3] = [&UniformStrike, &EarlyStrike, &LateStrike];
    let policies: [(&dyn GracePolicy, &str); 2] = [(&RandRw, "RRW"), (&RandRa, "RRA")];
    for cpt in [0.2, 1.0, 3.0] {
        for adv in advs {
            for (p, name) in policies {
                let cfg = GlobalConfig {
                    threads: 8,
                    txns_per_thread: txns / 8,
                    lengths: &lens,
                    conflicts_per_txn: cpt,
                    cleanup: 100.0,
                    chain: 2,
                    seed: 0xC0 + (cpt * 10.0) as u64,
                };
                let r = run_global(&cfg, adv, p);
                row(&[
                    name.into(),
                    adv.name(),
                    num(cpt),
                    num(r.waste),
                    num(r.ratio),
                    num(r.bound),
                ]);
                assert!(
                    r.ratio <= r.bound + 0.02,
                    "{name} vs {} at {cpt} conflicts/txn: ratio {} above bound {} + 0.02",
                    adv.name(),
                    r.ratio,
                    r.bound
                );
            }
        }
    }
}

/// Corollary 2: with multiplicative abort-cost inflation, a transaction of
/// length y facing γ conflicts per attempt commits within
/// log y + log γ + log k − log B + 2 attempts with probability ≥ 1/2.
fn corollary2(f: &Flags) {
    let trials = scaled(3_000, f.flag("quick"));
    println!("# corollary2: k=2, max_attempts=400, trials={trials}");
    header(&[
        "policy",
        "y",
        "gamma",
        "B",
        "bound",
        "P[within_bound]",
        "mean_attempts",
    ]);
    for (y, gamma, b) in [
        (200.0, 4usize, 50.0),
        (1000.0, 2, 25.0),
        (400.0, 8, 100.0),
        (5000.0, 4, 50.0),
    ] {
        let cfg = ProgressConfig {
            y,
            gamma,
            b,
            k: 2,
            max_attempts: 400,
        };
        let rw = run_progress(&cfg, RandRw, trials, 42);
        let ra = run_progress(&cfg, RandRa, trials, 43);
        for (name, r) in [("RRW", rw), ("RRA", ra)] {
            let mean = r.attempts.iter().map(|&a| a as f64).sum::<f64>() / r.attempts.len() as f64;
            row(&[
                name.into(),
                num(y),
                gamma.to_string(),
                num(b),
                num(r.bound),
                num(r.frac_within_bound),
                num(mean),
            ]);
            assert!(
                r.frac_within_bound >= 0.5,
                "{name} at y={y} gamma={gamma} B={b}: P[within {}] = {} < 0.5",
                r.bound,
                r.frac_within_bound
            );
        }
    }
}

/// Fictitious play on the discretized conflict game vs the analytic ratios
/// of Theorems 1/3/5/6. For requestor-aborts chains (k ≥ 3) two
/// formulations are solved: the paper's Theorem 3 game, whose value matches
/// Theorem 3, and the physically natural game, whose value is e/(e−1) for
/// every k (README, "Deviations from the paper", 4).
fn optimality(f: &Flags) {
    let b = 100.0;
    let iters = scaled(300_000, f.flag("quick"));
    println!("# optimality: fictitious play, 100x101 grid, {iters} iterations, B={b}");
    header(&["game", "k", "value_lo", "value_hi", "analytic"]);
    for k in 2..=6usize {
        let c = Conflict::chain(b, k);
        for (game, mode, formulation, analytic) in [
            (
                "RW (Thm 5/6)",
                ResolutionMode::RequestorWins,
                Formulation::Natural,
                rand_rw_ratio(k),
            ),
            (
                "RA paper-form (Thm 3)",
                ResolutionMode::RequestorAborts,
                Formulation::PaperRa,
                rand_ra_ratio(k),
            ),
            (
                "RA natural",
                ResolutionMode::RequestorAborts,
                Formulation::Natural,
                rand_ra_ratio(2),
            ),
        ] {
            let sol = solve_conflict_game_with(mode, &c, 100, 101, iters, formulation);
            row(&[
                game.into(),
                k.to_string(),
                num(sol.lower),
                num(sol.upper),
                num(analytic),
            ]);
        }
    }
}

/// §1 "Implications": the hybrid strategy (requestor aborts for pairs,
/// requestor wins for longer chains) against each pure mode.
fn hybrid_ablation(f: &Flags) {
    let b = 120.0;
    let trials = scaled(8_000, f.flag("quick"));
    println!("# hybrid_ablation: B={b}, trials/grid-point={trials}");
    header(&["k", "RRW_emp", "RRA_emp", "HYBRID_emp", "HYBRID_analytic"]);
    for k in 2..=12usize {
        let c = Conflict::chain(b, k);
        let (rw, _) = verify_ratio(&RandRw, &c, trials, 1000 + k as u64);
        let (ra, _) = verify_ratio(&RandRa, &c, trials, 2000 + k as u64);
        let (hy, hya) = verify_ratio(&Hybrid::new(None), &c, trials, 3000 + k as u64);
        row(&[k.to_string(), num(rw), num(ra), num(hy), num(hya.unwrap())]);
    }
    println!("# hybrid tracks min(RRW, RRA) everywhere: RA wins at k=2, RW for chains");
}

/// Does reporting the measured chain length k to the policy help? The
/// paper's hardware always assumes k = 2; the chain-aware variant samples
/// from the k-specific distributions.
fn chain_ablation(f: &Flags) {
    let horizon = if f.flag("quick") { 100_000 } else { 600_000 };
    println!("# chain_ablation: stack workload, horizon={horizon}");
    header(&[
        "policy",
        "chain_aware",
        "threads",
        "ops_per_sec",
        "aborts_per_commit",
        "mean_k",
    ]);
    let w: Arc<dyn WorkloadGen> = Arc::new(StackWorkload::default());
    for threads in [4usize, 12, 18] {
        for aware in [false, true] {
            for arm in arms(w.as_ref(), &["DELAY_RAND", "DELAY_DET"]) {
                let s = sim_cell(threads, arm.policy, Arc::clone(&w), horizon, |cfg| {
                    cfg.chain_aware = aware
                });
                let hist = s.global.chain_hist.iter().enumerate();
                let (chains, k_sum) = hist.fold((0, 0.0), |(n, sum), (k, &c)| {
                    (n + c, sum + k as f64 * c as f64)
                });
                let mean_k = k_sum / chains.max(1) as f64; // 0 when no chain formed
                row(&[
                    arm.label.into(),
                    aware.to_string(),
                    threads.to_string(),
                    num(s.ops_per_second(1.0)),
                    num(s.abort_ratio()),
                    num(mean_k),
                ]);
            }
        }
    }
}

/// Contention skew: the transactional application with Zipf-distributed
/// object popularity — as skew rises, conflicts concentrate on a few hot
/// objects and the gap between NO_DELAY and the delay strategies widens.
fn skew_ablation(f: &Flags) {
    let horizon = if f.flag("quick") { 100_000 } else { 600_000 };
    let threads = 16;
    println!("# skew_ablation: 64 objects, {threads} cores, horizon={horizon}");
    header(&[
        "theta",
        "policy",
        "ops_per_sec",
        "aborts_per_commit",
        "p99_latency",
    ]);
    for theta in [0.0, 0.6, 0.9, 1.2] {
        let w: Arc<dyn WorkloadGen> = Arc::new(SkewedTxAppWorkload::new(64, theta));
        for arm in arms(w.as_ref(), &["NO_DELAY", "DELAY_DET", "DELAY_RAND"]) {
            let s = sim_cell(threads, arm.policy, Arc::clone(&w), horizon, |_| {});
            row(&[
                num(theta),
                arm.label.into(),
                num(s.ops_per_second(1.0)),
                num(s.abort_ratio()),
                s.latency_percentile(99.0).to_string(),
            ]);
        }
    }
}

/// §7: how much does the multiplicative abort-cost inflation matter?
fn backoff_ablation(f: &Flags) {
    let horizon = if f.flag("quick") { 100_000 } else { 600_000 };
    println!("# backoff_ablation: DELAY_RAND on the stack, horizon={horizon}");
    header(&[
        "threads",
        "backoff",
        "ops_per_sec",
        "aborts_per_commit",
        "p99_latency",
    ]);
    let w: Arc<dyn WorkloadGen> = Arc::new(StackWorkload::default());
    for threads in [4usize, 12, 18] {
        for backoff in [false, true] {
            let s = sim_cell(threads, Arc::new(RandRw), Arc::clone(&w), horizon, |cfg| {
                cfg.backoff = backoff
            });
            row(&[
                threads.to_string(),
                backoff.to_string(),
                num(s.ops_per_second(1.0)),
                num(s.abort_ratio()),
                s.latency_percentile(99.0).to_string(),
            ]);
        }
    }
    println!("# without inflation, repeated conflicts sample short graces and livelock (§7)");
}

/// Delay strategies and tail latency: immediate aborts waste work but
/// spread it evenly; grace periods serialize cleanly but make a queued
/// transaction wait. Who has the better p50/p99/p99.9?
fn tail_latency(f: &Flags) {
    let horizon = if f.flag("quick") { 150_000 } else { 1_000_000 };
    let threads = 12;
    let w: Arc<dyn WorkloadGen> = Arc::new(StackWorkload::default());
    println!("# tail_latency: stack, {threads} cores, horizon={horizon} (latencies in cycles)");
    header(&["policy", "commits", "p50", "p99", "p99.9", "max"]);
    for arm in figure3_arms(w.as_ref()) {
        let s = sim_cell(threads, arm.policy, Arc::clone(&w), horizon, |_| {});
        row(&[
            arm.label.into(),
            s.commits().to_string(),
            s.latency_percentile(50.0).to_string(),
            s.latency_percentile(99.0).to_string(),
            s.latency_percentile(99.9).to_string(),
            s.latency_percentile(100.0).to_string(),
        ]);
    }
}

/// The policies on the real-thread STM: stack and 64-object transactional
/// application throughput per policy and thread count (wall clock, so the
/// numbers vary run to run; the rows do not).
fn stm_throughput(f: &Flags) {
    let ms = if f.flag("quick") { 50 } else { 300 };
    let dur = Duration::from_millis(ms);
    println!("# stm_throughput: {ms}ms per cell (wall clock)");
    header(&[
        "workload",
        "policy",
        "threads",
        "ops_per_sec",
        "aborts_per_op",
    ]);
    let print = |workload: &str, name: &str, r: Throughput| {
        row(&[
            workload.into(),
            name.into(),
            r.threads.to_string(),
            num(r.ops_per_sec()),
            num(r.aborts as f64 / r.ops.max(1) as f64),
        ])
    };
    let threads = [1usize, 2, 4, 8];
    for &t in &threads {
        let nd = NoDelay::requestor_aborts();
        print("stack", "NO_DELAY(RA)", stack_throughput(nd, t, dur, 1));
        print("stack", "RRA", stack_throughput(RandRa, t, dur, 2));
        print("stack", "RRW", stack_throughput(RandRw, t, dur, 3));
    }
    for &t in &threads {
        let nd = NoDelay::requestor_aborts();
        print(
            "txapp64",
            "NO_DELAY(RA)",
            txapp_throughput(nd, t, 64, dur, 4),
        );
        print("txapp64", "RRA", txapp_throughput(RandRa, t, 64, dur, 5));
        print("txapp64", "RRW", txapp_throughput(RandRw, t, 64, dur, 6));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure3_arms_are_the_paper_arms() {
        let arms = figure3_arms(&StackWorkload::default());
        let labels: Vec<_> = arms.iter().map(|a| a.label).collect();
        assert_eq!(
            labels,
            ["NO_DELAY", "DELAY_TUNED", "DELAY_DET", "DELAY_RAND"]
        );
    }
}
