//! `tcp` — the command-line driver for the whole workspace: one row of
//! the experiment table (`tcp <name> [--quick]`, the serving rows also
//! `[--trace <path>]`) or a free-form `sim`, `synthetic` or `game` run.
//! `tcp help` prints the usage ([`HELP`]) and the table with each row's
//! flags; `tcp list` names experiments, policies, workloads and
//! distributions.

use std::fmt::Display;
use std::str::FromStr;
use std::sync::Arc;

use tcp_analysis::game_solver::{solve_conflict_game_with, Formulation};
use tcp_bench::cli::{
    make_mode, make_policy, make_workload, number, Flags, POLICY_NAMES, WORKLOAD_NAMES,
};
use tcp_bench::experiments::{sim_cell, EXPERIMENTS};
use tcp_bench::table;
use tcp_core::conflict::{Conflict, ResolutionMode};
use tcp_htm_sim::config::SimConfig;
use tcp_workloads::dist::figure2_distributions;
use tcp_workloads::synthetic::{run_synthetic, RemainingTime, SyntheticConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match run(&args) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("run `tcp help` for usage");
            2
        }
    };
    std::process::exit(code);
}

fn run(args: &[String]) -> Result<(), String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(
            "missing subcommand (an experiment, sim | synthetic | game | list | help)".into(),
        );
    };
    let flags = |known: &[&str]| Flags::parse(rest).and_then(|f| f.only(known));
    match cmd.as_str() {
        "sim" => cmd_sim(&flags(SIM_FLAGS)?),
        "synthetic" => cmd_synthetic(&flags(&[
            "policy", "b", "mu", "dist", "trials", "k", "seed",
        ])?),
        "game" => cmd_game(&flags(&["mode", "k", "b", "iters", "paper-ra"])?),
        "list" => {
            flags(&[])?;
            let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
            println!("experiments: {}", names.join(", "));
            println!("policies:    {}", POLICY_NAMES.join(", "));
            println!("workloads:   {}", WORKLOAD_NAMES.join(", "));
            println!("dists:       {}", dist_names());
            Ok(())
        }
        "help" | "--help" | "-h" => {
            flags(&[])?;
            println!("{HELP}");
            for e in EXPERIMENTS {
                println!("    {:<17} {:<26} {}", e.name, e.usage(), e.reproduces);
            }
            Ok(())
        }
        name => {
            let Some(e) = EXPERIMENTS.iter().find(|e| e.name == name) else {
                return Err(format!("unknown subcommand or experiment '{name}'"));
            };
            (e.run)(&flags(e.flags)?);
            Ok(())
        }
    }
}

const HELP: &str = "tcp — transactional conflict problem driver
  tcp sim       --workload stack --policy rand-rw --threads 8 [--horizon N]
                [--chain-aware] [--no-backoff] [--seed N] [--mu F]
                [--delay F] [--skew F]
                (the policy names the side that aborts: the *-ra policies
                 and hybrid run requestor aborts, the rest requestor wins)
  tcp synthetic --policy rand-ra --b 2000 --mu 500 [--dist exponential]
                [--trials N] [--k N] [--seed N]
  tcp game      --mode rw --k 3 [--iters N] [--paper-ra]
  tcp list
  tcp <experiment> <its flags, below>
                (--quick: 10x fewer trials or a shorter horizon;
                 --trace <path>: also export one traced cell for Perfetto)";

/// The Figure 2 length distributions' names, in table order.
fn dist_names() -> String {
    let names: Vec<_> = figure2_distributions(1.0)
        .iter()
        .map(|d| d.name())
        .collect();
    names.join(", ")
}

#[rustfmt::skip]
const SIM_FLAGS: &[&str] = &[
    "workload", "policy", "threads", "horizon", "chain-aware", "no-backoff", "seed", "mu",
    "delay", "skew",
];

fn cmd_sim(f: &Flags) -> Result<(), String> {
    let threads: usize = f.num("threads", 8)?;
    let horizon: u64 = f.num("horizon", 1_000_000)?;
    let mu: f64 = f.num("mu", 500.0)?;
    let skew: f64 = f.num("skew", 0.9)?;
    let workload = make_workload(f.get("workload").unwrap_or("stack"), skew)?;
    let delay: f64 = f.num("delay", workload.tuned_delay())?;
    let policy = make_policy(f.get("policy").unwrap_or("rand-rw"), mu, delay)?;
    // `SimConfig::new` asserts what `validate` checks: try each flag-set
    // field on a probe first, so a bad value exits 2 naming its flag.
    let probe = |cores, horizon| {
        let base = SimConfig::new(1, Arc::clone(&policy));
        SimConfig {
            cores,
            horizon,
            ..base
        }
        .validate()
    };
    probe(threads, 1).map_err(|why| format!("--threads: {why}"))?;
    probe(1, horizon).map_err(|why| format!("--horizon: {why}"))?;
    let seed = f.num("seed", 0xC0FFEE)?;
    let s = sim_cell(threads, policy, workload, horizon, |cfg| {
        cfg.seed = seed;
        cfg.backoff = !f.flag("no-backoff");
        cfg.chain_aware = f.flag("chain-aware");
    });
    table::header(&[
        "commits",
        "aborts",
        "conflicts",
        "saved_by_delay",
        "ops_per_sec",
        "p50",
        "p99",
    ]);
    table::row(&[
        s.commits().to_string(),
        s.aborts().to_string(),
        s.global.conflicts.to_string(),
        s.global.saved_by_delay.to_string(),
        table::num(s.ops_per_second(1.0)),
        s.latency_percentile(50.0).to_string(),
        s.latency_percentile(99.0).to_string(),
    ]);
    Ok(())
}

fn cmd_synthetic(f: &Flags) -> Result<(), String> {
    // The arbiter floors abort costs at one cycle: a smaller B would run
    // silently at B = 1.
    let b = checked(f, "b", 2000.0, "finite and >= 1", |b: f64| {
        b.is_finite() && b >= 1.0
    })?;
    let mu: f64 = f.num("mu", 500.0)?;
    if !(1.0..).contains(&mu) {
        return Err(format!("--mu: a length mean must be >= 1, got {mu}"));
    }
    let k = chain_len(f)?;
    let trials = checked(f, "trials", 200_000, ">= 1", |n: usize| n >= 1)?;
    let policy = make_policy(f.get("policy").unwrap_or("rand-rw"), mu, mu)?;
    let name = f.get("dist").unwrap_or("exponential");
    let dist = figure2_distributions(mu)
        .into_iter()
        .find(|d| d.name() == name)
        .ok_or_else(|| format!("unknown dist '{name}'; one of: {}", dist_names()))?;
    let cfg = SyntheticConfig {
        abort_cost: b,
        chain: k,
        trials,
        seed: f.num("seed", 42)?,
    };
    let r = run_synthetic(
        &cfg,
        &RemainingTime::FromLengths(dist.as_ref()),
        policy.as_ref(),
    );
    table::header(&["policy", "mean_cost", "mean_opt", "ratio", "abort_rate"]);
    table::row(&[
        policy.name(),
        table::num(r.mean_cost()),
        table::num(r.mean_opt()),
        table::num(r.cost_ratio()),
        table::num(r.abort_rate()),
    ]);
    Ok(())
}

fn cmd_game(f: &Flags) -> Result<(), String> {
    let k = chain_len(f)?;
    let b = checked(f, "b", 100.0, "finite and > 0", |b: f64| {
        b.is_finite() && b > 0.0
    })?;
    let iters = checked(f, "iters", 200_000, ">= 1", |n: usize| n >= 1)?;
    let mode = make_mode(f.get("mode").unwrap_or("rw"))?;
    let formulation = if f.flag("paper-ra") {
        if mode != ResolutionMode::RequestorAborts {
            return Err("--paper-ra only applies to --mode ra".into());
        }
        Formulation::PaperRa
    } else {
        Formulation::Natural
    };
    let c = Conflict::chain(b, k);
    let sol = solve_conflict_game_with(mode, &c, 100, 101, iters, formulation);
    table::header(&["mode", "k", "value_lo", "value_hi"]);
    table::row(&[
        mode.label().into(),
        k.to_string(),
        table::num(sol.lower),
        table::num(sol.upper),
    ]);
    Ok(())
}

/// `--key` as a number, refused (exit 2, naming the flag) unless `ok`
/// holds: the values a constructor would assert on, or silently clamp.
fn checked<T: FromStr + Display + Copy>(
    f: &Flags,
    key: &str,
    default: T,
    want: &str,
    ok: impl Fn(T) -> bool,
) -> Result<T, String> {
    let value = f.parsed(key, |v| match number(v)? {
        n if ok(n) => Ok(n),
        n => Err(format!("must be {want}, got {n}")),
    })?;
    Ok(value.unwrap_or(default))
}

/// `--k`, the chain length: a conflict involves at least two
/// transactions (`Conflict::chain` asserts it).
fn chain_len(f: &Flags) -> Result<usize, String> {
    let want = ">= 2 (a conflict involves at least two transactions)";
    checked(f, "k", 2, want, |k| k >= 2)
}
