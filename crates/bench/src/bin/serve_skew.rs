//! Extension: the skew × work-stealing × admission sweep. Drive the
//! sharded KV service open loop at overload under Zipf-skewed keys and
//! measure what work stealing and SLO-aware adaptive admission each
//! recover.
//!
//! Skewed keys pile requests onto one hot shard ring while sibling
//! executors idle — so measured tails reflect *placement*, not the grace
//! policy under test. Work stealing (`ServeConfig::steal`) lets idle
//! executors drain the hot ring through the steal-safe consumer protocol;
//! SLO-aware admission (`ServeConfig::slo_us`) sheds early when the hot
//! ring's windowed p99 queue wait blows past the SLO, converting queueing
//! time into cheap rejections. The sweep crosses `theta × steal ×
//! admission` and reports ops/s, shed/steal counters, the per-shard ring
//! high-water marks (the hot-shard backlog is the headline number on a
//! single-core host, where stealing cannot add service capacity — only
//! redistribute backlog), and the queue-wait/sojourn tails. A second
//! block pairs steal=on with steal=off per theta under fixed admission.
//!
//! Flags (beyond `--quick`): `--theta 0.6,0.99,1.2` overrides the skew
//! sweep, `--slo-us N` sets the admission SLO arm (default 200µs, 0
//! disables that arm), `--steal on|off|both` restricts the steal arms,
//! `--policy NAME` picks the grace policy (default `rand-rw`),
//! `--trace <path>` adds one fully-traced run at the hottest theta
//! (Perfetto export to `path`, trace summary and per-interval table on
//! stdout — the hot-key heatmap's natural habitat).

use std::sync::Arc;

use tcp_bench::cell::{on_off, run_cell, trace_run, Policy};
use tcp_bench::cli::{make_policy, number, Flags};
use tcp_bench::table;
use tcp_server::prelude::{LoadMode, ServeConfig, ServeReport};

/// Committed requests per second whose sojourn met `ref_slo_ns` — the
/// goodput the admission comparison is about: shedding early trades raw
/// ops/s for a larger fraction of commits that actually meet the SLO.
fn goodput_at(r: &ServeReport, ref_slo_ns: u64) -> f64 {
    let m = r.stats.merged();
    r.ops_per_sec() * m.latency_hist.fraction_at_or_below(ref_slo_ns)
}

fn hot_depth(r: &ServeReport) -> u64 {
    r.stats
        .per_thread
        .iter()
        .map(|t| t.queue_depth_max)
        .max()
        .unwrap_or(0)
}

/// The sweep's axes from the command line.
struct Args {
    quick: bool,
    thetas: Vec<f64>,
    slo_us: u64,
    steal_arms: &'static [bool],
    policy_name: String,
    policy: Policy,
    trace_path: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let flags = Flags::from_env(&["quick", "theta", "slo-us", "steal", "policy", "trace"])?;
    let quick = flags.flag("quick");
    let policy_name = flags.get("policy").unwrap_or("rand-rw").to_string();
    Ok(Args {
        quick,
        thetas: flags
            .parsed("theta", |list| {
                list.split(',').map(|t| number(t.trim())).collect()
            })?
            .unwrap_or_else(|| {
                if quick {
                    vec![0.6, 0.99, 1.2]
                } else {
                    vec![0.0, 0.6, 0.99, 1.2, 1.4]
                }
            }),
        slo_us: flags.num("slo-us", 200)?,
        steal_arms: flags
            .parsed("steal", |v| match v {
                "on" => Ok(&[true][..]),
                "off" => Ok(&[false][..]),
                "both" => Ok(&[false, true][..]),
                other => Err(format!("expected on|off|both, got '{other}'")),
            })?
            .unwrap_or(&[false, true]),
        policy: make_policy(&policy_name, 2_000.0, 100.0).map_err(|e| format!("--policy: {e}"))?,
        policy_name,
        trace_path: flags.get("trace").map(str::to_string),
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("serve_skew: {e}");
        std::process::exit(2);
    });
    let quick = args.quick;
    let slo_us = args.slo_us;

    let clients = 4;
    let shards = 4;
    // Offered load sized to overload the service on small hosts (the
    // regime where placement and admission matter); the window bounds
    // outstanding requests per client, so ring depth is backlog, not the
    // whole unserved schedule.
    let total_rate = if quick { 150_000.0 } else { 200_000.0 };
    let horizon_secs = if quick { 0.12 } else { 0.4 };
    let window = 256;
    let rate_per_client = total_rate / clients as f64;
    let base = ServeConfig {
        shards,
        clients,
        keys: 512,
        read_fraction: 0.5,
        rmw_fraction: 0.1,
        rmw_span: 3,
        think_ns: 0,
        work_ns: 5_000,
        queue_capacity: 1024,
        seed: 42,
        ops_per_client: (rate_per_client * horizon_secs).max(500.0) as u64,
        mode: LoadMode::Open {
            rate_per_client,
            window,
        },
        ..Default::default()
    };
    println!(
        "# serve_skew: open-loop sharded KV at overload, {clients} clients, {shards} shards, \
         keys={}, rate={total_rate}/s, horizon={horizon_secs}s/cell, work={}ns, cap={}, \
         window={window}, policy={}, slo arm={slo_us}us \
         (hot_depth = max per-shard ring high-water mark)",
        base.keys, base.work_ns, base.queue_capacity, args.policy_name
    );
    table::header(&[
        "theta",
        "steal",
        "adm",
        "commits",
        "sheds",
        "slo_shed",
        "steals",
        "ops/s",
        "goodput",
        "hot_depth",
        "qw99",
        "p99",
    ]);
    // Goodput reference SLO: with the admission arm disabled
    // (`--slo-us 0`) fall back to the 200µs default so the goodput
    // columns stay a meaningful attainment fraction rather than
    // "fraction under 0ns".
    let ref_slo_ns = if slo_us > 0 { slo_us } else { 200 } * 1_000;
    let admission_arms: Vec<u64> = if slo_us > 0 { vec![0, slo_us] } else { vec![0] };
    let mut comparisons: Vec<Vec<String>> = Vec::new();
    for &theta in &args.thetas {
        // This theta's fixed-admission reports, in steal-arm order.
        let mut fixed: Vec<ServeReport> = Vec::new();
        for &steal in args.steal_arms {
            for &slo in &admission_arms {
                let cfg = ServeConfig {
                    zipf_s: theta,
                    steal,
                    slo_us: slo,
                    ..base.clone()
                };
                let what = format!("theta={theta} steal={steal} slo={slo}");
                let (r, m) = run_cell(&cfg, Arc::clone(&args.policy), &what);
                table::row(&[
                    format!("{theta:.2}"),
                    on_off(steal).into(),
                    if slo > 0 { "slo" } else { "fixed" }.into(),
                    m.commits.to_string(),
                    m.sheds.to_string(),
                    m.slo_sheds.to_string(),
                    m.steals.to_string(),
                    table::num(r.ops_per_sec()),
                    table::num(goodput_at(&r, ref_slo_ns)),
                    hot_depth(&r).to_string(),
                    m.queue_wait_percentile(99.0).to_string(),
                    m.latency_percentile(99.0).to_string(),
                ]);
                if slo == 0 {
                    fixed.push(r);
                }
            }
        }
        if let [off, on] = &fixed[..] {
            comparisons.push(vec![
                format!("{theta:.2}"),
                table::num(off.ops_per_sec()),
                table::num(on.ops_per_sec()),
                table::num(goodput_at(off, ref_slo_ns)),
                table::num(goodput_at(on, ref_slo_ns)),
                hot_depth(off).to_string(),
                hot_depth(on).to_string(),
                (hot_depth(on) < hot_depth(off)).to_string(),
            ]);
        }
    }

    // Steal-on vs steal-off under fixed admission, per theta: the effect
    // the sweep exists to demonstrate. On multicore, steal=on recovers
    // ops/s; on a single core it cannot add service capacity, so the
    // hot-shard backlog (depth high-water) is the number that moves.
    if !comparisons.is_empty() {
        println!("# steal on vs off, fixed admission (relieves = hot_depth_on < hot_depth_off)");
        table::header(&[
            "theta",
            "ops/s_off",
            "ops/s_on",
            "goodput_off",
            "goodput_on",
            "hot_depth_off",
            "hot_depth_on",
            "relieves",
        ]);
        for row in &comparisons {
            table::row(row);
        }
    }

    // The traced run sits at the hottest theta with stealing on — Steal
    // instants and the hot-key abort heatmap show exactly which keys the
    // skew concentrates.
    if let Some(path) = args.trace_path {
        let theta = args.thetas.iter().copied().fold(0.0, f64::max);
        let cfg = ServeConfig {
            zipf_s: theta,
            steal: true,
            slo_us: 0,
            ..base
        };
        let what = format!("theta={theta} steal=on");
        if let Err(e) = trace_run(&cfg, args.policy, &what, &path) {
            eprintln!("serve_skew: {e}");
            std::process::exit(1);
        }
    }
}
