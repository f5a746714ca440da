//! Extension: the latency-vs-offered-load sweep. Drive the sharded KV
//! service **open loop** — a deterministic seeded Poisson arrival schedule
//! whose rate is independent of service completions — across offered-load
//! points × grace policies, and report where the sojourn time goes:
//! queue wait (enqueue → pop) vs service (pop → response).
//!
//! This is the scenario family the closed-loop `serve` sweep cannot open:
//! under closed-loop load the in-flight population is bounded by the
//! client count, so queueing delay — the quantity wait-vs-abort policies
//! move at the tail — never builds. Open loop offers it on purpose; as
//! the offered rate approaches capacity, queue-wait percentiles should
//! dominate sojourn and the policies separate.
//!
//! Arms: `NO_DELAY`, `DET`, `RRW` (as in `serve`). Workload-shape flags
//! match `serve`: `--group-commit`, `--read-fraction <f>` overrides the
//! base mix, `--read-heavy` applies the 90/10-with-scans preset;
//! `--trace <path>` adds one fully-traced run at the top offered rate
//! (Perfetto export to `path`, trace summary and per-interval table on
//! stdout).

use std::sync::Arc;

use tcp_bench::cell::{policy_arms, run_cell, shaped_args, trace_run};
use tcp_bench::table;
use tcp_core::randomized::RandRw;
use tcp_server::prelude::{LoadMode, ServeConfig};

const CLIENTS: usize = 4;
const WINDOW: usize = 64;

fn main() {
    let (base, flags) = shaped_args(|_| ServeConfig {
        shards: 2,
        clients: CLIENTS,
        keys: 1024,
        zipf_s: 1.1,
        read_fraction: 0.5,
        rmw_fraction: 0.25,
        rmw_span: 4,
        think_ns: 0, // unused in open loop
        work_ns: 2_000,
        queue_capacity: 256,
        seed: 42,
        ..Default::default()
    })
    .unwrap_or_else(|e| {
        eprintln!("serve_load: {e}");
        std::process::exit(2);
    });
    base.validate();
    let quick = flags.flag("quick");
    // Offered load points, total requests/second across the fleet. The top
    // point is chosen to exceed a single core's service capacity so the
    // queue-wait tail actually appears; the horizon (ops at each rate) is
    // sized to keep every cell under a couple of seconds.
    let offered: &[f64] = if quick {
        &[20_000.0, 60_000.0, 120_000.0]
    } else {
        &[20_000.0, 40_000.0, 80_000.0, 120_000.0, 160_000.0]
    };
    let horizon_secs = if quick { 0.15 } else { 0.5 };
    let at_rate = |rate: f64| {
        let rate_per_client = rate / CLIENTS as f64;
        ServeConfig {
            ops_per_client: (rate_per_client * horizon_secs).max(200.0) as u64,
            mode: LoadMode::Open {
                rate_per_client,
                window: WINDOW,
            },
            ..base.clone()
        }
    };
    println!(
        "# serve_load: open-loop sharded KV, {CLIENTS} clients, {} shards, \
         keys={}, zipf_s={}, read={}, rmw={}@{} keys, work={}ns, cap={}, batch={}, \
         group_commit={}, window={WINDOW}, horizon={horizon_secs}s/point \
         (latencies in ns; qw = queue wait, svc = service, p = sojourn)",
        base.shards,
        base.keys,
        base.zipf_s,
        base.read_fraction,
        base.rmw_fraction,
        base.rmw_span,
        base.work_ns,
        base.queue_capacity,
        base.batch_max,
        base.group_commit
    );
    table::header(&[
        "policy", "offered", "commits", "sheds", "ops/s", "qw50", "qw99", "qw999", "svc50",
        "svc99", "p50", "p99", "p999",
    ]);
    for &rate in offered {
        for (name, policy) in policy_arms() {
            let (r, m) = run_cell(&at_rate(rate), policy, &format!("{name} at {rate} req/s"));
            table::row(&[
                name.into(),
                table::num(rate),
                m.commits.to_string(),
                m.sheds.to_string(),
                table::num(r.ops_per_sec()),
                m.queue_wait_percentile(50.0).to_string(),
                m.queue_wait_percentile(99.0).to_string(),
                m.queue_wait_percentile(99.9).to_string(),
                m.service_percentile(50.0).to_string(),
                m.service_percentile(99.0).to_string(),
                m.latency_percentile(50.0).to_string(),
                m.latency_percentile(99.0).to_string(),
                m.latency_percentile(99.9).to_string(),
            ]);
        }
    }
    // The traced run sits at the top offered rate under RRW — where
    // queue-wait spans are deepest and most worth looking at in the viewer.
    if let Some(path) = flags.get("trace") {
        let top = offered[offered.len() - 1];
        let what = format!("RRW at {top} req/s");
        if let Err(e) = trace_run(&at_rate(top), Arc::new(RandRw), &what, path) {
            eprintln!("serve_load: {e}");
            std::process::exit(1);
        }
    }
}
