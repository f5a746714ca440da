//! The three serving rows of the experiment table (`tcp serve`,
//! `tcp serve_load`, `tcp serve_skew`) and the one cell runner under them:
//! the conservation asserts every cell carries, the policy arm list, the
//! read-heavy mix, the interleaved A/B loop and the `--trace <path>` tail.
//!
//! The rows print tables and assert invariants; they record nothing.
//! Numbers meant to be compared across commits come from `benchmark/`.

use std::sync::Arc;

use tcp_core::engine::EngineStats;
use tcp_core::policy::{DetRw, GracePolicy, NoDelay};
use tcp_core::randomized::RandRw;
use tcp_core::trace::TraceConfig;
use tcp_server::prelude::{run_server, LoadMode, ServeConfig, ServeReport};

use crate::cli::Flags;
use crate::perfetto::{perfetto_json, print_timeseries, trace_summary_json};
use crate::report::Json;
use crate::table;

pub type Policy = Arc<dyn GracePolicy>;

/// The policy arms of `serve` and `serve_load`, in table order:
/// always-abort (the HTM default), the deterministic §6 strategy, and the
/// randomized §5 strategy.
pub fn policy_arms() -> [(&'static str, Policy); 3] {
    [
        ("NO_DELAY", Arc::new(NoDelay::requestor_wins())),
        ("DET", Arc::new(DetRw)),
        ("RRW", Arc::new(RandRw)),
    ]
}

/// The 90/10-with-scans mix of `snapshot_ab`: 90% of non-RMW draws read,
/// 10% of them as multi-key scans, and RMWs trimmed to 5% — the mix where
/// the MVCC snapshot read path carries most of the load.
pub fn read_heavy(base: ServeConfig) -> ServeConfig {
    ServeConfig {
        read_fraction: 0.9,
        rmw_fraction: 0.05,
        scan_fraction: 0.1,
        scan_span: 16,
        ..base
    }
}

/// Run one sweep cell and assert what every cell must conserve: each
/// issued request was committed or shed exactly once, and no reply was
/// misdelivered. `what` names the cell in a failure. Returns the report
/// beside its merged tally.
pub fn run_cell(cfg: &ServeConfig, policy: Policy, what: &str) -> (ServeReport, EngineStats) {
    let r = run_server(cfg, policy);
    let m = r.stats.merged();
    assert_eq!(
        m.commits + m.sheds,
        cfg.total_requests(),
        "lost requests: {what}"
    );
    assert_eq!(r.reply_faults, 0, "misdelivered replies: {what}");
    (r, m)
}

/// Interleaved A/B under NO_DELAY: `rounds` rounds, each running the off
/// arm then the on arm of one switch on a shared seed (`base.seed +
/// round`), so slow drift of the host lands on both arms alike. `arm`
/// sets the switch on a round's config; `check` sees every run (`on`, the
/// report, its merged tally) and returns an arm-specific complaint, which
/// panics with the arm and round named. Every run carries the cell
/// asserts, and the two arms of a round must end on the same heap
/// checksum — `what` (e.g. "grouping") names the switch in that assert.
/// Returns the mean ops/s per arm, `[off, on]`.
pub fn interleaved_ab(
    base: &ServeConfig,
    rounds: u64,
    what: &str,
    arm: impl Fn(&mut ServeConfig, bool),
    mut check: impl FnMut(bool, &ServeReport, &EngineStats) -> Result<(), String>,
) -> [f64; 2] {
    let mut ops = [0.0; 2];
    for round in 0..rounds {
        let mut checksums = [0u64; 2];
        for on in [false, true] {
            let mut cfg = ServeConfig {
                seed: base.seed + round,
                ..base.clone()
            };
            arm(&mut cfg, on);
            let label = format!("{what} A/B, arm {}, round {round}", on_off(on));
            let (r, m) = run_cell(&cfg, Arc::new(NoDelay::requestor_wins()), &label);
            if let Err(e) = check(on, &r, &m) {
                panic!("{label}: {e}");
            }
            ops[on as usize] += r.ops_per_sec() / rounds as f64;
            checksums[on as usize] = r.state_checksum;
        }
        assert_eq!(
            checksums[0], checksums[1],
            "{what} must not change the final heap (round {round})"
        );
    }
    ops
}

/// `on` / `off`, as the tables and A/B labels spell a switch.
pub fn on_off(on: bool) -> &'static str {
    if on {
        "on"
    } else {
        "off"
    }
}

/// Rerun `cfg` fully traced under `policy`, export the trace to `path` as
/// a Perfetto/chrome://tracing file, and print the trace summary and the
/// per-interval table. `what` names the traced cell. An export that
/// cannot be written is an error naming `path`.
pub fn trace_run(cfg: &ServeConfig, policy: Policy, what: &str, path: &str) -> Result<(), String> {
    let cfg = ServeConfig {
        trace: TraceConfig {
            enabled: true,
            ..TraceConfig::default()
        },
        ..cfg.clone()
    };
    let (r, _) = run_cell(&cfg, policy, what);
    let rep = r.trace.as_ref().expect("tracing was enabled");
    perfetto_json(rep)
        .write_file(path)
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    println!(
        "# trace ({what}): {} events ({} dropped), {} hot-key slots -> {path} \
         (load in ui.perfetto.dev or chrome://tracing)",
        rep.events.len(),
        rep.dropped_total(),
        rep.hot_key_slots()
    );
    println!("# trace_summary: {}", trace_summary_json(rep).render());
    print_timeseries(rep, cfg.stats_interval_ns.max(1_000_000));
    Ok(())
}

/// The `--trace <path>` tail of serving row `row`: the [`trace_run`] of
/// `cfg` when the flag is given. An unwritable path exits 1, naming it.
fn trace_tail(f: &Flags, row: &str, cfg: &ServeConfig, policy: Policy, what: &str) {
    let Some(path) = f.get("trace") else {
        return;
    };
    if let Err(e) = trace_run(cfg, policy, what, path) {
        eprintln!("{row}: {e}");
        std::process::exit(1);
    }
}

/// `tcp serve`: the sharded transactional KV service under closed-loop
/// load, grace policies compared on throughput *and* tail latency across
/// shard counts — the paper's wait-vs-abort trade-off measured on a
/// service instead of a simulator. Latency columns decompose the sojourn
/// time the executors measure: `qw*` = queue wait (enqueue → pop), `p*` =
/// sojourn (enqueue → response).
///
/// Two A/B lines follow the table: `# group_commit_ab:` (batch-aware
/// group commit on/off, counter-verified via the STM's clock) and
/// `# snapshot_ab:` (MVCC snapshot reads on/off on the read-heavy mix,
/// plus a pure-read run that must never abort or consult the arbiter).
pub fn serve(f: &Flags) {
    let quick = f.flag("quick");
    let base = ServeConfig {
        clients: 8,
        ops_per_client: if quick { 1_500 } else { 15_000 },
        keys: 1024,
        zipf_s: 1.1,
        read_fraction: 0.5,
        rmw_fraction: 0.25,
        rmw_span: 4,
        think_ns: 500,
        // In-transaction compute widens the conflict window so the grace
        // policies actually arbitrate (on multicore hosts; a single-core
        // runner only overlaps at preemption boundaries).
        work_ns: 2_000,
        queue_capacity: 64,
        seed: 42,
        ..Default::default()
    };
    let shard_counts: &[usize] = if quick { &[2, 4] } else { &[2, 4, 8] };
    println!(
        "# serve: sharded KV, {} closed-loop clients x {} ops, \
         keys={}, zipf_s={}, read={}, rmw={}@{} keys, work={}ns, cap={}, batch={} \
         (latencies in ns; qw = queue wait, p = sojourn)",
        base.clients,
        base.ops_per_client,
        base.keys,
        base.zipf_s,
        base.read_fraction,
        base.rmw_fraction,
        base.rmw_span,
        base.work_ns,
        base.queue_capacity,
        base.batch_max,
    );
    table::header(&[
        "policy", "shards", "commits", "aborts", "sheds", "ops/s", "qw50", "qw99", "p50", "p90",
        "p99", "p999",
    ]);
    for &shards in shard_counts {
        for (name, policy) in policy_arms() {
            let cfg = ServeConfig {
                shards,
                ..base.clone()
            };
            let (r, m) = run_cell(&cfg, policy, &format!("{name}, {shards} shards"));
            table::row(&[
                name.into(),
                shards.to_string(),
                m.commits.to_string(),
                m.aborts.to_string(),
                m.sheds.to_string(),
                table::num(r.ops_per_sec()),
                m.queue_wait_percentile(50.0).to_string(),
                m.queue_wait_percentile(99.0).to_string(),
                m.latency_percentile(50.0).to_string(),
                m.latency_percentile(90.0).to_string(),
                m.latency_percentile(99.0).to_string(),
                m.latency_percentile(99.9).to_string(),
            ]);
        }
    }
    // The A/Bs and the traced run use the first shard count. RRW is the
    // traced arm: its aborts are the most interesting to attribute.
    let first = ServeConfig {
        shards: shard_counts[0],
        ..base
    };
    let rounds = if quick { 3 } else { 5 };
    group_commit_ab(&first, rounds);
    snapshot_ab(&first, rounds);
    let what = format!("RRW, {} shards", first.shards);
    trace_tail(f, "serve", &first, Arc::new(RandRw), &what);
}

/// Interleaved group-commit A/B: mean ops/s and the counter-verified
/// clock-bumps-per-commit per arm.
fn group_commit_ab(base: &ServeConfig, rounds: u64) {
    let mut bumps = [0.0; 2]; // [off, on]
    let (mut group_commits, mut coalesced, mut fallbacks) = (0u64, 0u64, 0u64);
    let ops = interleaved_ab(
        base,
        rounds,
        "grouping",
        |cfg, on| {
            cfg.group_commit = on;
            // Zero think time keeps the rings deep enough that batches
            // (and therefore groups) actually form.
            cfg.think_ns = 0;
        },
        |on, r, m| {
            bumps[on as usize] += r.clock_bumps_per_commit() / rounds as f64;
            if on {
                group_commits += m.group_commits;
                coalesced += m.coalesced_writes;
                fallbacks += m.group_fallbacks;
            }
            Ok(())
        },
    );
    let [bumps_off, bumps_on] = bumps;
    assert!(
        bumps_on < 1.0,
        "group commit must bump the clock less than once per commit (got {bumps_on:.3})"
    );
    // Reads never bump, so the off arm already sits at the write
    // fraction (< 1.0); the real gate is that grouping published at
    // least one multi-member group and measurably beat per-tx on bumps.
    assert!(group_commits > 0, "no groups published — grouping is dead");
    assert!(
        bumps_on < bumps_off,
        "grouping must save clock bumps over per-tx commit \
         ({bumps_on:.3} vs {bumps_off:.3})"
    );
    let line = Json::obj([
        ("policy", Json::from("NO_DELAY")),
        ("shards", Json::from(base.shards)),
        ("rounds", Json::from(rounds)),
        ("ops_per_sec_group_off", Json::from(ops[0])),
        ("ops_per_sec_group_on", Json::from(ops[1])),
        ("bumps_per_commit_group_off", Json::from(bumps_off)),
        ("bumps_per_commit_group_on", Json::from(bumps_on)),
        ("group_commits", Json::from(group_commits)),
        ("coalesced_writes", Json::from(coalesced)),
        ("group_fallbacks", Json::from(fallbacks)),
    ]);
    println!("# group_commit_ab: {}", line.render());
}

/// Interleaved snapshot-read A/B on the read-heavy mix. The snapshot arm
/// is counter-verified: its reads ride the MVCC fast path
/// (`snapshot_reads > 0`) and never abort (`read_aborts == 0`). A final
/// pure-read run (no writers at all) additionally asserts zero aborts and
/// zero arbiter consultations — the practical-wait-freedom claim of the
/// read path, checked, not assumed.
fn snapshot_ab(base: &ServeConfig, rounds: u64) {
    let mix = read_heavy(base.clone());
    let (mut snapshot_reads, mut restarts, mut misses) = (0u64, 0u64, 0u64);
    let ops = interleaved_ab(
        &mix,
        rounds,
        "read mode",
        |cfg, on| cfg.snapshot_reads = on,
        |on, _, m| {
            match (on, m.snapshot_reads, m.read_aborts) {
                (false, 0, _) => return Ok(()),
                (false, ..) => return Err("validated arm leaked onto the fast path".into()),
                (true, 0, _) => return Err("snapshot arm never took the fast path".into()),
                (true, _, 0) => {}
                (true, _, n) => return Err(format!("snapshot reads must never abort ({n} did)")),
            }
            snapshot_reads += m.snapshot_reads;
            restarts += m.snapshot_restarts;
            misses += m.chain_misses;
            Ok(())
        },
    );
    // Pure-read run: with every request read-only, the snapshot path must
    // be wait-free in practice — no aborts, no arbiter, no heap writes.
    let pure = ServeConfig {
        snapshot_reads: true,
        read_fraction: 1.0,
        rmw_fraction: 0.0,
        ..mix
    };
    let (pr, pm) = run_cell(&pure, Arc::new(NoDelay::requestor_wins()), "pure-read run");
    assert_eq!(pm.aborts, 0, "pure snapshot reads must never abort");
    assert_eq!(
        pm.arbiter_consults, 0,
        "snapshot reads must never consult the conflict arbiter"
    );
    assert_eq!(
        pm.read_aborts, 0,
        "pure snapshot reads must never read-abort"
    );
    assert_eq!(
        pr.state_sum, 0,
        "read-only requests must not write the heap"
    );
    let line = Json::obj([
        ("policy", Json::from("NO_DELAY")),
        ("shards", Json::from(base.shards)),
        ("rounds", Json::from(rounds)),
        ("ops_per_sec_snapshot_off", Json::from(ops[0])),
        ("ops_per_sec_snapshot_on", Json::from(ops[1])),
        ("snapshot_reads", Json::from(snapshot_reads)),
        ("snapshot_restarts", Json::from(restarts)),
        ("chain_misses", Json::from(misses)),
        ("pure_read_ops_per_sec", Json::from(pr.ops_per_sec())),
        ("pure_read_aborts", Json::from(pm.aborts)),
        (
            "pure_read_arbiter_consults",
            Json::from(pm.arbiter_consults),
        ),
    ]);
    println!("# snapshot_ab: {}", line.render());
}

/// `tcp serve_load`: latency vs offered load. The service runs **open
/// loop** — a deterministic seeded Poisson arrival schedule whose rate is
/// independent of service completions — across offered-load points ×
/// grace policies, and the table shows where the sojourn time goes: queue
/// wait (enqueue → pop) vs service (pop → response).
///
/// Closed-loop load cannot open this scenario family: the in-flight
/// population is bounded by the client count, so queueing delay — the
/// quantity wait-vs-abort policies move at the tail — never builds. As
/// the offered rate approaches capacity, queue-wait percentiles should
/// dominate sojourn and the policies separate.
pub fn serve_load(f: &Flags) {
    const CLIENTS: usize = 4;
    const WINDOW: usize = 64;
    let quick = f.flag("quick");
    let base = ServeConfig {
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
    };
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
         window={WINDOW}, horizon={horizon_secs}s/point \
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
    let top = offered[offered.len() - 1];
    let what = format!("RRW at {top} req/s");
    trace_tail(f, "serve_load", &at_rate(top), Arc::new(RandRw), &what);
}

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

/// `tcp serve_skew`: skew × work stealing × admission. The service runs
/// open loop at overload under Zipf-skewed keys, and the table shows what
/// work stealing and SLO-aware adaptive admission each recover.
///
/// Skewed keys pile requests onto one hot shard ring while sibling
/// executors idle — so measured tails reflect *placement*, not the grace
/// policy under test. Work stealing (`ServeConfig::steal`) lets idle
/// executors drain the hot ring through the steal-safe consumer protocol;
/// SLO-aware admission (`ServeConfig::slo_us`, 200µs here) sheds early
/// when the hot ring's windowed p99 queue wait blows past the SLO,
/// converting queueing time into cheap rejections. The table reports
/// ops/s, shed/steal counters, the per-shard ring high-water marks (the
/// hot-shard backlog is the headline number on a single-core host, where
/// stealing cannot add service capacity — only redistribute backlog), and
/// the queue-wait/sojourn tails. A second block pairs steal=on with
/// steal=off per theta under fixed admission.
pub fn serve_skew(f: &Flags) {
    const SLO_US: u64 = 200;
    let quick = f.flag("quick");
    let thetas: &[f64] = if quick {
        &[0.6, 0.99, 1.2]
    } else {
        &[0.0, 0.6, 0.99, 1.2, 1.4]
    };
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
         window={window}, policy=rand-rw, slo arm={SLO_US}us \
         (hot_depth = max per-shard ring high-water mark)",
        base.keys, base.work_ns, base.queue_capacity
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
    let ref_slo_ns = SLO_US * 1_000;
    let mut comparisons: Vec<Vec<String>> = Vec::new();
    for &theta in thetas {
        // This theta's fixed-admission reports, steal off then on.
        let mut fixed: Vec<ServeReport> = Vec::new();
        for steal in [false, true] {
            for slo in [0, SLO_US] {
                let cfg = ServeConfig {
                    zipf_s: theta,
                    steal,
                    slo_us: slo,
                    ..base.clone()
                };
                let what = format!("theta={theta} steal={steal} slo={slo}");
                let (r, m) = run_cell(&cfg, Arc::new(RandRw), &what);
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
        let (off, on) = (&fixed[0], &fixed[1]);
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

    // Steal-on vs steal-off under fixed admission, per theta: the effect
    // the sweep exists to demonstrate. On multicore, steal=on recovers
    // ops/s; on a single core it cannot add service capacity, so the
    // hot-shard backlog (depth high-water) is the number that moves.
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

    // The traced run sits at the hottest theta with stealing on — Steal
    // instants and the hot-key abort heatmap show exactly which keys the
    // skew concentrates.
    let theta = thetas.iter().copied().fold(0.0, f64::max);
    let cfg = ServeConfig {
        zipf_s: theta,
        steal: true,
        slo_us: 0,
        ..base
    };
    let what = format!("theta={theta} steal=on");
    trace_tail(f, "serve_skew", &cfg, Arc::new(RandRw), &what);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 2 shards, 2 clients x 200 ops, no think or work time: a cell that
    /// finishes in a few milliseconds.
    fn tiny() -> ServeConfig {
        ServeConfig {
            shards: 2,
            clients: 2,
            ops_per_client: 200,
            keys: 64,
            think_ns: 0,
            work_ns: 0,
            seed: 7,
            ..Default::default()
        }
    }

    #[test]
    fn ab_returns_one_mean_per_arm() {
        let mut seen = Vec::new();
        let ops = interleaved_ab(
            &read_heavy(tiny()),
            2,
            "read mode",
            |cfg, on| cfg.snapshot_reads = on,
            |on, _, m| {
                seen.push(on);
                if on == (m.snapshot_reads > 0) {
                    Ok(())
                } else {
                    Err(format!("{} snapshot reads", m.snapshot_reads))
                }
            },
        );
        assert_eq!(seen, [false, true, false, true], "arms alternate per round");
        assert!(ops.iter().all(|o| o.is_finite() && *o > 0.0), "{ops:?}");
    }

    #[test]
    #[should_panic(expected = "read mode must not change the final heap (round 0)")]
    fn ab_arms_must_share_the_round_seed() {
        interleaved_ab(
            &read_heavy(tiny()),
            1,
            "read mode",
            |cfg, on| {
                cfg.snapshot_reads = on;
                cfg.seed += on as u64;
            },
            |_, _, _| Ok(()),
        );
    }

    #[test]
    #[should_panic(expected = "grouping A/B, arm on, round 1: no groups published")]
    fn ab_check_failure_names_arm_and_round() {
        let mut runs = 0;
        interleaved_ab(
            &tiny(),
            2,
            "grouping",
            |cfg, on| cfg.group_commit = on,
            |_, _, _| {
                runs += 1;
                if runs == 4 {
                    Err("no groups published".into())
                } else {
                    Ok(())
                }
            },
        );
    }

    /// The A/Bs run group commit and the read-heavy mix under NO_DELAY
    /// only; under every policy arm both must conserve requests and the
    /// heap too.
    #[test]
    fn delaying_arms_conserve_under_group_commit_and_the_read_heavy_mix() {
        let grouped = ServeConfig {
            group_commit: true,
            ..tiny()
        };
        for (name, policy) in policy_arms() {
            for cfg in [&grouped, &read_heavy(tiny())] {
                let (r, _) = run_cell(cfg, policy.clone(), name);
                assert_eq!(r.state_sum, r.increments_applied, "{name}");
            }
        }
    }

    #[test]
    fn trace_run_reports_an_unwritable_path() {
        // A directory can never be opened as the export file.
        let dir = std::env::temp_dir();
        let path = dir.to_str().expect("utf-8 temp dir");
        let err = trace_run(&tiny(), Arc::new(RandRw), "tiny", path).unwrap_err();
        assert!(
            err.starts_with(&format!("cannot write {path}: ")),
            "error must name the path: {err}"
        );
    }
}
