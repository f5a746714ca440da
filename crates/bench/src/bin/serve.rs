//! Extension: the serving-path sweep. Run the sharded transactional KV
//! service under closed-loop load and compare grace policies on
//! throughput *and* tail latency across shard counts — the paper's
//! wait-vs-abort trade-off measured on a service instead of a simulator.
//!
//! Arms: always-abort (`NO_DELAY`, the HTM default), the deterministic §6
//! strategy (`DET`), and the randomized §5 strategy (`RRW`). Latency
//! columns decompose the sojourn time the executors measure: `qw*` = queue
//! wait (enqueue → pop), `p*` = sojourn (enqueue → response).
//!
//! `--group-commit` runs the whole sweep with batch-aware group commit
//! (one clock bump per write-set-disjoint group). Independently of that
//! flag, a `# group_commit_ab:` line follows the table: an interleaved
//! group-on/group-off A/B under NO_DELAY, counter-verified via the STM's
//! clock — `bumps_per_commit_group_on` is the "clock bumps per committed
//! tx" number, which must sit below 1.0 under batching.
//!
//! Workload-shape flags: `--read-fraction <f>` overrides the base mix;
//! `--read-heavy` applies the 90/10-with-scans preset (`read=0.9`,
//! `rmw=0.05`, `scan=0.1@16` keys). Independently of those, a
//! `# snapshot_ab:` line reports an interleaved snapshot-on/off A/B on the
//! read-heavy mix whose arms must agree on the final heap checksum, with
//! the snapshot arm counter-verified to take zero read-side aborts — plus
//! a pure-read run asserting the fast path never consults the conflict
//! arbiter.
//!
//! `--trace <path>` adds one fully-traced run (Perfetto export to `path`,
//! trace summary and per-interval table on stdout). Nothing else is
//! written; whether a change made serving faster is `benchmark/`'s job.

use std::sync::Arc;

use tcp_bench::cell::{interleaved_ab, policy_arms, read_heavy, run_cell, shaped_args, trace_run};
use tcp_bench::report::Json;
use tcp_bench::table;
use tcp_core::policy::NoDelay;
use tcp_core::randomized::RandRw;
use tcp_server::prelude::ServeConfig;

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

fn main() {
    let (base, flags) = shaped_args(|quick| ServeConfig {
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
    })
    .unwrap_or_else(|e| {
        eprintln!("serve: {e}");
        std::process::exit(2);
    });
    let quick = flags.flag("quick");
    let shard_counts: &[usize] = if quick { &[2, 4] } else { &[2, 4, 8] };
    base.validate();
    println!(
        "# serve: sharded KV, {} closed-loop clients x {} ops, \
         keys={}, zipf_s={}, read={}, rmw={}@{} keys, work={}ns, cap={}, batch={}, \
         group_commit={} (latencies in ns; qw = queue wait, p = sojourn)",
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
        base.group_commit
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
    if let Some(path) = flags.get("trace") {
        let what = format!("RRW, {} shards", first.shards);
        if let Err(e) = trace_run(&first, Arc::new(RandRw), &what, path) {
            eprintln!("serve: {e}");
            std::process::exit(1);
        }
    }
}
