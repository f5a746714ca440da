//! Golden digests of the simulator's statistics, captured at the commit
//! *before* the dense-index rewrite of `mem.rs` / `sim.rs` (the HashMap
//! memory system). A change meant only to make the simulator faster must
//! leave every simulated statistic identical, so this file has to pass
//! unmodified on both sides of such a change.
//!
//! The digest is FNV-1a over the `Debug` rendering of the whole
//! [`ShardedStats`]: every field of every per-core and the global
//! `EngineStats`, histogram buckets included (both types derive `Debug`
//! over all their fields). Adding or removing a field of `EngineStats`
//! re-pins the table: run with `GOLDEN_PRINT=1 cargo test -p tcp-htm-sim
//! --test golden -- --nocapture` and paste the printed rows. The table was
//! re-pinned once so, when the four cost-vs-OPT fields (always zero here)
//! moved out into `RegretTally`; every other entry of the rendering was
//! checked unchanged.
//!
//! Only names that exist on both sides are used: `SimConfig::new` and its
//! public fields, `Simulator::{new, run, check_coherence, stats}`, the
//! built-in workloads by constructor.

use std::sync::Arc;

use tcp_core::conflict::ResolutionMode;
use tcp_core::engine::ShardedStats;
use tcp_core::policy::{DetRw, GracePolicy, HandTuned, NoDelay};
use tcp_core::randomized::{RandRa, RandRw};
use tcp_htm_sim::config::SimConfig;
use tcp_htm_sim::sim::Simulator;
use tcp_workloads::programs::{
    FixedProgramsWorkload, ListWorkload, Op, StackWorkload, TxAppWorkload, TxnProgram, WorkloadGen,
};

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn digest(stats: &ShardedStats) -> u64 {
    fnv1a(format!("{stats:?}").as_bytes())
}

/// Run one configuration to its horizon, check coherence, and return the
/// statistics.
fn run(cfg: SimConfig, workload: Arc<dyn WorkloadGen>) -> ShardedStats {
    let mut sim = Simulator::new(cfg, workload);
    sim.run();
    sim.check_coherence().expect("coherence violated");
    sim.stats.clone()
}

/// Compare against the pinned digest, or print the row when capturing.
fn pin(name: &str, stats: &ShardedStats, expected: u64) {
    let got = digest(stats);
    if std::env::var_os("GOLDEN_PRINT").is_some() {
        println!(
            "GOLDEN {name} {got:#018x} commits={} aborts={}",
            stats.commits(),
            stats.aborts()
        );
        return;
    }
    assert_eq!(
        got,
        expected,
        "{name}: digest {got:#018x} != pinned {expected:#018x} \
         (commits {}, aborts {}, conflicts {}, wait {}, latency {}, wasted {}, saved {}, chains {:?})",
        stats.commits(),
        stats.aborts(),
        stats.global.conflicts,
        stats.merged().wait_cycles,
        stats.merged().total_latency,
        stats.merged().wasted_cycles,
        stats.global.saved_by_delay,
        stats.global.chain_hist,
    );
}

/// One of `sim_repro`'s six configurations (benchmark/src/sim.rs): 8 cores,
/// 250 000 cycles, everything else default.
fn repro(workload: Arc<dyn WorkloadGen>, policy: Arc<dyn GracePolicy>, seed: u64) -> ShardedStats {
    let mut cfg = SimConfig::new(8, policy);
    cfg.horizon = 250_000;
    cfg.seed = seed;
    run(cfg, workload)
}

fn stack() -> Arc<dyn WorkloadGen> {
    Arc::new(StackWorkload::default())
}

fn txapp() -> Arc<dyn WorkloadGen> {
    Arc::new(TxAppWorkload::default())
}

#[test]
fn sim_repro_six_configurations_two_seeds() {
    #[rustfmt::skip]
    let pinned: [(&str, u64, [u64; 6]); 2] = [
        ("seed42", 42, [
            0xaecefc43d6b3a47c, 0x965a0bd083a849d8, 0xe52b52568441314d,
            0x4f43286e9bc4be45, 0x97bd9a74442de2d6, 0x76ab8157d9feab4f,
        ]),
        // stack/det_rw never aborts, so it draws nothing: same digest as above.
        ("seed7", 7, [
            0x72a1a537dc3eeb05, 0x965a0bd083a849d8, 0x091605d79946a63f,
            0x5b932f4ca9c89652, 0x20a762d3f68b2624, 0x11b6e8f16036596a,
        ]),
    ];
    for (label, seed, digests) in pinned {
        let mut i = 0;
        for (wname, workload) in [("stack", stack()), ("txapp", txapp())] {
            let policies: [(&str, Arc<dyn GracePolicy>); 3] = [
                ("no_delay", Arc::new(NoDelay::requestor_wins())),
                ("det_rw", Arc::new(DetRw)),
                ("rand_rw", Arc::new(RandRw)),
            ];
            for (pname, policy) in policies {
                let stats = repro(Arc::clone(&workload), policy, seed);
                assert!(stats.commits() > 0);
                pin(&format!("{label}/{wname}/{pname}"), &stats, digests[i]);
                i += 1;
            }
        }
    }
}

#[test]
fn requestor_aborts_with_rand_ra() {
    let mut cfg = SimConfig::new(8, Arc::new(RandRa));
    cfg.horizon = 250_000;
    cfg.seed = 42;
    let stats = run(cfg, stack());
    assert!(stats.commits() > 500);
    pin("rand_ra/stack", &stats, 0x55425af44bbaaa51);
}

#[test]
fn chain_aware_sampling_on_sixteen_cores() {
    let mut cfg = SimConfig::new(16, Arc::new(RandRw));
    cfg.chain_aware = true;
    cfg.horizon = 200_000;
    cfg.seed = 42;
    let stats = run(cfg, stack());
    let long_chains: u64 = stats.global.chain_hist[3..].iter().sum();
    assert!(long_chains > 0, "chain-aware arm never saw k > 2");
    pin("chain_aware/stack16", &stats, 0x7f008ed9a022e65b);
}

#[test]
fn long_fixed_delays_form_chains() {
    let mut cfg = SimConfig::new(
        16,
        Arc::new(HandTuned::new(ResolutionMode::RequestorWins, 500.0)),
    );
    cfg.horizon = 200_000;
    cfg.seed = 7;
    let stats = run(cfg, stack());
    let long_chains: u64 = stats.global.chain_hist[3..].iter().sum();
    assert!(long_chains > 0);
    pin("hand_tuned/stack16", &stats, 0xe992b37f93976a83);
}

#[test]
fn read_sharing_with_many_victims() {
    // A writer's invalidation hits several transactional Shared copies at
    // once: the one path where the victim set has more than one member.
    let mut cfg = SimConfig::new(8, Arc::new(DetRw));
    cfg.horizon = 200_000;
    cfg.seed = 42;
    let stats = run(cfg, Arc::new(ListWorkload::default()));
    assert!(stats.commits() > 0 && stats.aborts() > 0);
    pin("list/det_rw", &stats, 0xeaf141ffde81233e);
}

#[test]
fn small_cache_evicts_on_txapp() {
    // Two-line transactions in a three-line cache never overflow, but every
    // transaction evicts. Capacity only matters through evictions here, so
    // "differs from the default-capacity run" proves the eviction path ran.
    let mut cfg = SimConfig::new(8, Arc::new(RandRw));
    cfg.l1_capacity = 3;
    cfg.horizon = 250_000;
    cfg.seed = 42;
    let stats = run(cfg, txapp());
    let capacity_aborts: u64 = stats.per_thread.iter().map(|c| c.capacity_aborts).sum();
    assert_eq!(capacity_aborts, 0);
    let cycle_aborts: u64 = stats.per_thread.iter().map(|c| c.cycle_aborts).sum();
    assert!(cycle_aborts > 0, "two-object transactions must form cycles");
    let roomy = repro(txapp(), Arc::new(RandRw), 42);
    assert_ne!(
        digest(&stats),
        digest(&roomy),
        "no eviction changed anything"
    );
    pin("l1_capacity3/txapp", &stats, 0x1ff4a14cd7341cad);
}

#[test]
fn small_cache_evicts_and_overflows_on_mixed_footprints() {
    // 39 programs of one to three lines and one of five, in a three-line
    // cache: cores evict their way through the small ones, then each sticks
    // on the oversized program and capacity-aborts until the horizon.
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move |n: u64| {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 33) % n
    };
    let mut programs = Vec::new();
    for _ in 0..39 {
        let mut ops = Vec::new();
        for _ in 0..1 + next(3) {
            let line = next(24);
            ops.push(if next(2) == 0 {
                Op::Read(line)
            } else {
                Op::Write(line)
            });
            ops.push(Op::Compute(5 + next(30) as u32));
        }
        programs.push(TxnProgram { ops });
    }
    programs.push(TxnProgram {
        ops: vec![
            Op::Read(30),
            Op::Read(31),
            Op::Write(32),
            Op::Read(33),
            Op::Write(34),
        ],
    });
    let mut cfg = SimConfig::new(8, Arc::new(RandRw));
    cfg.l1_capacity = 3;
    cfg.horizon = 60_000;
    cfg.seed = 7;
    let stats = run(cfg, Arc::new(FixedProgramsWorkload::new(programs)));
    let capacity_aborts: u64 = stats.per_thread.iter().map(|c| c.capacity_aborts).sum();
    assert!(capacity_aborts > 0, "the five-line program must overflow");
    // Core t commits the 39 - t programs before its oversized one.
    assert_eq!(stats.commits(), (32..=39).sum::<u64>());
    pin("l1_capacity3/mixed", &stats, 0x3e39eb09f71dcdb6);
}

#[test]
fn fallback_after_two_retries() {
    let mut cfg = SimConfig::new(16, Arc::new(NoDelay::requestor_wins()));
    cfg.max_retries = 2;
    cfg.horizon = 200_000;
    cfg.seed = 42;
    let stats = run(cfg, stack());
    assert!(
        stats.merged().fallbacks > 0,
        "max_retries = 2 must fall back"
    );
    pin("max_retries2/stack16", &stats, 0x7a6b58f0369b8e8c);
}
