//! Golden results of the Corollary 1 and Corollary 2 kernels, to the last
//! bit, captured while `run_global` still called `policy.grace` itself and
//! `run_progress` still inflated through its own backoff wrapper. Moving
//! both onto `ConflictArbiter` is only a refactor if every consultation
//! sees the same conflict and draws the same grace, so this file has to
//! pass unmodified on both sides of that change.
//!
//! Capture with `GOLDEN_PRINT=1 cargo test -p tcp-analysis --test golden
//! -- --nocapture`.

use tcp_analysis::global_model::{
    run_global, EarlyStrike, GlobalConfig, InterruptAdversary, LateStrike, UniformStrike,
};
use tcp_analysis::progress_exp::{run_progress, ProgressConfig};
use tcp_core::policy::GracePolicy;
use tcp_core::randomized::{RandRa, RandRw};
use tcp_workloads::dist::Exponential;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Print the row when capturing, else compare.
fn pin(name: &str, got: &[u64], expected: &[u64]) {
    if std::env::var_os("GOLDEN_PRINT").is_some() {
        let hex: Vec<String> = got.iter().map(|b| format!("{b:#018x}")).collect();
        println!("GOLDEN {name} [{}]", hex.join(", "));
        return;
    }
    assert_eq!(got, expected, "{name}");
}

/// `(ratio, waste, online_conflict_cost)` of one `corollary1`-shaped run
/// (8 threads, Exp(400) lengths, cleanup 100, k = 2), as bit patterns.
fn global(adversary: &dyn InterruptAdversary, policy: &dyn GracePolicy) -> [u64; 3] {
    let lens = Exponential::with_mean(400.0);
    let cfg = GlobalConfig {
        threads: 8,
        txns_per_thread: 500,
        lengths: &lens,
        conflicts_per_txn: 1.5,
        cleanup: 100.0,
        chain: 2,
        seed: 42,
    };
    let r = run_global(&cfg, adversary, policy);
    [
        r.ratio.to_bits(),
        r.waste.to_bits(),
        r.online_conflict_cost.to_bits(),
    ]
}

#[test]
fn corollary1_kernel() {
    let adversaries: [&dyn InterruptAdversary; 3] = [&UniformStrike, &EarlyStrike, &LateStrike];
    let policies: [&dyn GracePolicy; 2] = [&RandRw, &RandRa];
    // Rows: adversary-major, policy-minor.
    #[rustfmt::skip]
    let pinned: [[u64; 3]; 6] = [
        [0x3ff5529c471e5e90, 0x3fe05d441f65c58b, 0x4138da7d7d0da7c9],
        [0x3ff318ceed6db27c, 0x3fe05d441f65c58b, 0x4133b376d877f67f],
        [0x3ff4092dd8e892c4, 0x3fd577f58d4dbdb9, 0x413016f71a88f844],
        [0x3ff25732e4df39f8, 0x3fd577f58d4dbdb9, 0x41296829ae229c8a],
        // D ≈ 0: every grace outlasts the receiver, so online = OPT.
        [0x3ff0000000000000, 0x3e19d6a3fc6925a3, 0x3f6352fc28399d8f],
        [0x3ff0000000000000, 0x3e19d6a3fc6925a3, 0x3f6352fc28399d8f],
    ];
    let mut expected = pinned.iter();
    for adv in adversaries {
        for policy in policies {
            let name = format!("global/{}/{}", adv.name(), policy.name());
            pin(&name, &global(adv, policy), expected.next().unwrap());
        }
    }
}

/// FNV-1a over the little-endian attempt counts of one `corollary2`-shaped
/// run (y = 200, γ = 4, B = 50, k = 2), and the within-bound fraction's
/// bits.
fn progress<P: GracePolicy>(policy: P, seed: u64) -> [u64; 2] {
    let cfg = ProgressConfig {
        y: 200.0,
        gamma: 4,
        b: 50.0,
        k: 2,
        max_attempts: 400,
    };
    let r = run_progress(&cfg, policy, 1_000, seed);
    let bytes: Vec<u8> = r.attempts.iter().flat_map(|a| a.to_le_bytes()).collect();
    [fnv1a(&bytes), r.frac_within_bound.to_bits()]
}

#[test]
fn corollary2_kernel() {
    pin(
        "progress/rrw",
        &progress(RandRw, 42),
        &[0xf34d37104c4bcaa5, 0x3fef6c8b43958106],
    );
    pin(
        "progress/rra",
        &progress(RandRa, 43),
        &[0x9ea63aa87274f00b, 0x3fefd70a3d70a3d7],
    );
}
