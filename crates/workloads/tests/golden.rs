//! Golden results of the synthetic testbed, to the last bit, captured at
//! the commit *before* the `k = 2` closed forms went into
//! `tcp_core::pdfs`. Sampling by a cheaper expression is only an
//! optimisation if every draw rounds the same way, so this file has to
//! pass unmodified on both sides of that change.
//!
//! Capture with `GOLDEN_PRINT=1 cargo test -p tcp-workloads --test golden
//! -- --nocapture`.

use tcp_core::policy::{DetRw, GracePolicy};
use tcp_core::randomized::{RandRw, RandRwMean};
use tcp_workloads::dist::Exponential;
use tcp_workloads::synthetic::{run_synthetic, RemainingTime, SyntheticConfig};

/// `(cost_ratio, mean_cost, abort_rate)` as bit patterns.
type Bits = (u64, u64, u64);

/// The `sim_repro` cell (benchmark/src/sim.rs): Fig. 2a, 100 000 trials,
/// Exp(500) lengths, at chain length `chain`.
fn cell(policy: &dyn GracePolicy, chain: usize, seed: u64) -> Bits {
    let cfg = SyntheticConfig {
        trials: 100_000,
        seed,
        chain,
        ..SyntheticConfig::figure2a()
    };
    let dist = Exponential::with_mean(500.0);
    let stats = run_synthetic(&cfg, &RemainingTime::FromLengths(&dist), policy);
    (
        stats.cost_ratio().to_bits(),
        stats.mean_cost().to_bits(),
        stats.abort_rate().to_bits(),
    )
}

fn pin(name: &str, got: Bits, expected: Bits) {
    if std::env::var_os("GOLDEN_PRINT").is_some() {
        println!(
            "GOLDEN {name} ({:#018x}, {:#018x}, {:#018x}) ratio={}",
            got.0,
            got.1,
            got.2,
            f64::from_bits(got.0)
        );
        return;
    }
    assert_eq!(
        got,
        expected,
        "{name}: cost_ratio {} mean_cost {} abort_rate {}",
        f64::from_bits(got.0),
        f64::from_bits(got.1),
        f64::from_bits(got.2)
    );
}

#[test]
fn rand_rw_pair() {
    pin(
        "rand_rw/k2/seed42",
        cell(&RandRw, 2, 42),
        (0x400010463dfa1afe, 0x407f3c1cbcbb7f47, 0x3fc00f66a5508701),
    );
    pin(
        "rand_rw/k2/seed7",
        cell(&RandRw, 2, 7),
        (0x4000071d73d0f86e, 0x407f1aee25b8cd27, 0x3fbfe7c06e19b90f),
    );
}

#[test]
fn det_rw_pair() {
    pin(
        "det_rw/k2/seed42",
        cell(&DetRw, 2, 42),
        (0x3ff0c72fd74bad9d, 0x4070559d2e7d1f6f, 0x3f68d25edd052935),
    );
}

#[test]
fn rand_rw_mean_pair() {
    // µ/B = 0.25 < 2(ln 4 − 1): the constrained log density, sampled by
    // bisection on its CDF.
    pin(
        "rand_rw_mean500/k2/seed42",
        cell(&RandRwMean::new(500.0), 2, 42),
        (0x3ff6b17279de4643, 0x407610170ae9857d, 0x3fa71c970f7b9e06),
    );
}

#[test]
fn rand_rw_chain_of_three() {
    // The general arm: r = (3/2)^2 and a square root per sample.
    pin(
        "rand_rw/k3/seed42",
        cell(&RandRw, 3, 42),
        (0x3ffcdb779e910563, 0x408a8039ed16bacc, 0x3fcb694467381d7e),
    );
}
