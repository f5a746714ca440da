//! A malformed or unknown flag is a usage error: the command exits 2
//! before running anything, with stderr naming the flag — never a panic,
//! and never a table run on defaults because a flag was misspelt.

use std::process::Command;

fn rejects(bin: &str, args: &[&str], expect: &str) {
    let out = Command::new(bin).args(args).output().expect("bin runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert_eq!(stderr.trim_end(), expect, "{args:?}");
    assert!(out.stdout.is_empty(), "{args:?} printed a table");
}

#[test]
fn serve_skew_rejects_malformed_flags() {
    let bin = env!("CARGO_BIN_EXE_serve_skew");
    rejects(
        bin,
        &["--theta", "0.6,x"],
        "serve_skew: --theta: cannot parse 'x'",
    );
    rejects(
        bin,
        &["--slo-us", "abc"],
        "serve_skew: --slo-us: cannot parse 'abc'",
    );
    rejects(
        bin,
        &["--steal", "maybe"],
        "serve_skew: --steal: expected on|off|both, got 'maybe'",
    );
    rejects(
        bin,
        &["--policy", "nope"],
        "serve_skew: --policy: unknown policy 'nope'; one of: no-delay, no-delay-ra, tuned, \
         det, det-ra, rand-rw, rand-rw-uniform, rand-ra, rand-rw-mean, rand-ra-mean, hybrid",
    );
}

#[test]
fn serve_and_serve_load_reject_a_bad_read_fraction() {
    for (bin, name) in [
        (env!("CARGO_BIN_EXE_serve"), "serve"),
        (env!("CARGO_BIN_EXE_serve_load"), "serve_load"),
    ] {
        rejects(
            bin,
            &["--read-fraction", "x"],
            &format!("{name}: --read-fraction: cannot parse 'x'"),
        );
    }
}

#[test]
fn tcp_rejects_flags_a_command_does_not_take() {
    let tcp = |args: &str, err: &str| {
        let args: Vec<&str> = args.split_whitespace().collect();
        let expect = format!("error: {err}\nrun `tcp help` for usage");
        rejects(env!("CARGO_BIN_EXE_tcp"), &args, &expect)
    };
    tcp("fig2a --qiuck", "unknown flag --qiuck; one of: --quick");
    tcp(
        "sim --thread 4",
        "unknown flag --thread; one of: --workload, --policy, --threads, --horizon, --mode, \
         --mesh, --per-hop, --chain-aware, --no-backoff, --seed, --mu, --delay, --skew",
    );
    tcp("list --quick", "unknown flag --quick (takes no flags)");
}

#[test]
fn serving_sweeps_reject_unknown_flags() {
    let shape = "--quick, --trace, --group-commit, --read-heavy, --read-fraction";
    let skew = "--quick, --theta, --slo-us, --steal, --policy, --trace";
    for (bin, name, known) in [
        (env!("CARGO_BIN_EXE_serve"), "serve", shape),
        (env!("CARGO_BIN_EXE_serve_load"), "serve_load", shape),
        (env!("CARGO_BIN_EXE_serve_skew"), "serve_skew", skew),
    ] {
        let expect = format!("{name}: unknown flag --qick; one of: {known}");
        rejects(bin, &["--qick"], &expect);
    }
}
