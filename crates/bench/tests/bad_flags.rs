//! A malformed or unknown flag is a usage error: the command exits 2
//! before running anything, with stderr naming the flag — never a panic,
//! and never a table run on defaults because a flag was misspelt.

use std::path::Path;
use std::process::Command;

/// Run `tcp args` in `cwd` and check it was refused: exit 2, stderr the
/// driver's error line for `err`, nothing on stdout.
fn rejects_in(cwd: &Path, args: &str, err: &str) {
    let args: Vec<&str> = args.split_whitespace().collect();
    let out = Command::new(env!("CARGO_BIN_EXE_tcp"))
        .args(&args)
        .current_dir(cwd)
        .output()
        .expect("tcp runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    let expect = format!("error: {err}\nrun `tcp help` for usage");
    assert_eq!(stderr.trim_end(), expect, "{args:?}");
    assert!(out.stdout.is_empty(), "{args:?} printed a table");
}

fn rejects(args: &str, err: &str) {
    rejects_in(Path::new("."), args, err)
}

#[test]
fn tcp_rejects_flags_a_command_does_not_take() {
    rejects("fig2a --qiuck", "unknown flag --qiuck; one of: --quick");
    // `sim` takes no `--mode` (the policy names the side that aborts) and
    // no `--mesh` (the latencies are flat).
    for (args, flag) in [
        ("--thread 4", "thread"),
        ("--mode ra", "mode"),
        ("--mesh", "mesh"),
    ] {
        let err = format!(
            "unknown flag --{flag}; one of: --workload, --policy, --threads, --horizon, \
             --chain-aware, --no-backoff, --seed, --mu, --delay, --skew"
        );
        rejects(&format!("sim {args}"), &err);
    }
    rejects("list --quick", "unknown flag --quick (takes no flags)");
    rejects("fig2a --trace x", "unknown flag --trace; one of: --quick");
}

/// Numbers that parse but that a constructor would assert on (a panic,
/// exit 101) or silently clamp or divide by (a wrong or NaN table) are
/// refused the same way.
#[test]
fn out_of_range_numbers_are_refused_naming_the_flag() {
    for t in ["0", "65"] {
        let err = format!("--threads: 1..=64 cores supported, got {t}");
        rejects(&format!("sim --threads {t}"), &err);
    }
    rejects(
        "sim --horizon 0",
        "--horizon: horizon must be at least 1 cycle",
    );
    let k = "--k: must be >= 2 (a conflict involves at least two transactions), got 1";
    rejects("game --k 1", k);
    rejects("synthetic --k 1", k);
    rejects("game --b 0", "--b: must be finite and > 0, got 0");
    rejects("synthetic --b 0", "--b: must be finite and >= 1, got 0");
    rejects("synthetic --trials 0", "--trials: must be >= 1, got 0");
    rejects("game --iters 0", "--iters: must be >= 1, got 0");
    for policy in ["rand-rw-mean", "rand-ra-mean", "hybrid"] {
        let err = "--mu: must be finite and > 0, got 0";
        rejects(&format!("sim --policy {policy} --mu 0"), err);
    }
    for (delay, shown) in [("-5", "-5"), ("nan", "NaN")] {
        let err = format!("--delay: must be finite and >= 0, got {shown}");
        rejects(&format!("sim --policy tuned --delay {delay}"), &err);
    }
    for (skew, shown) in [("-1", "-1"), ("nan", "NaN")] {
        let err = format!("--skew: must be finite and >= 0, got {shown}");
        rejects(&format!("sim --workload txapp-skewed --skew {skew}"), &err);
    }
}

#[test]
fn serving_sweeps_reject_unknown_flags() {
    for row in ["serve", "serve_load", "serve_skew"] {
        let err = "unknown flag --qick; one of: --quick, --trace";
        rejects(&format!("{row} --qick"), err);
    }
}

/// A bare `--trace` would read as the path "true" and leave `./true`
/// behind; it must be refused before anything runs, creating no file.
#[test]
fn serving_rows_refuse_a_bare_trace() {
    let cwd = std::env::temp_dir().join(format!("tcp_bare_trace_{}", std::process::id()));
    std::fs::create_dir_all(&cwd).expect("temp cwd");
    for row in ["serve", "serve_load", "serve_skew"] {
        for args in ["--quick --trace", "--trace --quick"] {
            rejects_in(&cwd, &format!("{row} {args}"), "--trace: missing <path>");
        }
    }
    let left: Vec<_> = std::fs::read_dir(&cwd).expect("temp cwd").collect();
    assert!(left.is_empty(), "a refused run created {left:?}");
    std::fs::remove_dir(&cwd).expect("temp cwd is empty");
}
