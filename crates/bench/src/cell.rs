//! The one cell runner under the three serving sweeps (`serve`,
//! `serve_load`, `serve_skew`): everything the sweeps share beyond their
//! axes lives here once — the conservation asserts every cell carries, the
//! policy arm list, the read-heavy preset, the workload-shape flags, the
//! interleaved A/B loop and the `--trace` tail.
//!
//! The sweeps print tables and assert invariants; they record nothing.
//! Numbers meant to be compared across commits come from `benchmark/`.

use std::sync::Arc;

use tcp_core::engine::EngineStats;
use tcp_core::policy::{DetRw, GracePolicy, NoDelay};
use tcp_core::randomized::RandRw;
use tcp_core::trace::TraceConfig;
use tcp_server::prelude::{run_server, ServeConfig, ServeReport};

use crate::cli::Flags;
use crate::perfetto::{perfetto_json, print_timeseries, trace_summary_json};

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

/// The 90/10-with-scans preset of the `--read-heavy` flag: 90% of non-RMW
/// draws read, 10% of them as multi-key scans, and RMWs trimmed to 5% —
/// the mix where the MVCC snapshot read path carries most of the load.
pub fn read_heavy(base: ServeConfig) -> ServeConfig {
    ServeConfig {
        read_fraction: 0.9,
        rmw_fraction: 0.05,
        scan_fraction: 0.1,
        scan_span: 16,
        ..base
    }
}

/// Apply the workload-shape flags `serve` and `serve_load` share onto
/// `base`: `--group-commit`, `--read-heavy`, then `--read-fraction <f>`
/// (which therefore overrides the preset's read share).
fn shape_flags(flags: &Flags, base: ServeConfig) -> Result<ServeConfig, String> {
    let mut cfg = ServeConfig {
        group_commit: flags.flag("group-commit"),
        ..base
    };
    if flags.flag("read-heavy") {
        cfg = read_heavy(cfg);
    }
    cfg.read_fraction = flags.num("read-fraction", cfg.read_fraction)?;
    Ok(cfg)
}

/// The command line of `serve` / `serve_load`: `base(quick)` under the
/// workload-shape flags, beside the flags themselves (`--quick`,
/// `--trace <path>`). Any other flag is an error.
pub fn shaped_args(base: impl FnOnce(bool) -> ServeConfig) -> Result<(ServeConfig, Flags), String> {
    let flags = Flags::from_env(&[
        "quick",
        "trace",
        "group-commit",
        "read-heavy",
        "read-fraction",
    ])?;
    Ok((shape_flags(&flags, base(flags.flag("quick")))?, flags))
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

/// The `--trace <path>` tail: rerun `cfg` fully traced under `policy`,
/// export the trace to `path` as a Perfetto/chrome://tracing file, and
/// print the trace summary and the per-interval table. `what` names the
/// traced cell. An export that cannot be written is an error naming
/// `path`.
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

    fn flags(s: &str) -> Flags {
        let args: Vec<String> = s.split_whitespace().map(String::from).collect();
        Flags::parse(&args).unwrap()
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

    #[test]
    fn shape_flags_apply_preset_then_override() {
        let plain = shape_flags(&flags(""), tiny()).unwrap();
        assert!(!plain.group_commit);
        assert_eq!(plain.read_fraction, tiny().read_fraction);
        let cfg = shape_flags(
            &flags("--group-commit --read-heavy --read-fraction 0.7"),
            tiny(),
        )
        .unwrap();
        assert!(cfg.group_commit);
        assert_eq!((cfg.read_fraction, cfg.rmw_fraction), (0.7, 0.05));
        assert_eq!((cfg.scan_fraction, cfg.scan_span), (0.1, 16));
        assert_eq!(
            shape_flags(&flags("--read-fraction x"), tiny()).unwrap_err(),
            "--read-fraction: cannot parse 'x'"
        );
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
