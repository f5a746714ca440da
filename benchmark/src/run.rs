//! The `run` subcommand: warm up, run the timed rounds round-robin across
//! the selected workloads, then (unless `--trace 0`) one traced round per
//! workload and the layer probes; check, summarise, print, write.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::json::Json;
use crate::manifest::{Manifest, MetricSpec};
use crate::probe::{self, Probe};
use crate::round::Round;
use crate::serve::{ServeSpec, SERVE_CLOSED, SERVE_OPEN, SERVE_SCAN};
use crate::stats::{sig6, Summary};
use crate::stm::{StmSpec, STM_CONTEND, STM_DISJOINT};
use crate::{host, sim, trace};

pub enum Workload {
    Serve(&'static ServeSpec),
    Stm(&'static StmSpec),
    Sim,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload::Serve(&SERVE_CLOSED),
    Workload::Serve(&SERVE_SCAN),
    Workload::Serve(&SERVE_OPEN),
    Workload::Stm(&STM_CONTEND),
    Workload::Stm(&STM_DISJOINT),
    Workload::Sim,
];

impl Workload {
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Serve(spec) => spec.name,
            Workload::Stm(spec) => spec.name,
            Workload::Sim => "sim_repro",
        }
    }

    fn round(&self, seed: u64, secs: f64, trace: Option<Instant>) -> Round {
        match self {
            Workload::Serve(spec) => spec.round(seed, secs, trace),
            Workload::Stm(spec) => spec.round(seed, secs, trace),
            Workload::Sim => sim::round(seed, secs, trace),
        }
    }

    /// The inline replay behind the `budget.*` lines: closed-loop serving
    /// workloads only.
    fn replay(&self, seed: u64, secs: f64, epoch: Instant) -> Option<Round> {
        match self {
            Workload::Serve(spec) if !spec.is_open() => Some(spec.replay(seed, secs, epoch)),
            _ => None,
        }
    }
}

pub struct Options {
    pub seed: u64,
    /// Timed seconds per workload (split over the rounds).
    pub seconds: f64,
    /// Run only this workload.
    pub only: Option<String>,
    /// `Some(false)`: timed rounds only, result line with the end-to-end
    /// metrics. `Some(true)`: per-layer pass, result line with the
    /// per-layer metrics. `None`: everything, as a table.
    pub trace: Option<bool>,
    /// 1 round × 0.3 s, checks still on.
    pub quick: bool,
    pub out: Option<PathBuf>,
}

/// How a run spends its seconds.
struct Plan {
    rounds: usize,
    round_s: f64,
    warmup_s: f64,
    probe_scale: f64,
}

impl Plan {
    fn of(opts: &Options) -> Plan {
        if opts.quick {
            return Plan {
                rounds: 1,
                round_s: 0.3,
                warmup_s: 0.05,
                probe_scale: 0.05,
            };
        }
        // One-second rounds (three shorter ones below 3 s). What varies is
        // the instance, not the time inside it: on this box the closed
        // loops' ops/s differs by +-7% from one fresh instance to the next
        // whether a round lasts 0.5, 1 or 2 s. So a run's median steadies
        // with the number of rounds, not with their length. A per-layer
        // pass keeps three untraced rounds as the baseline its traced
        // round is compared to.
        let rounds = (opts.seconds.round() as usize).max(3);
        Plan {
            rounds: if opts.trace == Some(true) { 3 } else { rounds },
            round_s: opts.seconds / rounds as f64,
            warmup_s: 0.1,
            probe_scale: 1.0,
        }
    }
}

/// Everything measured for one workload.
#[derive(Default)]
struct Collected {
    /// Metric name → one value per timed round (or per traced pass).
    samples: BTreeMap<&'static str, Vec<f64>>,
    attempted: u64,
    failed: u64,
}

impl Collected {
    fn absorb(&mut self, round: &Round) {
        for &(name, value) in &round.values {
            self.samples.entry(name).or_default().push(value);
        }
    }

    fn median(&self, name: &str) -> Option<f64> {
        self.samples.get(name).map(|v| crate::stats::median(v))
    }
}

fn summary_json(unit: &str, samples: &[f64]) -> Json {
    let s = Summary::of(samples);
    Json::obj([
        ("unit", Json::Str(unit.into())),
        ("median", Json::Num(s.median)),
        ("q1", Json::Num(s.q1)),
        ("q3", Json::Num(s.q3)),
        ("min", Json::Num(s.min)),
        ("max", Json::Num(s.max)),
        ("n", Json::Num(s.n as f64)),
        ("samples", Json::nums(samples)),
    ])
}

fn print_row(scope: &str, name: &str, unit: &str, samples: &[f64]) {
    let s = Summary::of(samples);
    println!(
        "{scope:<13} {name:<34} {unit:<9} median {:>14}  q1 {:>14}  q3 {:>14}  min {:>14}  max {:>14}  n {}",
        sig6(s.median),
        sig6(s.q1),
        sig6(s.q3),
        sig6(s.min),
        sig6(s.max),
        s.n
    );
}

/// What a run measured, per selected workload, plus the probes.
struct Measured<'a> {
    workloads: Vec<(&'a Workload, Collected)>,
    probes: Vec<Probe>,
    /// Correctness checks that did not hold.
    failures: Vec<String>,
}

fn select(only: Option<&str>) -> Result<Vec<&'static Workload>, String> {
    let selected: Vec<_> = WORKLOADS
        .iter()
        .filter(|w| only.is_none_or(|only| only == w.name()))
        .collect();
    if selected.is_empty() {
        let names: Vec<_> = WORKLOADS.iter().map(Workload::name).collect();
        return Err(format!(
            "unknown workload '{}'; valid: {}",
            only.unwrap_or_default(),
            names.join(", ")
        ));
    }
    Ok(selected)
}

/// The traced pass of one workload: a traced round (of which only what
/// tracing adds is kept — end-to-end numbers never come from it), the
/// inline replay where there is one, and the trace file.
fn traced_pass(
    w: &Workload,
    c: &mut Collected,
    seed: u64,
    secs: f64,
    epoch: Instant,
    failures: &mut Vec<String>,
) -> Result<(), String> {
    let untraced_ops_s = c.median("ops_s").unwrap_or(0.0);
    let mut traced = w.round(seed, secs, Some(epoch));
    let traced_ops_s = traced.get("ops_s").unwrap_or(0.0);
    let mut spans = std::mem::take(&mut traced.spans);
    traced
        .values
        .retain(|(name, _)| name.starts_with("trace.") || name.ends_with("_span_ns"));
    traced.put(
        "trace.overhead_pct",
        100.0 * (untraced_ops_s - traced_ops_s) / untraced_ops_s,
    );
    if traced.get("trace.spans_dropped").unwrap_or(0.0) > 0.0 {
        failures.push(format!("{}: spans dropped", w.name()));
    }
    c.absorb(&traced);
    failures.extend(traced.failures);
    if let Some(mut replay) = w.replay(seed, secs, epoch) {
        let side = |name| replay.get(name).unwrap_or(0.0);
        let sides = side("budget.client_side_ns").max(side("budget.executor_side_ns"));
        let measured = 1e9 / untraced_ops_s;
        replay.put("budget.measured_ns_per_op", measured);
        replay.put("budget.residual_ns", measured - sides);
        spans.append(&mut replay.spans);
        c.absorb(&replay);
        failures.extend(replay.failures);
    }
    let path = Path::new("benchmark/out").join(format!("trace_{}.json", w.name()));
    write_file(&path, |file| trace::write_chrome(file, &spans))
}

fn measure(opts: &Options, plan: &Plan, manifest: &Manifest) -> Result<Measured<'static>, String> {
    let mut failures: Vec<String> = Vec::new();
    let mut workloads: Vec<(&Workload, Collected)> = select(opts.only.as_deref())?
        .into_iter()
        .map(|w| (w, Collected::default()))
        .collect();

    // Warm-up: one short discarded round each (code paged in, allocator
    // and branch predictors warm); its checks still count.
    for (w, _) in &workloads {
        failures.extend(w.round(opts.seed, plan.warmup_s, None).failures);
    }
    // Timed rounds, interleaved round-robin so slow drift of the host
    // lands on every workload alike.
    for r in 0..plan.rounds {
        for (w, c) in &mut workloads {
            eprintln!("round {}/{}: {}", r + 1, plan.rounds, w.name());
            let round = w.round(opts.seed, plan.round_s, None);
            c.absorb(&round);
            c.attempted += round.attempted;
            c.failed += round.failed;
            failures.extend(round.failures);
        }
    }
    let mut probes = Vec::new();
    if opts.trace != Some(false) {
        let epoch = Instant::now();
        for (w, c) in &mut workloads {
            eprintln!("traced round: {}", w.name());
            traced_pass(w, c, opts.seed, plan.round_s, epoch, &mut failures)?;
        }
        eprintln!("probes");
        probes = probe::run_all(opts.seed, plan.probe_scale);
    }
    for (w, c) in &workloads {
        for spec in &manifest.end_to_end {
            let samples = c.samples.get(spec.name.as_str());
            if samples.is_none_or(|s| s.iter().any(|v| !v.is_finite() || *v <= 0.0)) {
                failures.push(format!(
                    "{}: {} missing or not positive",
                    w.name(),
                    spec.name
                ));
            }
        }
    }
    Ok(Measured {
        workloads,
        probes,
        failures,
    })
}

/// The table: every metric by name with unit, median, quartiles, min/max
/// and sample count.
fn print_table(m: &Measured, manifest: &Manifest) {
    for (w, c) in &m.workloads {
        for spec in &manifest.end_to_end {
            if let Some(samples) = c.samples.get(spec.name.as_str()) {
                print_row(w.name(), &spec.name, &spec.unit, samples);
            }
        }
        for spec in &manifest.per_layer {
            if let Some(samples) = c.samples.get(spec.name.as_str()) {
                print_row(w.name(), &spec.name, &spec.unit, samples);
            }
        }
        println!(
            "{:<13} attempted {}  failed {}",
            w.name(),
            c.attempted,
            c.failed
        );
    }
    for p in &m.probes {
        print_row("probe", p.name, p.unit, &p.samples);
    }
    for f in &m.failures {
        println!("CHECK FAILED: {f}");
    }
    let verdict = if m.failures.is_empty() {
        "all passed"
    } else {
        "FAILED"
    };
    println!("checks: {verdict}");
}

/// The results file `compare` reads.
fn results_doc(m: &Measured, manifest: &Manifest, opts: &Options, plan: &Plan) -> Json {
    let section = |c: &Collected, specs: &[MetricSpec]| {
        Json::obj(specs.iter().filter_map(|spec| {
            c.samples
                .get(spec.name.as_str())
                .map(|s| (spec.name.clone(), summary_json(&spec.unit, s)))
        }))
    };
    Json::obj([
        ("host", host::describe(opts.seed)),
        ("seconds", Json::Num(opts.seconds)),
        ("rounds", Json::Num(plan.rounds as f64)),
        ("round_seconds", Json::Num(plan.round_s)),
        ("correct", Json::Bool(m.failures.is_empty())),
        (
            "failures",
            Json::Arr(m.failures.iter().cloned().map(Json::Str).collect()),
        ),
        (
            "workloads",
            Json::obj(m.workloads.iter().map(|(w, c)| {
                (
                    w.name(),
                    Json::obj([
                        ("attempted", Json::Num(c.attempted as f64)),
                        ("failed", Json::Num(c.failed as f64)),
                        ("end_to_end", section(c, &manifest.end_to_end)),
                        ("per_layer", section(c, &manifest.per_layer)),
                    ]),
                )
            })),
        ),
        (
            "probes",
            Json::obj(
                m.probes
                    .iter()
                    .map(|p| (p.name, summary_json(p.unit, &p.samples))),
            ),
        ),
    ])
}

/// The contract's result line for the one selected workload: `specs` is
/// the end-to-end list (`--trace 0`) or the per-layer list (`--trace 1`,
/// where a metric that does not apply to this workload reads 0).
fn result_line(m: &Measured, specs: &[MetricSpec]) -> Json {
    let (_, c) = &m.workloads[0];
    let metrics = Json::obj(specs.iter().map(|spec| {
        let probe = || m.probes.iter().find(|p| p.name == spec.name);
        let value = c
            .median(&spec.name)
            .or_else(|| probe().map(|p| crate::stats::median(&p.samples)))
            .unwrap_or(0.0);
        (
            spec.name.clone(),
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::Str(spec.unit.clone())),
            ]),
        )
    }));
    Json::obj([
        ("correct", Json::Bool(m.failures.is_empty())),
        ("attempted", Json::Num(c.attempted.max(1) as f64)),
        ("failed", Json::Num(c.failed as f64)),
        ("metrics", metrics),
    ])
}

/// The `probe` subcommand: only the layer microbenches.
pub fn probe(opts: &Options) {
    for p in probe::run_all(opts.seed, Plan::of(opts).probe_scale) {
        print_row("probe", p.name, p.unit, &p.samples);
    }
}

/// Run the benchmark; `Ok(true)` when every correctness check held.
pub fn run(opts: &Options) -> Result<bool, String> {
    let manifest = Manifest::load();
    if host::nproc() < 2 {
        return Err(format!(
            "the load discipline needs 2 busy threads on 2 cores; this host has {}",
            host::nproc()
        ));
    }
    if opts.trace.is_some() && select(opts.only.as_deref())?.len() != 1 {
        return Err("--trace prints one workload's result line: give --workload too".into());
    }
    let plan = Plan::of(opts);
    let measured = measure(opts, &plan, &manifest)?;
    print_table(&measured, &manifest);

    let default_out = || PathBuf::from("benchmark/out/results.json");
    if let Some(path) = opts
        .out
        .clone()
        .or_else(|| opts.trace.is_none().then(default_out))
    {
        let doc = results_doc(&measured, &manifest, opts, &plan);
        write_file(&path, |mut file| {
            std::io::Write::write_all(&mut file, doc.pretty().as_bytes())
        })?;
        println!("results: {}", path.display());
    }
    match opts.trace {
        Some(true) => println!("{}", result_line(&measured, &manifest.per_layer)),
        Some(false) => println!("{}", result_line(&measured, &manifest.end_to_end)),
        None => {}
    }
    Ok(measured.failures.is_empty())
}

fn write_file(
    path: &Path,
    write: impl FnOnce(std::fs::File) -> std::io::Result<()>,
) -> Result<(), String> {
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(io)?;
    }
    write(std::fs::File::create(path).map_err(io)?).map_err(io)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(seconds: f64, trace: Option<bool>, quick: bool) -> (usize, f64) {
        let p = Plan::of(&Options {
            seed: 1,
            seconds,
            only: None,
            trace,
            quick,
            out: None,
        });
        (p.rounds, p.round_s)
    }

    #[test]
    fn seconds_split_into_rounds() {
        assert_eq!(plan(10.0, None, false), (10, 1.0));
        assert_eq!(plan(10.0, Some(false), false), (10, 1.0));
        // A per-layer pass keeps three untraced baseline rounds.
        assert_eq!(plan(10.0, Some(true), false), (3, 1.0));
        assert_eq!(plan(3.0, None, false), (3, 1.0));
        assert_eq!(plan(1.5, None, false), (3, 0.5));
        assert_eq!(plan(60.0, None, false), (60, 1.0));
        assert_eq!(plan(10.0, None, true), (1, 0.3));
    }

    /// Every workload, untraced and traced, on a round too short to
    /// measure anything but long enough to exercise every check.
    #[test]
    fn every_workload_passes_its_checks_and_reports_every_end_to_end_metric() {
        if host::nproc() < 2 {
            return; // the load discipline needs two cores
        }
        let manifest = Manifest::load();
        for w in &WORKLOADS {
            for trace in [None, Some(Instant::now())] {
                let round = w.round(7, 0.05, trace);
                assert_eq!(round.failures, Vec::<String>::new(), "{}", w.name());
                assert!(round.attempted > 0 && round.failed == 0, "{}", w.name());
                for spec in &manifest.end_to_end {
                    let v = round.get(&spec.name);
                    assert!(v.is_some_and(|v| v > 0.0), "{} {}", w.name(), spec.name);
                }
                assert_eq!(trace.is_some(), !round.spans.is_empty(), "{}", w.name());
                if trace.is_some() {
                    assert_eq!(round.get("trace.spans_dropped"), Some(0.0), "{}", w.name());
                }
            }
            if let Some(replay) = w.replay(7, 0.05, Instant::now()) {
                assert_eq!(replay.failures, Vec::<String>::new(), "{} replay", w.name());
                assert!(replay.get("budget.client_side_ns").is_some_and(|v| v > 0.0));
            }
        }
    }

    /// Whatever a round reports must be a name `BENCHMARK.json` lists, and
    /// whatever it lists must come from a round or a probe.
    #[test]
    fn reported_names_and_manifest_names_agree() {
        if host::nproc() < 2 {
            return;
        }
        let manifest = Manifest::load();
        let listed: Vec<&str> = manifest
            .end_to_end
            .iter()
            .chain(&manifest.per_layer)
            .map(|s| s.name.as_str())
            .collect();
        let mut reported: Vec<&str> = vec![
            "trace.overhead_pct",
            "budget.measured_ns_per_op",
            "budget.residual_ns",
        ];
        let epoch = Instant::now();
        for w in &WORKLOADS {
            reported.extend(w.round(3, 0.02, Some(epoch)).values.iter().map(|v| v.0));
            if let Some(replay) = w.replay(3, 0.02, epoch) {
                reported.extend(replay.values.iter().map(|v| v.0));
            }
        }
        let probes = probe::run_all(3, 0.001);
        reported.extend(probes.iter().map(|p| p.name));
        for name in &reported {
            assert!(listed.contains(name), "{name} is reported but not listed");
        }
        for name in &listed {
            assert!(
                reported.contains(name),
                "{name} is listed but never reported"
            );
        }
        for p in &probes {
            assert_eq!(p.samples.len(), probe::BATCHES, "{}", p.name);
            let unit = &manifest
                .per_layer
                .iter()
                .find(|s| s.name == p.name)
                .unwrap()
                .unit;
            assert_eq!(unit, p.unit, "{}", p.name);
        }
    }
}
