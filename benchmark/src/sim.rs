//! `sim_repro`: the paper-reproduction path on one thread — the HTM
//! simulator's event loop over two Fig. 3 workloads × three policies, then
//! the synthetic conflict testbed in its Fig. 2a configuration.
//!
//! Everything here is deterministic in the seed, so a round is whole
//! passes of the same eight calls and every pass must reproduce the first
//! pass's counts exactly.

use std::sync::Arc;
use std::time::Instant;

use tcp_core::competitive::{det_rw_ratio, rand_rw_ratio};
use tcp_core::policy::{DetRw, GracePolicy, NoDelay};
use tcp_core::randomized::RandRw;
use tcp_htm_sim::config::SimConfig;
use tcp_htm_sim::sim::Simulator;
use tcp_workloads::dist::Exponential;
use tcp_workloads::programs::{StackWorkload, TxAppWorkload, WorkloadGen};
use tcp_workloads::synthetic::{run_synthetic, RemainingTime, SyntheticConfig};

use crate::round::Round;
use crate::stats::{median, percentile};
use crate::trace::{NoTrace, Sink, Tracer};

const CORES: usize = 8;
/// Simulated cycles per `Simulator::run` call: a pass of eight calls takes
/// ~50 ms, so a 2-second round times ~300 calls — enough for a p95 with
/// more than ten samples beyond it.
const HORIZON: u64 = 250_000;
/// Trials per synthetic cell: the Monte-Carlo error of the cost ratio at
/// this count is well inside [`RATIO_TOLERANCE`].
const SYNTHETIC_TRIALS: usize = 100_000;
const RATIO_TOLERANCE: f64 = 0.05;

/// The counts one pass produces; equal across passes of one seed.
#[derive(Clone, Debug, Default, PartialEq)]
struct PassCounts {
    commits: u64,
    aborts: u64,
    conflicts: u64,
    saved_by_delay: u64,
    /// Empirical cost ratios, compared bit for bit.
    ratio_rrw: u64,
    ratio_det: u64,
}

fn policies() -> [(&'static str, Arc<dyn GracePolicy>); 3] {
    [
        ("no_delay", Arc::new(NoDelay::requestor_wins())),
        ("det_rw", Arc::new(DetRw)),
        ("rand_rw", Arc::new(RandRw)),
    ]
}

/// Times each call into the program: wall time to `ns`, span to `sink`.
struct Calls<'a, S: Sink> {
    ns: &'a mut Vec<u32>,
    sink: &'a mut S,
    made: u64,
}

impl<S: Sink> Calls<'_, S> {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        let ns = t.elapsed().as_nanos() as u64;
        self.ns.push(ns.min(u32::MAX as u64) as u32);
        let end = self.sink.now();
        self.sink.span(name, end.saturating_sub(ns), end, self.made);
        self.made += 1;
        out
    }
}

/// One pass: build the six simulators (returned as this pass's set-up
/// time), run them, then two synthetic cells.
fn pass<S: Sink>(seed: u64, calls: &mut Calls<'_, S>, round: &mut Round) -> (f64, PassCounts) {
    let t0 = Instant::now();
    let workloads: [Arc<dyn WorkloadGen>; 2] = [
        Arc::new(StackWorkload::default()),
        Arc::new(TxAppWorkload::default()),
    ];
    let mut sims = Vec::with_capacity(6);
    for workload in &workloads {
        for (policy_name, policy) in policies() {
            let mut cfg = SimConfig::new(CORES, policy);
            cfg.horizon = HORIZON;
            cfg.seed = seed;
            let sim = Simulator::new(cfg, Arc::clone(workload));
            sims.push((workload.name(), policy_name, sim));
        }
    }
    let cfg = SyntheticConfig {
        trials: SYNTHETIC_TRIALS,
        seed,
        ..SyntheticConfig::figure2a()
    };
    let dist = Exponential::with_mean(500.0);
    let remaining = RemainingTime::FromLengths(&dist);
    let setup_s = t0.elapsed().as_secs_f64();

    let mut counts = PassCounts::default();
    for (workload, policy, mut sim) in sims {
        calls.time("htm-sim.run", || {
            sim.run();
        });
        let coherent = sim.check_coherence();
        round.check(coherent.is_ok(), || {
            format!("sim_repro: {workload}/{policy} incoherent: {coherent:?}")
        });
        counts.commits += sim.stats.commits();
        counts.aborts += sim.stats.aborts();
        counts.conflicts += sim.stats.global.conflicts;
        counts.saved_by_delay += sim.stats.global.saved_by_delay;
    }
    let mut ratio = |policy: &dyn GracePolicy| {
        calls
            .time("workloads.run_synthetic", || {
                run_synthetic(&cfg, &remaining, policy).cost_ratio()
            })
            .to_bits()
    };
    counts.ratio_rrw = ratio(&RandRw);
    counts.ratio_det = ratio(&DetRw);
    (setup_s, counts)
}

/// Span-buffer capacity for a traced round of `secs` seconds.
fn traced_capacity(secs: f64) -> usize {
    // Eight calls per pass; a pass takes tens of milliseconds.
    8 * (200.0 * secs) as usize + 64
}

/// One round: whole passes until `secs` have elapsed. `ops_s` counts
/// simulated commits against the time spent inside the program's calls.
pub fn round(seed: u64, secs: f64, trace: Option<Instant>) -> Round {
    match trace {
        None => run_passes(seed, secs, &mut NoTrace),
        Some(epoch) => {
            let mut tracer = Tracer::new(epoch, 0, traced_capacity(secs));
            let root = tracer.open("sim.round");
            let mut round = run_passes(seed, secs, &mut tracer);
            tracer.close(root);
            round.put("trace.spans", tracer.spans.len() as f64);
            round.put("trace.spans_dropped", tracer.dropped as f64);
            round.spans.push(tracer.spans);
            round
        }
    }
}

fn run_passes<S: Sink>(seed: u64, secs: f64, sink: &mut S) -> Round {
    let mut round = Round::default();
    let mut ns = Vec::with_capacity(traced_capacity(secs));
    let mut calls = Calls {
        ns: &mut ns,
        sink,
        made: 0,
    };
    let start = Instant::now();
    let mut setups = Vec::new();
    let mut first: Option<PassCounts> = None;
    let mut passes = 0u64;
    while passes == 0 || start.elapsed().as_secs_f64() < secs {
        let (setup_s, counts) = pass(seed, &mut calls, &mut round);
        setups.push(setup_s);
        match &first {
            None => first = Some(counts),
            Some(f) => round.check(*f == counts, || {
                format!("sim_repro: pass {passes} counts {counts:?} != first pass {f:?}")
            }),
        }
        passes += 1;
    }

    let counts = first.expect("at least one pass ran");
    let (rrw, det) = (
        f64::from_bits(counts.ratio_rrw),
        f64::from_bits(counts.ratio_det),
    );
    round.check(rrw <= rand_rw_ratio(2) + RATIO_TOLERANCE, || {
        format!(
            "sim_repro: RandRw cost ratio {rrw} above the theorem's {}",
            rand_rw_ratio(2)
        )
    });
    round.check(det <= det_rw_ratio(2) + RATIO_TOLERANCE, || {
        format!(
            "sim_repro: DetRw cost ratio {det} above the theorem's {}",
            det_rw_ratio(2)
        )
    });
    round.attempted = counts.commits * passes;

    let in_calls_s = ns.iter().map(|&n| f64::from(n)).sum::<f64>() / 1e9;
    round.put("ops_s", (counts.commits * passes) as f64 / in_calls_s);
    round.put("lat_p50_us", percentile(&mut ns, 50.0).0 / 1e3);
    round.put("lat_p95_us", percentile(&mut ns, 95.0).0 / 1e3);
    round.put("setup_s", median(&setups));
    round.put(
        "htm-sim.cycles_per_s",
        (6 * HORIZON * passes) as f64 / in_calls_s,
    );
    round.put("htm-sim.commits", counts.commits as f64);
    round.put("htm-sim.aborts", counts.aborts as f64);
    round.put("htm-sim.saved_by_delay", counts.saved_by_delay as f64);
    round.put("workloads.synthetic_ratio_rrw", rrw);
    round.put("workloads.synthetic_ratio_det", det);
    round
}
