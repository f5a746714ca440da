//! The serving workloads: the harness's own generator on the calling thread
//! against one `run_executor` thread over one ring — two busy threads.
//!
//! Everything the program is told comes from `ServeConfig::default()`
//! except the traffic shape, so the workloads differ in traffic, not in
//! program configuration.
//!
//! One producer, one ring, one consumer: requests execute in submission
//! order, so every reply and every final heap word is a pure function of
//! the seeded request stream. [`ServeSpec::verify`] re-draws the stream
//! into a model heap after the timed phase and checks both.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tcp_core::conflict::Conflict;
use tcp_core::engine::{EngineStats, SeedFanout};
use tcp_core::policy::GracePolicy;
use tcp_core::randomized::RandRw;
use tcp_core::rng::Xoshiro256StarStar;
use tcp_server::executor::execute_snapshot;
use tcp_server::prelude::*;
use tcp_stm::runtime::{Stm, TxCtx};

use crate::round::Round;
use crate::stats::{hist_beyond, hist_quantile, percentile};
use crate::trace::{self, NoTrace, Sink, Tracer};

pub const KEYS: u64 = 4096;

/// An open-loop round whose generator ran later than this at p95 says more
/// about the host than about the program, and is re-run once. The program
/// itself makes the generator ~7 us late at p95: a third of the `submit`
/// calls unpark the executor, a syscall longer than many Poisson gaps (mean
/// 10 us). Two and a half mean gaps is well clear of that.
const LATE_P95_LIMIT_US: f64 = 25.0;

/// Requests per stage block of the inline replay (≤ every ring capacity).
const REPLAY_BLOCK: usize = 16;

/// Requests a traced round (and the inline replay) runs per second of
/// round length.
const TRACED_REQUESTS_PER_S: f64 = 100_000.0;

pub struct ServeSpec {
    pub name: &'static str,
    read_fraction: f64,
    rmw_fraction: f64,
    scan_fraction: f64,
    scan_span: usize,
    /// Requests the generator keeps outstanding (one reply cell each).
    window: usize,
    queue_capacity: usize,
    /// `Some(rate)`: open loop on a seeded Poisson schedule at `rate`
    /// requests/second; `None`: closed loop, the window is always full.
    open_rate: Option<f64>,
}

/// Window 48 of capacity 64: the pipeline stays saturated, neither side
/// parks, nothing sheds. (Window 1 and window = batch_max run the two
/// threads in lock-step park/unpark and make ops/s bimodal.)
pub const SERVE_CLOSED: ServeSpec = ServeSpec {
    name: "serve_closed",
    read_fraction: 0.6,
    rmw_fraction: 0.1,
    scan_fraction: 0.0,
    scan_span: 8,
    window: 48,
    queue_capacity: 64,
    open_rate: None,
};

pub const SERVE_SCAN: ServeSpec = ServeSpec {
    name: "serve_scan",
    read_fraction: 0.9,
    rmw_fraction: 0.05,
    scan_fraction: 0.3,
    scan_span: 16,
    window: 48,
    queue_capacity: 64,
    open_rate: None,
};

/// 100 000 req/s is about a tenth of closed-loop capacity: the executor
/// idles between arrivals, so sojourn is wake latency, not service.
pub const SERVE_OPEN: ServeSpec = ServeSpec {
    name: "serve_open",
    read_fraction: 0.6,
    rmw_fraction: 0.1,
    scan_fraction: 0.0,
    scan_span: 8,
    window: 256,
    queue_capacity: 512,
    open_rate: Some(100_000.0),
};

/// Where the generator's requests come from — the same for the timed
/// phase and for the model that checks it.
enum Source {
    Draw {
        gen: RequestGen,
        rng: Xoshiro256StarStar,
    },
    Schedule(std::vec::IntoIter<Arrival>),
}

impl Source {
    /// Next request and its due offset in ns (0 = send at once).
    #[inline]
    fn next(&mut self) -> Option<(Request, u64)> {
        match self {
            Source::Draw { gen, rng } => Some((gen.draw(rng), 0)),
            Source::Schedule(arrivals) => arrivals.next(),
        }
    }
}

/// Everything built before the timed phase (timed as `setup_s`).
struct Instance {
    stm: Arc<Stm>,
    router: Router,
    cells: Vec<Arc<ReplyCell>>,
    source: Source,
    executor: JoinHandle<EngineStats>,
}

/// What the generator saw.
#[derive(Default)]
struct Tally {
    issued: u64,
    sheds: [u64; 3],
    /// Stream positions of shed requests (the model skips them).
    shed_at: Vec<u64>,
    increments: u64,
    /// Order-sensitive digest of every reply, in issue order.
    reply_hash: u64,
    depth_max: u64,
    reply_faults: u64,
    /// Per-request generator lateness (due → `submit` call), ns; open loop.
    lates: Vec<u32>,
    elapsed: Duration,
}

#[inline]
fn fold_reply(hash: u64, resp: Response) -> u64 {
    let (tag, v) = match resp {
        Response::Value(v) => (1u64, v),
        Response::Written => (2, 0),
        Response::Added(v) => (3, v),
        Response::RmwSum(v) => (4, v),
        Response::RangeSum(v) => (5, v),
        Response::ManySum(v) => (6, v),
    };
    (hash ^ v.wrapping_add(tag << 56)).wrapping_mul(0x0000_0100_0000_01b3)
}

/// The reply the program must give to `req` on heap `model`, applied.
fn model_apply(model: &mut [u64], req: &Request) -> Response {
    let heap = model.len();
    match req {
        Request::Get(k) => Response::Value(model[*k as usize]),
        Request::Put(k, v) => {
            model[*k as usize] = *v;
            Response::Written
        }
        Request::Add(k, delta) => {
            let w = &mut model[*k as usize];
            *w = w.wrapping_add(*delta);
            Response::Added(*w)
        }
        Request::Rmw { keys, delta } => Response::RmwSum(keys.iter().fold(0u64, |sum, &k| {
            let w = &mut model[k as usize];
            *w = w.wrapping_add(*delta);
            sum.wrapping_add(*w)
        })),
        Request::GetRange { start, len } => {
            let (start, len) = (*start as usize, *len as usize);
            Response::RangeSum(
                model[start.min(heap)..start.saturating_add(len).min(heap)]
                    .iter()
                    .fold(0u64, |s, &w| s.wrapping_add(w)),
            )
        }
        Request::GetMany { keys } => Response::ManySum(
            keys.iter()
                .fold(0u64, |s, &k| s.wrapping_add(model[k as usize])),
        ),
    }
}

impl ServeSpec {
    pub fn is_open(&self) -> bool {
        self.open_rate.is_some()
    }

    fn config(&self, seed: u64) -> ServeConfig {
        ServeConfig {
            shards: 1,
            clients: 1,
            keys: KEYS,
            zipf_s: 0.9,
            read_fraction: self.read_fraction,
            rmw_fraction: self.rmw_fraction,
            rmw_span: 3,
            scan_fraction: self.scan_fraction,
            scan_span: self.scan_span,
            think_ns: 0,
            work_ns: 0,
            queue_capacity: self.queue_capacity,
            seed,
            ..Default::default()
        }
    }

    /// Requests an open-loop round of `secs` seconds schedules.
    fn open_requests(&self, secs: f64) -> u64 {
        self.open_rate.map_or(0, |rate| (rate * secs) as u64)
    }

    /// The seeded request stream: executor substream first, client second
    /// (the order `run_server` fans out in).
    fn source(&self, cfg: &ServeConfig, open_requests: u64) -> (Xoshiro256StarStar, Source) {
        let mut fan = SeedFanout::new(cfg.seed);
        let (exec_rng, mut rng) = (fan.stream(), fan.stream());
        let gen = RequestGen::from_config(cfg);
        let source = match self.open_rate {
            None => Source::Draw { gen, rng },
            Some(rate) => {
                Source::Schedule(draw_schedule(&gen, open_requests, rate, &mut rng).into_iter())
            }
        };
        (exec_rng, source)
    }

    fn new_heap() -> Stm {
        Stm::with_layout(KEYS as usize, 1, 1, RandRw.mode(&Conflict::pair(1000.0)))
    }

    fn setup(&self, seed: u64, open_requests: u64) -> Instance {
        let cfg = self.config(seed);
        let stm = Arc::new(Self::new_heap());
        let (exec_rng, source) = self.source(&cfg, open_requests);
        let router = Router::new(1, cfg.queue_capacity);
        let cells = (0..self.window)
            .map(|_| Arc::new(ReplyCell::new()))
            .collect();
        let exec_cfg = ExecutorConfig {
            shard: 0,
            batch_max: cfg.batch_max,
            work_ns: cfg.work_ns,
            stats_interval_ns: cfg.stats_interval_ns,
            run_start: Instant::now(),
            steal: cfg.steal,
            steal_min_depth: cfg.steal_min_depth,
            group_commit: cfg.group_commit,
            snapshot_reads: cfg.snapshot_reads,
            trace: None,
        };
        let (stm2, queues) = (Arc::clone(&stm), router.queues());
        let executor =
            std::thread::spawn(move || run_executor(&stm2, RandRw, exec_rng, &queues, &exec_cfg));
        Instance {
            stm,
            router,
            cells,
            source,
            executor,
        }
    }

    /// One round: set up, drive for `secs` seconds (open loop: the
    /// schedule's length), drain, check. A traced round (`trace` = the
    /// trace epoch) is bounded by count instead — 100 k requests per second
    /// of round, the open loop's own count — so its span buffer can be
    /// preallocated: three spans per request and the enclosing one.
    pub fn round(&self, seed: u64, secs: f64, trace: Option<Instant>) -> Round {
        let Some(epoch) = trace else {
            let mut round = self.attempt(seed, secs, u64::MAX, &mut NoTrace);
            let late = |r: &Round| r.get("client.late_p95_us").unwrap_or(0.0);
            if self.is_open() && late(&round) > LATE_P95_LIMIT_US {
                eprintln!(
                    "{}: generator ran late (p95 {:.1} us > {LATE_P95_LIMIT_US} us), round re-run",
                    self.name,
                    late(&round)
                );
                round = self.attempt(seed, secs, u64::MAX, &mut NoTrace);
            }
            return round;
        };
        let requests = (TRACED_REQUESTS_PER_S * secs) as u64;
        let mut tracer = Tracer::new(epoch, 0, 3 * requests as usize + 1);
        let root = tracer.open("client.round");
        let mut round = self.attempt(seed, secs, requests, &mut tracer);
        tracer.close(root);
        let totals = trace::totals(&tracer.spans);
        round.put(
            "client.submit_span_ns",
            trace::mean_ns(&totals, "router.submit"),
        );
        round.put(
            "client.reply_wait_span_ns",
            trace::mean_ns(&totals, "reply.wait"),
        );
        round.put("trace.spans", tracer.spans.len() as f64);
        round.put("trace.spans_dropped", tracer.dropped as f64);
        round.spans.push(tracer.spans);
        round
    }

    fn attempt<S: Sink>(&self, seed: u64, secs: f64, max_requests: u64, sink: &mut S) -> Round {
        let open_requests = self.open_requests(secs).min(max_requests);
        let t0 = Instant::now();
        let mut inst = self.setup(seed, open_requests);
        let setup_s = t0.elapsed().as_secs_f64();

        let limit = if self.is_open() {
            Duration::MAX
        } else {
            Duration::from_secs_f64(secs)
        };
        let tally = drive(&mut inst, limit, max_requests, sink);

        inst.router.close();
        let stats = inst.executor.join().expect("executor panicked");
        let heap = inst.stm.snapshot_direct();
        let clock_bumps = inst.stm.clock_value();

        let mut round = Round::default();
        let sheds: u64 = tally.sheds.iter().sum();
        let admitted = tally.issued - sheds;
        round.attempted = tally.issued;
        round.failed = sheds + tally.reply_faults + admitted.abs_diff(stats.commits);
        self.verify(seed, open_requests, &tally, &stats, &heap, &mut round);

        let secs_run = tally.elapsed.as_secs_f64();
        let commits = stats.commits.max(1) as f64;
        let lat = &stats.latency_hist;
        round.put("ops_s", stats.commits as f64 / secs_run);
        round.put("lat_p50_us", hist_quantile(lat, 50.0) / 1e3);
        round.put("lat_p95_us", hist_quantile(lat, 95.0) / 1e3);
        round.put("setup_s", setup_s);

        round.put(
            "client.fail_ratio",
            round.failed as f64 / tally.issued.max(1) as f64,
        );
        round.put("client.sojourn_p99_us", hist_quantile(lat, 99.0) / 1e3);
        round.put("client.sojourn_p99_n", hist_beyond(lat, 99.0));
        round.put("client.sojourn_p999_us", hist_quantile(lat, 99.9) / 1e3);
        round.put("client.sojourn_p999_n", hist_beyond(lat, 99.9));
        let mut lates = tally.lates;
        for (name, p) in [
            ("client.late_p50_us", 50.0),
            ("client.late_p95_us", 95.0),
            ("client.late_p99_us", 99.0),
        ] {
            round.put(name, percentile(&mut lates, p).0 / 1e3);
        }
        let over = lates.iter().filter(|&&l| l > 100_000).count();
        round.put(
            "client.late_over_100us_ratio",
            over as f64 / lates.len().max(1) as f64,
        );
        round.put("router.sheds_capacity", tally.sheds[0] as f64);
        round.put("router.sheds_slo", tally.sheds[1] as f64);
        round.put("router.sheds_invalid", tally.sheds[2] as f64);
        round.put("queue.depth_max", tally.depth_max as f64);
        round.put(
            "executor.queue_wait_p50_us",
            hist_quantile(&stats.queue_wait_hist, 50.0) / 1e3,
        );
        round.put(
            "executor.queue_wait_p99_us",
            hist_quantile(&stats.queue_wait_hist, 99.0) / 1e3,
        );
        round.put(
            "executor.service_p50_ns",
            hist_quantile(&stats.service_hist, 50.0),
        );
        round.put(
            "executor.service_p99_ns",
            hist_quantile(&stats.service_hist, 99.0),
        );
        round.put(
            "executor.idle_parks_per_kop",
            stats.idle_parks as f64 * 1e3 / commits,
        );
        round.put("executor.steals", stats.steals as f64);
        round.put_stm_counters(&stats);
        round.put("stm.clock_bumps_per_commit", clock_bumps as f64 / commits);
        round.put("stm.snapshot_restarts", stats.snapshot_restarts as f64);
        round.put("stm.chain_misses", stats.chain_misses as f64);
        round.put("stm.read_aborts", stats.read_aborts as f64);
        round
    }

    /// Re-draw the stream into a model heap and check every reply (through
    /// the digest) and every heap word, plus the conservation counters.
    fn verify(
        &self,
        seed: u64,
        open_requests: u64,
        tally: &Tally,
        stats: &EngineStats,
        heap: &[u64],
        round: &mut Round,
    ) {
        let name = self.name;
        let sheds: u64 = tally.sheds.iter().sum();
        round.check(sheds == 0, || format!("{name}: {sheds} requests shed"));
        round.check(tally.reply_faults == 0, || {
            format!("{name}: {} reply faults", tally.reply_faults)
        });
        round.check(stats.commits + sheds == tally.issued, || {
            format!(
                "{name}: commits {} + sheds {sheds} != issued {}",
                stats.commits, tally.issued
            )
        });
        round.check(stats.latency_hist.count() == stats.commits, || {
            format!("{name}: one sojourn sample per commit expected")
        });
        let heap_sum = heap.iter().fold(0u64, |s, &w| s.wrapping_add(w));
        round.check(heap_sum == tally.increments, || {
            format!(
                "{name}: heap sum {heap_sum} != increments applied {}",
                tally.increments
            )
        });

        let (hash, model) = self.model(seed, open_requests, tally.issued, &tally.shed_at);
        round.check(hash == tally.reply_hash, || {
            format!("{name}: replies differ from the model's (digest mismatch)")
        });
        let wrong = heap.iter().zip(&model).filter(|(a, b)| a != b).count();
        round.check(wrong == 0, || {
            format!("{name}: {wrong} heap words differ from the model's")
        });
    }

    /// Reply digest and final heap the first `issued` requests of the
    /// stream must produce.
    fn model(
        &self,
        seed: u64,
        open_requests: u64,
        issued: u64,
        shed_at: &[u64],
    ) -> (u64, Vec<u64>) {
        let (_, mut source) = self.source(&self.config(seed), open_requests);
        let mut model = vec![0u64; KEYS as usize];
        let mut hash = 0u64;
        let mut shed = shed_at.iter().peekable();
        for i in 0..issued {
            let (req, _) = source.next().expect("the stream outlasts the round");
            if shed.next_if_eq(&&i).is_none() {
                hash = fold_reply(hash, model_apply(&mut model, &req));
            }
        }
        (hash, model)
    }

    /// Single-thread inline replay of the first `requests` of the stream:
    /// draw → `submit` → `try_pop_batch` → `execute`/`execute_snapshot` →
    /// `put` → `take`, in blocks, one span per stage per block. With no
    /// second thread there is no cross-thread cost in it, so its stage
    /// means are the budget's itemised lines.
    pub fn replay(&self, seed: u64, secs: f64, epoch: Instant) -> Round {
        let requests = (TRACED_REQUESTS_PER_S * secs) as u64;
        let mut tracer = Tracer::new(
            epoch,
            1,
            6 * requests.div_ceil(REPLAY_BLOCK as u64) as usize + 1,
        );
        let cfg = self.config(seed);
        let stm = Self::new_heap();
        let (exec_rng, mut source) = self.source(&cfg, 0);
        let router = Router::new(1, cfg.queue_capacity);
        let queue = router.queue(0);
        let cells: Vec<_> = (0..REPLAY_BLOCK)
            .map(|_| Arc::new(ReplyCell::new()))
            .collect();
        let mut ctx = TxCtx::new(&stm, 0, RandRw, exec_rng);
        let mut reqs = Vec::with_capacity(REPLAY_BLOCK);
        let mut batch = Vec::with_capacity(REPLAY_BLOCK);
        let mut resps = Vec::with_capacity(REPLAY_BLOCK);
        let mut hash = 0u64;

        let root = tracer.open("replay.round");
        let mut done = 0u64;
        while done < requests {
            let block = REPLAY_BLOCK.min((requests - done) as usize);
            let t0 = tracer.now();
            reqs.extend((0..block).map(|_| source.next().expect("closed-loop stream").0));
            let t1 = tracer.now();
            for (req, cell) in reqs.drain(..).zip(&cells) {
                let tag = cell.issue();
                router.submit(req, cell, tag).expect("replay ring has room");
            }
            let t2 = tracer.now();
            queue.try_pop_batch(block, &mut batch);
            let t3 = tracer.now();
            resps.extend(batch.iter().map(|env| {
                if cfg.snapshot_reads && env.req.is_read_only() {
                    execute_snapshot(&mut ctx, &env.req, cfg.work_ns)
                } else {
                    execute(&mut ctx, &env.req, cfg.work_ns)
                }
            }));
            let t4 = tracer.now();
            for (env, resp) in batch.drain(..).zip(resps.drain(..)) {
                let _ = env.reply.put(env.gen, resp);
            }
            let t5 = tracer.now();
            for cell in &cells[..block] {
                hash = fold_reply(hash, cell.take());
            }
            let t6 = tracer.now();
            for (stage, (start, end)) in [
                ("replay.draw", (t0, t1)),
                ("replay.submit", (t1, t2)),
                ("replay.pop", (t2, t3)),
                ("replay.execute", (t3, t4)),
                ("replay.put", (t4, t5)),
                ("replay.take", (t5, t6)),
            ] {
                tracer.span(stage, start, end, done);
            }
            done += block as u64;
        }
        tracer.close(root);

        let mut round = Round::default();
        let name = self.name;
        let totals = trace::totals(&tracer.spans);
        let (_, wall_ns, self_ns) = totals["replay.round"];
        round.check(tracer.dropped > 0 || self_ns * 10 <= wall_ns, || {
            format!(
                "{name}: replay spans cover {} of {wall_ns} ns",
                wall_ns - self_ns
            )
        });
        let (model_hash, model) = self.model(seed, 0, requests, &[]);
        round.check(hash == model_hash && stm.snapshot_direct() == model, || {
            format!("{name}: inline replay disagrees with the model")
        });
        let per_req =
            |stage: &str| totals.get(stage).map_or(0.0, |t| t.1 as f64) / requests.max(1) as f64;
        let (draw, submit, take) = (
            per_req("replay.draw"),
            per_req("replay.submit"),
            per_req("replay.take"),
        );
        let (pop, exec, put) = (
            per_req("replay.pop"),
            per_req("replay.execute"),
            per_req("replay.put"),
        );
        round.put("budget.draw_ns", draw);
        round.put("budget.submit_ns", submit);
        round.put("budget.take_ns", take);
        round.put("budget.pop_ns", pop);
        round.put("budget.execute_ns", exec);
        round.put("budget.put_ns", put);
        round.put("budget.client_side_ns", draw + submit + take);
        round.put("budget.executor_side_ns", pop + exec + put);
        round.spans.push(tracer.spans);
        round
    }
}

/// The generator: keep the window full (closed loop) or follow the
/// schedule (open loop), fold every reply into the digest, stop at
/// `limit` or after `max_requests`, then drain the window.
fn drive<S: Sink>(inst: &mut Instance, limit: Duration, max_requests: u64, sink: &mut S) -> Tally {
    let window = inst.cells.len() as u64;
    let mut outstanding = vec![false; inst.cells.len()];
    let mut tally = Tally::default();
    if let Source::Schedule(arrivals) = &inst.source {
        tally.lates.reserve_exact(arrivals.len());
    }
    let start = Instant::now();
    let mut i = 0u64;
    // The clock is read every 32nd request: ~25 ns against a ~1 µs request.
    while i < max_requests && (!i.is_multiple_of(32) || start.elapsed() < limit) {
        let slot = (i % window) as usize;
        let cell = &inst.cells[slot];
        if std::mem::take(&mut outstanding[slot]) {
            let t = sink.now();
            let resp = cell.take();
            sink.span("reply.wait", t, sink.now(), i - window);
            tally.reply_hash = fold_reply(tally.reply_hash, resp);
        }
        let t0 = sink.now();
        let Some((req, due_ns)) = inst.source.next() else {
            break;
        };
        let mut t1 = sink.now();
        sink.span("client.draw", t0, t1, i);
        if due_ns > 0 {
            let mut now = start.elapsed().as_nanos() as u64;
            while now < due_ns {
                std::hint::spin_loop();
                now = start.elapsed().as_nanos() as u64;
            }
            tally.lates.push((now - due_ns).min(u32::MAX as u64) as u32);
            t1 = sink.now();
        }
        let increments = req.increments();
        let tag = cell.issue();
        match inst.router.submit(req, cell, tag) {
            Ok(depth) => {
                outstanding[slot] = true;
                tally.increments += increments;
                tally.depth_max = tally.depth_max.max(depth as u64);
            }
            Err((_, cause)) => {
                tally.sheds[match cause {
                    ShedCause::Capacity => 0,
                    ShedCause::Slo => 1,
                    ShedCause::Invalid => 2,
                }] += 1;
                tally.shed_at.push(i);
            }
        }
        sink.span("router.submit", t1, sink.now(), i);
        i += 1;
    }
    // Drain in issue order: the oldest outstanding request sits in the
    // slot the next request would have used.
    for j in 0..window {
        let slot = ((i + j) % window) as usize;
        if outstanding[slot] {
            tally.reply_hash = fold_reply(tally.reply_hash, inst.cells[slot].take());
        }
    }
    tally.elapsed = start.elapsed();
    tally.issued = i;
    tally.reply_faults = inst
        .cells
        .iter()
        .map(|c| {
            let (dup, stale) = c.faults();
            dup + stale
        })
        .sum();
    tally
}
