//! The deterministic load generators: closed loop and open loop.
//!
//! Each client thread owns one `SeedFanout` substream. In **closed-loop**
//! mode it loops: draw a request (Zipf/uniform key skew, read/write/RMW
//! mix), submit it through the [`Router`], block for the response, think,
//! repeat — the in-flight population is bounded at `clients`, so offered
//! load self-clocks to service capacity and queueing delay never builds.
//!
//! In **open-loop** mode the client instead follows a deterministic seeded
//! Poisson arrival schedule: request *i* is submitted at absolute offset
//! `Σ gap_j` from run start regardless of completions (up to a bounded
//! outstanding `window`), which is the load model under which queueing
//! delay — and therefore the wait-vs-abort policy trade-off at the tail —
//! actually materializes. In both modes the *request sequence and
//! schedule* are pure functions of the substream — sheds vary with timing,
//! the offered load does not.
//!
//! Latency is measured by the executors (enqueue → pop → response), not
//! here: the enqueue timestamp each submission stamps is what lets sojourn
//! time decompose into queue-wait + service.

use std::sync::Arc;
use std::time::Instant;

use tcp_core::clock::Stamp;
use tcp_core::engine::EngineStats;
use tcp_core::rng::{uniform01, uniform_u64_below, Xoshiro256StarStar};
use tcp_workloads::dist::Zipf;

use crate::config::ServeConfig;
use crate::protocol::{Key, Request};
use crate::queue::ReplyCell;
use crate::router::{Router, ShedCause};

/// Key-selection distribution shared by every client.
#[derive(Clone)]
pub enum KeyPicker {
    /// Uniform over `{0, …, keys−1}`.
    Uniform(u64),
    /// Zipf-skewed (rank 0 hottest); the CDF table is built once and
    /// shared.
    Zipf(Arc<Zipf>),
}

impl KeyPicker {
    pub fn from_config(cfg: &ServeConfig) -> Self {
        if cfg.zipf_s > 0.0 {
            KeyPicker::Zipf(Arc::new(Zipf::new(cfg.keys as usize, cfg.zipf_s)))
        } else {
            KeyPicker::Uniform(cfg.keys)
        }
    }

    pub fn draw(&self, rng: &mut Xoshiro256StarStar) -> Key {
        match self {
            KeyPicker::Uniform(n) => uniform_u64_below(rng, *n),
            KeyPicker::Zipf(z) => z.sample(rng) as Key,
        }
    }
}

/// Draws the request mix: `rmw_fraction` multi-key RMWs; of the rest,
/// `scan_fraction` multi-key read-only scans (`GetRange`/`GetMany`,
/// 50/50), then a `read_fraction` read / `1 − read_fraction` commutative
/// increment split.
#[derive(Clone)]
pub struct RequestGen {
    picker: KeyPicker,
    keys: u64,
    read_fraction: f64,
    rmw_fraction: f64,
    rmw_span: usize,
    scan_fraction: f64,
    scan_span: usize,
}

impl RequestGen {
    pub fn from_config(cfg: &ServeConfig) -> Self {
        Self {
            picker: KeyPicker::from_config(cfg),
            keys: cfg.keys,
            read_fraction: cfg.read_fraction,
            rmw_fraction: cfg.rmw_fraction,
            rmw_span: cfg.rmw_span,
            scan_fraction: cfg.scan_fraction,
            scan_span: cfg.scan_span,
        }
    }

    /// Draw one request. Writes are increments (`delta = 1`) so the final
    /// heap state is independent of request interleaving.
    pub fn draw(&self, rng: &mut Xoshiro256StarStar) -> Request {
        if uniform01(rng) < self.rmw_fraction {
            let keys: Vec<Key> = (0..self.rmw_span).map(|_| self.picker.draw(rng)).collect();
            Request::Rmw { keys, delta: 1 }
        } else if uniform01(rng) < self.scan_fraction {
            // Alternate range scans and arbitrary key sets 50/50; the range
            // start is clamped so the span never runs off the key space.
            if uniform01(rng) < 0.5 {
                let start = self
                    .picker
                    .draw(rng)
                    .min(self.keys.saturating_sub(self.scan_span as u64));
                Request::GetRange {
                    start,
                    len: self.scan_span as u64,
                }
            } else {
                let keys: Vec<Key> = (0..self.scan_span).map(|_| self.picker.draw(rng)).collect();
                Request::GetMany { keys }
            }
        } else if uniform01(rng) < self.read_fraction {
            Request::Get(self.picker.draw(rng))
        } else {
            Request::Add(self.picker.draw(rng), 1)
        }
    }
}

/// What one client thread hands back at the end of the run.
pub struct ClientOutcome {
    /// Sheds and max observed queue depth (latency histograms live in the
    /// executors' shards, where sojourn time is measured).
    pub stats: EngineStats,
    /// Heap increments this client's *admitted* requests applied — the
    /// conservation invariant's right-hand side.
    pub increments_applied: u64,
    /// Reply-cell misdeliveries observed by this client's cells:
    /// duplicate `put`s + stale-generation `put`s (0 in a healthy run).
    pub reply_faults: u64,
}

/// Account one shed in the client's stats: the all-cause total plus a
/// distinct per-cause counter for every [`ShedCause`] variant — the
/// per-cause counters each sum through [`EngineStats::merge`], so shed
/// attribution survives the per-thread → global fold. (Before this
/// helper, `Capacity` and `Invalid` sheds were only visible in the
/// undifferentiated total.)
pub fn count_shed(stats: &mut EngineStats, cause: ShedCause) {
    stats.sheds += 1;
    match cause {
        ShedCause::Capacity => stats.capacity_sheds += 1,
        ShedCause::Slo => stats.slo_sheds += 1,
        ShedCause::Invalid => stats.invalid_sheds += 1,
    }
}

/// Run one closed-loop client to completion.
pub fn run_client(
    gen: &RequestGen,
    router: &Router,
    ops: u64,
    think_ns: u64,
    mut rng: Xoshiro256StarStar,
) -> ClientOutcome {
    let reply = Arc::new(ReplyCell::new());
    let mut stats = EngineStats::default();
    let mut increments_applied = 0u64;
    for _ in 0..ops {
        let req = gen.draw(&mut rng);
        let increments = req.increments();
        let tag = reply.issue();
        match router.submit(req, &reply, tag) {
            Ok(depth) => {
                let _resp = reply.take();
                stats.queue_depth_max = stats.queue_depth_max.max(depth as u64);
                increments_applied += increments;
            }
            Err((_shed, cause)) => count_shed(&mut stats, cause),
        }
        spin_ns(think_ns);
    }
    let (dup, stale) = reply.faults();
    ClientOutcome {
        stats,
        increments_applied,
        reply_faults: dup + stale,
    }
}

/// One entry of the precomputed open-loop schedule: the request and its
/// absolute submission offset from run start, in nanoseconds.
pub type Arrival = (Request, u64);

/// Draw a client's full open-loop arrival schedule: requests from `gen`,
/// exponential inter-arrival gaps with mean `1e9 / rate_per_sec` ns (a
/// Poisson process of the offered rate). Pure function of the substream —
/// the backbone of the same-seed determinism guarantee.
pub fn draw_schedule(
    gen: &RequestGen,
    ops: u64,
    rate_per_sec: f64,
    rng: &mut Xoshiro256StarStar,
) -> Vec<Arrival> {
    let mean_gap_ns = 1e9 / rate_per_sec;
    let mut at_ns = 0u64;
    (0..ops)
        .map(|_| {
            let req = gen.draw(rng);
            let u = uniform01(rng);
            let gap = (-(1.0 - u).ln() * mean_gap_ns).round() as u64;
            at_ns += gap;
            (req, at_ns)
        })
        .collect()
}

/// Run one open-loop client to completion: submit on the schedule, cap
/// outstanding requests at `window`, never wait for a response except to
/// reclaim a window slot.
///
/// Each of the `window` reply cells is reused across `ops/window` requests
/// with a fresh generation per reuse, so a stale or duplicate delivery is
/// detected rather than silently corrupting a later request's response.
pub fn run_client_open(
    gen: &RequestGen,
    router: &Router,
    ops: u64,
    rate_per_sec: f64,
    window: usize,
    mut rng: Xoshiro256StarStar,
) -> ClientOutcome {
    let schedule = draw_schedule(gen, ops, rate_per_sec, &mut rng);
    let cells: Vec<Arc<ReplyCell>> = (0..window).map(|_| Arc::new(ReplyCell::new())).collect();
    // Whether cell `i % window` has an outstanding (admitted, unreaped)
    // request; a shed request never gets a response, so its slot is free.
    let mut outstanding = vec![false; window];
    let mut stats = EngineStats::default();
    let mut increments_applied = 0u64;
    let start = Instant::now();
    for (i, (req, at_ns)) in schedule.into_iter().enumerate() {
        let slot = i % window;
        // Bounded window: reclaim the slot's previous request first. This
        // is the only place an open-loop client blocks on the service.
        if outstanding[slot] {
            let _resp = cells[slot].take();
            outstanding[slot] = false;
        }
        // Pace to the absolute schedule (a stalled window resumes with a
        // burst, as a true open-loop generator must).
        pace_until(start, at_ns);
        let increments = req.increments();
        let tag = cells[slot].issue();
        match router.submit(req, &cells[slot], tag) {
            Ok(depth) => {
                stats.queue_depth_max = stats.queue_depth_max.max(depth as u64);
                increments_applied += increments;
                outstanding[slot] = true;
            }
            Err((_shed, cause)) => count_shed(&mut stats, cause),
        }
    }
    // Reap the tail of the window so the caller knows every admitted
    // request was answered.
    for (slot, cell) in cells.iter().enumerate() {
        if outstanding[slot] {
            let _resp = cell.take();
        }
    }
    let reply_faults = cells
        .iter()
        .map(|c| {
            let (dup, stale) = c.faults();
            dup + stale
        })
        .sum();
    ClientOutcome {
        stats,
        increments_applied,
        reply_faults,
    }
}

/// Spin out a duration on the tick clock (sleep granularity is far too
/// coarse at the sub-microsecond scales of client think time and
/// in-transaction work).
pub(crate) fn spin_ns(ns: u64) {
    if ns == 0 {
        return;
    }
    let t0 = Stamp::now();
    while Stamp::now().ns_since(t0) < ns {
        std::hint::spin_loop();
    }
}

/// How far ahead of the target the pacer switches from sleeping to
/// spinning. OS sleep granularity is coarse (typically ~50µs–1ms of
/// overshoot risk), so the pacer sleeps only up to this slack before the
/// deadline and spins the remainder for precision.
const PACER_SPIN_SLACK_NS: u64 = 100_000;

/// Hybrid sleep/spin pacer: wait until `offset_ns` nanoseconds past
/// `start` (absolute pacing, so schedule error does not accumulate across
/// arrivals). Far from the deadline the thread *sleeps* — on
/// many-clients-per-core hosts a fleet of spinning pacers would starve
/// the executors of cycles — and only the final [`PACER_SPIN_SLACK_NS`]
/// is spun for sub-microsecond arrival precision.
fn pace_until(start: Instant, offset_ns: u64) {
    loop {
        let elapsed = start.elapsed().as_nanos() as u64;
        if elapsed >= offset_ns {
            return;
        }
        let remaining = offset_ns - elapsed;
        if remaining <= PACER_SPIN_SLACK_NS {
            break;
        }
        // Sleep up to the spin slack before the deadline; the loop
        // re-measures, so an early wakeup just sleeps again.
        std::thread::sleep(std::time::Duration::from_nanos(
            remaining - PACER_SPIN_SLACK_NS,
        ));
    }
    while (start.elapsed().as_nanos() as u64) < offset_ns {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ServeConfig {
        ServeConfig {
            keys: 64,
            ..Default::default()
        }
    }

    #[test]
    fn request_sequence_is_seed_deterministic() {
        let gen = RequestGen::from_config(&cfg());
        let draw = |seed: u64| -> Vec<Request> {
            let mut rng = Xoshiro256StarStar::new(seed);
            (0..200).map(|_| gen.draw(&mut rng)).collect()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
    }

    #[test]
    fn open_loop_schedule_is_seed_deterministic_and_paced() {
        let gen = RequestGen::from_config(&cfg());
        let draw = |seed: u64| {
            let mut rng = Xoshiro256StarStar::new(seed);
            draw_schedule(&gen, 500, 100_000.0, &mut rng)
        };
        let a = draw(9);
        assert_eq!(a, draw(9), "schedule must be a pure function of the seed");
        assert_ne!(a, draw(10));
        // Offsets are non-decreasing and the mean gap tracks the rate
        // (10 µs at 100k req/s) within sampling noise.
        assert!(a.windows(2).all(|w| w[0].1 <= w[1].1));
        let mean_gap = a.last().unwrap().1 as f64 / a.len() as f64;
        assert!(
            (5_000.0..20_000.0).contains(&mean_gap),
            "mean gap {mean_gap} far from 10µs"
        );
    }

    #[test]
    fn pacer_hits_absolute_deadlines() {
        let start = Instant::now();
        // 3ms out: far past the spin slack, so this exercises the sleep
        // branch; the final stretch is spun for precision.
        pace_until(start, 3_000_000);
        let elapsed = start.elapsed().as_nanos() as u64;
        assert!(elapsed >= 3_000_000, "pacer returned early at {elapsed}ns");
        assert!(
            elapsed < 3_000_000 + 50_000_000,
            "pacer overshot wildly: {elapsed}ns"
        );
        // A deadline already in the past returns immediately.
        pace_until(start, 0);
    }

    #[test]
    fn spin_ns_spins_out_at_least_its_duration() {
        let start = Instant::now();
        spin_ns(0);
        spin_ns(200_000);
        let elapsed = start.elapsed().as_nanos() as u64;
        // The tick scale is calibrated to ~0.1 %; allow 1 % short.
        assert!(elapsed >= 198_000, "spun only {elapsed}ns");
        assert!(elapsed < 200_000 + 50_000_000, "spun {elapsed}ns");
    }

    #[test]
    fn request_mix_matches_fractions() {
        let gen = RequestGen::from_config(&ServeConfig {
            keys: 64,
            rmw_fraction: 0.25,
            read_fraction: 0.5,
            ..Default::default()
        });
        let mut rng = Xoshiro256StarStar::new(1);
        let n = 20_000;
        let (mut rmw, mut get, mut add) = (0, 0, 0);
        for _ in 0..n {
            match gen.draw(&mut rng) {
                Request::Rmw { keys, delta } => {
                    assert_eq!(keys.len(), 3);
                    assert_eq!(delta, 1);
                    rmw += 1;
                }
                Request::Get(_) => get += 1,
                Request::Add(_, 1) => add += 1,
                other => panic!("unexpected request {other:?}"),
            }
        }
        let f = |c: i32| c as f64 / n as f64;
        assert!((f(rmw) - 0.25).abs() < 0.02, "rmw {}", f(rmw));
        assert!((f(get) - 0.375).abs() < 0.02, "get {}", f(get));
        assert!((f(add) - 0.375).abs() < 0.02, "add {}", f(add));
    }

    #[test]
    fn scan_mix_draws_both_scan_shapes_in_key_space() {
        let gen = RequestGen::from_config(&ServeConfig {
            keys: 64,
            rmw_fraction: 0.0,
            scan_fraction: 0.4,
            scan_span: 8,
            ..Default::default()
        });
        let mut rng = Xoshiro256StarStar::new(7);
        let n = 20_000;
        let (mut range, mut many, mut other) = (0, 0, 0);
        for _ in 0..n {
            match gen.draw(&mut rng) {
                Request::GetRange { start, len } => {
                    assert_eq!(len, 8);
                    assert!(start + len <= 64, "range scan runs off the key space");
                    range += 1;
                }
                Request::GetMany { keys } => {
                    assert_eq!(keys.len(), 8);
                    assert!(keys.iter().all(|&k| k < 64));
                    many += 1;
                }
                _ => other += 1,
            }
        }
        let f = |c: i32| c as f64 / n as f64;
        assert!((f(range) - 0.2).abs() < 0.02, "range {}", f(range));
        assert!((f(many) - 0.2).abs() < 0.02, "many {}", f(many));
        assert!((f(other) - 0.6).abs() < 0.02, "other {}", f(other));
    }

    #[test]
    fn pickers_stay_in_key_space() {
        let mut rng = Xoshiro256StarStar::new(2);
        for picker in [
            KeyPicker::from_config(&ServeConfig {
                keys: 32,
                zipf_s: 0.0,
                ..Default::default()
            }),
            KeyPicker::from_config(&ServeConfig {
                keys: 32,
                zipf_s: 1.2,
                ..Default::default()
            }),
        ] {
            for _ in 0..5_000 {
                assert!(picker.draw(&mut rng) < 32);
            }
        }
    }

    #[test]
    fn every_shed_cause_increments_a_distinct_counter_that_merges() {
        // Satellite audit: each ShedCause variant must land in its own
        // counter (plus the all-cause total), and the per-cause counters
        // must survive EngineStats::merge — Capacity and Invalid used to
        // vanish into the undifferentiated total.
        let mut a = EngineStats::default();
        count_shed(&mut a, ShedCause::Capacity);
        count_shed(&mut a, ShedCause::Capacity);
        count_shed(&mut a, ShedCause::Slo);
        count_shed(&mut a, ShedCause::Invalid);
        assert_eq!(a.sheds, 4);
        assert_eq!(
            (a.capacity_sheds, a.slo_sheds, a.invalid_sheds),
            (2, 1, 1),
            "each cause has its own counter"
        );
        let mut b = EngineStats::default();
        count_shed(&mut b, ShedCause::Slo);
        count_shed(&mut b, ShedCause::Invalid);
        b.merge(&a);
        assert_eq!(b.sheds, 6);
        assert_eq!(
            (b.capacity_sheds, b.slo_sheds, b.invalid_sheds),
            (2, 2, 2),
            "per-cause attribution survives merge"
        );
        assert_eq!(
            b.sheds,
            b.capacity_sheds + b.slo_sheds + b.invalid_sheds,
            "the causes partition the total"
        );
    }

    #[test]
    fn zipf_picker_skews_toward_rank_zero() {
        let picker = KeyPicker::from_config(&ServeConfig {
            keys: 64,
            zipf_s: 1.0,
            ..Default::default()
        });
        let mut rng = Xoshiro256StarStar::new(5);
        let n = 20_000;
        let zeros = (0..n).filter(|_| picker.draw(&mut rng) == 0).count() as f64 / n as f64;
        assert!(
            zeros > 3.0 / 64.0,
            "rank 0 should be much hotter than uniform"
        );
    }
}
