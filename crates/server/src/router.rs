//! Key→shard routing and admission control — the front half of the
//! request path (client → **router** → shard ring → batch executor → STM).
//!
//! The [`Router`] owns the per-shard bounded lock-free rings and applies
//! the one canonical key→shard rule of the service
//! ([`Request::home_shard`]: `key % shards`). Submission stamps the
//! enqueue timestamp (so downstream latency decomposes into queue-wait +
//! service) and **sheds** rather than blocking: a rejected request is
//! handed back to the caller with its [`ShedCause`], counted, and never
//! reaches the STM.
//!
//! Two admission regimes compose:
//!
//! * **Capacity** (always on): a full ring sheds — the hard backpressure
//!   bound.
//! * **SLO-aware adaptive admission** (optional, [`Router::with_slo_us`]):
//!   each ring's [`QueueWaitEstimator`](tcp_core::engine::QueueWaitEstimator)
//!   tracks a windowed p99 queue wait; when it exceeds the configured SLO
//!   the shard starts shedding *before* the ring fills, and keeps
//!   shedding until the p99 recovers below [`SLO_EXIT_PERCENT`]% of the
//!   SLO (hysteresis, so the gate doesn't chatter at the boundary). The
//!   state machine per shard is just two states:
//!
//!   ```text
//!            p99 > slo                     p99 ≤ slo × 0.8
//!   ADMIT ───────────────▶ SHED ──────────────────────────▶ ADMIT
//!     ▲                      │  (estimator windows decay to 0 in a
//!     └──────────────────────┘   traffic drought, so SHED always exits)
//!   ```
//!
//!   Shedding early converts queueing time (paid by every later request
//!   on the ring) into cheap rejections, which is what preserves goodput
//!   at overload — the quantity the `serve_skew` bench sweeps.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use tcp_core::trace::{Trace, TraceCause, TraceEvent, TraceKind, TraceTag};

use crate::protocol::Request;
use crate::queue::{Envelope, ReplyCell, ShardQueue};

/// Why a submission was shed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShedCause {
    /// The ring was full (or closed) — the hard capacity bound.
    Capacity,
    /// SLO-aware adaptive admission: the shard's windowed p99 queue wait
    /// exceeded the SLO and the hysteresis gate is shedding.
    Slo,
    /// The request was malformed ([`Request::is_well_formed`] failed —
    /// e.g. an empty-key `Rmw`/`GetMany` or a zero-length `GetRange`) and
    /// was rejected before routing.
    Invalid,
}

/// Hysteresis exit threshold: a shedding shard re-admits once its p99
/// queue wait falls back below this percentage of the SLO.
pub const SLO_EXIT_PERCENT: u64 = 80;

/// The routing/admission front end shared by every client.
pub struct Router {
    queues: Vec<Arc<ShardQueue>>,
    /// Queue-wait SLO in nanoseconds; 0 disables adaptive admission.
    slo_ns: u64,
    /// Per-shard hysteresis state: true while the shard is shedding.
    shedding: Vec<AtomicBool>,
    /// Lifecycle trace sink for admission events (`Enqueue`/`Shed`),
    /// when tracing is enabled for the run.
    trace: Option<Arc<Trace>>,
}

impl Router {
    /// A router over `shards` rings of `queue_capacity` envelopes each,
    /// with capacity-only admission (no SLO gate).
    pub fn new(shards: usize, queue_capacity: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        Self {
            queues: (0..shards)
                .map(|_| Arc::new(ShardQueue::new(queue_capacity)))
                .collect(),
            slo_ns: 0,
            shedding: (0..shards).map(|_| AtomicBool::new(false)).collect(),
            trace: None,
        }
    }

    /// Enable SLO-aware adaptive admission: shed a shard's submissions
    /// while its windowed p99 queue wait exceeds `slo_us` microseconds
    /// (with hysteresis). `0` leaves admission capacity-only.
    pub fn with_slo_us(mut self, slo_us: u64) -> Self {
        self.slo_ns = slo_us.saturating_mul(1_000);
        self
    }

    /// Enable lifecycle tracing of admission decisions: every admitted
    /// request emits an `Enqueue` event (payload = post-push depth) and
    /// every rejection a `Shed` event carrying its cause, both on the
    /// request's home-shard ring.
    pub fn with_trace(mut self, trace: Option<Arc<Trace>>) -> Self {
        self.trace = trace;
        self
    }

    pub fn shards(&self) -> usize {
        self.queues.len()
    }

    /// The ring feeding shard `shard` (executors hold a clone).
    pub fn queue(&self, shard: usize) -> Arc<ShardQueue> {
        Arc::clone(&self.queues[shard])
    }

    /// All rings in shard order — the slice the work-stealing executors
    /// scan.
    pub fn queues(&self) -> Vec<Arc<ShardQueue>> {
        self.queues.clone()
    }

    /// Route `req` to its home shard and try to admit it, stamping the
    /// enqueue timestamp. Returns the post-push queue depth on admission;
    /// hands the request back with the shed cause on rejection so the
    /// caller keeps ownership and can account the cause.
    pub fn submit(
        &self,
        req: Request,
        reply: &Arc<ReplyCell>,
        gen: u64,
    ) -> Result<usize, (Request, ShedCause)> {
        if !req.is_well_formed() {
            self.trace_shed(&req, ShedCause::Invalid);
            return Err((req, ShedCause::Invalid));
        }
        let shard = req.home_shard(self.queues.len());
        if self.slo_ns > 0 && self.slo_gate_sheds(shard) {
            self.trace_shed(&req, ShedCause::Slo);
            return Err((req, ShedCause::Slo));
        }
        let key = req.home_key();
        let env = Envelope::new(req, Arc::clone(reply), gen);
        match self.queues[shard].try_push(env) {
            Ok(depth) => {
                if let Some(t) = &self.trace {
                    t.emit(TraceEvent::lifecycle(
                        TraceKind::Enqueue,
                        TraceTag {
                            shard: shard as u16,
                            tx: gen,
                            key,
                        },
                        depth as u64,
                        0,
                    ));
                }
                Ok(depth)
            }
            Err(env) => {
                self.trace_shed(&env.req, ShedCause::Capacity);
                Err((env.req, ShedCause::Capacity))
            }
        }
    }

    /// Emit a `Shed` event for a rejected request (no-op while tracing is
    /// off). Malformed requests fall back to home key 0 — the same
    /// documented fallback [`Request::home_key`] applies to routing.
    fn trace_shed(&self, req: &Request, cause: ShedCause) {
        if let Some(t) = &self.trace {
            let trace_cause = match cause {
                ShedCause::Capacity => TraceCause::ShedCapacity,
                ShedCause::Slo => TraceCause::ShedSlo,
                ShedCause::Invalid => TraceCause::ShedInvalid,
            };
            t.emit(TraceEvent::shed(
                req.home_shard(self.queues.len()) as u16,
                req.home_key(),
                trace_cause,
            ));
        }
    }

    /// Advance shard `shard`'s hysteresis gate against its current
    /// windowed p99 and report whether it sheds. Racing submitters may
    /// both update the flag; they converge on the same estimator value,
    /// so the race only reorders identical stores.
    fn slo_gate_sheds(&self, shard: usize) -> bool {
        let p99 = self.queues[shard].queue_wait_p99();
        let gate = &self.shedding[shard];
        if gate.load(Ordering::Relaxed) {
            if p99 <= self.slo_ns.saturating_mul(SLO_EXIT_PERCENT) / 100 {
                gate.store(false, Ordering::Relaxed);
                return false;
            }
            true
        } else {
            if p99 > self.slo_ns {
                gate.store(true, Ordering::Relaxed);
                return true;
            }
            false
        }
    }

    /// Whether shard `shard`'s SLO gate is currently shedding.
    pub fn is_shedding(&self, shard: usize) -> bool {
        self.shedding[shard].load(Ordering::Relaxed)
    }

    /// Stop admitting everywhere; executors drain their backlogs and exit.
    pub fn close(&self) {
        for q in &self.queues {
            q.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcp_core::clock::Stamp;

    #[test]
    fn routes_by_home_shard() {
        let router = Router::new(4, 8);
        let reply = Arc::new(ReplyCell::new());
        // Keys 0..8 land on shard key % 4.
        for k in 0..8u64 {
            assert!(router.submit(Request::Get(k), &reply, k).is_ok());
        }
        for shard in 0..4 {
            let q = router.queue(shard);
            let mut popped = Vec::new();
            q.close();
            while let Some(env) = q.pop() {
                popped.push(env);
            }
            assert_eq!(popped.len(), 2, "two of keys 0..8 per shard");
            for env in popped {
                assert_eq!(env.req.home_shard(4), shard, "request on wrong ring");
            }
        }
    }

    #[test]
    fn submit_clones_the_reply_arc_exactly_once() {
        // The submit path performs exactly ONE `Arc<ReplyCell>` clone per
        // admitted request — the envelope's — and none at all for shed
        // requests (well-formedness, SLO, and capacity checks all run
        // before the clone). The executor replies through the envelope's
        // Arc without further clones, so refcount traffic per request is
        // one increment on admit and one decrement on envelope drop.
        let router = Router::new(1, 1);
        let reply = Arc::new(ReplyCell::new());
        assert_eq!(Arc::strong_count(&reply), 1);
        router.submit(Request::Get(0), &reply, 1).unwrap();
        assert_eq!(
            Arc::strong_count(&reply),
            2,
            "admission must cost exactly one clone"
        );
        // A shed (capacity: ring of 1 is full) must not touch the count.
        assert!(router.submit(Request::Get(1), &reply, 2).is_err());
        assert_eq!(
            Arc::strong_count(&reply),
            2,
            "shed requests must not clone the reply cell"
        );
        // Consuming the envelope returns the count to the caller's ref.
        let env = router.queue(0).pop().unwrap();
        drop(env);
        assert_eq!(Arc::strong_count(&reply), 1);
    }

    #[test]
    fn shed_returns_the_request_and_cause_to_the_caller() {
        let router = Router::new(1, 2);
        let reply = Arc::new(ReplyCell::new());
        assert!(router.submit(Request::Get(0), &reply, 1).is_ok());
        assert!(router.submit(Request::Get(1), &reply, 2).is_ok());
        match router.submit(Request::Add(2, 5), &reply, 3) {
            Err((req, cause)) => {
                assert_eq!(req, Request::Add(2, 5));
                assert_eq!(cause, ShedCause::Capacity);
            }
            Ok(_) => panic!("full ring must shed"),
        }
    }

    #[test]
    fn close_rejects_new_submissions() {
        let router = Router::new(2, 4);
        let reply = Arc::new(ReplyCell::new());
        router.close();
        assert!(router.submit(Request::Get(0), &reply, 1).is_err());
        assert!(router.submit(Request::Get(1), &reply, 2).is_err());
    }

    #[test]
    fn rmw_routes_to_first_keys_shard() {
        let router = Router::new(4, 4);
        let reply = Arc::new(ReplyCell::new());
        let req = Request::Rmw {
            keys: vec![7, 0, 2],
            delta: 1,
        };
        router.submit(req, &reply, 1).unwrap();
        let q = router.queue(3); // 7 % 4
        q.close();
        assert!(q.pop().is_some(), "rmw must land on its first key's shard");
    }

    #[test]
    fn malformed_requests_shed_at_admission() {
        let router = Router::new(4, 8);
        let reply = Arc::new(ReplyCell::new());
        for req in [
            Request::Rmw {
                keys: vec![],
                delta: 1,
            },
            Request::GetMany { keys: vec![] },
            Request::GetRange { start: 2, len: 0 },
        ] {
            match router.submit(req.clone(), &reply, 1) {
                Err((returned, cause)) => {
                    assert_eq!(returned, req, "the request comes back to the caller");
                    assert_eq!(cause, ShedCause::Invalid);
                }
                Ok(_) => panic!("malformed request must not be admitted"),
            }
        }
        // Nothing reached any ring.
        for shard in 0..4 {
            let q = router.queue(shard);
            q.close();
            assert!(q.pop().is_none(), "malformed request leaked onto a ring");
        }
    }

    #[test]
    fn scans_route_like_their_first_key() {
        let router = Router::new(4, 8);
        let reply = Arc::new(ReplyCell::new());
        router
            .submit(Request::GetRange { start: 6, len: 3 }, &reply, 1)
            .unwrap();
        router
            .submit(Request::GetMany { keys: vec![9, 0] }, &reply, 2)
            .unwrap();
        let q = router.queue(2); // 6 % 4
        q.close();
        assert!(q.pop().is_some(), "range scan must land on start's shard");
        let q = router.queue(1); // 9 % 4
        q.close();
        assert!(q.pop().is_some(), "get-many must land on first key's shard");
    }

    #[test]
    fn slo_gate_sheds_above_slo_and_recovers_with_hysteresis() {
        // Drive the estimator by hand: record queue waits far above the
        // SLO, roll the window, and watch the gate close; then let an
        // empty window decay the estimate and watch it reopen.
        let router = Router::new(1, 64).with_slo_us(100); // SLO = 100µs
        let reply = Arc::new(ReplyCell::new());
        let q = router.queue(0);
        assert!(
            router.submit(Request::Get(0), &reply, 1).is_ok(),
            "fresh estimator admits"
        );
        // 1ms queue waits ≫ 100µs SLO; sleep past the 5ms window so the
        // next estimator touch rotates and publishes the p99.
        for _ in 0..100 {
            q.record_queue_wait(1_000_000, Stamp::now());
        }
        std::thread::sleep(std::time::Duration::from_millis(6));
        // Triggers the rotation.
        q.record_queue_wait(1_000_000, Stamp::now());
        match router.submit(Request::Get(0), &reply, 2) {
            Err((_, cause)) => assert_eq!(cause, ShedCause::Slo, "gate must close"),
            Ok(_) => panic!("p99 above SLO must shed"),
        }
        assert!(router.is_shedding(0));
        // While shedding, nothing is enqueued, so the next window is
        // empty: the estimate decays to 0 and the gate reopens (the
        // drought-recovery property that prevents shed-forever lockup).
        std::thread::sleep(std::time::Duration::from_millis(6));
        assert!(
            router.submit(Request::Get(0), &reply, 3).is_ok(),
            "decayed estimate must reopen admission"
        );
        assert!(!router.is_shedding(0));
    }

    #[test]
    fn slo_disabled_never_consults_the_gate() {
        let router = Router::new(1, 4); // no with_slo_us
        let reply = Arc::new(ReplyCell::new());
        let q = router.queue(0);
        for _ in 0..100 {
            q.record_queue_wait(u64::MAX / 2, Stamp::now());
        }
        std::thread::sleep(std::time::Duration::from_millis(6));
        q.record_queue_wait(u64::MAX / 2, Stamp::now());
        assert!(
            router.submit(Request::Get(0), &reply, 1).is_ok(),
            "capacity-only admission ignores the estimator"
        );
    }
}
