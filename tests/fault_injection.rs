//! Failure-injection tests: hostile policies and degenerate workloads must
//! never hang, crash, or corrupt the simulator's coherence state, the STM
//! heap or the serving stack's accounting.

use std::sync::Arc;

use rand::RngCore;
use transactional_conflict::prelude::*;

/// A policy that returns whatever pathological value it was built with.
#[derive(Clone, Copy, Debug)]
struct MaliciousPolicy(f64);

impl GracePolicy for MaliciousPolicy {
    fn mode(&self, _c: &Conflict) -> ResolutionMode {
        ResolutionMode::RequestorWins
    }
    fn grace(&self, _c: &Conflict, _rng: &mut dyn RngCore) -> f64 {
        self.0
    }
    fn name(&self) -> String {
        format!("MALICIOUS({})", self.0)
    }
}

fn run_sim(policy: Arc<dyn GracePolicy>, programs: Vec<TxnProgram>, cores: usize) -> ShardedStats {
    let mut cfg = SimConfig::new(cores, policy);
    cfg.horizon = 100_000;
    let mut sim = Simulator::new(cfg, Arc::new(FixedProgramsWorkload::new(programs)));
    sim.run();
    sim.check_coherence().expect("coherence violated");
    sim.stats.clone()
}

fn hot_program() -> TxnProgram {
    TxnProgram {
        ops: vec![Op::Compute(10), Op::Write(0), Op::Compute(30)],
    }
}

#[test]
fn nan_grace_degrades_to_no_delay() {
    let s = run_sim(Arc::new(MaliciousPolicy(f64::NAN)), vec![hot_program()], 6);
    assert!(s.commits() > 100, "NaN policy must not stall the machine");
}

#[test]
fn infinite_grace_is_clamped() {
    let s = run_sim(
        Arc::new(MaliciousPolicy(f64::INFINITY)),
        vec![hot_program()],
        6,
    );
    assert!(s.commits() > 100, "infinite grace must be bounded");
}

#[test]
fn negative_grace_is_clamped_to_zero() {
    let s = run_sim(Arc::new(MaliciousPolicy(-1e9)), vec![hot_program()], 6);
    assert!(s.commits() > 100);
}

#[test]
fn huge_but_finite_grace_is_capped() {
    let s = run_sim(Arc::new(MaliciousPolicy(1e300)), vec![hot_program()], 6);
    assert!(s.commits() > 100);
}

#[test]
fn empty_transaction_bodies_commit_trivially() {
    let s = run_sim(Arc::new(RandRw), vec![TxnProgram { ops: vec![] }], 2);
    assert!(
        s.commits() > 10_000,
        "empty bodies commit every other cycle"
    );
    assert_eq!(s.aborts(), 0);
}

#[test]
fn zero_cycle_compute_makes_progress() {
    let s = run_sim(
        Arc::new(RandRw),
        vec![TxnProgram {
            ops: vec![Op::Compute(0), Op::Compute(0)],
        }],
        2,
    );
    assert!(s.commits() > 1000);
}

#[test]
fn max_core_count_with_single_hot_line() {
    let s = run_sim(Arc::new(DetRw), vec![hot_program()], 64);
    assert!(
        s.commits() > 100,
        "64 cores on one line must still pipeline"
    );
}

#[test]
fn write_only_same_line_every_op() {
    // Every op in every transaction hits the same line.
    let p = TxnProgram {
        ops: vec![Op::Write(7), Op::Write(7), Op::Write(7)],
    };
    let s = run_sim(Arc::new(RandRw), vec![p], 8);
    assert!(s.commits() > 100);
}

#[test]
fn stm_survives_malicious_policy() {
    // The STM treats a NaN grace as an already-expired deadline.
    let stm = Stm::new(4, 4);
    std::thread::scope(|s| {
        for id in 0..4usize {
            let stm = &stm;
            s.spawn(move || {
                let mut t = TxCtx::new(
                    stm,
                    id,
                    MaliciousPolicy(f64::NAN),
                    Xoshiro256StarStar::new(id as u64),
                );
                for _ in 0..2_000 {
                    t.run(|tx| {
                        let v = tx.read(0)?;
                        tx.write(0, v + 1)
                    });
                }
            });
        }
    });
    assert_eq!(stm.read_direct(0), 8_000);
}

#[test]
fn server_survives_malicious_grace() {
    // The whole serving stack under each pathological grace: 8 keys under
    // a hot Zipf head with cross-shard RMWs and in-transaction work, so
    // executors that truly overlap meet each other's commit locks and the
    // arbiter sees the bad value. (How often they overlap depends on the
    // host; the arbiter's clamping itself is pinned in `tcp_core::engine`.)
    let cfg = ServeConfig {
        shards: 4,
        clients: 8,
        ops_per_client: 500,
        keys: 8,
        zipf_s: 1.2,
        read_fraction: 0.3,
        rmw_fraction: 0.5,
        rmw_span: 3,
        think_ns: 0,
        work_ns: 3_000,
        seed: 13,
        ..Default::default()
    };
    for grace in [f64::NAN, f64::INFINITY, -1e9, 1e300] {
        // Run on a helper thread so a hang fails the test instead of
        // stalling the suite.
        let (tx, rx) = std::sync::mpsc::channel();
        let run_cfg = cfg.clone();
        let worker = std::thread::spawn(move || {
            let _ = tx.send(run_server(&run_cfg, MaliciousPolicy(grace)));
        });
        let r = rx.recv_timeout(std::time::Duration::from_secs(60));
        assert!(
            !matches!(r, Err(std::sync::mpsc::RecvTimeoutError::Timeout)),
            "grace {grace}: the run hung"
        );
        worker
            .join()
            .unwrap_or_else(|_| panic!("grace {grace}: the run panicked"));
        let r = r.expect("a run that neither hung nor panicked sent its report");
        let m = r.stats.merged();
        assert_eq!(
            m.commits + m.sheds,
            cfg.total_requests(),
            "grace {grace}: every request commits or sheds exactly once"
        );
        assert_eq!(r.state_sum, r.increments_applied, "grace {grace}: heap");
        assert_eq!(r.reply_faults, 0, "grace {grace}: reply faults");
    }
}

#[test]
fn executor_survives_a_client_that_vanishes_with_requests_outstanding() {
    // The client arms a window of cells, submits, and disappears while the
    // executor is serving: nobody will ever `take`, and the client's own
    // `Arc`s are dropped with requests still queued. The executor's `put`s
    // must neither block on the absent taker nor keep the cells alive, and
    // the run must drain.
    const WINDOW: usize = 32;
    let stm = Stm::new(64, 1);
    let router = Router::new(1, 2 * WINDOW);
    let holder: Vec<Arc<ReplyCell>> = (0..WINDOW).map(|_| Arc::new(ReplyCell::new())).collect();
    let cfg = ExecutorConfig {
        shard: 0,
        batch_max: 8,
        work_ns: 0,
        stats_interval_ns: 0,
        run_start: std::time::Instant::now(),
        steal: true,
        steal_min_depth: 0,
        group_commit: false,
        snapshot_reads: true,
        trace: None,
    };
    let mut admitted = 0;
    let stats = std::thread::scope(|s| {
        let queues = router.queues();
        let (stm, cfg) = (&stm, &cfg);
        let executor =
            s.spawn(move || run_executor(stm, RandRw, Xoshiro256StarStar::new(9), &queues, cfg));
        let client = holder.clone();
        for (k, cell) in client.iter().enumerate() {
            // Half the cells are reissued at once: their first request is
            // abandoned in flight, its reply may find the cell moved on.
            for _ in 0..1 + k % 2 {
                let gen = cell.issue();
                router.submit(Request::Add(k as u64, 1), cell, gen).unwrap();
                admitted += 1;
            }
        }
        drop(client);
        router.close();
        executor.join().unwrap()
    });
    assert_eq!(stats.commits, admitted, "every admitted request ran");
    for cell in &holder {
        assert_eq!(
            Arc::strong_count(cell),
            1,
            "the executor's envelopes released their cell"
        );
    }
    // The replies of the generations still current were delivered with
    // nobody waiting; only an abandoned generation's reply can be a fault.
    for (k, cell) in holder.iter().enumerate() {
        let requests = 1 + k as u64 % 2;
        assert_eq!(cell.take(), Response::Added(requests), "cell {k}");
        let (duplicate, stale) = cell.faults();
        assert!(duplicate == 0 && stale < requests, "cell {k}");
    }
}
