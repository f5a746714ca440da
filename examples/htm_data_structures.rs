//! Concurrent data structures on the simulated HTM: a transactional stack
//! and queue hammered by 12 cores, under each conflict-resolution strategy.
//! Reproduces the qualitative Figure 3 story in a few seconds.
//!
//! Run with: `cargo run --release --example htm_data_structures`

use std::sync::Arc;

use transactional_conflict::prelude::*;

fn main() {
    let workloads: Vec<(&str, Arc<dyn WorkloadGen>)> = vec![
        ("stack", Arc::new(StackWorkload::default())),
        ("queue", Arc::new(QueueWorkload::default())),
        (
            "txapp (2 of 64 objects)",
            Arc::new(TxAppWorkload::default()),
        ),
    ];
    let threads = 12;
    let horizon = 400_000;

    for (name, workload) in workloads {
        println!("== {name}: {threads} cores, {horizon} cycles @1GHz");
        println!(
            "{:12} {:>12} {:>10} {:>10} {:>12}",
            "strategy", "ops/sec", "aborts", "conflicts", "saved-by-delay"
        );
        // The paper's four arms (§8.2).
        let tuned = HandTuned::new(ResolutionMode::RequestorWins, workload.tuned_delay());
        let arms: [(&str, Arc<dyn GracePolicy>); 4] = [
            ("NO_DELAY", Arc::new(NoDelay::requestor_wins())),
            ("DELAY_TUNED", Arc::new(tuned)),
            ("DELAY_DET", Arc::new(DetRw)),
            ("DELAY_RAND", Arc::new(RandRw)),
        ];
        for (label, policy) in arms {
            let mut cfg = SimConfig::new(threads, policy);
            cfg.horizon = horizon;
            let mut sim = Simulator::new(cfg, Arc::clone(&workload));
            sim.run();
            let s = &sim.stats;
            println!(
                "{:12} {:>12.3e} {:>10} {:>10} {:>12}",
                label,
                s.ops_per_second(1.0),
                s.aborts(),
                s.global.conflicts,
                s.global.saved_by_delay
            );
        }
        println!();
    }

    // The story: delaying the abort lets the receiver commit within its
    // grace period ("saved-by-delay"), so the delay strategies keep the hot
    // structures pipelined while NO_DELAY burns work in abort storms.
}
