//! Extension experiment: the policies on the real-thread STM runtime —
//! stack and 64-object transactional application throughput per policy and
//! thread count.

use std::time::Duration;
use tcp_bench::table;
use tcp_core::policy::NoDelay;
use tcp_core::randomized::{RandRa, RandRw};
use tcp_stm::throughput::{stack_throughput, txapp_throughput, Throughput};

fn print(workload: &str, name: &str, r: Throughput) {
    table::row(&[
        workload.into(),
        name.into(),
        r.threads.to_string(),
        table::num(r.ops_per_sec()),
        table::num(r.aborts as f64 / r.ops.max(1) as f64),
    ]);
}

fn main() {
    let dur = Duration::from_millis(if table::quick() { 50 } else { 300 });
    let threads = [1usize, 2, 4, 8];
    println!(
        "# stm_throughput: {}ms per cell (wall clock)",
        dur.as_millis()
    );
    table::header(&[
        "workload",
        "policy",
        "threads",
        "ops_per_sec",
        "aborts_per_op",
    ]);
    for &t in &threads {
        print(
            "stack",
            "NO_DELAY(RA)",
            stack_throughput(NoDelay::requestor_aborts(), t, dur, 1),
        );
        print("stack", "RRA", stack_throughput(RandRa, t, dur, 2));
        print("stack", "RRW", stack_throughput(RandRw, t, dur, 3));
    }
    for &t in &threads {
        print(
            "txapp64",
            "NO_DELAY(RA)",
            txapp_throughput(NoDelay::requestor_aborts(), t, 64, dur, 4),
        );
        print("txapp64", "RRA", txapp_throughput(RandRa, t, 64, dur, 5));
        print("txapp64", "RRW", txapp_throughput(RandRw, t, 64, dur, 6));
    }
}
