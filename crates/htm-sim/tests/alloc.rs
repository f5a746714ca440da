//! The simulator's event loop allocates nothing in steady state: running
//! four times as long may cost a few more table doublings, not one
//! allocation per event, conflict, grant sweep or transaction.
//!
//! Its own test binary because it installs a counting global allocator.
//! The count is per thread, so the harness's other threads do not disturb
//! it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use tcp_core::randomized::RandRw;
use tcp_htm_sim::config::SimConfig;
use tcp_htm_sim::sim::Simulator;
use tcp_workloads::programs::{StackWorkload, TxAppWorkload, WorkloadGen};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    // A thread that is being torn down has no counter left; nothing the
    // test measures allocates there.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator
// state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) made by building and running one
/// 8-core `RandRw` simulation to `horizon`.
fn allocations_to(horizon: u64, workload: Arc<dyn WorkloadGen>) -> (u64, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let mut cfg = SimConfig::new(8, Arc::new(RandRw));
    cfg.horizon = horizon;
    cfg.seed = 42;
    let mut sim = Simulator::new(cfg, workload);
    let commits = sim.run().commits();
    (ALLOCATIONS.with(Cell::get) - before, commits)
}

#[test]
fn allocation_count_does_not_grow_with_the_horizon() {
    let workloads: [(&str, Arc<dyn WorkloadGen>); 2] = [
        ("stack", Arc::new(StackWorkload::default())),
        ("txapp", Arc::new(TxAppWorkload::default())),
    ];
    for (name, workload) in workloads {
        let (short, short_commits) = allocations_to(250_000, Arc::clone(&workload));
        let (long, long_commits) = allocations_to(1_000_000, workload);
        assert!(
            long_commits > 3 * short_commits,
            "{name}: the long run must do ~4x the work ({short_commits} -> {long_commits} commits)"
        );
        println!("{name}: {short} allocations to 250k cycles, {long} to 1M");
        assert!(short > 0, "{name}: the counter is not counting");
        assert!(
            long <= short + 64,
            "{name}: {short} allocations to 250k cycles, {long} to 1M — \
             something allocates per event"
        );
    }
}
