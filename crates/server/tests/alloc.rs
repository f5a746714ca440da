//! The group-commit path allocates nothing per member: serving four times
//! as many batches costs not one allocation more. Members run the one
//! request body into pooled speculation sets and reply from their
//! speculative reply plus a shift, so neither an `Rmw` nor an `Add`
//! member needs a heap buffer of its own.
//!
//! Its own test binary because it installs a counting global allocator.
//! The count is per thread and the executor runs on the test thread, so
//! the harness's other threads do not disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

use tcp_core::policy::NoDelay;
use tcp_core::rng::Xoshiro256StarStar;
use tcp_server::prelude::{
    run_executor, Envelope, ExecutorConfig, ReplyCell, Request, Response, ShardQueue,
};
use tcp_stm::runtime::Stm;

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

const BATCH: usize = 8;

/// Allocations made by `run_executor` serving `batches` full batches of
/// `req(i)` from a pre-filled, closed ring under group commit.
fn allocations_serving(batches: usize, req: impl Fn(u64) -> Request) -> u64 {
    let stm = Stm::new(64, 1);
    let n = batches * BATCH;
    let queue = Arc::new(ShardQueue::new(n));
    let cells: Vec<_> = (0..n).map(|_| Arc::new(ReplyCell::new())).collect();
    for (i, cell) in cells.iter().enumerate() {
        let gen = cell.issue();
        queue
            .try_push(Envelope::new(req(i as u64), Arc::clone(cell), gen))
            .unwrap_or_else(|_| panic!("push"));
    }
    queue.close();
    let cfg = ExecutorConfig {
        shard: 0,
        batch_max: BATCH,
        work_ns: 0,
        stats_interval_ns: 0,
        run_start: Instant::now(),
        steal: false,
        steal_min_depth: 0,
        group_commit: true,
        snapshot_reads: true,
        trace: None,
    };
    let queues = [queue];
    let before = ALLOCATIONS.with(Cell::get);
    let stats = run_executor(
        &stm,
        NoDelay::requestor_aborts(),
        Xoshiro256StarStar::new(1),
        &queues,
        &cfg,
    );
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(stats.commits, n as u64);
    assert_eq!(
        stats.group_fallbacks, 0,
        "every member committed in a group"
    );
    assert_eq!(stats.group_commits, batches as u64, "one group per batch");
    for cell in &cells {
        assert!(matches!(
            cell.take(),
            Response::RmwSum(_) | Response::Added(_)
        ));
    }
    allocations
}

/// Serve 16 and then 64 batches of `req(i)`: the count must not grow.
fn assert_flat(name: &str, req: fn(u64) -> Request) {
    let short = allocations_serving(16, req);
    let long = allocations_serving(64, req);
    println!("{name}: {short} allocations for 16 batches, {long} for 64");
    assert!(short > 0, "{name}: the counter is not counting");
    assert!(
        long <= short,
        "{name}: {short} allocations for 16 batches, {long} for 64 — \
         something allocates per member"
    );
}

#[test]
fn group_commit_allocations_do_not_grow_with_the_batch_count() {
    // Keys revisit within a member (`Rmw`) and across members (both), so
    // increments fold in-transaction and across the group.
    assert_flat("rmw", |i| Request::Rmw {
        keys: vec![i % 4, 4 + i % 3, i % 4],
        delta: 1,
    });
    assert_flat("add", |i| Request::Add(i % 5, 1));
}
