//! Transaction programs for the HTM simulator — the four workloads of the
//! paper's Figure 3: stack, queue, uniform transactional application, and
//! bimodal transactional application (§8.2).
//!
//! A program is a straight-line sequence of cache-line accesses and compute
//! delays; the simulator replays it inside a hardware transaction,
//! restarting from the top on abort. Addresses are abstract cache-line ids.

use tcp_core::rng::{uniform_u64_below, Xoshiro256StarStar};

/// One step of a transaction body.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Transactional read of a cache line.
    Read(u64),
    /// Transactional write of a cache line.
    Write(u64),
    /// Local computation for the given number of cycles (no memory traffic).
    Compute(u32),
}

/// A complete transaction body.
#[derive(Clone, Debug, Default)]
pub struct TxnProgram {
    pub ops: Vec<Op>,
}

impl TxnProgram {
    /// Replace the body with `ops`, keeping the allocation.
    pub fn refill(&mut self, ops: impl IntoIterator<Item = Op>) {
        self.ops.clear();
        self.ops.extend(ops);
    }

    /// Number of distinct cache lines the program touches.
    pub fn footprint(&self) -> usize {
        let mut lines: Vec<u64> = self
            .ops
            .iter()
            .filter_map(|op| match op {
                Op::Read(a) | Op::Write(a) => Some(*a),
                Op::Compute(_) => None,
            })
            .collect();
        lines.sort_unstable();
        lines.dedup();
        lines.len()
    }

    /// Total compute cycles (a lower bound on the conflict-free duration).
    pub fn compute_cycles(&self) -> u64 {
        self.ops
            .iter()
            .map(|op| match op {
                Op::Compute(n) => *n as u64,
                _ => 0,
            })
            .sum()
    }
}

/// A per-thread generator of transaction bodies.
pub trait WorkloadGen: Send + Sync {
    /// Overwrite `txn` with the `seq`-th transaction executed by thread
    /// `tid`. The caller owns the program and hands the same one back for
    /// every transaction, so a generator allocates nothing once the body
    /// has reached its usual length.
    fn fill_txn(&self, tid: usize, seq: u64, rng: &mut Xoshiro256StarStar, txn: &mut TxnProgram);

    fn name(&self) -> &'static str;

    /// The profiled mean conflict-free body length in cycles, as a
    /// hand-tuning oracle would compute it (used by `DELAY_TUNED`).
    fn mean_body_cycles(&self) -> f64;

    /// The hand-tuned grace period for `DELAY_TUNED` (§8.2: chosen "based
    /// on knowledge of the dataset and implementation"). A human tuner
    /// measures the *hold window* — body compute plus coherence latencies —
    /// and adds headroom, so the default is 1.5× the mean body length.
    fn tuned_delay(&self) -> f64 {
        1.5 * self.mean_body_cycles()
    }
}

/// Address-space layout shared by the workloads. Each region gets a 2^20
/// line window, far beyond any footprint.
const REGION: u64 = 1 << 20;
/// Global shared hotspots live in region 0.
const HOT_BASE: u64 = 0;
/// Per-thread private lines (node pools, scratch) in regions ≥ 1.
fn private_line(tid: usize, slot: u64) -> u64 {
    REGION * (1 + tid as u64) + slot
}

/// Transactional stack: every operation acquires the top-of-stack line
/// exclusively and holds it for the remainder of the transaction (the
/// paper's lazy-validation HTM surfaces conflicts while the owner still has
/// `hot_work` cycles left — exactly the Figure 1 picture). Push/pop
/// alternate (paper §8.2). Single hotspot: all concurrent operations
/// conflict.
#[derive(Clone, Copy, Debug)]
pub struct StackWorkload {
    /// Compute cycles spent before the hot access (local work: allocating /
    /// preparing the node).
    pub pre_work: u32,
    /// Compute cycles spent while holding the hot line (the critical work:
    /// updating the node links and validating, up to commit).
    pub hot_work: u32,
}

impl Default for StackWorkload {
    fn default() -> Self {
        Self {
            pre_work: 20,
            hot_work: 60,
        }
    }
}

impl WorkloadGen for StackWorkload {
    fn fill_txn(&self, tid: usize, seq: u64, _rng: &mut Xoshiro256StarStar, txn: &mut TxnProgram) {
        let top = HOT_BASE; // the single top-of-stack line
        let node = private_line(tid, seq % 64);
        let push = seq.is_multiple_of(2);
        txn.refill([
            Op::Compute(self.pre_work),
            if push {
                Op::Write(node) // prepare the node
            } else {
                Op::Read(node) // prefetch the node payload
            },
            Op::Write(top),             // acquire the top exclusively
            Op::Compute(self.hot_work), // (un)link + validate
        ]);
    }

    fn name(&self) -> &'static str {
        "stack"
    }

    fn mean_body_cycles(&self) -> f64 {
        (self.pre_work + self.hot_work) as f64
    }
}

/// Transactional queue: enqueues hit the tail line, dequeues the head line
/// — two hotspots, each contended by half the threads.
#[derive(Clone, Copy, Debug)]
pub struct QueueWorkload {
    pub pre_work: u32,
    pub hot_work: u32,
}

impl Default for QueueWorkload {
    fn default() -> Self {
        Self {
            pre_work: 20,
            hot_work: 70,
        }
    }
}

impl WorkloadGen for QueueWorkload {
    fn fill_txn(&self, tid: usize, seq: u64, _rng: &mut Xoshiro256StarStar, txn: &mut TxnProgram) {
        let head = HOT_BASE;
        let tail = HOT_BASE + 1;
        let node = private_line(tid, seq % 64);
        let enq = seq.is_multiple_of(2);
        txn.refill([
            Op::Compute(self.pre_work),
            if enq { Op::Write(node) } else { Op::Read(node) },
            // Acquire the tail (enqueue) or the head (dequeue) exclusively.
            Op::Write(if enq { tail } else { head }),
            Op::Compute(self.hot_work),
        ]);
    }

    fn name(&self) -> &'static str {
        "queue"
    }

    fn mean_body_cycles(&self) -> f64 {
        (self.pre_work + self.hot_work) as f64
    }
}

/// The paper's transactional application: each transaction jointly acquires
/// and modifies 2 out of `objects` shared objects (default 64), with a
/// uniform body length.
#[derive(Clone, Copy, Debug)]
pub struct TxAppWorkload {
    pub objects: u64,
    /// Compute cycles between the two acquisitions.
    pub work_between: u32,
    /// Compute cycles after both objects are held.
    pub work_after: u32,
}

impl Default for TxAppWorkload {
    fn default() -> Self {
        Self {
            objects: 64,
            work_between: 60,
            work_after: 60,
        }
    }
}

impl WorkloadGen for TxAppWorkload {
    fn fill_txn(&self, _tid: usize, _seq: u64, rng: &mut Xoshiro256StarStar, txn: &mut TxnProgram) {
        let a = uniform_u64_below(rng, self.objects);
        let mut b = uniform_u64_below(rng, self.objects - 1);
        if b >= a {
            b += 1; // distinct objects
        }
        txn.refill([
            Op::Write(HOT_BASE + a), // acquire + modify the first object
            Op::Compute(self.work_between),
            Op::Write(HOT_BASE + b), // acquire + modify the second object
            Op::Compute(self.work_after),
        ]);
    }

    fn name(&self) -> &'static str {
        "txapp"
    }

    fn mean_body_cycles(&self) -> f64 {
        (self.work_between + self.work_after) as f64
    }
}

/// The bimodal variant: transactions alternate between short and very long
/// bodies (the regime where hand-tuning mispredicts, §8.2).
#[derive(Clone, Copy, Debug)]
pub struct BimodalWorkload {
    pub objects: u64,
    pub short_work: u32,
    pub long_work: u32,
}

impl Default for BimodalWorkload {
    fn default() -> Self {
        Self {
            objects: 64,
            short_work: 30,
            long_work: 3000,
        }
    }
}

impl WorkloadGen for BimodalWorkload {
    fn fill_txn(&self, _tid: usize, seq: u64, rng: &mut Xoshiro256StarStar, txn: &mut TxnProgram) {
        let a = uniform_u64_below(rng, self.objects);
        let mut b = uniform_u64_below(rng, self.objects - 1);
        if b >= a {
            b += 1;
        }
        let work = if seq.is_multiple_of(2) {
            self.short_work
        } else {
            self.long_work
        };
        txn.refill([
            Op::Write(HOT_BASE + a), // acquire + modify the first object
            Op::Compute(work / 2),
            Op::Write(HOT_BASE + b), // acquire + modify the second object
            Op::Compute(work / 2),
        ]);
    }

    fn name(&self) -> &'static str {
        "bimodal"
    }

    fn mean_body_cycles(&self) -> f64 {
        (self.short_work as f64 + self.long_work as f64) / 2.0
    }
}

/// The transactional application with Zipf-skewed object popularity:
/// object rank 0 is the hottest. At `theta = 0` this degenerates to
/// [`TxAppWorkload`]; higher skew concentrates conflicts on a few objects
/// (the contention-skew ablation).
#[derive(Clone, Debug)]
pub struct SkewedTxAppWorkload {
    pub objects: u64,
    pub work_between: u32,
    pub work_after: u32,
    zipf: crate::dist::Zipf,
}

impl SkewedTxAppWorkload {
    pub fn new(objects: u64, theta: f64) -> Self {
        Self {
            objects,
            work_between: 60,
            work_after: 60,
            zipf: crate::dist::Zipf::new(objects as usize, theta),
        }
    }
}

impl WorkloadGen for SkewedTxAppWorkload {
    fn fill_txn(&self, _tid: usize, _seq: u64, rng: &mut Xoshiro256StarStar, txn: &mut TxnProgram) {
        let a = self.zipf.sample(rng) as u64;
        let mut b = self.zipf.sample(rng) as u64;
        let mut guard = 0;
        while b == a && guard < 64 {
            b = self.zipf.sample(rng) as u64;
            guard += 1;
        }
        if b == a {
            b = (a + 1) % self.objects;
        }
        txn.refill([
            Op::Write(HOT_BASE + a),
            Op::Compute(self.work_between),
            Op::Write(HOT_BASE + b),
            Op::Compute(self.work_after),
        ]);
    }

    fn name(&self) -> &'static str {
        "txapp-skewed"
    }

    fn mean_body_cycles(&self) -> f64 {
        (self.work_between + self.work_after) as f64
    }
}

/// Read-dominated workload: transactions traverse a chain of shared nodes
/// (reads) and occasionally update one (write). Exercises the
/// reader-as-victim conflict path: a writer's invalidation hits many
/// transactional Shared copies at once. Not part of the paper's Figure 3;
/// used by the extension benches and the failure-mode tests.
#[derive(Clone, Copy, Debug)]
pub struct ListWorkload {
    /// Number of shared nodes in the traversal window.
    pub nodes: u64,
    /// Nodes read per transaction.
    pub reads: u64,
    /// 1-in-`write_ratio` transactions end with a node update.
    pub write_ratio: u64,
    /// Compute cycles between reads.
    pub think: u32,
}

impl Default for ListWorkload {
    fn default() -> Self {
        Self {
            nodes: 128,
            reads: 12,
            write_ratio: 8,
            think: 4,
        }
    }
}

impl WorkloadGen for ListWorkload {
    fn fill_txn(&self, _tid: usize, seq: u64, rng: &mut Xoshiro256StarStar, txn: &mut TxnProgram) {
        let start = uniform_u64_below(rng, self.nodes);
        let ops = &mut txn.ops;
        ops.clear();
        for i in 0..self.reads {
            ops.push(Op::Read(HOT_BASE + (start + i) % self.nodes));
            ops.push(Op::Compute(self.think));
        }
        if seq.is_multiple_of(self.write_ratio) {
            let victim = (start + self.reads - 1) % self.nodes;
            ops.push(Op::Write(HOT_BASE + victim));
        }
    }

    fn name(&self) -> &'static str {
        "list"
    }

    fn mean_body_cycles(&self) -> f64 {
        (self.reads * self.think as u64) as f64
    }
}

/// A workload that replays a fixed set of programs round-robin (per
/// thread, offset by thread id). Lets users drive the simulator with
/// custom or recorded transaction bodies, and the test-suite with
/// property-generated ones.
#[derive(Clone, Debug)]
pub struct FixedProgramsWorkload {
    pub programs: Vec<TxnProgram>,
    /// Nominal mean body length reported to tuning oracles.
    mean: f64,
}

impl FixedProgramsWorkload {
    pub fn new(programs: Vec<TxnProgram>) -> Self {
        assert!(!programs.is_empty());
        let mean = programs
            .iter()
            .map(|p| p.compute_cycles() as f64)
            .sum::<f64>()
            / programs.len() as f64;
        Self { programs, mean }
    }
}

impl WorkloadGen for FixedProgramsWorkload {
    fn fill_txn(&self, tid: usize, seq: u64, _rng: &mut Xoshiro256StarStar, txn: &mut TxnProgram) {
        let idx = (seq as usize + tid) % self.programs.len();
        txn.refill(self.programs[idx].ops.iter().copied());
    }

    fn name(&self) -> &'static str {
        "fixed"
    }

    fn mean_body_cycles(&self) -> f64 {
        self.mean.max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcp_core::rng::Xoshiro256StarStar;

    /// A fresh program filled by `w`.
    fn next_txn(
        w: &dyn WorkloadGen,
        tid: usize,
        seq: u64,
        rng: &mut Xoshiro256StarStar,
    ) -> TxnProgram {
        let mut txn = TxnProgram::default();
        w.fill_txn(tid, seq, rng, &mut txn);
        txn
    }

    #[test]
    fn stack_alternates_push_pop_on_same_hot_line() {
        let w = StackWorkload::default();
        let mut rng = Xoshiro256StarStar::new(1);
        let push = next_txn(&w, 0, 0, &mut rng);
        let pop = next_txn(&w, 0, 1, &mut rng);
        assert_ne!(push.ops, pop.ops);
        // Both touch the top line (address 0).
        for p in [&push, &pop] {
            assert!(p.ops.iter().any(|o| matches!(o, Op::Write(0))));
        }
    }

    #[test]
    fn private_lines_do_not_collide_across_threads() {
        let w = StackWorkload::default();
        let mut rng = Xoshiro256StarStar::new(2);
        let t0 = next_txn(&w, 0, 0, &mut rng);
        let t1 = next_txn(&w, 1, 0, &mut rng);
        let private = |p: &TxnProgram| {
            p.ops
                .iter()
                .filter_map(|o| match o {
                    Op::Read(a) | Op::Write(a) if *a >= REGION => Some(*a),
                    _ => None,
                })
                .collect::<Vec<_>>()
        };
        for a in private(&t0) {
            assert!(!private(&t1).contains(&a));
        }
    }

    #[test]
    fn txapp_touches_two_distinct_objects() {
        let w = TxAppWorkload::default();
        let mut rng = Xoshiro256StarStar::new(3);
        for seq in 0..1000 {
            let p = next_txn(&w, 0, seq, &mut rng);
            assert_eq!(p.footprint(), 2, "exactly two object lines");
            let addrs: Vec<u64> = p
                .ops
                .iter()
                .filter_map(|o| match o {
                    Op::Read(a) | Op::Write(a) => Some(*a),
                    _ => None,
                })
                .collect();
            for a in addrs {
                assert!(a < 64);
            }
        }
    }

    #[test]
    fn bimodal_alternates_lengths() {
        let w = BimodalWorkload::default();
        let mut rng = Xoshiro256StarStar::new(4);
        let short = next_txn(&w, 0, 0, &mut rng);
        let long = next_txn(&w, 0, 1, &mut rng);
        assert!(long.compute_cycles() > 10 * short.compute_cycles());
    }

    #[test]
    fn skewed_txapp_concentrates_on_hot_objects() {
        let w = SkewedTxAppWorkload::new(64, 1.2);
        let mut rng = Xoshiro256StarStar::new(8);
        let mut hot_hits = 0usize;
        let mut total = 0usize;
        for seq in 0..2000 {
            for op in next_txn(&w, 0, seq, &mut rng).ops {
                if let Op::Write(a) = op {
                    total += 1;
                    if a < 4 {
                        hot_hits += 1;
                    }
                }
            }
        }
        // Under Zipf(1.2) the top 4 of 64 objects take >40% of accesses.
        let frac = hot_hits as f64 / total as f64;
        assert!(frac > 0.4, "hot fraction {frac}");
        // Objects within a transaction are distinct.
        for seq in 0..500 {
            let p = next_txn(&w, 0, seq, &mut rng);
            assert_eq!(p.footprint(), 2);
        }
    }

    #[test]
    fn list_workload_is_read_dominated() {
        let w = ListWorkload::default();
        let mut rng = Xoshiro256StarStar::new(6);
        let mut reads = 0usize;
        let mut writes = 0usize;
        for seq in 0..800 {
            for op in next_txn(&w, 0, seq, &mut rng).ops {
                match op {
                    Op::Read(_) => reads += 1,
                    Op::Write(_) => writes += 1,
                    Op::Compute(_) => {}
                }
            }
        }
        assert!(reads > 50 * writes, "{reads} reads vs {writes} writes");
    }

    #[test]
    fn list_reads_wrap_around_the_window() {
        let w = ListWorkload {
            nodes: 8,
            reads: 8,
            write_ratio: 1,
            think: 1,
        };
        let mut rng = Xoshiro256StarStar::new(7);
        let p = next_txn(&w, 0, 0, &mut rng);
        let addrs: Vec<u64> = p
            .ops
            .iter()
            .filter_map(|o| match o {
                Op::Read(a) => Some(*a),
                _ => None,
            })
            .collect();
        assert_eq!(addrs.len(), 8);
        for a in addrs {
            assert!(a < 8);
        }
    }

    #[test]
    fn mean_body_cycles_reflects_programs() {
        let w = StackWorkload::default();
        let mut rng = Xoshiro256StarStar::new(5);
        let p = next_txn(&w, 0, 0, &mut rng);
        assert_eq!(p.compute_cycles(), w.mean_body_cycles() as u64);
    }
}
