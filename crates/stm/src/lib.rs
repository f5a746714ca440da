//! # tcp-stm — a TL2-style software TM with grace-period conflict management
//!
//! The paper's decision rule is hardware-oriented, but nothing stops a
//! software TM from applying it: when a transaction hits a locked word it
//! must decide how long to wait before resolving the conflict. This crate
//! implements a word-based TL2-style STM (global version clock, versioned
//! write-locks, buffered writes, read-set validation) whose waiting policy
//! is any [`tcp_core::policy::GracePolicy`]:
//!
//! * **requestor aborts** — wait out the grace period, then abort yourself
//!   (the classic ski-rental mapping of §4.2);
//! * **requestor wins** — wait, then flag the lock owner for remote abort;
//!   the owner self-aborts at its next safe point and releases its locks.
//!
//! It exists because no maintained Rust STM crate offers pluggable
//! contention management (README, "Deviations from the paper", 3), and it
//! validates the policies on real threads rather than in simulation.
//! A transactional stack and a throughput harness mirror the paper's
//! stack benchmark.
//!
//! ```
//! use tcp_stm::prelude::*;
//! use tcp_core::randomized::RandRa;
//! use tcp_core::rng::Xoshiro256StarStar;
//!
//! let stm = Stm::new(16, 1);
//! let mut ctx = TxCtx::new(&stm, 0, RandRa, Xoshiro256StarStar::new(1));
//! let sum = ctx.run(|tx| {
//!     tx.write(0, 40)?;
//!     let v = tx.read(0)?;
//!     Ok(v + 2)
//! });
//! assert_eq!(sum, 42);
//! ```

pub mod runtime;
pub mod structures;
pub mod throughput;

pub mod prelude {
    pub use crate::runtime::{
        Abort, Addr, GroupCommit, MemberOutcome, PreparedTx, Reciprocal, ShardLayout, SnapshotMiss,
        SnapshotTx, Stm, Tx, TxCtx, WriteEntry, WriteOp, PAIRS_PER_LINE,
    };
    pub use crate::structures::TStack;
    pub use crate::throughput::{stack_throughput, txapp_throughput, Throughput};
    pub use tcp_core::engine::EngineStats;
}
