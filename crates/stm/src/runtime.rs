//! A TL2-style word-based software transactional memory with pluggable
//! grace-period conflict management and batch-aware group commit.
//!
//! The paper's policies are derived for HTM, where decisions are local,
//! immediate, and unchangeable (§1). This runtime exercises the same
//! decision rule on real threads: when a transaction encounters a locked
//! word, the policy chooses how long to wait before resolving the conflict
//! — by aborting itself (requestor aborts) or by flagging the lock owner
//! for remote abort (requestor wins).
//!
//! Design (classic TL2):
//! * a global version clock;
//! * per-word versioned write-locks (version + lock bit + owner id packed
//!   into one `AtomicU64`), values in a second `AtomicU64`;
//! * reads validate against the snapshot version and are recorded in a read
//!   set; writes are buffered as typed [`WriteEntry`]s — absolute stores
//!   ([`WriteOp::Set`]) or commutative increments ([`WriteOp::Add`]);
//! * commit runs three explicit phases — **acquire** write locks in
//!   slot order, **validate** the read set, **publish** under a clock
//!   bump — shared between the per-transaction path and [`GroupCommit`].
//!
//! **Group commit** is the batch-aware extension: a batch executor runs
//! its popped transactions *speculatively* ([`TxCtx::speculate_into`],
//! producing [`PreparedTx`] read/write sets without committing), then
//! hands the batch to [`GroupCommit`], which partitions it into
//! write-set-disjoint groups (commutative increments on the same key
//! *fold* instead of conflicting), and publishes each group under a
//! **single clock bump**. The global clock is the one word every writer
//! on every core must touch, so one bump per group — instead of one per
//! transaction — is what shrinks the shared-write window the paper's
//! conflict analysis identifies as the scalability limiter. Members that
//! meet a foreign lock or fail validation fall back to the per-tx path,
//! where the [`ConflictArbiter`] grace machinery governs the conflict as
//! usual; observable state is independent of how transactions were
//! grouped (groups serialize in batch order, folded increments resolve
//! their per-member values in that same order).
//!
//! **Memory layout** (see the README's "Memory layout" section for the
//! full diagram): the heap is a structure-of-arrays. The *hot* array
//! holds cache-line-aligned [`HotLine`]s of four `(meta, value)` pairs
//! each — everything the read/validate/publish fast paths touch — laid
//! out **shard-major** through a bijective [`ShardLayout`] `key → slot`
//! mapping, so one shard's words are contiguous and never share a cache
//! line with another shard's (no false sharing between shard executors).
//! The *cold* array holds `chain_head` + the bounded MVCC chains, which
//! only publishes and snapshot readers touch; it is segmented on the same
//! line-exact boundaries. The [`Stm`] header itself is split by who
//! writes what: the construct-once fields share lines nobody writes, the
//! version clock has a 128-byte line to itself, and each thread's kill
//! flag has its own. A key is mapped to its slot **once per access** —
//! the read/write-set entries carry the slot, so lock, validate, publish
//! and release index the arrays directly. Atomic orderings follow the
//! seqlock / PUBLISH_BIT protocols; every load/store below is annotated
//! with the invariant its ordering preserves.
//!
//! **Time** comes from [`tcp_core::clock`] only: attempt start stamps,
//! grace deadlines and wait accounting are raw ticks, converted to
//! nanoseconds where a number leaves the transaction.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use tcp_core::clock;
use tcp_core::conflict::ResolutionMode;
use tcp_core::engine::{AbortKind, ConflictArbiter, EngineStats};
use tcp_core::pad::CachePadded;
use tcp_core::policy::GracePolicy;
use tcp_core::rng::Xoshiro256StarStar;
use tcp_core::smallset::{InlineVec, KeyFilter};
use tcp_core::trace::{Trace, TraceEvent, TraceKind, TraceTag};

/// Word addresses within an [`Stm`] heap.
pub type Addr = usize;

/// Why a transaction attempt failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Abort {
    /// Read-set validation failed (a word changed under us).
    Validation,
    /// Lost a conflict on a locked word.
    Conflict,
    /// Another transaction's requestor-wins resolution flagged us.
    RemoteKill,
}

impl From<Abort> for AbortKind {
    fn from(a: Abort) -> Self {
        match a {
            Abort::Validation => AbortKind::Validation,
            Abort::Conflict => AbortKind::Conflict,
            Abort::RemoteKill => AbortKind::RemoteKill,
        }
    }
}

const LOCK_BIT: u64 = 1 << 63;
/// Owner id occupies bits 48..62 — 15 bits, up to 32k threads. Bit 63 is
/// [`LOCK_BIT`], so the owner field must stay clear of it: packing the
/// maximal owner id must not read back as an unlocked word.
const OWNER_SHIFT: u32 = 48;
const OWNER_BITS: u32 = 15;
const OWNER_MASK: u64 = ((1 << OWNER_BITS) - 1) << OWNER_SHIFT;
/// Largest packable owner id (inclusive).
pub(crate) const MAX_OWNER: usize = (1 << OWNER_BITS) - 1;
const VERSION_MASK: u64 = (1 << OWNER_SHIFT) - 1;
/// Set on a *locked* meta word while its owner is inside the publish
/// sequence (version bits are dead while the lock bit is held, so bit 0
/// is free). Snapshot readers that meet the flag spin briefly — the
/// owner's clock bump and chain push are instants away and the publish
/// phase never blocks — instead of consulting the chain, which does not
/// yet hold the in-flight write.
const PUBLISH_BIT: u64 = 1;
/// Retained `(version, value)` entries per word: the current state plus
/// up to `CHAIN_LEN - 1` distinct prior versions.
const CHAIN_LEN: usize = 4;

#[inline]
fn pack_locked(owner: usize) -> u64 {
    debug_assert!(owner <= MAX_OWNER, "owner id exceeds the 15-bit field");
    LOCK_BIT | ((owner as u64) << OWNER_SHIFT)
}

#[inline]
fn is_locked(meta: u64) -> bool {
    meta & LOCK_BIT != 0
}

#[inline]
fn owner_of(meta: u64) -> usize {
    ((meta & OWNER_MASK) >> OWNER_SHIFT) as usize
}

#[inline]
fn version_of(meta: u64) -> u64 {
    meta & VERSION_MASK
}

/// Hot `(meta, value)` pairs per cache line: 2 × 8 bytes each, four to a
/// 64-byte line.
pub const PAIRS_PER_LINE: usize = 4;

/// One hot word: version + lock bit + owner id, and the value. 16 bytes;
/// the read / validate / publish fast paths touch nothing else.
struct HotPair {
    meta: AtomicU64,
    value: AtomicU64,
}

impl HotPair {
    fn new() -> Self {
        Self {
            meta: AtomicU64::new(0),
            value: AtomicU64::new(0),
        }
    }
}

/// One cache line of the hot array. The alignment + size pin (asserted
/// below) is what makes [`ShardLayout`]'s line-granular shard segments a
/// no-false-sharing guarantee rather than a hope.
#[repr(C, align(64))]
struct HotLine {
    pairs: [HotPair; PAIRS_PER_LINE],
}

impl HotLine {
    fn new() -> Self {
        Self {
            pairs: std::array::from_fn(|_| HotPair::new()),
        }
    }
}

// Layout pins: a HotLine is exactly one 64-byte cache line. If HotPair
// ever grows, PAIRS_PER_LINE must shrink with it — fail the build, not
// the benchmark.
const _: () = assert!(std::mem::size_of::<HotLine>() == 64);
const _: () = assert!(std::mem::align_of::<HotLine>() == 64);
const _: () = assert!(std::mem::size_of::<HotPair>() * PAIRS_PER_LINE == 64);

/// The cold per-word state: everything only publishes and snapshot
/// readers touch. Kept out of the hot array so commit-path cache misses
/// are one line per word, not two.
struct ColdCell {
    /// Monotone count of chain pushes; the newest entry lives at slot
    /// `(chain_head - 1) % CHAIN_LEN`. Zero means "never written": the
    /// word has held its version-0 zero since the heap was built.
    chain_head: AtomicU64,
    /// Bounded MVCC version chain, a ring of `(version, value)` pairs.
    /// Written only by the word's lock holder (publish) or under test
    /// quiescence ([`Stm::write_direct`]); read lock-free by snapshot
    /// readers via a per-slot seqlock (`u64::MAX` = mid-write sentinel,
    /// never a real version — versions fit [`VERSION_MASK`]).
    chain: [(AtomicU64, AtomicU64); CHAIN_LEN],
}

impl ColdCell {
    fn new() -> Self {
        Self {
            chain_head: AtomicU64::new(0),
            chain: std::array::from_fn(|_| (AtomicU64::new(u64::MAX), AtomicU64::new(0))),
        }
    }

    /// Append `(ver, val)` to the version chain. Single-writer: callers
    /// hold the word's write lock or run quiesced, and successive lock
    /// holders are ordered by the meta Release-store → CAS-Acquire
    /// handoff, so every load here may be Relaxed with respect to other
    /// *writers*. The store sequence is the per-slot seqlock protocol
    /// for concurrent *readers*:
    ///
    /// 1. sentinel (`u64::MAX`) into the version word — marks the slot
    ///    torn for any reader mid-scan;
    /// 2. the value, `Release` — orders the sentinel before it, so a
    ///    reader that Acquire-loads the new value must also see the
    ///    sentinel (or the final version) on its recheck, never the
    ///    stale version paired with the new value;
    /// 3. the real version, `Release` — publishes the value to readers
    ///    that Acquire-load the version word;
    /// 4. `chain_head + 1`, `Release` — publishes the completed entry to
    ///    chain scanners that Acquire-load the head.
    fn push_chain(&self, ver: u64, val: u64) {
        // Relaxed: single-writer; the previous holder's store is visible
        // via the lock handoff described above.
        let h = self.chain_head.load(Ordering::Relaxed);
        let slot = &self.chain[(h as usize) % CHAIN_LEN];
        slot.0.store(u64::MAX, Ordering::Relaxed);
        slot.1.store(val, Ordering::Release);
        slot.0.store(ver, Ordering::Release);
        self.chain_head.store(h + 1, Ordering::Release);
    }
}

/// Slots per shard-segment padding unit: every shard's segment is a whole
/// number of these, which makes segment boundaries line boundaries in
/// **both** arrays — 8 hot pairs are two [`HotLine`]s, and 8 cold cells of
/// 72 bytes are nine lines exactly (the cold array's first cell is placed
/// on a line boundary, see [`Stm::with_layout`]). Cells straddle lines
/// *within* a unit; padding the unit rather than aligning each cell (which
/// would grow the cold array by 78 %) is what keeps a line from ever
/// holding cells of two different shard segments.
pub const SEGMENT_PAD: usize = 8;

const COLD_CELL_BYTES: usize = std::mem::size_of::<ColdCell>();
const _: () = assert!((SEGMENT_PAD * COLD_CELL_BYTES).is_multiple_of(64));
const _: () = assert!(SEGMENT_PAD.is_multiple_of(PAIRS_PER_LINE));

/// Division-free `k / d` and `k % d` for 32-bit `k` and `d`, by a
/// precomputed reciprocal (Lemire, Kaser & Kurz, "Faster remainder by
/// direct computation", 2019): with `M = ⌈2^64 / d⌉`,
/// `k / d = ⌊M·k / 2^64⌋` and `k % d = ⌊(M·k mod 2^64)·d / 2^64⌋`, exact
/// whenever both operands fit 32 bits — which the `u32` signatures
/// enforce. One branch-free path for every divisor: `d = 1` is the one
/// case whose `M` (2^64) overflows a word, so the 65th bit is kept as a
/// mask and added back.
#[derive(Clone, Copy, Debug)]
pub struct Reciprocal {
    d: u64,
    /// Low 64 bits of `M`.
    m: u64,
    /// All-ones iff `M` = 2^64 (`d` = 1), else zero.
    m_top: u64,
}

impl Reciprocal {
    pub fn new(d: u32) -> Self {
        assert!(d >= 1, "division by zero");
        Self {
            d: u64::from(d),
            m: (u64::MAX / u64::from(d)).wrapping_add(1),
            m_top: if d == 1 { u64::MAX } else { 0 },
        }
    }

    /// `(k / d, k % d)`.
    #[inline]
    pub fn div_rem(&self, k: u32) -> (u32, u32) {
        let k = u64::from(k);
        let quot = ((u128::from(self.m) * u128::from(k)) >> 64) as u64 + (k & self.m_top);
        let low = self.m.wrapping_mul(k);
        let rem = ((u128::from(low) * u128::from(self.d)) >> 64) as u64;
        (quot as u32, rem as u32)
    }
}

#[cfg(test)]
thread_local! {
    /// Calls of [`ShardLayout::slot`] on this thread, for the test that a
    /// transaction maps each distinct word once.
    static SLOT_CALLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The bijective shard-major `key → slot` mapping of the hot and cold
/// arrays.
///
/// Keys are routed to shards as `key % shards` (the router's rule); the
/// layout gives each shard a *contiguous segment* of `stride` slots —
/// `⌈words / shards⌉` rounded up to whole [`SEGMENT_PAD`] units — and
/// places key `k` at `(k % shards) · stride + k / shards`. Within a shard
/// the quotients `k / shards` are distinct and below `stride`, segments
/// are disjoint by construction, so the mapping is a bijection onto
/// per-shard ranges — property-tested in `tests/properties.rs`. The
/// padding means two different shards' words can never share a cache
/// line in either array: a publish on shard A never invalidates a line
/// shard B is reading. Equal strides make the mapping pure arithmetic —
/// no per-shard table to load — and [`Reciprocal`] makes it
/// division-free.
#[derive(Clone, Debug)]
pub struct ShardLayout {
    shards: usize,
    words: usize,
    /// Slots per shard segment.
    stride: usize,
    by_shards: Reciprocal,
}

impl ShardLayout {
    pub fn new(words: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let stride = words.div_ceil(shards).next_multiple_of(SEGMENT_PAD);
        // Keys and slots are carried as `u32` (the set entries, the
        // reciprocal's operands).
        let fits = shards
            .checked_mul(stride)
            .is_some_and(|slots| u32::try_from(slots).is_ok());
        assert!(
            fits,
            "heap of {words} words x {shards} shards exceeds 2^32 slots"
        );
        Self {
            shards,
            words,
            stride,
            by_shards: Reciprocal::new(shards as u32),
        }
    }

    /// The slot of key `k` (bijective over `0..words()`).
    #[inline]
    pub fn slot(&self, k: Addr) -> usize {
        debug_assert!(k < self.words);
        #[cfg(test)]
        SLOT_CALLS.with(|c| c.set(c.get() + 1));
        let (index, shard) = self.by_shards.div_rem(k as u32);
        shard as usize * self.stride + index as usize
    }

    /// Total slots including segment padding (≥ `words()`).
    pub fn slots(&self) -> usize {
        self.shards * self.stride
    }

    pub fn words(&self) -> usize {
        self.words
    }

    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The hot-array cache line a slot lives on (for the no-sharing
    /// property test).
    pub fn line_of_slot(slot: usize) -> usize {
        slot / PAIRS_PER_LINE
    }

    /// The cold-array cache lines a slot's cell overlaps (a 72-byte cell
    /// straddles two), as line indices from the array's line-aligned
    /// base.
    pub fn cold_lines_of_slot(slot: usize) -> std::ops::RangeInclusive<usize> {
        let start = slot * COLD_CELL_BYTES;
        start / 64..=(start + COLD_CELL_BYTES - 1) / 64
    }
}

/// Snapshot-read failure: every *retained* version of some word is newer
/// than the reader's clock sample. The read-only transaction resamples
/// the clock and restarts ([`TxCtx::run_snapshot`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SnapshotMiss;

/// The shared STM heap plus runtime state: the SoA hot/cold arrays and
/// the shard-major layout mapping keys into them.
///
/// The header is split by writer. `hot`, `cold`, `layout`, `mode` and the
/// `kill_flags` pointer are written once, here, and share lines no one
/// writes again — every access dereferences them, so they must stay
/// shared-clean in every core's cache. `clock` is RMW'd by every commit
/// and has an aligned 128-byte line to itself (pinned by the `const`
/// block below); each kill flag has one too, off in its own allocation.
pub struct Stm {
    /// Cache-line-aligned hot `(meta, value)` pairs, shard-major.
    hot: Vec<HotLine>,
    /// MVCC chains: the cell of `slot` is `cold[cold_skip + slot]`.
    cold: Vec<ColdCell>,
    /// Leading cells left unused so that slot 0's cell starts a cache
    /// line (a line-aligned *allocation* of this size is never recycled
    /// by glibc — fresh pages every time, 4x the construction cost).
    cold_skip: usize,
    layout: ShardLayout,
    /// Conflict-resolution mode applied on grace expiry.
    pub mode: ResolutionMode,
    /// Remote-abort flags, one per registered thread (requestor-wins),
    /// each on a line of its own: a thread polls its flag on every access
    /// and clears it at every attempt start, and must not pay for its
    /// neighbour doing the same.
    kill_flags: Box<[CachePadded<AtomicBool>]>,
    /// The global version clock: the one word TL2 makes every writer
    /// share.
    clock: CachePadded<AtomicU64>,
}

// Header pins: nothing but `clock` on its 128-byte line, and kill flags a
// line apart.
const _: () = {
    use std::mem::{align_of, offset_of, size_of};
    const LINE: usize = 128;
    /// Does the field at `offset` lie wholly outside the line at `line`?
    const fn off_line(line: usize, offset: usize, size: usize) -> bool {
        offset + size <= line || offset >= line + LINE
    }
    let clock = offset_of!(Stm, clock);
    assert!(clock.is_multiple_of(LINE) && size_of::<CachePadded<AtomicU64>>() == LINE);
    assert!(off_line(
        clock,
        offset_of!(Stm, hot),
        size_of::<Vec<HotLine>>()
    ));
    assert!(off_line(
        clock,
        offset_of!(Stm, cold),
        size_of::<Vec<ColdCell>>()
    ));
    assert!(off_line(
        clock,
        offset_of!(Stm, cold_skip),
        size_of::<usize>()
    ));
    assert!(off_line(
        clock,
        offset_of!(Stm, layout),
        size_of::<ShardLayout>()
    ));
    assert!(off_line(
        clock,
        offset_of!(Stm, mode),
        size_of::<ResolutionMode>()
    ));
    assert!(off_line(
        clock,
        offset_of!(Stm, kill_flags),
        size_of::<Box<[CachePadded<AtomicBool>]>>()
    ));
    assert!(size_of::<Stm>().is_multiple_of(LINE) && align_of::<Stm>() == LINE);
    assert!(size_of::<CachePadded<AtomicBool>>() == LINE);
};

impl Stm {
    /// A requestor-aborts heap of `words` zero-initialized words supporting
    /// up to `max_threads` concurrent transaction contexts, laid out as a
    /// single shard (adjacent keys pack densely). A heap for a
    /// requestor-wins policy is built with [`with_mode`](Self::with_mode).
    pub fn new(words: usize, max_threads: usize) -> Self {
        Self::with_layout(words, max_threads, 1, ResolutionMode::RequestorAborts)
    }

    /// [`new`](Self::new), resolving expired grace periods in `mode`.
    pub fn with_mode(words: usize, max_threads: usize, mode: ResolutionMode) -> Self {
        Self::with_layout(words, max_threads, 1, mode)
    }

    /// A heap laid out shard-major for `shards` shards (router rule
    /// `key % shards`): each shard's words occupy their own contiguous,
    /// line-padded slot range, so no cache line is shared across shards.
    pub fn with_layout(
        words: usize,
        max_threads: usize,
        shards: usize,
        mode: ResolutionMode,
    ) -> Self {
        assert!(
            max_threads <= MAX_OWNER + 1,
            "thread ids must pack into the owner field"
        );
        // Opens the tick clock's calibration window (one counter read),
        // so the first conflict's ns conversion finds it long closed.
        clock::anchor();
        let layout = ShardLayout::new(words, shards);
        // Cells are 8-aligned and 72 bytes, so each cell skipped moves
        // the start by 8 bytes within its line: under SEGMENT_PAD skips
        // reach a line boundary.
        let cold: Vec<ColdCell> = (0..layout.slots() + SEGMENT_PAD - 1)
            .map(|_| ColdCell::new())
            .collect();
        let base = cold.as_ptr() as usize;
        let cold_skip = (0..SEGMENT_PAD)
            .find(|skip| (base + skip * COLD_CELL_BYTES).is_multiple_of(64))
            .expect("some cell of the first eight starts a cache line");
        Self {
            hot: (0..layout.slots() / PAIRS_PER_LINE)
                .map(|_| HotLine::new())
                .collect(),
            cold,
            cold_skip,
            layout,
            mode,
            kill_flags: (0..max_threads)
                .map(|_| CachePadded::new(AtomicBool::new(false)))
                .collect(),
            clock: CachePadded::new(AtomicU64::new(0)),
        }
    }

    /// The hot pair at `slot`.
    #[inline]
    fn pair(&self, slot: usize) -> &HotPair {
        &self.hot[slot / PAIRS_PER_LINE].pairs[slot % PAIRS_PER_LINE]
    }

    /// The cold cell at `slot`.
    #[inline]
    fn cold(&self, slot: usize) -> &ColdCell {
        &self.cold[self.cold_skip + slot]
    }

    /// The key → slot layout this heap was built with.
    pub fn layout(&self) -> &ShardLayout {
        &self.layout
    }

    pub fn len(&self) -> usize {
        self.layout.words()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Non-transactional read (only safe when no transaction is running,
    /// e.g. to inspect final state in tests). Acquire pairs with the
    /// publisher's Release value store; callers additionally quiesce
    /// (thread join), which is the real ordering here.
    pub fn read_direct(&self, a: Addr) -> u64 {
        self.pair(self.layout.slot(a)).value.load(Ordering::Acquire)
    }

    /// Non-transactional write (test setup only). Mirrors the value into
    /// the version chain at the word's current version so snapshot reads
    /// see pre-seeded state. Release mirrors the transactional publish
    /// protocol, though callers run quiesced by contract.
    pub fn write_direct(&self, a: Addr, v: u64) {
        let slot = self.layout.slot(a);
        let pair = self.pair(slot);
        pair.value.store(v, Ordering::Release);
        let ver = version_of(pair.meta.load(Ordering::Acquire));
        self.cold(slot).push_chain(ver, v);
    }

    /// Current value of the global version clock — equivalently, the
    /// number of clock bumps (write publishes) so far. Group commit exists
    /// to make this grow *slower* than the commit count. Acquire: pairs
    /// with committers' AcqRel bumps, so state published at the returned
    /// clock value is visible.
    pub fn clock_value(&self) -> u64 {
        self.clock.load(Ordering::Acquire)
    }

    /// Number of transaction contexts this heap supports (the size of the
    /// remote-kill flag table).
    pub fn max_threads(&self) -> usize {
        self.kill_flags.len()
    }

    /// Non-transactional snapshot of every word in key order (only
    /// meaningful once all transactions have quiesced — end-of-run state
    /// inspection; checksums depend on this staying key-ordered).
    pub fn snapshot_direct(&self) -> Vec<u64> {
        (0..self.len()).map(|a| self.read_direct(a)).collect()
    }

    /// MVCC read of word `a` at snapshot `rv`: the value of the newest
    /// version `<= rv`. Never locks, never validates, never aborts — the
    /// only failure is [`SnapshotMiss`] (every retained version is newer
    /// than `rv`), which the caller handles by resampling the clock.
    ///
    /// Why a flagless lock implies "pending version > rv": publishers set
    /// [`PUBLISH_BIT`] *before* bumping the clock, so if our meta load
    /// sees a lock without the flag, that owner's bump had not happened
    /// at the load — it is ordered after our earlier clock sample, hence
    /// its write version exceeds `rv` and the chain (which holds every
    /// published version) is the authority. Unlocked-but-newer means the
    /// same thing directly.
    fn snapshot_cell(&self, a: Addr, rv: u64) -> Result<u64, SnapshotMiss> {
        // Snapshot reads keep no set to carry the slot in: one mapping
        // per access.
        let slot = self.layout.slot(a);
        let (pair, cold) = (self.pair(slot), self.cold(slot));
        loop {
            // Acquire: pairs with the publisher's final Release meta
            // store, so observing version m1 makes the value stored for
            // m1 visible to the load below.
            let m1 = pair.meta.load(Ordering::Acquire);
            if !is_locked(m1) && version_of(m1) <= rv {
                // Fast path: the current value is within the snapshot.
                // Classic TL2 double-check against a concurrent locker.
                // Acquire on the value: (a) the m2 load below cannot be
                // hoisted above it, and (b) if it returns a value stored
                // by an in-flight publisher, it synchronizes with that
                // Release store, making the publisher's earlier locked
                // meta visible — so m2 must differ from m1 and the torn
                // read is detected.
                let v = pair.value.load(Ordering::Acquire);
                // Relaxed: ordered after the value load by its Acquire;
                // only meta's own coherence (compare with m1) matters.
                if pair.meta.load(Ordering::Relaxed) == m1 {
                    return Ok(v);
                }
                continue;
            }
            if is_locked(m1) && m1 & PUBLISH_BIT != 0 {
                // Owner is mid-publish; its chain push is instants away
                // and the publish sequence never blocks. Wait it out so
                // the chain scan below cannot miss the in-flight write.
                std::hint::spin_loop();
                continue;
            }
            // The value we need is a published prior version. Acquire:
            // pairs with push_chain's Release head store, so entries
            // < h are fully written before we scan them.
            let h = cold.chain_head.load(Ordering::Acquire);
            if h == 0 {
                // Never written: version-0 zero is within any snapshot.
                return Ok(0);
            }
            let oldest = h.saturating_sub(CHAIN_LEN as u64);
            let mut push = h;
            let mut torn = false;
            while push > oldest {
                let slot = &cold.chain[((push - 1) as usize) % CHAIN_LEN];
                // Per-slot seqlock read. v1 Acquire pairs with the
                // writer's Release version store (value visible when v1
                // is real); val Acquire orders the two recheck loads
                // after it AND, when it returns a mid-push value,
                // makes the writer's sentinel visible to the v2 load —
                // a new value can never be paired with the stale
                // version. v2/head Relaxed: coherence-only rechecks,
                // ordered by val's Acquire.
                let v1 = slot.0.load(Ordering::Acquire);
                let val = slot.1.load(Ordering::Acquire);
                let v2 = slot.0.load(Ordering::Relaxed);
                if v1 == u64::MAX || v1 != v2 || cold.chain_head.load(Ordering::Relaxed) != h {
                    torn = true; // raced a writer's push; rescan from meta
                    break;
                }
                if v1 <= rv {
                    return Ok(val);
                }
                push -= 1;
            }
            if torn {
                std::hint::spin_loop();
                continue;
            }
            if h <= CHAIN_LEN as u64 {
                // The chain still holds every write this word ever took
                // and all are newer than rv: the pre-history is the
                // version-0 zero.
                return Ok(0);
            }
            return Err(SnapshotMiss);
        }
    }
}

/// What kind of write a [`WriteEntry`] buffers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum WriteOp {
    /// Absolute store: publishes `val`, conflicts with any other write to
    /// the same word.
    #[default]
    Set,
    /// Commutative increment by `delta`: group commit folds concurrent
    /// `Add`s on the same word into one publish.
    Add,
}

/// One buffered write. Entries are unique per address within a
/// transaction (later writes update the entry in place). `Copy +
/// Default` so write sets fit [`InlineVec`]'s always-initialized inline
/// storage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WriteEntry {
    pub addr: Addr,
    /// `addr`'s slot, mapped when the entry was created: the commit
    /// phases lock, publish and release by slot.
    slot: u32,
    pub op: WriteOp,
    /// The value this transaction would publish. For `Add` entries inside
    /// a committed group this is rewritten to the *resolved* value — the
    /// word's value at this member's serialization point — so responses
    /// derived from it match the group's serial order.
    pub val: u64,
    /// Accumulated increment (meaningful for `Add` entries only).
    pub delta: u64,
}

/// How a failed lock acquisition failed.
enum LockFail {
    /// Locked by another transaction.
    Busy,
    /// Unlocked, but the version is newer than the acquirer's snapshot.
    Stale,
}

/// Commit phase 1 primitive: try to acquire the write lock of the word at
/// `slot` for `owner`, retrying internal CAS races. `max_version` is the
/// newest snapshot the acquirer can tolerate (its `rv`; for a folded group
/// slot, the minimum over the slot's writers). Returns the pre-lock meta
/// for the restore table.
fn lock_cell(stm: &Stm, slot: usize, owner: usize, max_version: u64) -> Result<u64, LockFail> {
    let pair = stm.pair(slot);
    loop {
        // Relaxed screening load: the CAS below is the authoritative
        // read (it fails if meta moved), so this load only routes us to
        // the right arm; Busy/Stale verdicts on a concurrently moving
        // meta are inherently racy at any ordering and the caller
        // (contend / abort) re-examines.
        let meta = pair.meta.load(Ordering::Relaxed);
        if is_locked(meta) {
            return Err(LockFail::Busy);
        }
        if version_of(meta) > max_version {
            return Err(LockFail::Stale);
        }
        // Acquire on success: pairs with the previous owner's Release
        // meta store (publish or unlock-restore), making its value and
        // chain writes visible to this lock holder — the group publish
        // reads `value` under the lock relying on exactly this edge.
        // Relaxed on failure: we just re-examine.
        if pair
            .meta
            .compare_exchange(
                meta,
                pack_locked(owner),
                Ordering::Acquire,
                Ordering::Relaxed,
            )
            .is_ok()
        {
            return Ok(meta);
        }
        // Raced with a concurrent locker; re-examine.
        std::hint::spin_loop();
    }
}

/// Commit phase 2 primitive: is the read `(slot, m1)` still valid for a
/// committer running at snapshot `rv`? A word locked by `owner` itself is
/// valid when its *pre-lock* version (looked up via `prelock`, the
/// restore table) was within the snapshot.
fn validate_read(
    stm: &Stm,
    owner: usize,
    slot: usize,
    m1: u64,
    rv: u64,
    prelock: impl Fn(usize) -> Option<u64>,
) -> bool {
    // Acquire: pairs with writers' Release meta stores, so a meta equal
    // to m1 proves no publish completed on this word since the read —
    // the TL2 phase-2 invariant that the value read earlier still
    // belongs to version m1.
    let m = stm.pair(slot).meta.load(Ordering::Acquire);
    if is_locked(m) {
        owner_of(m) == owner && matches!(prelock(slot), Some(pm) if version_of(pm) <= rv)
    } else {
        m == m1
    }
}

/// Commit phase 3 primitive, the one publish of both commit paths: every
/// `(slot, value)` of `plan` is locked by `owner`. Flag the held locks as
/// publishing, one clock bump, then chain pushes + value stores, then
/// version-release stores. The [`PUBLISH_BIT`] must go up *before* the
/// bump: a snapshot reader that sees a flagless lock may conclude the
/// pending version exceeds its clock sample and trust the chain.
fn publish(stm: &Stm, owner: usize, plan: impl Iterator<Item = (usize, u64)> + Clone) {
    for (slot, _) in plan.clone() {
        // Relaxed: we already own the lock, so no third party may write
        // meta; visibility of the flag to snapshot readers is carried by
        // the AcqRel clock bump below — a reader whose rv covers our bump
        // synchronizes with it and therefore sees the flag (or a later
        // meta) at its own Acquire load. That is exactly the "flagless
        // lock ⇒ pending version > rv" inference.
        stm.pair(slot)
            .meta
            .store(pack_locked(owner) | PUBLISH_BIT, Ordering::Relaxed);
    }
    // AcqRel: the Release half publishes the PUBLISH_BIT stores above to
    // clock samplers; the Acquire half keeps this bump (and the stores
    // after it) ordered after every earlier committer's publication,
    // preserving version monotonicity per word.
    let wv = (stm.clock.fetch_add(1, Ordering::AcqRel) + 1) & VERSION_MASK;
    for (slot, val) in plan.clone() {
        stm.cold(slot).push_chain(wv, val);
        // Release: a reader that Acquire-loads this value also sees our
        // locked meta (stored before it), which is what makes the
        // seqlock double-check sound.
        stm.pair(slot).value.store(val, Ordering::Release);
    }
    for (slot, _) in plan {
        // Release — THE publication point: pairs with readers' and
        // validators' Acquire meta loads; observing version wv makes the
        // value and chain stores above visible.
        stm.pair(slot).meta.store(wv, Ordering::Release);
    }
}

/// The one release of both commit paths: restore the pre-lock meta of
/// every held `(slot, meta)`.
fn release(stm: &Stm, held: impl Iterator<Item = (usize, u64)>) {
    for (slot, prev) in held {
        // Release: the unlock side of the meta handoff — pairs with the
        // next acquirer's CAS-Acquire (uniform with the publish store,
        // though an aborting release published nothing).
        stm.pair(slot).meta.store(prev, Ordering::Release);
    }
}

/// Inline capacity of the transaction-local sets: the serve workloads'
/// largest transaction touches `rmw_span` (default 4) words, so 8 keeps
/// every standard read/write set on the stack; bigger transactions spill
/// to a capacity-retaining heap vec.
const INLINE_SET: usize = 8;

/// One recorded read: the word, where it lives, and the meta observed.
/// `u32` fields ([`ShardLayout::new`] bounds keys and slots) keep it at
/// 16 bytes.
#[derive(Clone, Copy, Debug, Default)]
struct ReadEntry {
    addr: u32,
    slot: u32,
    meta: u64,
}

/// A transaction's read set, one entry per distinct word read.
type ReadSet = InlineVec<ReadEntry, INLINE_SET>;
/// A transaction's buffered writes (unique per address).
type WriteSet = InlineVec<WriteEntry, INLINE_SET>;
/// Pre-lock meta words, parallel to the sorted write set's prefix.
type MetaSet = InlineVec<u64, INLINE_SET>;

/// Per-thread transaction execution context.
pub struct TxCtx<'s, P: GracePolicy> {
    stm: &'s Stm,
    pub id: usize,
    /// This context's own remote-abort flag (`stm.kill_flags[id]`).
    kill: &'s AtomicBool,
    /// The shared engine-layer consultation loop: policy + §7 backoff.
    pub arbiter: ConflictArbiter<P>,
    /// Concrete (devirtualized) PRNG: grace-period sampling makes no
    /// virtual calls and the generator sits inline in the context, not
    /// behind a `Box<dyn RngCore>` pointer chase.
    rng: Xoshiro256StarStar,
    pub stats: EngineStats,
    /// Fixed component of the abort cost, in nanoseconds (models the
    /// restart overhead; the elapsed running time is added per conflict).
    pub cleanup_ns: f64,
    /// The current attempt's read set, cleared at each attempt start;
    /// inline up to [`INLINE_SET`] entries, and the heap spill of larger
    /// footprints is retained across transactions so batch executors
    /// never reallocate the hot-path sets.
    read_buf: ReadSet,
    /// The current attempt's write set (same lifecycle as `read_buf`).
    write_buf: WriteSet,
    /// Pre-lock metas of the commit's acquire phase, parallel to the
    /// sorted write set's locked prefix.
    restore_buf: MetaSet,
    /// Lifecycle trace sink, when tracing is enabled for the run. `None`
    /// keeps every emission point a single never-taken branch.
    trace: Option<Arc<Trace>>,
    /// Identity stamped onto emitted events (shard = this context's id;
    /// tx/key re-stamped per request by the executor).
    trace_tag: TraceTag,
    /// Grace period (ns) granted by the most recent arbiter consult of
    /// the current attempt, attached to the next abort event. Only
    /// maintained while tracing.
    last_grace_ns: u64,
}

/// The view a transaction body gets: transactional reads and writes.
pub struct Tx<'c, 's, P: GracePolicy> {
    /// The context, which also holds this attempt's read, write and
    /// restore sets (`read_buf` / `write_buf` / `restore_buf`): they stay
    /// where they are from one attempt to the next, nothing is moved.
    ctx: &'c mut TxCtx<'s, P>,
    rv: u64,
    /// [`clock::now`] at the start of this attempt.
    start: u64,
    /// Membership filter over the write set's addresses: the
    /// read-your-writes probe — almost always negative — short-circuits
    /// on one AND instead of scanning the write set.
    wfilter: KeyFilter,
    /// The same over the read set's addresses: a word is recorded (and
    /// mapped to its slot) once per attempt however often it is read.
    rfilter: KeyFilter,
}

/// The view a read-only snapshot body gets: MVCC reads at one fixed
/// clock sample. No read set, no validation, no locks, no arbiter — a
/// snapshot transaction cannot abort, only restart on a chain miss.
pub struct SnapshotTx<'s> {
    stm: &'s Stm,
    rv: u64,
    chain_misses: u64,
}

impl SnapshotTx<'_> {
    /// The clock sample this snapshot reads at.
    pub fn rv(&self) -> u64 {
        self.rv
    }

    /// Snapshot read of word `a` (newest version `<= rv()`).
    pub fn read(&mut self, a: Addr) -> Result<u64, SnapshotMiss> {
        match self.stm.snapshot_cell(a, self.rv) {
            Ok(v) => Ok(v),
            Err(m) => {
                self.chain_misses += 1;
                Err(m)
            }
        }
    }
}

impl<'s, P: GracePolicy> TxCtx<'s, P> {
    pub fn new(stm: &'s Stm, id: usize, policy: P, rng: Xoshiro256StarStar) -> Self {
        assert!(id < stm.kill_flags.len(), "thread id beyond max_threads");
        Self {
            stm,
            id,
            kill: &stm.kill_flags[id],
            arbiter: ConflictArbiter::new(policy),
            rng,
            stats: EngineStats::default(),
            cleanup_ns: 500.0,
            read_buf: ReadSet::new(),
            write_buf: WriteSet::new(),
            restore_buf: MetaSet::new(),
            trace: None,
            trace_tag: TraceTag::default(),
            last_grace_ns: 0,
        }
    }

    /// Enable lifecycle tracing: events emitted by this context land on
    /// shard `id`'s ring of `trace`.
    pub fn set_trace(&mut self, trace: Arc<Trace>) {
        self.trace_tag.shard = self.id as u16;
        self.trace = Some(trace);
    }

    /// Stamp the (tx, key) identity carried by subsequent events — the
    /// executor calls this per envelope. No-op while tracing is off.
    pub fn set_trace_tag(&mut self, tx: u64, key: u64) {
        if self.trace.is_some() {
            self.trace_tag.tx = tx;
            self.trace_tag.key = key;
        }
    }

    /// Emit a causeless lifecycle event under the current tag (single
    /// branch while tracing is off).
    pub fn trace_event(&self, kind: TraceKind, a: u64, b: u64) {
        if let Some(t) = &self.trace {
            t.emit(TraceEvent::lifecycle(kind, self.trace_tag, a, b));
        }
    }

    /// Emit an abort event carrying the cause and the grace period the
    /// arbiter granted on this attempt's last consult (0 when the abort
    /// was not preceded by a consult).
    pub fn trace_abort(&mut self, kind: AbortKind) {
        if let Some(t) = &self.trace {
            t.emit(TraceEvent::abort(self.trace_tag, kind, self.last_grace_ns));
            self.last_grace_ns = 0;
        }
    }

    /// Start an attempt: drop a stale kill flag and sample the clock.
    fn begin_attempt(&self) -> u64 {
        // Test before store: the flag is almost never set, and a blind
        // store would take this line exclusive on every attempt. Relaxed:
        // clearing our own advisory flag; a contender's racing store is
        // indistinguishable from one landing a moment later, and either
        // just costs one benign retry.
        if self.kill.load(Ordering::Relaxed) {
            self.kill.store(false, Ordering::Relaxed);
        }
        // Acquire: pairs with committers' AcqRel clock bumps, so every
        // publish at a version ≤ rv happens-before this attempt — reads
        // validated against rv observe fully published state.
        self.stm.clock.load(Ordering::Acquire)
    }

    /// Run `body` as a transaction, retrying on abort, and return its
    /// result.
    pub fn run<T>(&mut self, mut body: impl FnMut(&mut Tx<'_, 's, P>) -> Result<T, Abort>) -> T {
        loop {
            let rv = self.begin_attempt();
            self.read_buf.clear();
            self.write_buf.clear();
            let mut tx = Tx {
                ctx: self,
                rv,
                start: clock::now(),
                wfilter: KeyFilter::new(),
                rfilter: KeyFilter::new(),
            };
            let outcome = body(&mut tx).and_then(|v| tx.commit().map(|_| v));
            match outcome {
                Ok(v) => {
                    self.stats.commits += 1;
                    self.arbiter.on_commit();
                    return v;
                }
                Err(a) => {
                    self.record_abort(a);
                    std::hint::spin_loop();
                }
            }
        }
    }

    /// Account one failed attempt: the abort tally, its trace event and
    /// the arbiter's backoff.
    fn record_abort(&mut self, a: Abort) {
        self.stats.record_abort(a.into(), 0);
        self.trace_abort(a.into());
        self.arbiter.on_abort();
    }

    /// Number of words in the underlying heap (for request-argument
    /// clamping at the server layer).
    pub fn heap_len(&self) -> usize {
        self.stm.len()
    }

    /// Run `body` as a **read-only snapshot transaction**: sample the
    /// clock once, serve every read from the newest version `<= rv` via
    /// the per-word chains, and restart (fresh sample) on a chain miss.
    /// The fast path takes no locks, records no read set, performs no
    /// validation, and never consults the [`ConflictArbiter`] — under a
    /// bounded chain the read side is wait-free in practice: its only
    /// delay is a writer racing `CHAIN_LEN` publishes past it.
    ///
    /// Counted as a commit (plus `snapshot_reads`) so engine-level
    /// conservation invariants hold regardless of read mode.
    pub fn run_snapshot<T>(
        &mut self,
        mut body: impl FnMut(&mut SnapshotTx<'s>) -> Result<T, SnapshotMiss>,
    ) -> T {
        loop {
            // Acquire: same edge as `run` — publishes at versions ≤ rv
            // are visible, and the PUBLISH_BIT inference in
            // `snapshot_cell` (flagless lock ⇒ pending version > rv)
            // relies on this sample synchronizing with each bump.
            let rv = self.stm.clock.load(Ordering::Acquire);
            let mut snap = SnapshotTx {
                stm: self.stm,
                rv,
                chain_misses: 0,
            };
            let out = body(&mut snap);
            self.stats.chain_misses += snap.chain_misses;
            match out {
                Ok(v) => {
                    self.stats.commits += 1;
                    self.stats.snapshot_reads += 1;
                    self.trace_event(TraceKind::SnapshotRead, snap.chain_misses, 0);
                    return v;
                }
                Err(SnapshotMiss) => {
                    self.stats.snapshot_restarts += 1;
                    self.trace_event(TraceKind::SnapshotRestart, snap.chain_misses, 0);
                    std::hint::spin_loop();
                }
            }
        }
    }

    /// Run `body` once **speculatively**: execute it against the current
    /// snapshot, capturing the read and write sets into `prep`, without
    /// committing and without retrying. On success the caller hands the
    /// [`PreparedTx`] to [`GroupCommit`]; an abort is accounted here like
    /// one of [`run`](Self::run)'s, and the caller falls back to `run`.
    /// `prep`'s allocations are reused across calls.
    pub fn speculate_into<T>(
        &mut self,
        prep: &mut PreparedTx,
        body: impl FnOnce(&mut Tx<'_, 's, P>) -> Result<T, Abort>,
    ) -> Result<T, Abort> {
        let rv = self.begin_attempt();
        prep.rv = rv;
        // The attempt runs on the context's sets: lend it `prep`'s for
        // the duration.
        std::mem::swap(&mut self.read_buf, &mut prep.reads);
        std::mem::swap(&mut self.write_buf, &mut prep.writes);
        self.read_buf.clear();
        self.write_buf.clear();
        let mut tx = Tx {
            ctx: self,
            rv,
            start: clock::now(),
            wfilter: KeyFilter::new(),
            rfilter: KeyFilter::new(),
        };
        let out = body(&mut tx);
        std::mem::swap(&mut self.read_buf, &mut prep.reads);
        std::mem::swap(&mut self.write_buf, &mut prep.writes);
        self.trace_event(TraceKind::Speculate, out.is_ok() as u64, 0);
        if let Err(a) = out {
            self.record_abort(a);
        }
        out
    }
}

impl<'s, P: GracePolicy> Tx<'_, 's, P> {
    fn killed(&self) -> bool {
        // Relaxed: the flag is advisory (carries no data); coherence
        // guarantees a contender's store becomes visible to this
        // periodically-polled load in finite time, and the abort path's
        // Release lock restores carry the actual ordering.
        self.ctx.kill.load(Ordering::Relaxed)
    }

    /// Handle an encounter with the locked word at `slot`: wait out a
    /// policy-chosen grace period hoping for release; on expiry resolve
    /// according to the runtime mode. Returns `Ok(())` once the lock is
    /// released (caller retries the access). However it ends, the whole
    /// wait — grace and, in requestor-wins, the spin for the flagged
    /// owner to let go — lands in `wait_cycles`.
    fn contend(&mut self, slot: usize) -> Result<(), Abort> {
        let stm = self.ctx.stm;
        let wait_start = clock::now();
        // Abort cost of the side that would die: in requestor-aborts, us;
        // in requestor-wins we cannot observe the owner's elapsed time
        // locally, so our own serves as the proxy (both sides run the same
        // workload — documented simplification). The arbiter inflates it
        // by §7 backoff and sanitizes the sampled grace.
        self.ctx.stats.arbiter_consults += 1;
        let elapsed_ns = clock::ticks_to_ns(wait_start.wrapping_sub(self.start)) as f64;
        let decision =
            self.ctx
                .arbiter
                .decide(elapsed_ns + self.ctx.cleanup_ns, 2, &mut self.ctx.rng);
        if self.ctx.trace.is_some() {
            // Remembered so the abort event (if this attempt dies) can
            // report the grace the arbiter granted it.
            self.ctx.last_grace_ns = decision.grace as u64;
        }
        let deadline = wait_start.saturating_add(clock::ns_to_ticks(decision.grace));
        let meta_word = &stm.pair(slot).meta;
        // Requestor-wins, grace expired, owner flagged: from here only the
        // release (or our own death) ends the wait, and the clock is no
        // longer consulted.
        let mut owner_flagged = false;
        let outcome = loop {
            // Relaxed spin: we only watch for the lock bit to drop; the
            // caller's retried access performs its own Acquire load, so
            // no data is consumed under this ordering.
            let meta = meta_word.load(Ordering::Relaxed);
            if !is_locked(meta) {
                break Ok(());
            }
            if self.killed() {
                break Err(Abort::RemoteKill);
            }
            if !owner_flagged && clock::now() >= deadline {
                match stm.mode {
                    ResolutionMode::RequestorAborts => break Err(Abort::Conflict),
                    ResolutionMode::RequestorWins => {
                        // Flag the owner; it self-aborts at its next safe
                        // point and releases its locks. Relaxed: advisory
                        // flag (see `killed`).
                        stm.kill_flags[owner_of(meta).min(stm.kill_flags.len() - 1)]
                            .store(true, Ordering::Relaxed);
                        owner_flagged = true;
                    }
                }
            }
            std::hint::spin_loop();
        };
        self.ctx.stats.wait_cycles += clock::ticks_to_ns(clock::now().wrapping_sub(wait_start));
        outcome
    }

    /// The slot of `a` if this attempt already holds a read entry for it.
    #[inline]
    fn read_slot(&self, a: Addr) -> Option<usize> {
        if !self.rfilter.may_contain(a as u64) {
            return None;
        }
        self.ctx
            .read_buf
            .iter()
            .find(|r| r.addr as usize == a)
            .map(|r| r.slot as usize)
    }

    /// Transactional read.
    pub fn read(&mut self, a: Addr) -> Result<u64, Abort> {
        if self.killed() {
            return Err(Abort::RemoteKill);
        }
        // Read-your-writes (entries are unique per address). The filter
        // short-circuits the common not-written-by-us case in one AND;
        // a hit (possibly false-positive) confirms against the set.
        if self.wfilter.may_contain(a as u64) {
            if let Some(e) = self.ctx.write_buf.iter().find(|e| e.addr == a) {
                return Ok(e.val);
            }
        }
        self.read_heap(a).map(|(v, _)| v)
    }

    /// Read `a` from the heap (the caller has ruled out read-your-writes)
    /// and record it; returns the value and the word's slot.
    fn read_heap(&mut self, a: Addr) -> Result<(u64, usize), Abort> {
        // A word read before is re-read through its recorded slot and
        // not recorded again: a re-read that passes the snapshot check
        // below saw the very meta the first read recorded (any commit in
        // between carries a version above `rv`).
        let recorded = self.read_slot(a);
        let slot = recorded.unwrap_or_else(|| self.ctx.stm.layout.slot(a));
        let pair = self.ctx.stm.pair(slot);
        loop {
            // Seqlock word read (TL2 double-check). m1 Acquire: pairs
            // with the publisher's final Release meta store, so seeing
            // version m1 makes m1's value visible below.
            let m1 = pair.meta.load(Ordering::Acquire);
            if is_locked(m1) {
                self.contend(slot)?;
                continue;
            }
            // Acquire on the value: the m2 load cannot be hoisted above
            // it, and a value stored by an in-flight publisher makes
            // that publisher's locked meta visible to m2 (the publisher
            // locks before storing the value), so m2 != m1 and the torn
            // read is retried.
            let v = pair.value.load(Ordering::Acquire);
            // Relaxed: ordered after the value load by its Acquire; only
            // meta's own coherence (comparison with m1) is consumed.
            let m2 = pair.meta.load(Ordering::Relaxed);
            if m1 != m2 {
                continue; // concurrent writer; retry the read
            }
            if version_of(m1) > self.rv {
                return Err(Abort::Validation); // newer than our snapshot
            }
            if recorded.is_none() {
                self.rfilter.insert(a as u64);
                self.ctx.read_buf.push(ReadEntry {
                    addr: a as u32,
                    slot: slot as u32,
                    meta: m1,
                });
            }
            return Ok((v, slot));
        }
    }

    /// Transactional absolute write (buffered until commit; last write
    /// wins).
    pub fn write(&mut self, a: Addr, v: u64) -> Result<(), Abort> {
        if self.killed() {
            return Err(Abort::RemoteKill);
        }
        if self.wfilter.may_contain(a as u64) {
            if let Some(e) = self.ctx.write_buf.iter_mut().find(|e| e.addr == a) {
                e.op = WriteOp::Set;
                e.val = v;
                e.delta = 0;
                return Ok(());
            }
        }
        // Mapped here, once, unless a read of this attempt already did.
        let slot = self
            .read_slot(a)
            .unwrap_or_else(|| self.ctx.stm.layout.slot(a));
        self.wfilter.insert(a as u64);
        self.ctx.write_buf.push(WriteEntry {
            addr: a,
            slot: slot as u32,
            op: WriteOp::Set,
            val: v,
            delta: 0,
        });
        Ok(())
    }

    /// Transactional commutative increment: read the word, buffer a
    /// `+delta` write, and return the incremented value. Unlike
    /// [`write`](Self::write), concurrent `write_add`s to the same word
    /// can *fold* into one publish under group commit — this is the entry
    /// point that makes same-key bursts coalesce.
    pub fn write_add(&mut self, a: Addr, delta: u64) -> Result<u64, Abort> {
        if self.wfilter.may_contain(a as u64) {
            if let Some(i) = self.ctx.write_buf.iter().position(|e| e.addr == a) {
                let e = &mut self.ctx.write_buf[i];
                e.val = e.val.wrapping_add(delta);
                if e.op == WriteOp::Add {
                    e.delta = e.delta.wrapping_add(delta);
                }
                return Ok(e.val);
            }
        }
        if self.killed() {
            return Err(Abort::RemoteKill);
        }
        let (v0, slot) = self.read_heap(a)?;
        let val = v0.wrapping_add(delta);
        self.wfilter.insert(a as u64);
        self.ctx.write_buf.push(WriteEntry {
            addr: a,
            slot: slot as u32,
            op: WriteOp::Add,
            val,
            delta,
        });
        Ok(val)
    }

    /// TL2 commit: the three explicit phases — acquire write locks,
    /// validate the read set, publish under one clock bump. Read-only
    /// transactions commit without locking or bumping.
    fn commit(&mut self) -> Result<(), Abort> {
        if self.ctx.write_buf.is_empty() {
            return Ok(());
        }
        // One global acquisition order prevents lock-order deadlocks
        // between committers (entries are already unique per word). Slot
        // order, not key order: it is what the phases index by, and
        // [`GroupCommit`] uses the same.
        self.ctx.write_buf.sort_unstable_by_key(|e| e.slot);
        self.ctx.restore_buf.clear();
        self.acquire_write_locks()?;
        self.ctx
            .trace_event(TraceKind::Acquire, self.ctx.write_buf.len() as u64, 0);
        if let Err(e) = self.validate_read_set() {
            self.release_locks();
            return Err(e);
        }
        self.ctx
            .trace_event(TraceKind::Validate, self.ctx.read_buf.len() as u64, 0);
        if self.killed() {
            self.release_locks();
            return Err(Abort::RemoteKill);
        }
        let writes = self.ctx.write_buf.iter();
        publish(
            self.ctx.stm,
            self.ctx.id,
            writes.map(|e| (e.slot as usize, e.val)),
        );
        self.ctx
            .trace_event(TraceKind::Publish, self.ctx.write_buf.len() as u64, 0);
        Ok(())
    }

    /// Phase 1: acquire every write lock in slot order, recording the
    /// pre-lock metas in the restore set (parallel to the sorted write
    /// set). On a held lock, contend under the grace policy; on failure,
    /// release everything acquired so far.
    fn acquire_write_locks(&mut self) -> Result<(), Abort> {
        while self.ctx.restore_buf.len() < self.ctx.write_buf.len() {
            let slot = self.ctx.write_buf[self.ctx.restore_buf.len()].slot as usize;
            match lock_cell(self.ctx.stm, slot, self.ctx.id, self.rv) {
                Ok(prev) => self.ctx.restore_buf.push(prev),
                Err(LockFail::Busy) => {
                    if let Err(e) = self.contend(slot) {
                        self.release_locks();
                        return Err(e);
                    }
                    // Released within grace; retry the acquisition.
                }
                Err(LockFail::Stale) => {
                    self.release_locks();
                    return Err(Abort::Validation);
                }
            }
        }
        Ok(())
    }

    /// Phase 2: every recorded read must still hold at our snapshot.
    fn validate_read_set(&self) -> Result<(), Abort> {
        let (writes, restore) = (&self.ctx.write_buf, &self.ctx.restore_buf);
        let prelock = |slot: usize| {
            writes
                .binary_search_by_key(&slot, |e| e.slot as usize)
                .ok()
                .map(|i| restore[i])
        };
        for r in &self.ctx.read_buf {
            let slot = r.slot as usize;
            if !validate_read(self.ctx.stm, self.ctx.id, slot, r.meta, self.rv, prelock) {
                return Err(Abort::Validation);
            }
        }
        Ok(())
    }

    /// Release every lock held so far (the restore set is parallel to the
    /// sorted write set's locked prefix).
    fn release_locks(&self) {
        let slots = self.ctx.write_buf.iter().map(|e| e.slot as usize);
        release(
            self.ctx.stm,
            slots.zip(self.ctx.restore_buf.iter().copied()),
        );
    }
}

/// A speculatively executed transaction body: the read and write sets of
/// one attempt, detached from the context so a whole batch can be alive
/// at once and handed to [`GroupCommit`]. Allocations are reused across
/// batches via [`TxCtx::speculate_into`].
#[derive(Debug, Default)]
pub struct PreparedTx {
    rv: u64,
    reads: ReadSet,
    writes: WriteSet,
}

impl PreparedTx {
    pub fn new() -> Self {
        Self::default()
    }

    /// The clock snapshot this speculation ran at.
    pub fn rv(&self) -> u64 {
        self.rv
    }

    /// The buffered writes. After a successful group commit, `Add`
    /// entries' `val` fields hold the *resolved* values (this member's
    /// serialization point within the group), so value-bearing responses
    /// can be built from them.
    pub fn writes(&self) -> &[WriteEntry] {
        &self.writes
    }

    pub fn is_read_only(&self) -> bool {
        self.writes.is_empty()
    }

    /// The (resolved) value this transaction left at `a`, if it wrote it.
    pub fn value_of(&self, a: Addr) -> Option<u64> {
        self.writes.iter().find(|e| e.addr == a).map(|e| e.val)
    }

    fn writes_slot(&self, slot: usize) -> bool {
        self.writes.iter().any(|e| e.slot as usize == slot)
    }

    /// Reads of words this transaction does *not* write — the reads that
    /// constrain which group it may join — by slot.
    fn plain_reads(&self) -> impl Iterator<Item = usize> + '_ {
        self.reads
            .iter()
            .map(|r| r.slot as usize)
            .filter(move |&slot| !self.writes_slot(slot))
    }
}

/// How [`GroupCommit`] disposed of one batch member.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemberOutcome {
    /// Published as part of a group (or validated, for read-only
    /// members); its `Add` entries carry resolved values.
    Committed,
    /// Must be re-run through the per-transaction path ([`TxCtx::run`]),
    /// where the conflict that evicted it is governed by the grace
    /// policy.
    Fallback,
}

/// The batch-aware group-commit planner.
///
/// [`commit_batch`](Self::commit_batch) takes a slice of speculated
/// members (batch order = serialization order) and:
///
/// 1. **partitions** them into groups whose write sets are disjoint —
///    except that [`WriteOp::Add`] entries on the same word fold — and
///    whose plain reads don't cross another member's writes (so every
///    group is serializable in member order);
/// 2. **commits** each group through the shared three-phase pipeline:
///    acquire the union of write locks in slot order, validate every
///    member's read set, publish the folded plan under a **single clock
///    bump**;
/// 3. **falls back** members that meet a foreign lock, a too-new version,
///    or a validation failure: they are reported as
///    [`MemberOutcome::Fallback`] and the group retries without them, so
///    one conflicting member never sinks its groupmates.
///
/// Read-only members join any group and are validated (never locked,
/// never bumped). A group holding locks never waits on anything, which
/// keeps the shared-write window short; every real conflict routes
/// through the per-tx fallback where the [`ConflictArbiter`] applies the
/// grace policy.
///
/// All scratch state is owned and reused — keep one planner per executor.
#[derive(Debug, Default)]
pub struct GroupCommit {
    /// Current group's member indices, batch order.
    group: Vec<usize>,
    /// Members of the current group still eligible (commit-time scratch).
    active: Vec<usize>,
    /// Partition-time write map of the current group: (slot, any-Set).
    fit_writes: Vec<(usize, bool)>,
    /// Partition-time plain-read slots of the current group's writers.
    fit_reads: Vec<usize>,
    /// Commit-time publish plan: the deduped union of the group's write
    /// slots, each with its folded value once resolved (fold structure is
    /// read off the members' entries).
    plan: Vec<(usize, u64)>,
    /// Commit-time `(slot, pre-lock meta)`, parallel to `plan`'s acquired
    /// prefix.
    restore: Vec<(usize, u64)>,
    /// Lifecycle trace sink for group-level events (one `GroupCommit`
    /// event per published group); `None` while tracing is off.
    trace: Option<Arc<Trace>>,
}

impl GroupCommit {
    pub fn new() -> Self {
        Self::default()
    }

    /// Enable lifecycle tracing for this planner's group-level events.
    pub fn set_trace(&mut self, trace: Arc<Trace>) {
        self.trace = Some(trace);
    }

    /// Can `m` join the current group without breaking member-order
    /// serializability? Read-only members always fit. A writing member
    /// fits when its writes fold into the group's write map (`Add` over
    /// `Add`; never over/under a `Set`), its writes miss the group's
    /// plain reads, and its plain reads miss the group's writes.
    fn fits(&self, m: &PreparedTx) -> bool {
        if m.is_read_only() {
            return true;
        }
        for e in m.writes() {
            let slot = e.slot as usize;
            match self.fit_writes.iter().find(|&&(ws, _)| ws == slot) {
                Some(&(_, set)) if set || e.op == WriteOp::Set => return false,
                _ => {}
            }
            if self.fit_reads.contains(&slot) {
                return false;
            }
        }
        m.plain_reads()
            .all(|slot| !self.fit_writes.iter().any(|&(ws, _)| ws == slot))
    }

    /// Add `m` (batch index `mi`) to the current group. Only *writing*
    /// members contribute their plain reads to the admission constraint:
    /// a read-only member serializes before every writer of its group
    /// (it validated pre-group values and writes nothing), so no
    /// dependency cycle can pass through it — tracking its reads would
    /// only force needless group splits (and the split-off writer would
    /// then fail validation against its own batch's publish).
    fn admit(&mut self, mi: usize, m: &PreparedTx) {
        self.group.push(mi);
        if m.is_read_only() {
            return;
        }
        for e in m.writes() {
            let slot = e.slot as usize;
            match self.fit_writes.iter_mut().find(|(ws, _)| *ws == slot) {
                Some(entry) => entry.1 |= e.op == WriteOp::Set,
                None => self.fit_writes.push((slot, e.op == WriteOp::Set)),
            }
        }
        for slot in m.plain_reads() {
            if !self.fit_reads.contains(&slot) {
                self.fit_reads.push(slot);
            }
        }
    }

    /// Commit a whole speculated batch. `members[i]`'s disposition lands
    /// in `outcomes[i]`; committed members' `Add` entries carry resolved
    /// values afterwards. Group-level counters (`group_commits`,
    /// `coalesced_writes`, the batch-size histogram) are recorded into
    /// `stats`; the caller accounts per-member commits and re-runs every
    /// fallback member *after* this returns (their serialization point
    /// moves to the end of the batch).
    pub fn commit_batch(
        &mut self,
        stm: &Stm,
        owner: usize,
        members: &mut [PreparedTx],
        stats: &mut EngineStats,
        outcomes: &mut Vec<MemberOutcome>,
    ) {
        self.commit_batch_with(stm, owner, members, stats, outcomes, |_| {});
    }

    /// [`commit_batch`](Self::commit_batch) with an inline fallback hook:
    /// `fallback(mi)` fires for each evicted member, in member order,
    /// immediately after its group's publish and **before** the next
    /// group commits. A caller that re-runs the member per-tx inside the
    /// hook preserves batch order as the serialization order end to end,
    /// which is what makes the final heap — not just conflict-free runs —
    /// independent of how the batch was grouped.
    pub fn commit_batch_with(
        &mut self,
        stm: &Stm,
        owner: usize,
        members: &mut [PreparedTx],
        stats: &mut EngineStats,
        outcomes: &mut Vec<MemberOutcome>,
        mut fallback: impl FnMut(usize),
    ) {
        outcomes.clear();
        outcomes.resize(members.len(), MemberOutcome::Fallback);
        self.group.clear();
        self.fit_writes.clear();
        self.fit_reads.clear();
        for mi in 0..members.len() {
            if !self.fits(&members[mi]) {
                self.flush_group(stm, owner, members, stats, outcomes, &mut fallback);
            }
            self.admit(mi, &members[mi]);
        }
        self.flush_group(stm, owner, members, stats, outcomes, &mut fallback);
    }

    /// Commit the current group, fire the fallback hook for its evicted
    /// members (member order), and reset the partition state.
    fn flush_group(
        &mut self,
        stm: &Stm,
        owner: usize,
        members: &mut [PreparedTx],
        stats: &mut EngineStats,
        outcomes: &mut [MemberOutcome],
        fallback: &mut impl FnMut(usize),
    ) {
        self.commit_group(stm, owner, members, stats, outcomes);
        for &mi in &self.group {
            if outcomes[mi] == MemberOutcome::Fallback {
                fallback(mi);
            }
        }
        self.group.clear();
        self.fit_writes.clear();
        self.fit_reads.clear();
    }

    /// Evict every still-active member writing `slot` (they fall back).
    fn fail_writers_of(&mut self, slot: usize, members: &[PreparedTx]) {
        self.active.retain(|&mi| !members[mi].writes_slot(slot));
    }

    /// Commit the current group through acquire → validate → publish,
    /// retrying with conflicting members evicted until the remainder
    /// publishes (each retry removes at least one member, so the loop is
    /// bounded by the group size).
    fn commit_group(
        &mut self,
        stm: &Stm,
        owner: usize,
        members: &mut [PreparedTx],
        stats: &mut EngineStats,
        outcomes: &mut [MemberOutcome],
    ) {
        self.active.clear();
        self.active.extend_from_slice(&self.group);
        'retry: while !self.active.is_empty() {
            // Build the publish plan from the surviving members: the
            // union of their write slots, in slot order.
            self.plan.clear();
            for &mi in &self.active {
                for e in members[mi].writes() {
                    if !self.plan.iter().any(|&(s, _)| s == e.slot as usize) {
                        self.plan.push((e.slot as usize, 0));
                    }
                }
            }
            self.plan.sort_unstable();

            // Phase 1: acquire the union of write locks in slot order (the
            // per-tx path's order). A foreign lock evicts that word's
            // writers — no waiting while the group holds locks; the
            // evicted members' per-tx re-run contends under the grace
            // policy. No version check here: blind writes may publish
            // over any version (a later group legitimately overwrites its
            // predecessor's bump), and read validity is entirely phase
            // 2's job.
            self.restore.clear();
            for pi in 0..self.plan.len() {
                let slot = self.plan[pi].0;
                match lock_cell(stm, slot, owner, u64::MAX) {
                    Ok(prev) => self.restore.push((slot, prev)),
                    Err(_) => {
                        release(stm, self.restore.drain(..));
                        self.fail_writers_of(slot, members);
                        continue 'retry;
                    }
                }
            }

            // Phase 2: validate every member's read set (a word locked by
            // this very group commit is valid if its pre-lock version was
            // within the member's snapshot).
            let mut any_failed = false;
            let restore = &self.restore;
            self.active.retain(|&mi| {
                let m = &members[mi];
                let ok = m.reads.iter().all(|r| {
                    validate_read(stm, owner, r.slot as usize, r.meta, m.rv, |slot| {
                        restore
                            .binary_search_by_key(&slot, |&(rs, _)| rs)
                            .ok()
                            .map(|i| restore[i].1)
                    })
                });
                any_failed |= !ok;
                ok
            });
            if any_failed {
                release(stm, self.restore.drain(..));
                continue 'retry;
            }
            // Relaxed: advisory flag (see `Tx::killed`).
            if stm.kill_flags[owner].load(Ordering::Relaxed) {
                // A requestor-wins contender flagged us: release and send
                // the whole group to the per-tx path, which honors the
                // flag at its next attempt boundary.
                release(stm, self.restore.drain(..));
                self.active.clear();
                return;
            }

            // Phase 3: resolve the folded plan under the held locks,
            // folded Add values in member (= serialization) order so
            // value-bearing responses match a serial execution, then
            // publish it under ONE clock bump.
            if !self.plan.is_empty() {
                let mut coalesced = 0u64;
                for (slot, val) in self.plan.iter_mut() {
                    // Relaxed: we hold the word's lock, and the lock
                    // CAS's Acquire synchronized with the previous
                    // publisher's Release, so this reads the latest
                    // published value without further ordering.
                    *val = stm.pair(*slot).value.load(Ordering::Relaxed);
                    let mut first = true;
                    for &mi in &self.active {
                        let at = |e: &&mut WriteEntry| e.slot as usize == *slot;
                        if let Some(e) = members[mi].writes.iter_mut().find(at) {
                            coalesced += u64::from(!first);
                            first = false;
                            match e.op {
                                WriteOp::Set => *val = e.val,
                                WriteOp::Add => {
                                    *val = val.wrapping_add(e.delta);
                                    e.val = *val;
                                }
                            }
                        }
                    }
                }
                publish(stm, owner, self.plan.iter().copied());
                self.restore.clear();
                stats.record_group_commit(self.active.len() as u64, coalesced);
                if let Some(t) = &self.trace {
                    t.emit(TraceEvent::lifecycle(
                        TraceKind::GroupCommit,
                        TraceTag {
                            shard: owner as u16,
                            tx: 0,
                            key: 0,
                        },
                        self.active.len() as u64,
                        coalesced,
                    ));
                }
            }
            for &mi in &self.active {
                outcomes[mi] = MemberOutcome::Committed;
            }
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tcp_core::policy::NoDelay;
    use tcp_core::randomized::{RandRa, RandRw};
    use tcp_core::rng::Xoshiro256StarStar;

    fn ctx<P: GracePolicy>(stm: &Stm, id: usize, p: P) -> TxCtx<'_, P> {
        TxCtx::new(stm, id, p, Xoshiro256StarStar::new(id as u64 + 1))
    }

    #[test]
    fn single_thread_read_write() {
        let stm = Stm::new(16, 1);
        let mut t = ctx(&stm, 0, NoDelay::requestor_aborts());
        let out = t.run(|tx| {
            tx.write(3, 7)?;
            tx.write(4, 8)?;
            let a = tx.read(3)?;
            let b = tx.read(4)?;
            Ok(a + b)
        });
        assert_eq!(out, 15);
        assert_eq!(stm.read_direct(3), 7);
        assert_eq!(stm.read_direct(4), 8);
        assert_eq!(t.stats.commits, 1);
        assert_eq!(t.stats.aborts, 0);
    }

    #[test]
    fn read_your_writes_and_last_write_wins() {
        let stm = Stm::new(4, 1);
        let mut t = ctx(&stm, 0, NoDelay::requestor_aborts());
        let v = t.run(|tx| {
            tx.write(0, 1)?;
            tx.write(0, 2)?;
            tx.read(0)
        });
        assert_eq!(v, 2);
        assert_eq!(stm.read_direct(0), 2);
    }

    #[test]
    fn write_add_reads_folds_and_publishes() {
        let stm = Stm::new(8, 1);
        stm.write_direct(2, 10);
        let mut t = ctx(&stm, 0, NoDelay::requestor_aborts());
        let v = t.run(|tx| {
            let a = tx.write_add(2, 5)?; // 15
            let b = tx.write_add(2, 1)?; // folds in-tx: 16
            assert_eq!((a, b), (15, 16));
            tx.read(2) // read-your-writes sees the folded value
        });
        assert_eq!(v, 16);
        assert_eq!(stm.read_direct(2), 16);
        // Set-then-add degrades the entry to a Set of the summed value.
        let v = t.run(|tx| {
            tx.write(3, 100)?;
            tx.write_add(3, 7)
        });
        assert_eq!(v, 107);
        assert_eq!(stm.read_direct(3), 107);
    }

    #[test]
    fn read_only_txn_commits_without_clock_bump() {
        let stm = Stm::new(4, 1);
        stm.write_direct(1, 42);
        let before = stm.clock_value();
        let mut t = ctx(&stm, 0, NoDelay::requestor_aborts());
        let v = t.run(|tx| tx.read(1));
        assert_eq!(v, 42);
        assert_eq!(stm.clock_value(), before);
    }

    #[test]
    fn concurrent_counter_is_exact() {
        let stm = Arc::new(Stm::new(4, 8));
        let threads = 8;
        let per = 2_000u64;
        std::thread::scope(|s| {
            for id in 0..threads {
                let stm = Arc::clone(&stm);
                s.spawn(move || {
                    let mut t = ctx(&stm, id, RandRa);
                    for _ in 0..per {
                        t.run(|tx| {
                            let v = tx.read(0)?;
                            tx.write(0, v + 1)
                        });
                    }
                });
            }
        });
        assert_eq!(stm.read_direct(0), threads as u64 * per);
    }

    #[test]
    fn concurrent_counter_requestor_wins_mode() {
        let stm = Arc::new(Stm::with_mode(4, 8, ResolutionMode::RequestorWins));
        let threads = 8;
        let per = 2_000u64;
        let kills: Arc<AtomicU64> = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for id in 0..threads {
                let stm = Arc::clone(&stm);
                let kills = Arc::clone(&kills);
                s.spawn(move || {
                    let mut t = ctx(&stm, id, RandRw);
                    for _ in 0..per {
                        t.run(|tx| {
                            let v = tx.read(0)?;
                            tx.write(0, v + 1)
                        });
                    }
                    kills.fetch_add(t.stats.remote_kills, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(stm.read_direct(0), threads as u64 * per);
    }

    #[test]
    fn disjoint_writes_do_not_conflict() {
        let stm = Arc::new(Stm::new(64, 4));
        std::thread::scope(|s| {
            for id in 0..4usize {
                let stm = Arc::clone(&stm);
                s.spawn(move || {
                    let mut t = ctx(&stm, id, NoDelay::requestor_aborts());
                    for i in 0..500u64 {
                        t.run(|tx| tx.write(id * 16, i));
                    }
                    assert_eq!(t.stats.validation_aborts, 0);
                });
            }
        });
    }

    #[test]
    fn snapshot_isolation_of_two_words() {
        // A writer keeps the invariant x == y; readers must never observe
        // x != y (TL2 opacity on the read path).
        let stm = Arc::new(Stm::new(8, 4));
        let stop = Arc::new(AtomicBool::new(false));
        std::thread::scope(|s| {
            {
                let stm = Arc::clone(&stm);
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    let mut t = ctx(&stm, 0, RandRa);
                    let mut i = 0u64;
                    while !stop.load(Ordering::SeqCst) {
                        i += 1;
                        t.run(|tx| {
                            tx.write(0, i)?;
                            tx.write(1, i)
                        });
                    }
                });
            }
            for id in 1..4usize {
                let stm = Arc::clone(&stm);
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    let mut t = ctx(&stm, id, RandRa);
                    for _ in 0..3_000 {
                        let (x, y) = t.run(|tx| {
                            let x = tx.read(0)?;
                            let y = tx.read(1)?;
                            Ok((x, y))
                        });
                        assert_eq!(x, y, "torn snapshot observed");
                    }
                    stop.store(true, Ordering::SeqCst);
                });
            }
        });
    }

    #[test]
    fn tx_sets_reuse_context_allocations() {
        // A footprint above INLINE_SET spills to the heap; once spilled to
        // the workload's footprint the spill allocation must be recycled
        // verbatim across transactions — no per-txn allocation on the
        // batch-executor hot path.
        let stm = Stm::new(64, 1);
        let mut t = ctx(&stm, 0, NoDelay::requestor_aborts());
        t.run(|tx| {
            for a in 0..32 {
                tx.write(a, a as u64)?;
                tx.read(a + 32)?; // disjoint: read-your-writes skips the read set
            }
            Ok(())
        });
        assert!(t.read_buf.is_spilled() && t.write_buf.is_spilled());
        let (rp, wp) = (
            t.read_buf.as_slice().as_ptr(),
            t.write_buf.as_slice().as_ptr(),
        );
        for _ in 0..100 {
            t.run(|tx| {
                for a in 0..32 {
                    tx.write(a, 1)?;
                    tx.read(a + 32)?;
                }
                Ok(())
            });
        }
        assert_eq!(
            t.read_buf.as_slice().as_ptr(),
            rp,
            "read set must not reallocate"
        );
        assert_eq!(
            t.write_buf.as_slice().as_ptr(),
            wp,
            "write set must not reallocate"
        );
        assert_eq!(t.stats.commits, 101);
    }

    #[test]
    fn small_footprint_tx_sets_stay_inline() {
        // The serve mix's typical transaction touches ≤ INLINE_SET words;
        // those must never touch the heap at all.
        let stm = Stm::new(64, 1);
        let mut t = ctx(&stm, 0, NoDelay::requestor_aborts());
        for _ in 0..10 {
            t.run(|tx| {
                for a in 0..INLINE_SET {
                    tx.write(a, 1)?;
                }
                Ok(())
            });
            assert!(!t.write_buf.is_spilled(), "≤N writes must stay inline");
        }
    }

    #[test]
    fn shard_layout_is_a_bijection_and_isolates_shards() {
        for (words, shards) in [(1usize, 1usize), (7, 3), (64, 4), (100, 7), (16, 32)] {
            let l = ShardLayout::new(words, shards);
            let mut seen = std::collections::HashSet::new();
            for k in 0..words {
                let s = l.slot(k);
                assert!(s < l.slots(), "slot {s} out of range for {words}/{shards}");
                assert!(seen.insert(s), "key {k} collides at slot {s}");
                // No two keys of different shards may share a cache line,
                // in the hot array or in the cold one.
                for k2 in 0..words {
                    if k2 % l.shards() != k % l.shards() {
                        let s2 = l.slot(k2);
                        assert_ne!(
                            ShardLayout::line_of_slot(s2),
                            ShardLayout::line_of_slot(s),
                            "keys {k}/{k2} of different shards share a hot line"
                        );
                        let (c, c2) = (
                            ShardLayout::cold_lines_of_slot(s),
                            ShardLayout::cold_lines_of_slot(s2),
                        );
                        assert!(
                            c.end() < c2.start() || c2.end() < c.start(),
                            "keys {k}/{k2} of different shards share a cold line"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cold_cells_of_different_shards_never_share_a_line_in_memory() {
        // The same guarantee on real addresses: `cold_lines_of_slot`
        // assumes slot 0's cell starts a line, which `cold_skip` arranges.
        // (At the parent commit, shard segments of 4 x 72 bytes made every
        // odd boundary fall mid-line.)
        for (words, shards) in [(64usize, 4usize), (100, 7), (4096, 2)] {
            let stm = Stm::with_layout(words, 1, shards, ResolutionMode::RequestorAborts);
            assert_eq!(stm.cold(0) as *const ColdCell as usize % 64, 0);
            let mut owner = std::collections::HashMap::new();
            for k in 0..words {
                let slot = stm.layout.slot(k);
                let at = stm.cold(slot) as *const ColdCell as usize;
                assert_eq!(
                    at,
                    stm.cold(0) as *const ColdCell as usize + slot * COLD_CELL_BYTES
                );
                for line in at / 64..=(at + COLD_CELL_BYTES - 1) / 64 {
                    let prev = *owner.entry(line).or_insert(k % shards);
                    assert_eq!(
                        prev,
                        k % shards,
                        "cold line shared ({words}/{shards}, key {k})"
                    );
                }
            }
        }
    }

    #[test]
    fn hot_line_is_exactly_one_padded_cache_line() {
        assert_eq!(std::mem::size_of::<HotLine>(), 64);
        assert_eq!(std::mem::align_of::<HotLine>(), 64);
        // The Stm allocates lines contiguously, so alignment of the Vec's
        // elements follows from the type's alignment.
        let stm = Stm::with_layout(10, 2, 3, ResolutionMode::RequestorWins);
        assert_eq!(stm.hot.as_ptr() as usize % 64, 0);
    }

    #[test]
    fn clock_and_kill_flags_each_own_a_128_byte_line() {
        // The `const` block beside `Stm` pins the header's field offsets;
        // this checks what it cannot, on a live heap: the clock's address
        // and the separately allocated flags.
        let stm = Stm::with_layout(64, 4, 2, ResolutionMode::RequestorWins);
        let clock = &*stm.clock as *const AtomicU64 as usize;
        assert_eq!(clock % 128, 0);
        let lines: Vec<usize> = stm
            .kill_flags
            .iter()
            .map(|f| &**f as *const AtomicBool as usize / 128)
            .collect();
        for (i, line) in lines.iter().enumerate() {
            assert!(!lines[..i].contains(line), "kill flag {i} shares a line");
            assert_ne!(*line, clock / 128);
        }
    }

    #[test]
    fn reciprocal_divides_exactly_at_the_edges() {
        for d in (1..=70u32).chain([4095, 4096, 65_537, u32::MAX - 1, u32::MAX]) {
            let r = Reciprocal::new(d);
            let near = |x: u32| [x.wrapping_sub(1), x, x.wrapping_add(1)];
            let ks = [0u32, 1, 2, u32::MAX / 2, u32::MAX - 1, u32::MAX]
                .into_iter()
                .chain(near(d))
                .chain(near(d.wrapping_mul(3)))
                .chain(near(u32::MAX / d * d));
            for k in ks {
                assert_eq!(r.div_rem(k), (k / d, k % d), "{k} by {d}");
            }
        }
    }

    /// The benchmark's transaction: read two words, then increment both.
    fn read2_add2<P: GracePolicy>(tx: &mut Tx<'_, '_, P>, a: Addr, b: Addr) -> Result<u64, Abort> {
        let sum = tx.read(a)? + tx.read(b)?;
        tx.write_add(a, 1)?;
        tx.write_add(b, 1)?;
        Ok(sum + tx.read(a)?)
    }

    #[test]
    fn rereads_are_recorded_once_per_word() {
        // `write_add` after `read` of the same word re-reads it: the read
        // set must hold one entry per distinct word (the parent commit
        // validated 4 entries for these 2 words), with the results, the
        // heap and the traced validate count to match.
        let stm = Stm::with_layout(64, 1, 2, ResolutionMode::RequestorAborts);
        stm.write_direct(5, 50);
        stm.write_direct(8, 80);
        let trace = Arc::new(Trace::new(1, &tcp_core::trace::TraceConfig::default()));
        let mut t = ctx(&stm, 0, NoDelay::requestor_aborts());
        t.set_trace(Arc::clone(&trace));
        let out = t.run(|tx| read2_add2(tx, 5, 8));
        assert_eq!(out, 50 + 80 + 51);
        assert_eq!(t.read_buf.len(), 2, "one read entry per distinct word");
        assert_eq!((stm.read_direct(5), stm.read_direct(8)), (51, 81));
        // Re-reading without writing: still one entry, same value.
        let twice = t.run(|tx| Ok((tx.read(5)?, tx.read(5)?)));
        assert_eq!(twice, (51, 51));
        assert_eq!(t.read_buf.len(), 1);
        let validated: Vec<u64> = trace
            .finish()
            .events
            .iter()
            .filter(|e| e.kind == TraceKind::Validate)
            .map(|e| e.a)
            .collect();
        assert_eq!(validated, [2], "Validate reports the deduped read set");
    }

    #[test]
    fn each_distinct_word_is_mapped_to_its_slot_once_per_attempt() {
        let stm = Stm::with_layout(64, 1, 2, ResolutionMode::RequestorAborts);
        let mut t = ctx(&stm, 0, NoDelay::requestor_aborts());
        let calls = || SLOT_CALLS.with(|c| c.get());
        let before = calls();
        t.run(|tx| read2_add2(tx, 5, 8));
        assert_eq!(calls() - before, 2, "2 words: 2 mappings, commit included");
        // Blind writes and write-after-read map once too.
        let before = calls();
        t.run(|tx| {
            tx.write(3, 1)?;
            tx.write(3, 2)?;
            tx.read(4)?;
            tx.write(4, 9)?;
            tx.read(3)
        });
        assert_eq!(calls() - before, 2);
    }

    #[test]
    fn requestor_wins_wait_is_counted_to_the_release() {
        // Thread 1 "holds" word 0's lock; a RandRw requestor meets it,
        // waits out its (sub-microsecond) grace, flags the owner and then
        // spins until the release. The whole of that is the wait — the
        // parent commit stopped counting at the flag.
        let stm = Stm::with_mode(4, 2, ResolutionMode::RequestorWins);
        let meta = &stm.pair(0).meta;
        let free = meta.load(Ordering::SeqCst);
        meta.store(pack_locked(1), Ordering::SeqCst);
        let held_after_flag = std::time::Duration::from_millis(3);
        let (stats, ran) = std::thread::scope(|s| {
            let requestor = s.spawn(|| {
                let mut t = ctx(&stm, 0, RandRw);
                let t0 = std::time::Instant::now();
                assert_eq!(t.run(|tx| tx.read(0)), 0);
                (t.stats, t0.elapsed())
            });
            // The flag going up is the grace expiring; hold on from there.
            while !stm.kill_flags[1].load(Ordering::SeqCst) {
                std::hint::spin_loop();
            }
            let flagged = std::time::Instant::now();
            while flagged.elapsed() < held_after_flag {
                std::hint::spin_loop();
            }
            meta.store(free, Ordering::SeqCst);
            requestor.join().expect("requestor panicked")
        });
        assert_eq!((stats.commits, stats.aborts), (1, 0));
        assert_eq!(stats.arbiter_consults, 1);
        let (lo, hi) = (held_after_flag.as_nanos() as u64, ran.as_nanos() as u64);
        assert!(
            stats.wait_cycles >= lo - lo / 50 && stats.wait_cycles <= hi + hi / 50,
            "wait_cycles {} outside [{lo}, {hi}] (2% clock slack)",
            stats.wait_cycles
        );
    }

    #[test]
    fn version_packing_roundtrip() {
        let m = pack_locked(1234);
        assert!(is_locked(m));
        assert_eq!(owner_of(m), 1234);
        assert!(!is_locked(42));
        assert_eq!(version_of(42), 42);
    }

    #[test]
    fn max_owner_id_does_not_clobber_the_lock_bit() {
        // The owner field is 15 bits (48..62); bit 63 is the lock bit. A
        // 16-bit owner field would let owner ids >= 2^15 flip the lock bit
        // and corrupt every is_locked/owner_of/version_of read.
        let m = pack_locked(MAX_OWNER);
        assert!(is_locked(m), "packing the max owner must stay locked");
        assert_eq!(owner_of(m), MAX_OWNER);
        assert_eq!(version_of(m), 0, "owner bits must not leak into version");
        // The full round trip at every field boundary.
        for owner in [0, 1, MAX_OWNER / 2, MAX_OWNER - 1, MAX_OWNER] {
            let m = pack_locked(owner);
            assert!(is_locked(m));
            assert_eq!(owner_of(m), owner);
        }
    }

    // ---- snapshot (MVCC) reads ----

    #[test]
    fn snapshot_read_sees_seeded_and_committed_state() {
        let stm = Stm::new(8, 1);
        stm.write_direct(0, 5); // seeded at version 0 → chain-visible
        let mut t = ctx(&stm, 0, NoDelay::requestor_aborts());
        t.run(|tx| tx.write(1, 7));
        let sum = t.run_snapshot(|snap| Ok(snap.read(0)? + snap.read(1)?));
        assert_eq!(sum, 12);
        assert_eq!(t.stats.snapshot_reads, 1);
        assert_eq!(t.stats.snapshot_restarts, 0);
        assert_eq!(t.stats.chain_misses, 0);
        assert_eq!(t.stats.aborts, 0);
        // Snapshot commits count as commits (conservation invariant).
        assert_eq!(t.stats.commits, 2);
    }

    #[test]
    fn snapshot_read_serves_historical_versions_from_the_chain() {
        let stm = Stm::new(4, 1);
        let mut t = ctx(&stm, 0, NoDelay::requestor_aborts());
        // Versions 1..=6 carry values 1..=6 on word 0.
        for i in 1..=6u64 {
            t.run(|tx| tx.write(0, i));
        }
        // rv = 4 is retained (chain holds versions 3..=6): value 4.
        let mut snap = SnapshotTx {
            stm: &stm,
            rv: 4,
            chain_misses: 0,
        };
        assert_eq!(snap.read(0), Ok(4));
        // rv = 1 fell off the bounded chain: a miss, not a wrong value.
        let mut snap = SnapshotTx {
            stm: &stm,
            rv: 1,
            chain_misses: 0,
        };
        assert_eq!(snap.read(0), Err(SnapshotMiss));
        assert_eq!(snap.chain_misses, 1);
        // An unwritten word is version-0 zero at any snapshot.
        let mut snap = SnapshotTx {
            stm: &stm,
            rv: 0,
            chain_misses: 0,
        };
        assert_eq!(snap.read(3), Ok(0));
    }

    #[test]
    fn snapshot_read_of_group_commit_history() {
        let stm = Stm::new(8, 1);
        let mut t = ctx(&stm, 0, NoDelay::requestor_aborts());
        t.run(|tx| {
            tx.write(0, 1)?;
            tx.write(1, 1)
        });
        let rv_before = stm.clock_value();
        let mut members = speculate_batch(
            &mut t,
            &[&|tx| tx.write(0, 2), &|tx| tx.write_add(1, 9).map(|_| ())],
        );
        let mut gc = GroupCommit::new();
        let (mut outcomes, mut stats) = (Vec::new(), EngineStats::default());
        gc.commit_batch(&stm, 0, &mut members, &mut stats, &mut outcomes);
        assert_eq!(outcomes, vec![MemberOutcome::Committed; 2]);
        // The pre-group snapshot still reads the pre-group world...
        let mut snap = SnapshotTx {
            stm: &stm,
            rv: rv_before,
            chain_misses: 0,
        };
        assert_eq!((snap.read(0), snap.read(1)), (Ok(1), Ok(1)));
        // ...and a fresh snapshot reads the group's publish.
        let sum = t.run_snapshot(|snap| Ok(snap.read(0)? + snap.read(1)?));
        assert_eq!(sum, 2 + 10);
    }

    #[test]
    fn snapshot_readers_never_tear_under_concurrent_writers() {
        // The writer keeps x == y transactionally; snapshot readers must
        // observe the invariant at every sampled clock — without a single
        // abort, validation, or arbiter consultation on the read side.
        let stm = Arc::new(Stm::new(8, 4));
        let stop = Arc::new(AtomicBool::new(false));
        std::thread::scope(|s| {
            {
                let stm = Arc::clone(&stm);
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    let mut t = ctx(&stm, 0, RandRa);
                    let mut i = 0u64;
                    while !stop.load(Ordering::SeqCst) {
                        i += 1;
                        t.run(|tx| {
                            tx.write(0, i)?;
                            tx.write(1, i)
                        });
                    }
                });
            }
            for id in 1..4usize {
                let stm = Arc::clone(&stm);
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    let mut t = ctx(&stm, id, RandRa);
                    for _ in 0..3_000 {
                        let (x, y) = t.run_snapshot(|snap| Ok((snap.read(0)?, snap.read(1)?)));
                        assert_eq!(x, y, "torn snapshot observed");
                    }
                    assert_eq!(t.stats.aborts, 0, "snapshot reads must not abort");
                    assert_eq!(t.stats.arbiter_consults, 0);
                    assert_eq!(t.stats.snapshot_reads, 3_000);
                    stop.store(true, Ordering::SeqCst);
                });
            }
        });
    }

    // ---- group commit ----

    /// A borrowed transaction body, as the group-commit tests pass them.
    type Body<'a, P> = &'a dyn Fn(&mut Tx<'_, '_, P>) -> Result<(), Abort>;
    /// An owned transaction body under the NoDelay policy (mixed-batch
    /// equivalence test).
    type BodyFn = dyn Fn(&mut Tx<'_, '_, NoDelay>) -> Result<(), Abort>;

    /// Speculate `n` bodies through one context, returning the members.
    fn speculate_batch<P: GracePolicy>(
        t: &mut TxCtx<'_, P>,
        bodies: &[Body<'_, P>],
    ) -> Vec<PreparedTx> {
        bodies
            .iter()
            .map(|body| {
                let mut prep = PreparedTx::new();
                t.speculate_into(&mut prep, |tx| body(tx)).unwrap();
                prep
            })
            .collect()
    }

    #[test]
    fn group_commit_publishes_disjoint_batch_under_one_bump() {
        let stm = Stm::new(16, 1);
        let mut t = ctx(&stm, 0, NoDelay::requestor_aborts());
        let mut members = speculate_batch(
            &mut t,
            &[&|tx| tx.write(0, 10), &|tx| tx.write(1, 11), &|tx| {
                tx.write_add(2, 5).map(|_| ())
            }],
        );
        let before = stm.clock_value();
        let mut gc = GroupCommit::new();
        let mut outcomes = Vec::new();
        let mut stats = EngineStats::default();
        gc.commit_batch(&stm, 0, &mut members, &mut stats, &mut outcomes);
        assert_eq!(outcomes, vec![MemberOutcome::Committed; 3]);
        assert_eq!(stm.clock_value(), before + 1, "one bump for the group");
        assert_eq!(
            (stm.read_direct(0), stm.read_direct(1), stm.read_direct(2)),
            (10, 11, 5)
        );
        assert_eq!(stats.group_commits, 1);
        assert_eq!(stats.coalesced_writes, 0);
        assert_eq!(stats.group_batch_hist.max(), 3);
    }

    #[test]
    fn group_commit_folds_adds_and_resolves_serial_values() {
        let stm = Stm::new(8, 1);
        stm.write_direct(0, 100);
        let mut t = ctx(&stm, 0, NoDelay::requestor_aborts());
        let mut members = speculate_batch(
            &mut t,
            &[
                &|tx| tx.write_add(0, 1).map(|_| ()),
                &|tx| tx.write_add(0, 2).map(|_| ()),
                &|tx| tx.write_add(0, 3).map(|_| ()),
            ],
        );
        // Independent speculation: every member read base 100.
        assert_eq!(members[2].value_of(0), Some(103));
        let before = stm.clock_value();
        let mut gc = GroupCommit::new();
        let (mut outcomes, mut stats) = (Vec::new(), EngineStats::default());
        gc.commit_batch(&stm, 0, &mut members, &mut stats, &mut outcomes);
        assert_eq!(outcomes, vec![MemberOutcome::Committed; 3]);
        assert_eq!(stm.clock_value(), before + 1, "folded adds share one bump");
        assert_eq!(stm.read_direct(0), 106);
        // Resolved values follow member order: 101, 103, 106.
        assert_eq!(members[0].value_of(0), Some(101));
        assert_eq!(members[1].value_of(0), Some(103));
        assert_eq!(members[2].value_of(0), Some(106));
        assert_eq!(stats.coalesced_writes, 2, "two folds on the shared key");
        assert_eq!(stats.group_commits, 1);
    }

    #[test]
    fn group_commit_splits_set_collisions_into_ordered_groups() {
        let stm = Stm::new(8, 1);
        let mut t = ctx(&stm, 0, NoDelay::requestor_aborts());
        let mut members = speculate_batch(
            &mut t,
            &[&|tx| tx.write(0, 1), &|tx| tx.write(0, 2), &|tx| {
                tx.write(0, 3)
            }],
        );
        let before = stm.clock_value();
        let mut gc = GroupCommit::new();
        let (mut outcomes, mut stats) = (Vec::new(), EngineStats::default());
        gc.commit_batch(&stm, 0, &mut members, &mut stats, &mut outcomes);
        assert_eq!(outcomes, vec![MemberOutcome::Committed; 3]);
        assert_eq!(stm.clock_value(), before + 3, "three Set groups");
        assert_eq!(stm.read_direct(0), 3, "batch order = serial order");
        assert_eq!(stats.group_commits, 3);
    }

    #[test]
    fn group_commit_read_only_members_validate_without_bumping() {
        let stm = Stm::new(8, 1);
        stm.write_direct(1, 7);
        let mut t = ctx(&stm, 0, NoDelay::requestor_aborts());
        let mut members = speculate_batch(&mut t, &[&|tx| tx.read(1).map(|_| ())]);
        let before = stm.clock_value();
        let mut gc = GroupCommit::new();
        let (mut outcomes, mut stats) = (Vec::new(), EngineStats::default());
        gc.commit_batch(&stm, 0, &mut members, &mut stats, &mut outcomes);
        assert_eq!(outcomes, vec![MemberOutcome::Committed]);
        assert_eq!(stm.clock_value(), before, "read-only groups never bump");
        assert_eq!(stats.group_commits, 0);
    }

    #[test]
    fn group_commit_foreign_lock_evicts_only_that_writer() {
        let stm = Stm::new(8, 2);
        let mut t = ctx(&stm, 0, NoDelay::requestor_aborts());
        let mut members = speculate_batch(
            &mut t,
            &[
                &|tx| tx.write(0, 10),
                &|tx| tx.write(1, 11), // will meet a foreign lock
            ],
        );
        // Thread 1 holds word 1's lock.
        let held = stm.pair(1).meta.load(Ordering::SeqCst);
        stm.pair(1).meta.store(pack_locked(1), Ordering::SeqCst);
        let mut gc = GroupCommit::new();
        let (mut outcomes, mut stats) = (Vec::new(), EngineStats::default());
        gc.commit_batch(&stm, 0, &mut members, &mut stats, &mut outcomes);
        assert_eq!(
            outcomes,
            vec![MemberOutcome::Committed, MemberOutcome::Fallback],
            "the blocked writer falls back; its groupmate still commits"
        );
        assert_eq!(stm.read_direct(0), 10);
        assert_eq!(stm.read_direct(1), 0, "fallback member must not publish");
        stm.pair(1).meta.store(held, Ordering::SeqCst);
    }

    #[test]
    fn group_commit_stale_member_falls_back_and_state_stays_consistent() {
        let stm = Stm::new(8, 2);
        let mut t = ctx(&stm, 0, NoDelay::requestor_aborts());
        let mut members = speculate_batch(
            &mut t,
            &[&|tx| tx.write_add(0, 1).map(|_| ()), &|tx| {
                tx.write_add(1, 1).map(|_| ())
            }],
        );
        // A foreign commit advances word 1 after speculation: member 1's
        // snapshot is stale at group-commit time.
        let mut other = ctx(&stm, 1, NoDelay::requestor_aborts());
        other.run(|tx| tx.write(1, 50));
        let mut gc = GroupCommit::new();
        let (mut outcomes, mut stats) = (Vec::new(), EngineStats::default());
        gc.commit_batch(&stm, 0, &mut members, &mut stats, &mut outcomes);
        assert_eq!(
            outcomes,
            vec![MemberOutcome::Committed, MemberOutcome::Fallback]
        );
        assert_eq!(stm.read_direct(0), 1);
        assert_eq!(stm.read_direct(1), 50, "stale member must not publish");
        // The fallback path completes the member exactly-once.
        t.run(|tx| tx.write_add(1, 1).map(|_| ()));
        assert_eq!(stm.read_direct(1), 51);
    }

    #[test]
    fn group_commit_matches_per_tx_heap_for_a_mixed_batch() {
        // The equivalence the servers rely on: same bodies, same member
        // order → same final heap whether committed per-tx or grouped.
        let bodies: Vec<Box<BodyFn>> = vec![
            Box::new(|tx| tx.write_add(0, 3).map(|_| ())),
            Box::new(|tx| tx.write(1, 9)),
            Box::new(|tx| tx.write_add(0, 4).map(|_| ())),
            Box::new(|tx| tx.read(1).map(|_| ())),
            Box::new(|tx| tx.write(1, 20)),
            Box::new(|tx| {
                tx.write_add(2, 1)?;
                tx.write_add(0, 1).map(|_| ())
            }),
        ];
        let grouped = Stm::new(8, 1);
        let mut t = ctx(&grouped, 0, NoDelay::requestor_aborts());
        let mut members: Vec<PreparedTx> = bodies
            .iter()
            .map(|b| {
                let mut p = PreparedTx::new();
                t.speculate_into(&mut p, |tx| b(tx)).unwrap();
                p
            })
            .collect();
        let mut gc = GroupCommit::new();
        let (mut outcomes, mut stats) = (Vec::new(), EngineStats::default());
        // m5 read word 0, which an earlier group of this very batch
        // republished — it is evicted and re-runs per-tx *inside the
        // hook*, at its serial position, exactly like the executor.
        gc.commit_batch_with(&grouped, 0, &mut members, &mut stats, &mut outcomes, |mi| {
            t.run(|tx| bodies[mi](tx));
        });
        assert!(outcomes[..5].iter().all(|&o| o == MemberOutcome::Committed));
        assert_eq!(outcomes[5], MemberOutcome::Fallback);

        let per_tx = Stm::new(8, 1);
        let mut t = ctx(&per_tx, 0, NoDelay::requestor_aborts());
        for b in &bodies {
            t.run(|tx| b(tx));
        }
        assert_eq!(grouped.snapshot_direct(), per_tx.snapshot_direct());
        assert!(
            grouped.clock_value() < per_tx.clock_value(),
            "grouping must spend fewer clock bumps ({} vs {})",
            grouped.clock_value(),
            per_tx.clock_value()
        );
    }
}
