//! The memory subsystem: per-core private L1 caches with transactional
//! bits, and the shared-L2 directory tracking owner/sharers per line
//! (MSI protocol, Algorithm 1 of the paper).
//!
//! ## Data layout
//!
//! Everything is indexed by dense integers so that one simulated access
//! costs a few array reads, not a handful of SipHash probes:
//!
//! * a line *address* is interned once into a dense `u32` *id*
//!   ([`LineTable`], one integer-hash probe per access); ids are private to
//!   the memory system — the NoC model hashes the address, never the id,
//!   and no simulated quantity may depend on the order ids were handed out;
//! * the [`Directory`] is a flat `Vec<DirEntry>` by id;
//! * each [`L1Cache`] is a small open-addressed id → line table bounded by
//!   the cache capacity, an insertion-ordered eviction queue, and the list
//!   of the running transaction's own lines, so commit and abort cost
//!   O(read/write set) and everything else O(1);
//! * sets of cores are `u64` masks, iterated in ascending core id
//!   ([`cores_in`]).
//!
//! The directory and the caches are maintained separately by the
//! simulator; `Simulator::check_coherence` cross-checks one against the
//! other. Neither is ever derived from the other.

/// MSI stable states of an L1 copy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CopyState {
    Shared,
    Modified,
}

/// One line resident in a private L1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct L1Line {
    pub state: CopyState,
    /// Set if the line belongs to the running transaction's read/write set
    /// (the "additional bit" of Algorithm 1).
    pub txn: bool,
}

/// The cores in `mask`, ascending.
pub fn cores_in(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        if mask == 0 {
            return None;
        }
        let core = mask.trailing_zeros() as usize;
        mask &= mask - 1;
        Some(core)
    })
}

/// Marks a free slot in both open-addressed tables. Never handed out as an
/// id: [`LineTable::intern`] refuses to grow that far.
const EMPTY: u32 = u32::MAX;
/// Smallest non-empty table (slots; a power of two).
const MIN_SLOTS: usize = 8;

/// Fibonacci hash of `key` into a table of `slots` (a power of two ≥ 2).
#[inline]
fn slot_of(key: u64, slots: usize) -> usize {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - slots.trailing_zeros())) as usize
}

/// Interns line addresses into dense ids, in first-touch order.
#[derive(Clone, Debug, Default)]
pub struct LineTable {
    /// Open-addressed (address, id) pairs, load ≤ 1/2; `id == EMPTY` is free.
    slots: Vec<(u64, u32)>,
    /// id → address.
    addrs: Vec<u64>,
}

impl LineTable {
    /// The id of `addr`, assigned on first sight.
    #[inline]
    pub fn intern(&mut self, addr: u64) -> u32 {
        if !self.slots.is_empty() {
            let mask = self.slots.len() - 1;
            let mut i = slot_of(addr, self.slots.len());
            loop {
                let (a, id) = self.slots[i];
                if id == EMPTY {
                    break;
                }
                if a == addr {
                    return id;
                }
                i = (i + 1) & mask;
            }
        }
        self.insert(addr)
    }

    #[cold]
    fn insert(&mut self, addr: u64) -> u32 {
        let id = self.addrs.len() as u32;
        assert!(id < EMPTY, "line-id space exhausted");
        self.addrs.push(addr);
        if self.addrs.len() * 2 > self.slots.len() {
            let slots = (self.slots.len() * 2).max(MIN_SLOTS);
            self.slots.clear();
            self.slots.resize(slots, (0, EMPTY));
            for id in 0..id {
                self.place(self.addrs[id as usize], id);
            }
        }
        self.place(addr, id);
        id
    }

    fn place(&mut self, addr: u64, id: u32) {
        let mask = self.slots.len() - 1;
        let mut i = slot_of(addr, self.slots.len());
        while self.slots[i].1 != EMPTY {
            i = (i + 1) & mask;
        }
        self.slots[i] = (addr, id);
    }

    /// The address behind `id`.
    #[inline]
    pub fn addr(&self, id: u32) -> u64 {
        self.addrs[id as usize]
    }

    /// Distinct lines seen so far.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }
}

/// A resident line in the L1's table.
#[derive(Clone, Copy, Debug)]
struct Slot {
    /// Line id, or [`EMPTY`].
    id: u32,
    line: L1Line,
    /// When this copy was installed; matches exactly one queue entry.
    stamp: u64,
}

const FREE: Slot = Slot {
    id: EMPTY,
    line: L1Line {
        state: CopyState::Shared,
        txn: false,
    },
    stamp: 0,
};

/// A private L1 cache: full-associative with bounded capacity. Running out
/// of capacity for a transactional line aborts the transaction, so the
/// replacement policy only ever evicts non-transactional lines (oldest
/// first — insertion order is deterministic).
#[derive(Clone, Debug, Default)]
pub struct L1Cache {
    /// Open-addressed by line id, linear probing, load ≤ 1/2, deletion by
    /// backward shift (no tombstones).
    slots: Vec<Slot>,
    len: usize,
    /// `(stamp, id)` of every install, oldest first from `head`. An entry
    /// whose line has since left (or left and come back with a newer
    /// stamp) is stale; stale entries are dropped when they reach the head
    /// and when the queue outgrows twice the resident set.
    queue: Vec<(u64, u32)>,
    head: usize,
    next_stamp: u64,
    /// Ids of the lines with the transactional bit set.
    txn: Vec<u32>,
}

/// Result of trying to install a line into the L1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Install {
    Ok,
    /// A non-transactional line was evicted to make room.
    Evicted(u32),
    /// The cache is full of transactional lines: capacity abort.
    CapacityAbort,
}

impl L1Cache {
    #[inline]
    fn find(&self, id: u32) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = slot_of(u64::from(id), self.slots.len());
        loop {
            let found = self.slots[i].id;
            if found == id {
                return Some(i);
            }
            if found == EMPTY {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    #[inline]
    pub fn get(&self, id: u32) -> Option<&L1Line> {
        self.find(id).map(|i| &self.slots[i].line)
    }

    /// Whether `id` is resident with its transactional bit set.
    #[inline]
    pub fn is_txn(&self, id: u32) -> bool {
        self.get(id).is_some_and(|l| l.txn)
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The L1 hit path: if `id` is resident in a state that serves the
    /// access (any copy for a read, Modified for a write), add it to the
    /// running transaction's set and return true.
    #[inline]
    pub fn touch(&mut self, id: u32, write: bool) -> bool {
        let Some(i) = self.find(id) else { return false };
        let line = &mut self.slots[i].line;
        if write && line.state != CopyState::Modified {
            return false;
        }
        if !line.txn {
            line.txn = true;
            self.txn.push(id);
        }
        true
    }

    /// A remote read downgrades this (Modified) copy to Shared.
    pub fn downgrade(&mut self, id: u32) {
        if let Some(i) = self.find(id) {
            self.slots[i].line.state = CopyState::Shared;
        }
    }

    /// Install (or update) `id` with the given state, respecting
    /// `capacity`.
    pub fn install(&mut self, id: u32, state: CopyState, txn: bool, capacity: usize) -> Install {
        if let Some(i) = self.find(id) {
            let line = &mut self.slots[i].line;
            line.state = state;
            if txn && !line.txn {
                line.txn = true;
                self.txn.push(id);
            }
            return Install::Ok;
        }
        let mut evicted = None;
        if self.len >= capacity {
            match self.oldest_non_txn() {
                Some(victim) => {
                    self.remove(victim);
                    evicted = Some(victim);
                }
                None => return Install::CapacityAbort,
            }
        }
        if (self.len + 1) * 2 > self.slots.len() {
            self.grow();
        }
        if self.queue.len() >= 2 * self.len + 32 {
            self.compact_queue();
        }
        self.next_stamp += 1;
        self.place(Slot {
            id,
            line: L1Line { state, txn },
            stamp: self.next_stamp,
        });
        self.len += 1;
        self.queue.push((self.next_stamp, id));
        if txn {
            self.txn.push(id);
        }
        evicted.map_or(Install::Ok, Install::Evicted)
    }

    /// Is this queue entry the install its line is resident from?
    #[inline]
    fn live(&self, (stamp, id): (u64, u32)) -> Option<&L1Line> {
        let slot = &self.slots[self.find(id)?];
        (slot.stamp == stamp).then_some(&slot.line)
    }

    /// The eviction rule: the oldest resident line without the
    /// transactional bit. Stale entries met at the head are dropped.
    fn oldest_non_txn(&mut self) -> Option<u32> {
        for i in self.head..self.queue.len() {
            let entry = self.queue[i];
            match self.live(entry) {
                Some(line) if !line.txn => return Some(entry.1),
                None if i == self.head => self.head += 1,
                _ => {}
            }
        }
        None
    }

    fn compact_queue(&mut self) {
        let mut kept = 0;
        for i in self.head..self.queue.len() {
            let entry = self.queue[i];
            if self.live(entry).is_some() {
                self.queue[kept] = entry;
                kept += 1;
            }
        }
        self.queue.truncate(kept);
        self.head = 0;
    }

    #[cold]
    fn grow(&mut self) {
        let slots = (self.slots.len() * 2).max(MIN_SLOTS);
        let old = std::mem::take(&mut self.slots);
        self.slots.resize(slots, FREE);
        for slot in old {
            if slot.id != EMPTY {
                self.place(slot);
            }
        }
    }

    fn place(&mut self, slot: Slot) {
        let mask = self.slots.len() - 1;
        let mut i = slot_of(u64::from(slot.id), self.slots.len());
        while self.slots[i].id != EMPTY {
            i = (i + 1) & mask;
        }
        self.slots[i] = slot;
    }

    /// Free slot `i`, shifting back any later entry of its probe run that
    /// would otherwise become unreachable.
    fn vacate(&mut self, mut i: usize) {
        let mask = self.slots.len() - 1;
        let mut j = i;
        loop {
            j = (j + 1) & mask;
            if self.slots[j].id == EMPTY {
                break;
            }
            let home = slot_of(u64::from(self.slots[j].id), self.slots.len());
            // Entry j may move to i only if its home is not in (i, j].
            let stays = if i <= j {
                i < home && home <= j
            } else {
                i < home || home <= j
            };
            if !stays {
                self.slots[i] = self.slots[j];
                i = j;
            }
        }
        self.slots[i] = FREE;
        self.len -= 1;
    }

    /// Drop `id` (invalidation or eviction). Its queue entry goes stale.
    pub fn remove(&mut self, id: u32) {
        let Some(i) = self.find(id) else { return };
        if self.slots[i].line.txn {
            // The simulator only ever invalidates non-transactional copies
            // (a transactional one is a conflict); kept exact for callers
            // that do.
            if let Some(p) = self.txn.iter().position(|&t| t == id) {
                self.txn.swap_remove(p);
            }
        }
        self.vacate(i);
    }

    /// Ids of all transactional lines (the read/write set), in no
    /// particular order.
    pub fn txn_lines(&self) -> &[u32] {
        &self.txn
    }

    /// Clear the transactional bits (commit: lines stay cached).
    pub fn commit_txn(&mut self) {
        for &id in &self.txn {
            if let Some(i) = self.find(id) {
                self.slots[i].line.txn = false;
            }
        }
        self.txn.clear();
    }

    /// Drop all transactional lines (abort: Algorithm 1, line 5). Purge
    /// the directory from [`txn_lines`](Self::txn_lines) first.
    pub fn abort_txn(&mut self) {
        let mut txn = std::mem::take(&mut self.txn);
        for id in txn.drain(..) {
            if let Some(i) = self.find(id) {
                self.vacate(i);
            }
        }
        self.txn = txn;
    }

    /// Test hook: list `id` as transactional without making it resident,
    /// the corruption `Simulator::check_coherence` must catch.
    #[cfg(test)]
    pub(crate) fn corrupt_txn_list(&mut self, id: u32) {
        self.txn.push(id);
    }
}

/// Directory entry at the shared L2: who holds the line and how.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DirEntry {
    /// Core holding the line Modified, if any.
    pub owner: Option<usize>,
    /// Bitmask of cores holding the line Shared.
    pub sharers: u64,
}

impl DirEntry {
    pub fn is_cold(&self) -> bool {
        self.owner.is_none() && self.sharers == 0
    }

    pub fn add_sharer(&mut self, core: usize) {
        self.sharers |= 1u64 << core;
    }

    pub fn remove_core(&mut self, core: usize) {
        self.sharers &= !(1u64 << core);
        if self.owner == Some(core) {
            self.owner = None;
        }
    }

    /// Mask of all cores with any copy, excluding `except`.
    pub fn holders_except(&self, except: usize) -> u64 {
        (self.sharers | self.owner.map_or(0, |o| 1u64 << o)) & !(1u64 << except)
    }
}

/// The full directory: one entry per interned line id.
#[derive(Clone, Debug, Default)]
pub struct Directory {
    entries: Vec<DirEntry>,
}

impl Directory {
    #[inline]
    pub fn entry(&self, id: u32) -> DirEntry {
        self.entries.get(id as usize).copied().unwrap_or_default()
    }

    #[inline]
    pub fn entry_mut(&mut self, id: u32) -> &mut DirEntry {
        let i = id as usize;
        if i >= self.entries.len() {
            self.entries.resize(i + 1, DirEntry::default());
        }
        &mut self.entries[i]
    }

    /// Remove a core from every line in `lines` (used on abort).
    pub fn purge(&mut self, core: usize, lines: &[u32]) {
        for &id in lines {
            if let Some(e) = self.entries.get_mut(id as usize) {
                e.remove_core(core);
            }
        }
    }

    /// Internal consistency check used by debug assertions and tests:
    /// a line with an owner has no other sharers.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (id, e) in self.entries.iter().enumerate() {
            if let Some(o) = e.owner {
                let others = e.sharers & !(1u64 << o);
                if others != 0 {
                    return Err(format!(
                        "line #{id}: owner {o} coexists with sharers {others:#b}"
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod model {
    //! The memory system this module replaced — SipHash maps, an order
    //! `Vec` searched linearly, O(cache) commit and abort — kept as the
    //! reference the dense implementation is driven against.

    use super::{CopyState, DirEntry, Install, L1Line};
    use std::collections::HashMap;

    #[derive(Default)]
    pub struct L1Cache {
        lines: HashMap<u32, L1Line>,
        order: Vec<u32>,
    }

    impl L1Cache {
        pub fn get(&self, id: u32) -> Option<&L1Line> {
            self.lines.get(&id)
        }

        pub fn len(&self) -> usize {
            self.lines.len()
        }

        pub fn touch(&mut self, id: u32, write: bool) -> bool {
            match self.lines.get_mut(&id) {
                Some(l) if !write || l.state == CopyState::Modified => {
                    l.txn = true;
                    true
                }
                _ => false,
            }
        }

        pub fn install(&mut self, id: u32, state: CopyState, txn: bool, cap: usize) -> Install {
            if let Some(line) = self.lines.get_mut(&id) {
                line.state = state;
                line.txn = line.txn || txn;
                return Install::Ok;
            }
            let mut evicted = None;
            if self.lines.len() >= cap {
                let victim = self.order.iter().copied().find(|a| !self.lines[a].txn);
                match victim {
                    Some(v) => {
                        self.remove(v);
                        evicted = Some(v);
                    }
                    None => return Install::CapacityAbort,
                }
            }
            self.lines.insert(id, L1Line { state, txn });
            self.order.push(id);
            evicted.map_or(Install::Ok, Install::Evicted)
        }

        pub fn remove(&mut self, id: u32) {
            if self.lines.remove(&id).is_some() {
                self.order.retain(|&a| a != id);
            }
        }

        pub fn txn_lines(&self) -> Vec<u32> {
            let mut v: Vec<u32> = (self.order.iter().copied())
                .filter(|a| self.lines[a].txn)
                .collect();
            v.sort_unstable();
            v
        }

        pub fn commit_txn(&mut self) {
            for l in self.lines.values_mut() {
                l.txn = false;
            }
        }

        pub fn abort_txn(&mut self) {
            self.lines.retain(|_, l| !l.txn);
            self.order.retain(|a| self.lines.contains_key(a));
        }
    }

    #[derive(Default)]
    pub struct Directory {
        pub entries: HashMap<u32, DirEntry>,
    }

    impl Directory {
        pub fn entry(&self, id: u32) -> DirEntry {
            self.entries.get(&id).copied().unwrap_or_default()
        }

        pub fn entry_mut(&mut self, id: u32) -> &mut DirEntry {
            self.entries.entry(id).or_default()
        }

        pub fn purge(&mut self, core: usize, lines: &[u32]) {
            for id in lines {
                if let Some(e) = self.entries.get_mut(id) {
                    e.remove_core(core);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcp_core::rng::{uniform_u64_below, Xoshiro256StarStar};

    #[test]
    fn install_and_hit() {
        let mut c = L1Cache::default();
        assert_eq!(c.install(7, CopyState::Shared, true, 4), Install::Ok);
        assert_eq!(c.get(7).unwrap().state, CopyState::Shared);
        assert!(c.get(7).unwrap().txn);
        // Upgrading keeps the txn bit.
        assert_eq!(c.install(7, CopyState::Modified, false, 4), Install::Ok);
        assert!(c.get(7).unwrap().txn);
        assert_eq!(c.get(7).unwrap().state, CopyState::Modified);
    }

    #[test]
    fn eviction_prefers_non_transactional() {
        let mut c = L1Cache::default();
        c.install(1, CopyState::Shared, false, 2);
        c.install(2, CopyState::Shared, true, 2);
        // Cache full; next install evicts line 1 (non-txn), never line 2.
        assert_eq!(
            c.install(3, CopyState::Shared, true, 2),
            Install::Evicted(1)
        );
        assert!(c.get(1).is_none());
        assert!(c.get(2).is_some());
    }

    #[test]
    fn capacity_abort_when_all_transactional() {
        let mut c = L1Cache::default();
        c.install(1, CopyState::Shared, true, 2);
        c.install(2, CopyState::Shared, true, 2);
        assert_eq!(
            c.install(3, CopyState::Shared, true, 2),
            Install::CapacityAbort
        );
    }

    #[test]
    fn commit_clears_bits_abort_drops_lines() {
        let mut c = L1Cache::default();
        c.install(1, CopyState::Modified, true, 8);
        c.install(2, CopyState::Shared, true, 8);
        c.install(3, CopyState::Shared, false, 8);
        let mut clone = c.clone();
        c.commit_txn();
        assert!(c.txn_lines().is_empty());
        assert_eq!(c.len(), 3);
        assert_eq!(clone.txn_lines(), [1, 2]);
        clone.abort_txn();
        assert_eq!(clone.len(), 1);
        assert!(clone.get(3).is_some());
    }

    #[test]
    fn hit_path_joins_the_transaction_and_respects_state() {
        let mut c = L1Cache::default();
        assert!(!c.touch(5, false), "not resident");
        c.install(5, CopyState::Shared, false, 4);
        assert!(!c.touch(5, true), "a Shared copy cannot serve a write");
        assert!(c.txn_lines().is_empty());
        assert!(c.touch(5, false));
        assert!(c.touch(5, false), "idempotent");
        assert_eq!(c.txn_lines(), [5]);
        c.downgrade(5); // no-op on Shared
        c.install(5, CopyState::Modified, true, 4);
        assert!(c.touch(5, true));
        assert_eq!(c.txn_lines(), [5], "listed once");
        c.downgrade(5);
        assert_eq!(c.get(5).unwrap().state, CopyState::Shared);
    }

    #[test]
    fn directory_owner_and_sharers() {
        let mut d = Directory::default();
        d.entry_mut(9).add_sharer(0);
        d.entry_mut(9).add_sharer(3);
        assert_eq!(d.entry(9).holders_except(0), 1 << 3);
        d.entry_mut(9).remove_core(3);
        d.entry_mut(9).owner = Some(1);
        assert_eq!(d.entry(9).holders_except(2), 0b11);
        assert_eq!(cores_in(0b11).collect::<Vec<_>>(), [0, 1]);
        assert!(d.entry(100).is_cold());
    }

    #[test]
    fn purge_removes_core_everywhere() {
        let mut d = Directory::default();
        d.entry_mut(1).owner = Some(2);
        d.entry_mut(5).add_sharer(2);
        d.purge(2, &[1, 5]);
        assert!(d.entry(1).is_cold());
        assert!(d.entry(5).is_cold());
    }

    #[test]
    fn invariant_check_catches_owner_with_sharers() {
        let mut d = Directory::default();
        d.entry_mut(1).owner = Some(0);
        assert!(d.check_invariants().is_ok());
        d.entry_mut(1).add_sharer(1);
        assert!(d.check_invariants().is_err());
    }

    #[test]
    fn core_63_is_a_valid_sharer() {
        let mut e = DirEntry::default();
        e.add_sharer(63);
        e.owner = Some(0);
        assert_eq!(cores_in(e.holders_except(5)).collect::<Vec<_>>(), [0, 63]);
        e.remove_core(63);
        assert_eq!(e.sharers, 0);
    }

    #[test]
    fn interning_is_dense_stable_and_reversible() {
        let mut t = LineTable::default();
        assert!(t.is_empty());
        // Region-strided addresses like the workloads', far apart.
        let addrs: Vec<u64> = (0..500u64).map(|i| (i % 9) << 20 | (i / 9)).collect();
        for (i, &a) in addrs.iter().enumerate() {
            assert_eq!(t.intern(a), i as u32, "first touch hands out the next id");
        }
        for (i, &a) in addrs.iter().enumerate() {
            assert_eq!(t.intern(a), i as u32, "and the same id ever after");
            assert_eq!(t.addr(i as u32), a);
        }
        assert_eq!(t.len(), 500);
    }

    #[test]
    fn cache_state_is_bounded_by_capacity_not_by_lines_touched() {
        let mut c = L1Cache::default();
        for id in 0..100_000u32 {
            c.install(id, CopyState::Shared, false, 4);
            if id % 3 == 0 {
                c.remove(id);
            }
        }
        assert!(c.len() <= 4);
        assert!(c.slots.len() <= 16, "table {} slots", c.slots.len());
        assert!(c.queue.len() <= 64, "queue {} entries", c.queue.len());
    }

    /// Drive the dense cache + directory and the retired HashMap model with
    /// the same seeded operations; every return value and the whole
    /// observable state must agree after every step.
    #[test]
    fn dense_memory_system_matches_the_hashmap_model() {
        const CORES: usize = 3;
        let mut rng = Xoshiro256StarStar::new(0x5eed);
        // Four tiny caches, where evictions and overflows are the common
        // case, then one big enough for long probe runs, wrap-around and
        // backward shifts in the open-addressed table.
        for (capacity, lines) in [(1usize, 12u64), (2, 12), (3, 12), (4, 12), (48, 160)] {
            let mut caches: Vec<L1Cache> = (0..CORES).map(|_| L1Cache::default()).collect();
            let mut models: Vec<model::L1Cache> =
                (0..CORES).map(|_| model::L1Cache::default()).collect();
            let mut dir = Directory::default();
            let mut dir_model = model::Directory::default();
            let (mut evictions, mut overflows) = (0, 0);
            for step in 0..3_000 {
                let c = uniform_u64_below(&mut rng, CORES as u64) as usize;
                let id = uniform_u64_below(&mut rng, lines) as u32;
                let (cache, model) = (&mut caches[c], &mut models[c]);
                match uniform_u64_below(&mut rng, 16) {
                    0..=6 => {
                        let state = if uniform_u64_below(&mut rng, 2) == 0 {
                            CopyState::Shared
                        } else {
                            CopyState::Modified
                        };
                        let txn = uniform_u64_below(&mut rng, 2) == 0;
                        let got = cache.install(id, state, txn, capacity);
                        assert_eq!(got, model.install(id, state, txn, capacity), "step {step}");
                        // Keep a directory beside the caches the way the
                        // simulator does.
                        match got {
                            Install::CapacityAbort => overflows += 1,
                            Install::Evicted(v) => {
                                evictions += 1;
                                dir.entry_mut(v).remove_core(c);
                                dir_model.entry_mut(v).remove_core(c);
                            }
                            Install::Ok => {}
                        }
                        if got != Install::CapacityAbort {
                            for d in [dir.entry_mut(id), dir_model.entry_mut(id)] {
                                d.remove_core(c);
                                match state {
                                    CopyState::Shared => d.add_sharer(c),
                                    CopyState::Modified => d.owner = Some(c),
                                }
                            }
                        }
                    }
                    7..=9 => {
                        let write = uniform_u64_below(&mut rng, 2) == 0;
                        assert_eq!(
                            cache.touch(id, write),
                            model.touch(id, write),
                            "step {step}"
                        );
                    }
                    10..=12 => {
                        cache.remove(id);
                        model.remove(id);
                        dir.entry_mut(id).remove_core(c);
                        dir_model.entry_mut(id).remove_core(c);
                    }
                    13 => {
                        cache.commit_txn();
                        model.commit_txn();
                    }
                    _ => {
                        dir.purge(c, cache.txn_lines());
                        dir_model.purge(c, &model.txn_lines());
                        cache.abort_txn();
                        model.abort_txn();
                    }
                }
                for (cache, model) in caches.iter().zip(&models) {
                    assert_eq!(cache.len(), model.len(), "step {step}");
                    assert_eq!(cache.is_empty(), model.len() == 0);
                    let mut txn = cache.txn_lines().to_vec();
                    txn.sort_unstable();
                    assert_eq!(txn, model.txn_lines(), "step {step}");
                    for id in 0..lines as u32 {
                        assert_eq!(cache.get(id), model.get(id), "step {step} line {id}");
                        assert_eq!(cache.is_txn(id), model.get(id).is_some_and(|l| l.txn));
                    }
                }
                for id in 0..lines as u32 {
                    assert_eq!(dir.entry(id), dir_model.entry(id), "step {step} line {id}");
                }
            }
            assert!(evictions > 20, "capacity {capacity}: {evictions} evictions");
            assert!(
                overflows > 20 || capacity > 4,
                "capacity {capacity}: {overflows} overflows"
            );
        }
    }
}
