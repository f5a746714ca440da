//! The bounded transactional stack the real-thread throughput experiments
//! hammer (the STM twin of the paper's HTM stack benchmark).

use tcp_core::policy::GracePolicy;

use crate::runtime::{Abort, Addr, Stm, Tx};

/// Layout of a bounded transactional stack inside an [`Stm`] heap:
/// `[top, slot_0, slot_1, ..., slot_{cap-1}]` starting at `base`.
#[derive(Clone, Copy, Debug)]
pub struct TStack {
    base: Addr,
    cap: usize,
}

impl TStack {
    /// Number of heap words the stack occupies.
    pub fn words(cap: usize) -> usize {
        cap + 1
    }

    pub fn new(base: Addr, cap: usize) -> Self {
        assert!(cap > 0);
        Self { base, cap }
    }

    fn top_addr(&self) -> Addr {
        self.base
    }

    fn slot(&self, i: u64) -> Addr {
        self.base + 1 + i as usize
    }

    /// Push inside an open transaction. Fails the push (returns `Ok(false)`)
    /// when full.
    pub fn push<P: GracePolicy>(&self, tx: &mut Tx<'_, '_, P>, v: u64) -> Result<bool, Abort> {
        let n = tx.read(self.top_addr())?;
        if n as usize >= self.cap {
            return Ok(false);
        }
        tx.write(self.slot(n), v)?;
        tx.write(self.top_addr(), n + 1)?;
        Ok(true)
    }

    /// Pop inside an open transaction; `Ok(None)` when empty.
    pub fn pop<P: GracePolicy>(&self, tx: &mut Tx<'_, '_, P>) -> Result<Option<u64>, Abort> {
        let n = tx.read(self.top_addr())?;
        if n == 0 {
            return Ok(None);
        }
        let v = tx.read(self.slot(n - 1))?;
        tx.write(self.top_addr(), n - 1)?;
        Ok(Some(v))
    }

    /// Current length (non-transactional; test/inspection use).
    pub fn len_direct(&self, stm: &Stm) -> u64 {
        stm.read_direct(self.top_addr())
    }

    /// Snapshot of the live elements (non-transactional).
    pub fn contents_direct(&self, stm: &Stm) -> Vec<u64> {
        let n = self.len_direct(stm);
        (0..n).map(|i| stm.read_direct(self.slot(i))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::TxCtx;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use tcp_core::policy::NoDelay;
    use tcp_core::randomized::RandRa;
    use tcp_core::rng::Xoshiro256StarStar;

    fn ctx<P: GracePolicy>(stm: &Stm, id: usize, p: P) -> TxCtx<'_, P> {
        TxCtx::new(stm, id, p, Xoshiro256StarStar::new(id as u64 + 99))
    }

    #[test]
    fn stack_lifo_single_thread() {
        let stm = Stm::new(TStack::words(8), 1);
        let st = TStack::new(0, 8);
        let mut t = ctx(&stm, 0, NoDelay::requestor_aborts());
        for v in [10, 20, 30] {
            assert!(t.run(|tx| st.push(tx, v)));
        }
        assert_eq!(t.run(|tx| st.pop(tx)), Some(30));
        assert_eq!(t.run(|tx| st.pop(tx)), Some(20));
        assert_eq!(t.run(|tx| st.pop(tx)), Some(10));
        assert_eq!(t.run(|tx| st.pop(tx)), None);
    }

    #[test]
    fn stack_rejects_overflow() {
        let stm = Stm::new(TStack::words(2), 1);
        let st = TStack::new(0, 2);
        let mut t = ctx(&stm, 0, NoDelay::requestor_aborts());
        assert!(t.run(|tx| st.push(tx, 1)));
        assert!(t.run(|tx| st.push(tx, 2)));
        assert!(!t.run(|tx| st.push(tx, 3)));
        assert_eq!(st.len_direct(&stm), 2);
    }

    #[test]
    fn concurrent_stack_conserves_value_sum() {
        // Producers push a known total; consumers pop everything. The sum of
        // popped values must equal the sum pushed (atomicity of push/pop).
        let stm = Arc::new(Stm::new(TStack::words(1024), 8));
        let st = TStack::new(0, 1024);
        let produced = Arc::new(AtomicU64::new(0));
        let consumed = Arc::new(AtomicU64::new(0));
        let per = 1_500u64;
        std::thread::scope(|s| {
            for id in 0..4usize {
                let stm = Arc::clone(&stm);
                let produced = Arc::clone(&produced);
                s.spawn(move || {
                    let mut t = ctx(&stm, id, RandRa);
                    for i in 0..per {
                        let v = (id as u64) * per + i + 1;
                        while !t.run(|tx| st.push(tx, v)) {
                            std::thread::yield_now();
                        }
                        produced.fetch_add(v, Ordering::SeqCst);
                    }
                });
            }
            for id in 4..8usize {
                let stm = Arc::clone(&stm);
                let consumed = Arc::clone(&consumed);
                s.spawn(move || {
                    let mut t = ctx(&stm, id, RandRa);
                    let mut got = 0u64;
                    while got < per {
                        if let Some(v) = t.run(|tx| st.pop(tx)) {
                            consumed.fetch_add(v, Ordering::SeqCst);
                            got += 1;
                        } else {
                            std::thread::yield_now();
                        }
                    }
                });
            }
        });
        assert_eq!(
            produced.load(Ordering::SeqCst),
            consumed.load(Ordering::SeqCst)
        );
        assert_eq!(st.len_direct(&stm), 0);
    }
}
