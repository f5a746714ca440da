//! Cache-line placement: the workspace's one [`CachePadded`] and its one
//! [`prefetch`].

/// Pads and aligns `T` to 128 bytes, so a word one thread writes on every
/// operation shares no cache line with anything another thread reads.
///
/// 128, not 64: Intel's adjacent-line prefetcher fetches lines in aligned
/// pairs, so a write to one 64-byte line can still pull its neighbour away
/// from whoever is reading it.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T>(T);

impl<T> CachePadded<T> {
    pub const fn new(value: T) -> Self {
        Self(value)
    }
}

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.0
    }
}

/// Start pulling the cache line holding `value` toward this core, so a
/// later access finds it close; a hint only (it cannot fault or change
/// `value`), and a no-op off x86_64 and under miri.
#[inline(always)]
pub fn prefetch<T>(value: &T) {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    // SAFETY: a prefetch reads nothing the program can observe, and the
    // pointer comes from a live reference.
    unsafe {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>((value as *const T).cast());
    }
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    let _ = value;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padded_values_never_share_a_128_byte_line() {
        assert_eq!(std::mem::align_of::<CachePadded<u8>>(), 128);
        assert_eq!(std::mem::size_of::<CachePadded<u8>>(), 128);
        assert_eq!(std::mem::size_of::<CachePadded<[u64; 17]>>(), 256);
        let pair = [CachePadded::new(1u64), CachePadded::new(2u64)];
        let (a, b) = (
            &*pair[0] as *const u64 as usize,
            &*pair[1] as *const u64 as usize,
        );
        assert_eq!(a % 128, 0);
        assert_eq!(b - a, 128);
        assert_eq!(*pair[0] + *pair[1], 3);
    }

    #[test]
    fn prefetch_leaves_the_value_unchanged() {
        let word = std::sync::atomic::AtomicU64::new(0x5eed);
        let padded = CachePadded::new([7u8; 3]);
        prefetch(&word);
        prefetch(&*padded);
        prefetch(&());
        assert_eq!(word.load(std::sync::atomic::Ordering::Relaxed), 0x5eed);
        assert_eq!(*padded, [7u8; 3]);
    }
}
