//! Cache-line padding: the workspace's one [`CachePadded`].

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
}
