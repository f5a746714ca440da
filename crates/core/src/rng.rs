//! Deterministic, fast pseudo-random number generation.
//!
//! The simulator and the benchmark harness must be bit-reproducible under a
//! fixed seed, and grace-period sampling sits on the hot path of every
//! conflict. We therefore ship a self-contained xoshiro256** generator
//! (Blackman & Vigna) seeded through SplitMix64, wired into the `rand`
//! ecosystem via [`rand::RngCore`] so it composes with the rest of the
//! workspace.

use rand::{RngCore, SeedableRng};

/// xoshiro256** 1.0 — a small, fast, high-quality PRNG.
///
/// Not cryptographically secure; used exclusively for simulation and
/// sampling. All four words of state are guaranteed non-zero after seeding.
#[derive(Clone, Debug)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Xoshiro256StarStar {
    /// Create a generator from a 64-bit seed by expanding it with SplitMix64.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for w in &mut s {
            *w = splitmix64(&mut sm);
        }
        // All-zero state is the one forbidden fixed point; SplitMix64 cannot
        // produce four consecutive zeros, but keep the guard explicit.
        if s.iter().all(|&w| w == 0) {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Self { s }
    }

    #[inline]
    fn next(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Jump ahead by 2^128 steps, producing a statistically independent
    /// stream. Used to hand each simulated core its own substream.
    pub fn jump(&mut self) {
        const JUMP: [u64; 4] = [
            0x180e_c6d3_3cfd_0aba,
            0xd5a6_1266_f0c9_392c,
            0xa958_2618_e03f_c9aa,
            0x39ab_dc45_29b1_661c,
        ];
        let mut s = [0u64; 4];
        for j in JUMP {
            for b in 0..64 {
                if (j >> b) & 1 != 0 {
                    for (acc, w) in s.iter_mut().zip(self.s.iter()) {
                        *acc ^= w;
                    }
                }
                self.next();
            }
        }
        self.s = s;
    }

    /// A fresh generator 2^128 steps ahead of `self` (advancing `self`).
    pub fn split(&mut self) -> Self {
        let child = self.clone();
        self.jump();
        child
    }
}

impl RngCore for Xoshiro256StarStar {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next() >> 32) as u32
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.next()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let last = self.next().to_le_bytes();
            rem.copy_from_slice(&last[..rem.len()]);
        }
    }
}

impl SeedableRng for Xoshiro256StarStar {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let mut s = [0u64; 4];
        for (i, w) in s.iter_mut().enumerate() {
            let mut b = [0u8; 8];
            b.copy_from_slice(&seed[i * 8..(i + 1) * 8]);
            *w = u64::from_le_bytes(b);
        }
        if s.iter().all(|&w| w == 0) {
            return Self::new(0);
        }
        Self { s }
    }

    fn seed_from_u64(state: u64) -> Self {
        Self::new(state)
    }
}

/// Draw a uniform `f64` in `[0, 1)` with 53 bits of precision.
///
/// Generic (with `?Sized`, so `&mut dyn RngCore` still works): a caller
/// holding a concrete generator monomorphizes to a direct call — no
/// vtable dispatch per draw on the hot sampling paths.
#[inline]
pub fn uniform01<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    // Take the top 53 bits: xoshiro's low bits are its weakest.
    unit_from_53_bits(rng.next_u64() >> 11)
}

/// `n / 2^53` for `n < 2^53`, bit for bit what `n as f64 / 2^53` gives,
/// assembled from bits instead. The SSE2 integer conversion (`cvtsi2sd`)
/// writes only the low half of its register, so in a sampler that
/// converts first thing it waits on whatever float the caller last left
/// there; in a sampling loop that is the previous iteration's result, and
/// the iterations stop overlapping (`run_synthetic` measured 1.5–2x
/// slower on a Sapphire Rapids core when its loop left its running cost
/// sum in that register).
#[inline]
fn unit_from_53_bits(n: u64) -> f64 {
    const TWO_52_BITS: u64 = 0x4330_0000_0000_0000;
    // n mod 2^52, exactly: 2^52 + m has m as its mantissa.
    let low = f64::from_bits(TWO_52_BITS | (n & ((1 << 52) - 1))) - (1u64 << 52) as f64;
    // Bit 52 of n, as 0.0 or 2^52.
    let high = f64::from_bits((n >> 52) * TWO_52_BITS);
    (low + high) * (1.0 / (1u64 << 53) as f64)
}

/// Draw a uniform `f64` in `[lo, hi)`.
#[inline]
pub fn uniform_in<R: RngCore + ?Sized>(rng: &mut R, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * uniform01(rng)
}

/// Draw a uniform integer in `[0, n)` using Lemire rejection.
#[inline]
pub fn uniform_u64_below<R: RngCore + ?Sized>(rng: &mut R, n: u64) -> u64 {
    debug_assert!(n > 0);
    loop {
        let x = rng.next_u64();
        let (hi, lo) = {
            let m = (x as u128) * (n as u128);
            ((m >> 64) as u64, m as u64)
        };
        if lo >= n || lo >= n.wrapping_neg() % n {
            return hi;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_from_bits_equals_the_plain_conversion() {
        let plain = |n: u64| n as f64 * (1.0 / (1u64 << 53) as f64);
        let edges = [
            0,
            1,
            2,
            (1 << 52) - 1,
            1 << 52,
            (1 << 52) + 1,
            (1 << 53) - 1,
        ];
        let mut rng = Xoshiro256StarStar::new(5);
        let draws = (0..100_000).map(|_| rng.next_u64() >> 11);
        for n in edges.into_iter().chain(draws) {
            assert_eq!(
                unit_from_53_bits(n).to_bits(),
                plain(n).to_bits(),
                "n = {n}"
            );
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let mut a = Xoshiro256StarStar::new(42);
        let mut b = Xoshiro256StarStar::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Xoshiro256StarStar::new(1);
        let mut b = Xoshiro256StarStar::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(
            same < 4,
            "streams should be (nearly) disjoint, got {same} collisions"
        );
    }

    #[test]
    fn uniform01_in_range_and_roughly_uniform() {
        let mut rng = Xoshiro256StarStar::new(7);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let u = uniform01(&mut rng);
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }

    #[test]
    fn jump_produces_disjoint_stream() {
        let mut a = Xoshiro256StarStar::new(9);
        let b0 = a.clone();
        a.jump();
        let mut b = b0;
        // After a jump, the next outputs must differ from the original stream.
        let mut collide = 0;
        for _ in 0..64 {
            if a.next_u64() == b.next_u64() {
                collide += 1;
            }
        }
        assert!(collide < 4);
    }

    #[test]
    fn fill_bytes_handles_remainder() {
        let mut rng = Xoshiro256StarStar::new(3);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn uniform_below_bounds() {
        let mut rng = Xoshiro256StarStar::new(5);
        for n in [1u64, 2, 3, 10, 1000, u64::MAX / 2] {
            for _ in 0..100 {
                assert!(uniform_u64_below(&mut rng, n) < n);
            }
        }
    }

    #[test]
    fn seedable_from_seed_roundtrip() {
        let seed = [7u8; 32];
        let mut a = Xoshiro256StarStar::from_seed(seed);
        let mut b = Xoshiro256StarStar::from_seed(seed);
        assert_eq!(a.next_u64(), b.next_u64());
        // all-zero seed falls back to a usable state
        let mut z = Xoshiro256StarStar::from_seed([0u8; 32]);
        let x = z.next_u64();
        let y = z.next_u64();
        assert!(x != 0 || y != 0);
    }
}
