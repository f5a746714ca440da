//! A log-bucketed streaming latency histogram (HdrHistogram-lite).
//!
//! The one latency recorder behind
//! [`EngineStats`](crate::engine::EngineStats): a serving path streams
//! millions of samples and reports p50/p90/p99/p999 continuously, so no
//! sample is kept. [`LatencyHistogram`] records in O(1) into geometrically
//! spaced buckets and answers percentile queries in O(buckets), at a
//! bounded relative error.
//!
//! Bucketing: values below [`LINEAR_BUCKETS`] get exact unit-width buckets;
//! each power-of-two range `[2^m, 2^{m+1})` above that is split into
//! [`SUB_BUCKETS`] equal sub-buckets, so the reported value of any sample
//! is within `1/SUB_BUCKETS` (≈ 3.2%) of the true one. Percentiles use the
//! nearest-rank convention and report a bucket's upper edge, clamped to
//! the observed min/max.
//!
//! The histogram is mergeable (counts add), `PartialEq` by logical content
//! (an empty histogram equals a never-allocated one), and deterministic:
//! two runs recording the same samples in any order produce equal
//! histograms.

/// Exact unit-width buckets for values `0..LINEAR_BUCKETS`.
pub const LINEAR_BUCKETS: usize = 64;
/// Sub-buckets per power-of-two range above the linear region.
pub const SUB_BUCKETS: usize = 32;
/// log2 of [`LINEAR_BUCKETS`].
const LINEAR_BITS: u32 = LINEAR_BUCKETS.trailing_zeros();
/// log2 of [`SUB_BUCKETS`].
const SUB_BITS: u32 = SUB_BUCKETS.trailing_zeros();
/// Total bucket count: the linear region plus `SUB_BUCKETS` per octave for
/// every power of two from `2^LINEAR_BITS` up to `2^63`.
pub const NUM_BUCKETS: usize = LINEAR_BUCKETS + (64 - LINEAR_BITS as usize) * SUB_BUCKETS;

/// Index of the bucket holding `v`. Shared with the windowed queue-wait
/// estimator in [`crate::engine`], which keeps its own atomic bucket
/// array over the same geometry.
#[inline]
pub(crate) fn bucket_index(v: u64) -> usize {
    if v < LINEAR_BUCKETS as u64 {
        return v as usize;
    }
    // Highest set bit position; `v >= 64` so `msb >= LINEAR_BITS`.
    let msb = 63 - v.leading_zeros();
    let shift = msb - SUB_BITS;
    let offset = ((v - (1u64 << msb)) >> shift) as usize;
    LINEAR_BUCKETS + (msb - LINEAR_BITS) as usize * SUB_BUCKETS + offset
}

/// Upper edge (inclusive) of bucket `idx` — the value a percentile query
/// reports for samples that landed there.
#[inline]
pub(crate) fn bucket_upper(idx: usize) -> u64 {
    if idx < LINEAR_BUCKETS {
        return idx as u64;
    }
    let rel = idx - LINEAR_BUCKETS;
    let msb = LINEAR_BITS + (rel / SUB_BUCKETS) as u32;
    let offset = (rel % SUB_BUCKETS) as u64;
    let width = 1u64 << (msb - SUB_BITS);
    // Subtract 1 before adding the sub-bucket span: the top bucket's edge
    // is u64::MAX and the naive `base + span - 1` overflows first.
    (1u64 << msb) - 1 + (offset + 1) * width
}

/// Streaming log-bucketed histogram over `u64` samples (latencies, queue
/// depths, any non-negative counter).
#[derive(Clone, Debug, Default)]
pub struct LatencyHistogram {
    /// Bucket counts; empty until the first record so that a default
    /// histogram costs nothing (an `EngineStats` is created per thread,
    /// per trial batch, per shard — most never record a latency).
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl LatencyHistogram {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample. O(1).
    pub fn record(&mut self, v: u64) {
        if self.counts.is_empty() {
            self.counts = vec![0; NUM_BUCKETS];
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
    }

    /// Fold another histogram into this one (bucket-wise sum).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Mean of the recorded samples (exact, not bucketed).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Fraction of recorded samples `≤ v` (0.0 when empty) — the SLO
    /// attainment query: `fraction_at_or_below(slo)` × throughput is
    /// goodput at that SLO. Same bucket resolution as
    /// [`percentile`](Self::percentile): exact below [`LINEAR_BUCKETS`],
    /// within `1/SUB_BUCKETS` relative error above (samples in `v`'s own
    /// bucket count as ≤ `v`).
    pub fn fraction_at_or_below(&self, v: u64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let cut = bucket_index(v);
        let below: u64 = self.counts[..=cut].iter().sum();
        below as f64 / self.count as f64
    }

    /// Percentile `p ∈ [0, 100]` by nearest rank, reported as the holding
    /// bucket's upper edge clamped to the observed range — exact below
    /// [`LINEAR_BUCKETS`], within `1/SUB_BUCKETS` relative error above.
    /// Returns 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        debug_assert!((0.0..=100.0).contains(&p));
        // Same nearest-rank convention as the exact sorted-Vec path:
        // 0-based rank round(p/100 * (n-1)).
        let target = ((p / 100.0) * (self.count - 1) as f64).round() as u64 + 1;
        let target = target.clamp(1, self.count);
        let mut cum = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return bucket_upper(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }
}

/// Logical equality: bucket contents and summary stats, treating an empty
/// histogram and a never-allocated one as equal.
impl PartialEq for LatencyHistogram {
    fn eq(&self, other: &Self) -> bool {
        if self.count == 0 && other.count == 0 {
            return true;
        }
        self.count == other.count
            && self.sum == other.sum
            && self.min == other.min
            && self.max == other.max
            && self.counts == other.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fraction_at_or_below_tracks_the_cdf() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.fraction_at_or_below(10), 0.0, "empty histogram");
        for v in 1..=10u64 {
            h.record(v); // linear region: exact buckets
        }
        assert!((h.fraction_at_or_below(5) - 0.5).abs() < 1e-12);
        assert!((h.fraction_at_or_below(10) - 1.0).abs() < 1e-12);
        assert_eq!(h.fraction_at_or_below(0), 0.0);
        // Above the linear region the cut rounds to v's own bucket.
        h.record(1_000_000);
        let f = h.fraction_at_or_below(1_000_000);
        assert!((f - 1.0).abs() < 1e-12, "own bucket counts as ≤ v, got {f}");
        assert!((h.fraction_at_or_below(10) - 10.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn linear_region_is_exact() {
        let mut h = LatencyHistogram::new();
        for v in 1..=50u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 50);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 50);
        assert_eq!(h.percentile(0.0), 1);
        assert_eq!(h.percentile(100.0), 50);
        // Nearest rank: round(0.5 * 49) = 25 (0-based) → 26th value = 26.
        assert_eq!(h.percentile(50.0), 26);
        assert!((h.mean() - 25.5).abs() < 1e-9);
    }

    #[test]
    fn log_region_bounded_relative_error() {
        let mut h = LatencyHistogram::new();
        // Geometric sweep across many octaves.
        let mut v = 1u64;
        let mut samples = vec![];
        while v < 1 << 40 {
            h.record(v);
            samples.push(v);
            v = v * 21 / 16 + 1;
        }
        samples.sort_unstable();
        for p in [0.0, 10.0, 50.0, 90.0, 99.0, 100.0] {
            let idx = ((p / 100.0) * (samples.len() - 1) as f64).round() as usize;
            let exact = samples[idx] as f64;
            let approx = h.percentile(p) as f64;
            assert!(
                (approx - exact).abs() / exact <= 1.0 / SUB_BUCKETS as f64 + 1e-12,
                "p{p}: approx {approx} vs exact {exact}"
            );
            assert!(approx >= exact, "upper-edge convention never under-reports");
        }
    }

    #[test]
    fn bucket_roundtrip_covers_u64() {
        for v in [
            0u64,
            1,
            63,
            64,
            65,
            127,
            128,
            1000,
            (1 << 32) - 1,
            1 << 32,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let idx = bucket_index(v);
            assert!(idx < NUM_BUCKETS, "v={v} idx={idx}");
            let hi = bucket_upper(idx);
            assert!(hi >= v, "upper edge {hi} below v={v}");
            if idx > 0 {
                assert!(bucket_upper(idx - 1) < v, "v={v} not in bucket {idx}");
            }
        }
    }

    #[test]
    fn merge_is_order_independent_and_matches_union() {
        let (mut a, mut b, mut u) = (
            LatencyHistogram::new(),
            LatencyHistogram::new(),
            LatencyHistogram::new(),
        );
        for v in [3u64, 900, 77, 1 << 20] {
            a.record(v);
            u.record(v);
        }
        for v in [5u64, 5, 123_456] {
            b.record(v);
            u.record(v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab, u);
        // Merging an empty histogram is a no-op, in both directions.
        let empty = LatencyHistogram::new();
        let mut ae = a.clone();
        ae.merge(&empty);
        assert_eq!(ae, a);
        let mut ea = LatencyHistogram::new();
        ea.merge(&a);
        assert_eq!(ea, a);
    }

    #[test]
    fn empty_histogram_yields_zeros() {
        let h = LatencyHistogram::new();
        assert_eq!(h.percentile(99.0), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.is_empty());
        assert_eq!(h, LatencyHistogram::default());
    }
}
