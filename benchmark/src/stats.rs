//! Order statistics for the report: medians, quartiles, nearest-rank
//! percentiles over raw samples, and interpolated quantiles over the
//! program's log-bucketed [`LatencyHistogram`].

use tcp_core::hist::LatencyHistogram;

/// Median of `v` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    quartiles(v).1
}

/// `(q1, median, q3)` by the rule Python's `statistics.quantiles(v, n=4)`
/// uses (the "exclusive" method), so the spread the harness prints is the
/// spread the contract's driver computes. A single sample is its own
/// quartiles; an empty slice gives zeros.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => return (0.0, 0.0, 0.0),
        1 => return (s[0], s[0], s[0]),
        _ => {}
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// What the report prints for one metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Self {
        let (q1, median, q3) = quartiles(samples);
        Self {
            n: samples.len(),
            median,
            q1,
            q3,
            min: samples.iter().copied().fold(f64::INFINITY, f64::min),
            max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

/// `v` with six significant digits whatever its magnitude: the tables hold
/// microsecond set-ups next to millions of operations per second.
pub fn sig6(v: f64) -> String {
    let magnitude = v.abs().max(1e-9).log10().floor() as i32;
    format!("{v:.*}", (5 - magnitude).clamp(0, 9) as usize)
}

/// Nearest-rank percentile `p ∈ [0, 100]` of unsorted raw samples, and how
/// many samples lie strictly beyond it; `(0, 0)` when empty. Sorts in
/// place.
pub fn percentile(samples: &mut [u32], p: f64) -> (f64, usize) {
    if samples.is_empty() {
        return (0.0, 0);
    }
    samples.sort_unstable();
    let rank = ((p / 100.0) * (samples.len() - 1) as f64).round() as usize;
    let v = samples[rank];
    let beyond = samples.len() - samples.partition_point(|&s| s <= v);
    (v as f64, beyond)
}

/// Quantile `p ∈ [0, 100]` of a [`LatencyHistogram`], linearly
/// interpolated inside the holding bucket.
///
/// The histogram's own `percentile` reports the bucket's upper edge, a
/// value quantised to ~3% steps: two runs whose true medians differ by 1%
/// read identical. Interpolating between the cumulative shares at the
/// bucket's two edges (both available through `fraction_at_or_below`)
/// gives a continuous estimate without touching the program.
pub fn hist_quantile(h: &LatencyHistogram, p: f64) -> f64 {
    const LINEAR: u64 = tcp_core::hist::LINEAR_BUCKETS as u64;
    const SUB_BITS: u32 = tcp_core::hist::SUB_BUCKETS.trailing_zeros();
    let upper = h.percentile(p);
    if upper < LINEAR {
        return upper as f64; // unit-width buckets: exact
    }
    let width = 1u64 << (63 - upper.leading_zeros() - SUB_BITS);
    if !(upper + 1).is_multiple_of(width) {
        return upper as f64; // clamped to the observed min/max: not an edge
    }
    let lower = upper - width;
    let (f_lo, f_hi) = (h.fraction_at_or_below(lower), h.fraction_at_or_below(upper));
    if f_hi <= f_lo {
        return upper as f64;
    }
    let share = ((p / 100.0 - f_lo) / (f_hi - f_lo)).clamp(0.0, 1.0);
    lower as f64 + share * width as f64
}

/// Samples of `h` strictly above its `p`-th percentile bucket — the
/// "samples beyond" count that says whether a tail percentile is supported.
pub fn hist_beyond(h: &LatencyHistogram, p: f64) -> f64 {
    (1.0 - h.fraction_at_or_below(h.percentile(p))) * h.count() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([5, 1, 3, 2, 4], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0, 2.0, 4.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        assert_eq!(quartiles(&[]), (0.0, 0.0, 0.0));
    }

    #[test]
    fn median_and_summary() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let s = Summary::of(&[10.0, 12.0, 11.0, 9.0, 13.0]);
        assert_eq!((s.n, s.median, s.min, s.max), (5, 11.0, 9.0, 13.0));
        assert_eq!((s.q1, s.q3), (9.5, 12.5));
    }

    #[test]
    fn six_significant_digits() {
        assert_eq!(sig6(1234567.891), "1234568");
        assert_eq!(sig6(12.3456789), "12.3457");
        assert_eq!(sig6(0.000218747), "0.000218747");
        assert_eq!(sig6(-3.5), "-3.50000");
        assert_eq!(sig6(0.0), "0.000000000");
    }

    #[test]
    fn nearest_rank_percentile_counts_samples_beyond() {
        let mut v: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 50.0), (51.0, 49));
        assert_eq!(percentile(&mut v, 100.0), (100.0, 0));
        assert_eq!(percentile(&mut v, 0.0), (1.0, 99));
        assert_eq!(percentile(&mut [], 50.0), (0.0, 0));
        // Ties at the percentile value are not "beyond" it.
        assert_eq!(percentile(&mut [5, 5, 5, 9], 50.0), (5.0, 1));
    }

    #[test]
    fn hist_quantile_interpolates_inside_the_bucket() {
        // 1000 samples spread evenly over one wide bucket region: the
        // bucket-edge percentile is quantised, the interpolated one is
        // within a bucket's sub-step of the exact median.
        let mut h = LatencyHistogram::new();
        for v in 10_000..11_000u64 {
            h.record(v);
        }
        let q = hist_quantile(&h, 50.0);
        assert!((q - 10_500.0).abs() < 16.0, "interpolated median {q}");
        assert!(q <= h.percentile(50.0) as f64);
        // Monotone in p, and exact in the unit-width region.
        assert!(hist_quantile(&h, 95.0) > q);
        let mut small = LatencyHistogram::new();
        (0..50u64).for_each(|v| small.record(v));
        assert_eq!(hist_quantile(&small, 50.0), small.percentile(50.0) as f64);
        assert_eq!(hist_quantile(&LatencyHistogram::new(), 50.0), 0.0);
    }

    #[test]
    fn hist_beyond_counts_the_tail() {
        let mut h = LatencyHistogram::new();
        (0..60u64).for_each(|v| h.record(v));
        // p50 by nearest rank is sample 30 of 0..60; 29 samples lie above it.
        assert_eq!(hist_beyond(&h, 50.0).round(), 29.0);
    }
}
