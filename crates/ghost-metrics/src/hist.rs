//! HDR-style log-bucketed histogram for latency recording.
//!
//! The histogram trades a small, bounded relative error (one part in
//! `1 << SUB_BUCKET_BITS` ≈ 1.5%) for O(1) recording and a fixed memory
//! footprint, which lets the simulation harnesses record tens of millions
//! of samples without allocation.

/// Number of linear sub-buckets per power-of-two bucket, as a bit count.
///
/// With 6 bits there are 64 sub-buckets per octave, bounding relative
/// quantization error to ~1.6% — well below the run-to-run variance of any
/// experiment in the paper.
const SUB_BUCKET_BITS: u32 = 6;
const SUB_BUCKETS: usize = 1 << SUB_BUCKET_BITS;
/// Number of power-of-two octaves tracked. 2^44 ns ≈ 4.8 hours, far beyond
/// any latency the experiments can produce.
const OCTAVES: usize = 44;

/// The percentiles reported for the Snap experiment (Fig. 7 of the paper).
pub const PERCENTILES_SNAP: [f64; 6] = [50.0, 90.0, 99.0, 99.9, 99.99, 99.999];

/// The tail read-out of one histogram: sample count, the three tail
/// percentiles every league-table cell reports, and the exact max.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TailSummary {
    /// Recorded samples.
    pub count: u64,
    /// Median, bucket-quantized.
    pub p50: u64,
    /// 99th percentile, bucket-quantized.
    pub p99: u64,
    /// 99.9th percentile, bucket-quantized.
    pub p999: u64,
    /// Exact maximum.
    pub max: u64,
}

/// A named percentile extracted from a [`LogHistogram`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// Percentile rank in `[0, 100]`.
    pub p: f64,
    /// The value at that rank, in the histogram's unit (nanoseconds).
    pub value: u64,
}

/// Log-bucketed histogram with linear sub-buckets.
///
/// Values are recorded in O(1); percentile queries are O(buckets).
///
/// # Examples
///
/// ```
/// use ghost_metrics::LogHistogram;
///
/// let mut h = LogHistogram::new();
/// for v in [100u64, 200, 300, 10_000] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert!(h.percentile(50.0) >= 200 && h.percentile(50.0) < 210);
/// assert!(h.max() >= 10_000);
/// ```
#[derive(Clone)]
pub struct LogHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0; OCTAVES * SUB_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Maps a value to its bucket index.
    fn index_of(value: u64) -> usize {
        // Values below SUB_BUCKETS land in the first octave with exact
        // (linear) resolution.
        if value < SUB_BUCKETS as u64 {
            return value as usize;
        }
        let octave = 63 - value.leading_zeros(); // floor(log2(value)), >= SUB_BUCKET_BITS
        let shift = octave - SUB_BUCKET_BITS;
        let sub = (value >> shift) as usize & (SUB_BUCKETS - 1);
        let oct_index = (octave - SUB_BUCKET_BITS + 1) as usize;
        (oct_index.min(OCTAVES - 1)) * SUB_BUCKETS + sub
    }

    /// Returns a value representative of the bucket (its lower bound).
    fn value_of(index: usize) -> u64 {
        let oct = index / SUB_BUCKETS;
        let sub = (index % SUB_BUCKETS) as u64;
        if oct == 0 {
            return sub;
        }
        let octave = oct as u32 + SUB_BUCKET_BITS - 1;
        let shift = octave - SUB_BUCKET_BITS;
        ((SUB_BUCKETS as u64) << shift) | (sub << shift)
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.counts[Self::index_of(value)] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded sample, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (bucket-quantized upper estimate is not
    /// applied; the exact max is tracked separately).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of recorded samples, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Value at percentile `p` in `[0, 100]`.
    ///
    /// Returns 0 for an empty histogram. For `p = 100` this returns the
    /// exact maximum.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if p >= 100.0 {
            return self.max;
        }
        let target = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::value_of(i);
            }
        }
        self.max
    }

    /// Extracts a set of percentiles in one pass-equivalent call.
    pub fn percentiles(&self, ps: &[f64]) -> Vec<Percentile> {
        ps.iter()
            .map(|&p| Percentile {
                p,
                value: self.percentile(p),
            })
            .collect()
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of samples recorded above `threshold` — the SLO-violation
    /// count for a latency histogram with SLO `threshold`.
    ///
    /// Samples landing in the same quantization bucket as `threshold`
    /// itself are not counted (bucket resolution ≈ 1.6%), so the result
    /// is a slight under-estimate near the boundary and exact away from
    /// it. The exact tracked maximum is consulted so a single worst
    /// sample above the threshold is never missed entirely.
    pub fn count_above(&self, threshold: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let first = Self::index_of(threshold) + 1;
        let above: u64 = self.counts.iter().skip(first).sum();
        if above == 0 && self.max > threshold {
            // The max landed in threshold's own bucket but is known
            // (exactly) to exceed it.
            return 1;
        }
        above
    }

    /// The standard tail read-out for league tables: p50/p99/p99.9 plus
    /// the exact max and sample count, extracted in one call.
    pub fn tail_summary(&self) -> TailSummary {
        TailSummary {
            count: self.count,
            p50: self.percentile(50.0),
            p99: self.percentile(99.0),
            p999: self.percentile(99.9),
            max: self.max(),
        }
    }

    /// Clears all recorded samples.
    pub fn reset(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }
}

impl std::fmt::Debug for LogHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogHistogram")
            .field("count", &self.count)
            .field("min", &self.min())
            .field("p50", &self.percentile(50.0))
            .field("p99", &self.percentile(99.0))
            .field("max", &self.max)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.count_above(0), 0);
        let t = h.tail_summary();
        assert_eq!((t.count, t.p50, t.p99, t.p999, t.max), (0, 0, 0, 0, 0));
    }

    #[test]
    fn count_above_counts_the_tail() {
        let mut h = LogHistogram::new();
        for v in [10u64, 20, 30, 5_000, 50_000, 2_000_000] {
            h.record(v);
        }
        // Well away from bucket boundaries: exact.
        assert_eq!(h.count_above(1_000), 3);
        assert_eq!(h.count_above(100_000), 1);
        assert_eq!(h.count_above(10_000_000), 0);
        // A lone max sharing the threshold's bucket is still seen.
        let mut one = LogHistogram::new();
        one.record(1_000_001);
        assert_eq!(one.count_above(1_000_000), 1);
    }

    #[test]
    fn tail_summary_matches_individual_queries() {
        let mut h = LogHistogram::new();
        for v in 1..=1000u64 {
            h.record(v * 100);
        }
        let t = h.tail_summary();
        assert_eq!(t.count, h.count());
        assert_eq!(t.p50, h.percentile(50.0));
        assert_eq!(t.p99, h.percentile(99.0));
        assert_eq!(t.p999, h.percentile(99.9));
        assert_eq!(t.max, h.max());
        assert_eq!(t.max, 100_000);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHistogram::new();
        for v in 0..64u64 {
            h.record(v);
        }
        // Sub-SUB_BUCKETS values map to exact linear buckets.
        assert_eq!(h.percentile(100.0), 63);
        assert_eq!(h.min(), 0);
        for v in 0..64u64 {
            assert_eq!(LogHistogram::value_of(LogHistogram::index_of(v)), v);
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        let mut h = LogHistogram::new();
        for shift in 6..40u32 {
            let v = (1u64 << shift) + (1 << (shift - 2));
            h.record(v);
            let q = LogHistogram::value_of(LogHistogram::index_of(v));
            let err = (v as f64 - q as f64).abs() / v as f64;
            assert!(err < 0.016, "v={v} q={q} err={err}");
        }
    }

    #[test]
    fn percentiles_are_monotone() {
        let mut h = LogHistogram::new();
        for i in 1..=10_000u64 {
            h.record(i * 7 % 100_000 + 1);
        }
        let mut last = 0;
        for p in [1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0] {
            let v = h.percentile(p);
            assert!(v >= last, "p{p} = {v} < previous {last}");
            last = v;
        }
    }

    #[test]
    fn p100_is_exact_max() {
        let mut h = LogHistogram::new();
        h.record(123_456_789);
        h.record(42);
        assert_eq!(h.percentile(100.0), 123_456_789);
        assert_eq!(h.max(), 123_456_789);
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut c = LogHistogram::new();
        for i in 0..1000u64 {
            let v = i * 131 % 50_000;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            c.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), c.count());
        assert_eq!(a.max(), c.max());
        assert_eq!(a.min(), c.min());
        for p in [50.0, 90.0, 99.0] {
            assert_eq!(a.percentile(p), c.percentile(p));
        }
    }

    #[test]
    fn reset_clears_everything() {
        let mut h = LogHistogram::new();
        h.record(9999);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(99.0), 0);
    }

    #[test]
    fn mean_is_exact() {
        let mut h = LogHistogram::new();
        h.record(10);
        h.record(20);
        h.record(30);
        assert_eq!(h.mean(), 20.0);
    }
}
