//! The benchmark's own statistics: medians, nearest-rank percentiles
//! with their sample counts, and request accounting.

/// Median of `values` (mean of the middle pair for an even count).
/// Panics on an empty slice: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// 1-based nearest rank of percentile `p` (0 < p <= 100) among `n`
/// samples: ceil(p/100 × n), in basis points so that decimal
/// percentiles such as 99.9 are exact.
fn rank(n: u64, p: f64) -> u64 {
    let bp = (p * 100.0).round() as u64;
    (n * bp).div_ceil(10_000).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` (0 < p <= 100) of an ascending slice.
pub fn nearest_rank(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len() as u64, p) as usize - 1]
}

/// Percentiles the benchmark may report, highest first.
const LADDER: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 50.0];

/// The highest percentile in the ladder that leaves at least 10 of `n`
/// samples beyond it, or `None` when even the median does not.
pub fn highest_supported(n: u64) -> Option<f64> {
    LADDER.into_iter().find(|&p| n >= 1 && n - rank(n, p) >= 10)
}

/// True when `n` samples leave at least 10 beyond percentile `p`.
pub fn supports(n: u64, p: f64) -> bool {
    highest_supported(n).is_some_and(|top| top >= p)
}

/// A percentile read from an exact sample set, with its sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// The percentile rank that was read.
    pub p: f64,
    /// Its value, in the samples' unit.
    pub value: u64,
    /// Samples it was read from.
    pub n: u64,
}

/// Reads `p50`, `p99` and the highest supported tail from unsorted
/// samples (sorted in place). `None` when there are too few samples for
/// a p99 with 10 samples beyond it.
pub fn tails(samples: &mut [u64]) -> Option<(Pct, Pct, Pct)> {
    let n = samples.len() as u64;
    if !supports(n, 99.0) {
        return None;
    }
    samples.sort_unstable();
    let at = |p: f64| Pct {
        p,
        value: nearest_rank(samples, p),
        n,
    };
    let top = highest_supported(n).expect("p99 is supported");
    Some((at(50.0), at(99.0), at(top)))
}

/// Request accounting for one measured phase. Every request sent ends
/// either completed or failed; `failed` counts requests that did not
/// complete by the drain deadline plus those shed or failed by the
/// service itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Accounting {
    /// Requests (or cells, or messages) attempted.
    pub sent: u64,
    /// Attempts that succeeded.
    pub completed: u64,
    /// Attempts that failed.
    pub failed: u64,
}

impl Accounting {
    /// Accounting for `sent` attempts of which `completed` succeeded in
    /// time and `rejected` were refused outright (shed or failed). A
    /// request both completed and counted rejected is a service bug, so
    /// the completed count is capped at what was not rejected.
    pub fn from_counts(sent: u64, completed: u64, rejected: u64) -> Self {
        let rejected = rejected.min(sent);
        let completed = completed.min(sent - rejected);
        Accounting {
            sent,
            completed,
            failed: sent - completed,
        }
    }

    /// True when every attempt is accounted for exactly once.
    pub fn balanced(&self) -> bool {
        self.sent == self.completed + self.failed
    }

    /// Failed attempts over attempts (0 when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.failed as f64 / self.sent as f64
        }
    }
}

impl std::ops::Add for Accounting {
    type Output = Accounting;

    /// Sums two phases.
    fn add(self, other: Accounting) -> Accounting {
        Accounting {
            sent: self.sent + other.sent,
            completed: self.completed + other.completed,
            failed: self.failed + other.failed,
        }
    }
}
