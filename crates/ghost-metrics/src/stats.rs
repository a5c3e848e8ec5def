//! A cheap scalar aggregate for benchmark harnesses.

/// Streaming mean without storing samples.
#[derive(Debug, Default, Clone, Copy)]
pub struct MeanTracker {
    sum: f64,
    n: u64,
}

impl MeanTracker {
    /// Adds one sample.
    pub fn record(&mut self, v: f64) {
        self.sum += v;
        self.n += 1;
    }

    /// Current mean, or 0 if no samples.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sum of samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_tracker_basics() {
        let mut m = MeanTracker::default();
        assert_eq!(m.mean(), 0.0);
        m.record(2.0);
        m.record(4.0);
        assert_eq!(m.mean(), 3.0);
        assert_eq!(m.count(), 2);
        assert_eq!(m.sum(), 6.0);
    }
}
