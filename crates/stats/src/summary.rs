//! Streaming summary statistics (Welford's online algorithm).

/// Count, mean, variance, minimum and maximum of a stream of `f64` samples,
/// computed incrementally in O(1) memory.
///
/// The variance update uses Welford's numerically stable recurrence, which
/// matters when hundreds of thousands of near-identical per-packet delays
/// are accumulated over a ten-minute simulated run.
#[derive(Debug, Clone, Default)]
pub struct StreamingStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl StreamingStats {
    /// Create an empty accumulator.
    pub fn new() -> Self {
        StreamingStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Add one sample.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "the sample counter: 2^64 samples outlast any run"
    )]
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean, or 0.0 if no samples were recorded.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample (Bessel-corrected, `n − 1` divisor) variance, or 0.0 for
    /// fewer than two samples — the estimator the jitter columns of the
    /// scenario reports use.
    pub fn sample_variance(&self) -> f64 {
        match self.count.checked_sub(1) {
            Some(df) if df > 0 => self.m2 / df as f64,
            _ => 0.0,
        }
    }

    /// Sample (`n − 1`) standard deviation; 0.0 for fewer than two samples.
    pub fn sample_std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Smallest sample, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.min)
        }
    }

    /// Largest sample, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.max)
        }
    }

    /// `true` if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_benign() {
        let s = StreamingStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.sample_std_dev(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert!(s.is_empty());
    }

    #[test]
    fn sample_variance_degenerate_cases_are_zero() {
        // n = 1: the n−1 divisor would be 0/0 — pinned to 0.0, not NaN.
        let mut s = StreamingStats::new();
        s.record(3.5);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.sample_std_dev(), 0.0);
        // n = 2: sample variance of {1, 3} is 2.
        let mut t = StreamingStats::new();
        t.record(1.0);
        t.record(3.0);
        assert!((t.sample_variance() - 2.0).abs() < 1e-12);
        assert!((t.sample_std_dev() - std::f64::consts::SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn known_sequence() {
        let mut s = StreamingStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.sample_variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
        assert!((s.sum() - 40.0).abs() < 1e-12);
    }

    #[test]
    fn single_sample() {
        let mut s = StreamingStats::new();
        s.record(3.5);
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.min(), Some(3.5));
        assert_eq!(s.max(), Some(3.5));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn mean_is_bounded_by_min_and_max(xs in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
            let mut s = StreamingStats::new();
            for &x in &xs {
                s.record(x);
            }
            prop_assert!(s.mean() >= s.min().unwrap() - 1e-9);
            prop_assert!(s.mean() <= s.max().unwrap() + 1e-9);
            prop_assert!(s.sample_variance() >= -1e-9);
        }
    }
}
