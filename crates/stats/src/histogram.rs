//! Fixed-bin histograms of delay samples.

/// A histogram with uniform-width bins over `[lo, hi)` plus overflow and
/// underflow counters.
///
/// Used by the extension experiments to plot full delay distributions (the
/// paper only reports summary statistics, but the distributions make the
/// FIFO-vs-WFQ jitter argument of Section 5 visible).
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
    count: u64,
}

impl Histogram {
    /// Create a histogram spanning `[lo, hi)` with `bins` uniform bins.
    ///
    /// # Panics
    /// Panics if `hi <= lo` or `bins == 0`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(hi > lo, "histogram range must be non-empty");
        assert!(bins > 0, "histogram needs at least one bin");
        Histogram {
            lo,
            hi,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
            count: 0,
        }
    }

    /// Record a sample.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let width = (self.hi - self.lo) / self.bins.len() as f64;
            let idx = ((x - self.lo) / width) as usize;
            let idx = idx.min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Total number of samples recorded (including under/overflow).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Samples below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples at or above the range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Per-bin counts.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// The `(low, high)` bounds of bin `i`.
    pub fn bin_bounds(&self, i: usize) -> (f64, f64) {
        let width = (self.hi - self.lo) / self.bins.len() as f64;
        (self.lo + i as f64 * width, self.lo + (i + 1) as f64 * width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_land_in_correct_bins() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.record(0.5);
        h.record(1.5);
        h.record(9.99);
        h.record(-1.0);
        h.record(10.0);
        assert_eq!(h.count(), 5);
        assert_eq!(h.bins()[0], 1);
        assert_eq!(h.bins()[1], 1);
        assert_eq!(h.bins()[9], 1);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
    }

    #[test]
    fn bin_bounds_tile_the_range() {
        let h = Histogram::new(2.0, 12.0, 5);
        assert_eq!(h.bin_bounds(0), (2.0, 4.0));
        assert_eq!(h.bin_bounds(4), (10.0, 12.0));
    }

    #[test]
    fn samples_exactly_on_lo_and_hi_land_deterministically() {
        let mut h = Histogram::new(2.0, 12.0, 5);
        // `lo` is inclusive: it belongs to the first bin, not underflow.
        h.record(2.0);
        assert_eq!(h.bins()[0], 1);
        assert_eq!(h.underflow(), 0);
        // `hi` is exclusive: it belongs to overflow, not the last bin.
        h.record(12.0);
        assert_eq!(h.bins()[4], 0);
        assert_eq!(h.overflow(), 1);
        // Just inside the upper edge stays in the last bin.
        h.record(12.0 - 1e-9);
        assert_eq!(h.bins()[4], 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn samples_on_interior_boundaries_join_the_upper_bin() {
        // Bin edges at 2, 4, 6, 8, 10, 12: every interior edge value is the
        // *inclusive lower* edge of the bin above it ([a, b) bins).
        let mut h = Histogram::new(2.0, 12.0, 5);
        for edge in [4.0, 6.0, 8.0, 10.0] {
            h.record(edge);
        }
        assert_eq!(h.bins(), &[0, 1, 1, 1, 1]);
        assert_eq!(h.underflow() + h.overflow(), 0);
        // Each landed exactly at its bin's lower bound.
        for i in 1..5 {
            assert_eq!(h.bin_bounds(i).0, 2.0 + 2.0 * i as f64);
        }
    }

    #[test]
    fn boundary_samples_are_never_double_counted() {
        // A width whose bin edges are not exactly representable (0.1 steps):
        // the floating-point index computation must still put every sample
        // in exactly one bucket.
        let mut h = Histogram::new(0.0, 0.7, 7);
        for i in 0..=7 {
            h.record(i as f64 * 0.1);
        }
        let total = h.underflow() + h.overflow() + h.bins().iter().sum::<u64>();
        assert_eq!(total, h.count());
        assert_eq!(h.count(), 8);
    }

    #[test]
    #[should_panic]
    fn empty_range_panics() {
        let _ = Histogram::new(5.0, 5.0, 3);
    }

    #[test]
    #[should_panic]
    fn zero_bins_panics() {
        let _ = Histogram::new(0.0, 1.0, 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Every sample lands in exactly one bucket (a bin, underflow or
        /// overflow) — in particular samples sitting exactly on `lo`, `hi`
        /// or an interior bin edge are counted once, never twice.
        #[test]
        fn every_sample_counted_exactly_once(
            lo in -1e3f64..1e3,
            width in 0.001f64..1e3,
            bins in 1usize..40,
            xs in proptest::collection::vec(-2e3f64..4e3, 0..200),
            edges in proptest::collection::vec(0usize..41, 0..20),
        ) {
            let hi = lo + width;
            let mut h = Histogram::new(lo, hi, bins);
            let mut n = 0u64;
            for &x in &xs {
                h.record(x);
                n += 1;
            }
            // Throw exact bin-edge samples in as well (including lo and hi).
            for &e in &edges {
                let (edge_lo, _) = h.bin_bounds(e.min(bins));
                h.record(edge_lo);
                n += 1;
            }
            let total = h.underflow() + h.overflow() + h.bins().iter().sum::<u64>();
            prop_assert_eq!(total, n);
            prop_assert_eq!(h.count(), n);
        }

        /// The recorded bucket is consistent with the bin's advertised
        /// bounds: a sample inside `[bin_lo, bin_hi)` increments that bin.
        #[test]
        fn edge_samples_join_their_advertised_bin(
            bins in 1usize..20,
            idx in 0usize..20,
        ) {
            let idx = idx.min(bins - 1);
            let mut h = Histogram::new(0.0, bins as f64, bins);
            let (bin_lo, _) = h.bin_bounds(idx);
            h.record(bin_lo);
            prop_assert_eq!(h.bins()[idx], 1, "lower edge is inclusive");
            prop_assert_eq!(h.underflow() + h.overflow(), 0);
        }
    }
}
