//! # ispn-telemetry — engine instrumentation primitives
//!
//! Allocation-free counters and high-water marks the simulation engine
//! updates on its hot paths (`ispn-sim`'s event queue, `ispn-sched`'s
//! probed disciplines, `ispn-net`'s forwarding and admission code).
//!
//! Two properties are load-bearing:
//!
//! * **Determinism.**  Every value in this crate is a pure function of the
//!   simulated event sequence — no wall-clock time, no addresses, no
//!   capacities.  Two same-seed runs produce bit-identical telemetry, which
//!   the determinism tests in `ispn-experiments` pin.  Wall-clock-derived
//!   rates (events/sec) are computed *outside* the sim, by the reporting
//!   layer, and never feed back into it.
//! * **Hot-path cost.**  The mutating operations are single integer
//!   updates on plain fields (`#[inline]`, no atomics — the engine is
//!   single-threaded per simulation) and nothing here allocates.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

/// A monotonically increasing event count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// A counter at zero.
    pub const fn new() -> Self {
        Counter(0)
    }

    /// Add one.
    #[inline]
    pub fn incr(&mut self) {
        self.0 += 1;
    }

    /// The current count.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0
    }
}

/// The largest level ever observed (peak queue depth, …).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HighWater(u64);

impl HighWater {
    /// A high-water mark at zero.
    pub const fn new() -> Self {
        HighWater(0)
    }

    /// Observe one level; the mark keeps the maximum.
    #[inline]
    pub fn observe(&mut self, v: u64) {
        if v > self.0 {
            self.0 = v;
        }
    }

    /// The peak level observed so far.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0
    }
}

/// Number of service-class buckets tracked by [`PerClass`]: guaranteed,
/// predicted (all priorities pooled) and datagram.
pub const NUM_CLASS_BUCKETS: usize = 3;

/// Bucket index for guaranteed-service traffic.
pub const CLASS_GUARANTEED: usize = 0;
/// Bucket index for predicted-service traffic (all priorities pooled).
pub const CLASS_PREDICTED: usize = 1;
/// Bucket index for datagram (best-effort) traffic.
pub const CLASS_DATAGRAM: usize = 2;

/// Short labels for the class buckets, indexed like [`PerClass`].
pub const CLASS_LABELS: [&str; NUM_CLASS_BUCKETS] = ["guaranteed", "predicted", "datagram"];

/// One metric per service-class bucket, fixed-size so per-class counting
/// costs one array index and no hashing or allocation.
///
/// The mapping from a concrete service-class type to a bucket index lives
/// with the consumer (this crate stays dependency-free); by convention it
/// is [`CLASS_GUARANTEED`] / [`CLASS_PREDICTED`] / [`CLASS_DATAGRAM`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PerClass<T> {
    buckets: [T; NUM_CLASS_BUCKETS],
}

impl<T> PerClass<T> {
    /// The metric for one class bucket.
    #[inline]
    pub fn bucket(&self, idx: usize) -> &T {
        &self.buckets[idx]
    }

    /// Mutable access to one class bucket.
    #[inline]
    pub fn bucket_mut(&mut self, idx: usize) -> &mut T {
        &mut self.buckets[idx]
    }

    /// All buckets, in [`CLASS_LABELS`] order.
    pub fn buckets(&self) -> &[T; NUM_CLASS_BUCKETS] {
        &self.buckets
    }
}

impl PerClass<Counter> {
    /// Sum across every class bucket.
    pub fn total(&self) -> u64 {
        self.buckets.iter().map(Counter::get).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let mut c = Counter::new();
        assert_eq!(c.get(), 0);
        for _ in 0..42 {
            c.incr();
        }
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn high_water_keeps_the_peak() {
        let mut hw = HighWater::new();
        hw.observe(3);
        hw.observe(9);
        hw.observe(5);
        assert_eq!(hw.get(), 9);
    }

    #[test]
    fn per_class_buckets_are_independent() {
        let mut pc: PerClass<Counter> = PerClass::default();
        pc.bucket_mut(CLASS_GUARANTEED).incr();
        pc.bucket_mut(CLASS_GUARANTEED).incr();
        pc.bucket_mut(CLASS_DATAGRAM).incr();
        assert_eq!(pc.bucket(CLASS_GUARANTEED).get(), 2);
        assert_eq!(pc.bucket(CLASS_PREDICTED).get(), 0);
        assert_eq!(pc.bucket(CLASS_DATAGRAM).get(), 1);
        assert_eq!(pc.total(), 3);
    }

    #[test]
    fn class_labels_match_bucket_indices() {
        assert_eq!(CLASS_LABELS[CLASS_GUARANTEED], "guaranteed");
        assert_eq!(CLASS_LABELS[CLASS_PREDICTED], "predicted");
        assert_eq!(CLASS_LABELS[CLASS_DATAGRAM], "datagram");
    }
}
