//! Sliding-time-window estimators.
//!
//! Section 9 of the paper bases admission control on *measured* quantities:
//! "The key to making the predictive service commitments reliable is to
//! choose appropriately conservative measures for ν̂ and d̂ⱼ; these should
//! not just be averages but consistently conservative estimates."
//!
//! [`WindowedMax`] keeps the maximum of samples observed over the last `W`
//! seconds of simulated time (a conservative estimate of per-class delay
//! d̂ⱼ), and [`WindowedMean`] keeps a windowed time-average (used for the
//! measured link utilization ν̂, where the "sample" is the amount of
//! real-time traffic carried per measurement interval).

use std::collections::VecDeque;

/// Advance `clock` to `now` and return the effective time: `max(clock,
/// now)`.  A `now` behind the clock — or NaN — resolves to the clock
/// unchanged, which is what keeps the windowed estimators' deques in time
/// order whatever a caller feeds them.
fn clamp_monotone(clock: &mut f64, now: f64) -> f64 {
    // `f64::max` returns the other operand when one is NaN, so a NaN `now`
    // falls back to the clock rather than poisoning it.
    *clock = clock.max(now);
    *clock
}

/// Maximum of timestamped samples within a sliding window.
///
/// Timestamps are caller-supplied `f64` seconds (the network monitor feeds
/// simulated time in seconds) and are expected to be non-decreasing.  The
/// estimator's clock **never runs backwards**: a timestamp earlier than the
/// latest time already seen (by `record` *or* `current`) is clamped forward
/// to it, so a stale or buggy caller can neither reorder the deque nor
/// resurrect expired history — in debug and release builds alike.  A NaN
/// timestamp clamps the same way (to the latest time seen).  Uses the
/// classic monotone deque so both `record` and `current` are amortized
/// O(1).
#[derive(Debug, Clone)]
pub struct WindowedMax {
    window: f64,
    /// Deque of (time, value) with values strictly decreasing.
    deque: VecDeque<(f64, f64)>,
    last_time: f64,
}

impl WindowedMax {
    /// Create a window of `window` seconds.
    pub fn new(window: f64) -> Self {
        assert!(window > 0.0, "window must be positive");
        WindowedMax {
            window,
            deque: VecDeque::new(),
            last_time: 0.0,
        }
    }

    /// Record `value` observed at time `now` (seconds).
    ///
    /// Time must be non-decreasing; a `now` earlier than the latest time
    /// seen is clamped forward to it (the sample is treated as arriving at
    /// the estimator's current clock), so a backwards timestamp cannot
    /// corrupt the deque's time order in release builds.
    pub fn record(&mut self, now: f64, value: f64) {
        let now = clamp_monotone(&mut self.last_time, now);
        while let Some(&(_, back)) = self.deque.back() {
            if back <= value {
                self.deque.pop_back();
            } else {
                break;
            }
        }
        self.deque.push_back((now, value));
        self.expire(now);
    }

    fn expire(&mut self, now: f64) {
        while let Some(&(t, _)) = self.deque.front() {
            if now - t > self.window {
                self.deque.pop_front();
            } else {
                break;
            }
        }
    }

    /// The maximum over the window ending at `now`; `default` if no samples
    /// remain in the window.  A `now` earlier than the latest time seen is
    /// clamped forward to it (expiry is permanent, so a backwards query
    /// could never resurrect dropped samples anyway).
    pub fn current(&mut self, now: f64, default: f64) -> f64 {
        let now = clamp_monotone(&mut self.last_time, now);
        self.expire(now);
        self.deque.front().map(|&(_, v)| v).unwrap_or(default)
    }
}

/// Windowed mean of timestamped samples, with every retained sample stored
/// (the admission controller samples utilization at a fixed, modest rate so
/// the memory footprint is small and exactness is preferred).
///
/// Shares [`WindowedMax`]'s time contract: timestamps should be
/// non-decreasing, and any that are not (or are NaN) are clamped forward
/// to the latest time seen, so a backwards timestamp cannot leave the
/// deque out of time order or make `sum` drift out of sync with the
/// retained samples.
#[derive(Debug, Clone)]
pub struct WindowedMean {
    window: f64,
    deque: VecDeque<(f64, f64)>,
    sum: f64,
    last_time: f64,
}

impl WindowedMean {
    /// Create a window of `window` seconds.
    pub fn new(window: f64) -> Self {
        assert!(window > 0.0, "window must be positive");
        WindowedMean {
            window,
            deque: VecDeque::new(),
            sum: 0.0,
            last_time: 0.0,
        }
    }

    /// Record `value` observed at time `now` (seconds; non-decreasing, with
    /// backwards timestamps clamped forward to the latest time seen).
    pub fn record(&mut self, now: f64, value: f64) {
        let now = clamp_monotone(&mut self.last_time, now);
        self.deque.push_back((now, value));
        self.sum += value;
        self.expire(now);
    }

    fn expire(&mut self, now: f64) {
        while let Some(&(t, v)) = self.deque.front() {
            if now - t > self.window {
                self.sum -= v;
                self.deque.pop_front();
            } else {
                break;
            }
        }
    }

    /// Mean of samples in the window ending at `now`; `default` if empty.
    /// A `now` earlier than the latest time seen is clamped forward to it.
    pub fn current(&mut self, now: f64, default: f64) -> f64 {
        let now = clamp_monotone(&mut self.last_time, now);
        self.expire(now);
        if self.deque.is_empty() {
            default
        } else {
            self.sum / self.deque.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windowed_max_tracks_max_and_expires() {
        let mut w = WindowedMax::new(10.0);
        w.record(0.0, 5.0);
        w.record(1.0, 3.0);
        w.record(2.0, 8.0);
        assert_eq!(w.current(2.0, 0.0), 8.0);
        // At t=13 the first samples fall out but 8.0 (t=2) is still in.
        assert_eq!(w.current(11.0, 0.0), 8.0);
        // At t=13 everything has expired.
        assert_eq!(w.current(13.0, -1.0), -1.0);
    }

    #[test]
    fn windowed_max_default_when_empty() {
        let mut w = WindowedMax::new(5.0);
        assert_eq!(w.current(100.0, 42.0), 42.0);
    }

    #[test]
    fn windowed_max_keeps_later_smaller_values_after_peak_expires() {
        let mut w = WindowedMax::new(10.0);
        w.record(0.0, 100.0);
        w.record(5.0, 7.0);
        assert_eq!(w.current(5.0, 0.0), 100.0);
        // The 100.0 expires at t > 10, the 7.0 remains until t > 15.
        assert_eq!(w.current(12.0, 0.0), 7.0);
    }

    #[test]
    fn windowed_max_clamps_backwards_timestamps() {
        let mut w = WindowedMax::new(10.0);
        w.record(0.0, 1.0);
        w.record(20.0, 5.0);
        // A stale sample "from t=3" arrives late: it is treated as arriving
        // at the estimator's clock (t=20), so it neither reorders the deque
        // nor resurrects expired history…
        w.record(3.0, 9.0);
        assert_eq!(w.current(20.0, 0.0), 9.0);
        // …and it expires relative to its clamped time, not its claimed one.
        assert_eq!(w.current(29.0, 0.0), 9.0);
        assert_eq!(w.current(31.0, -1.0), -1.0);
    }

    #[test]
    fn windowed_max_query_clock_never_runs_backwards() {
        let mut w = WindowedMax::new(5.0);
        w.record(0.0, 7.0);
        assert_eq!(w.current(10.0, -1.0), -1.0, "expired at t=10");
        // A backwards query cannot resurrect the expired sample (expiry is
        // permanent either way; the clamp makes the contract explicit).
        assert_eq!(w.current(0.0, -1.0), -1.0);
        // A subsequent stale record lands at the clamped clock (t=10).
        w.record(1.0, 3.0);
        assert_eq!(w.current(10.0, -1.0), 3.0);
    }

    #[test]
    fn windowed_max_nan_timestamp_falls_back_to_the_clock() {
        let mut w = WindowedMax::new(10.0);
        w.record(4.0, 2.0);
        w.record(f64::NAN, 8.0); // treated as t=4
        assert_eq!(w.current(4.0, 0.0), 8.0);
        assert_eq!(w.current(15.0, -1.0), -1.0, "both expired together");
    }

    #[test]
    fn windowed_mean_clamps_backwards_timestamps() {
        let mut w = WindowedMean::new(5.0);
        w.record(0.0, 2.0);
        w.record(10.0, 4.0);
        // Clamped to t=10; the t=0 sample already left the window, so the
        // mean is over {4, 6} and the running sum stays consistent.
        w.record(1.0, 6.0);
        assert!((w.current(10.0, 0.0) - 5.0).abs() < 1e-12);
        assert_eq!(w.deque.len(), 2);
        // The clamped sample expires with the t=10 cohort.
        assert!((w.current(16.0, 9.9) - 9.9).abs() < 1e-12);
        assert!(w.deque.is_empty());
    }

    #[test]
    fn windowed_mean_basic() {
        let mut w = WindowedMean::new(10.0);
        w.record(0.0, 2.0);
        w.record(1.0, 4.0);
        assert!((w.current(1.0, 0.0) - 3.0).abs() < 1e-12);
        assert_eq!(w.deque.len(), 2);
        // First sample expires.
        assert!((w.current(10.5, 0.0) - 4.0).abs() < 1e-12);
        assert!((w.current(100.0, 9.9) - 9.9).abs() < 1e-12);
        assert!(w.deque.is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The windowed max never under-reports: it is ≥ every sample whose
        /// timestamp is still within the window.
        #[test]
        fn windowed_max_is_conservative(
            samples in proptest::collection::vec((0.0f64..100.0, 0.0f64..50.0), 1..100),
            window in 1.0f64..20.0,
        ) {
            // Sort by time to satisfy the monotone-time contract.
            let mut samples = samples;
            samples.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            let mut w = WindowedMax::new(window);
            for &(t, v) in &samples {
                w.record(t, v);
            }
            let now = samples.last().unwrap().0;
            let m = w.current(now, f64::NEG_INFINITY);
            for &(t, v) in &samples {
                if now - t <= window {
                    prop_assert!(m >= v - 1e-9);
                }
            }
        }

        /// Windowed mean is bounded by the min and max of in-window samples.
        #[test]
        fn windowed_mean_bounded(
            samples in proptest::collection::vec((0.0f64..100.0, 0.0f64..50.0), 1..100),
            window in 1.0f64..20.0,
        ) {
            let mut samples = samples;
            samples.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            let mut w = WindowedMean::new(window);
            for &(t, v) in &samples {
                w.record(t, v);
            }
            let now = samples.last().unwrap().0;
            let in_window: Vec<f64> = samples
                .iter()
                .filter(|&&(t, _)| now - t <= window)
                .map(|&(_, v)| v)
                .collect();
            let mean = w.current(now, 0.0);
            if !in_window.is_empty() {
                let lo = in_window.iter().cloned().fold(f64::INFINITY, f64::min);
                let hi = in_window.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                prop_assert!(mean >= lo - 1e-9 && mean <= hi + 1e-9);
            }
        }
    }
}
