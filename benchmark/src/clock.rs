//! The benchmark's one wall-clock read.
//!
//! Set-up time is measured across a process boundary (the parent stamps
//! the spawn, the child stamps the end of scenario construction), so the
//! clock must mean the same thing in both processes: time since the Unix
//! epoch.  Every other interval in the benchmark uses the same helper so
//! there is exactly one waived wall-clock site.

use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// Time since the Unix epoch, read from the host's wall clock.
pub fn now() -> Duration {
    // ispn-lint: allow(wall-clock) -- the benchmark exists to measure host
    // time; this helper is its only clock read, and nothing it returns
    // reaches a simulation or a golden-checked output.
    #[allow(clippy::disallowed_methods)]
    let wall = SystemTime::now();
    wall.duration_since(UNIX_EPOCH)
        .expect("the host clock is set after 1970")
}

/// Seconds elapsed since an earlier [`now`] reading (0 if the host clock
/// stepped backwards in between).
pub fn secs_since(start: Duration) -> f64 {
    now().saturating_sub(start).as_secs_f64()
}
