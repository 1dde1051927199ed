//! Simulated time.
//!
//! Time is kept as an integer number of nanoseconds since the start of the
//! simulation.  Integer time keeps event ordering exact: the paper's link
//! speed (1 Mbit/s) and packet size (1000 bits) give a per-packet
//! transmission time of exactly 1 ms, which is representable without
//! rounding, and repeated additions never drift the way `f64` arithmetic
//! would.

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A point in simulated time, in nanoseconds since simulation start.
///
/// `SimTime` is also used for durations (the paper never needs dates).  The
/// end of time absorbs: `+`, `+=` and the `from_micros` / `from_millis` /
/// `from_secs` constructors saturate at [`SimTime::MAX`] in every build, so
/// a sum that mints an event time can never wrap into the past.  A `-` /
/// `-=` below zero is a logic error and panics in debug builds; where the
/// operands may legitimately be out of order, use
/// [`SimTime::saturating_sub`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// Time zero — the start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable time (used as an "infinite" horizon).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// One millisecond — the per-packet transmission time of the paper's
    /// evaluation (1000-bit packets over 1 Mbit/s links) and therefore the
    /// unit in which all of the paper's delay tables are expressed.
    pub const MILLISECOND: SimTime = SimTime(1_000_000);
    /// One second.
    pub const SECOND: SimTime = SimTime(1_000_000_000);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from microseconds (saturating).
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us.saturating_mul(1_000))
    }

    /// Construct from milliseconds (saturating).
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms.saturating_mul(1_000_000))
    }

    /// Construct from whole seconds (saturating).
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s.saturating_mul(1_000_000_000))
    }

    /// Construct from fractional seconds, rounding to the nearest
    /// nanosecond (halves away from zero).  Negative and non-finite inputs
    /// clamp to zero, overlarge ones to [`SimTime::MAX`].
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return SimTime::ZERO;
        }
        // `(s * 1e9).round() as u64` without the call into libm, which is
        // out of line on baseline x86-64 and sits on every hop's path:
        // truncate, then add one when the dropped fraction reaches a half.
        // `x - trunc(x)` is exact below 2⁵³, `x` is already an integer
        // above, and `as u64` saturates.
        let x = s * 1e9;
        let t = x as u64;
        SimTime(t.saturating_add(u64::from(x - t as f64 >= 0.5)))
    }

    /// Raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Time as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time as fractional milliseconds.  Since one packet transmission time
    /// in the paper's configuration is 1 ms, this is the "packet time" unit
    /// used by Tables 1–3 when the default configuration is in force.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction: `self - other`, or zero if `other > self`.
    #[inline]
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }

    /// Multiply a duration by an integer factor (saturating).
    #[inline]
    pub fn saturating_mul(self, k: u64) -> SimTime {
        SimTime(self.0.saturating_mul(k))
    }

    /// Scale a duration by a floating-point factor (e.g. "1.5 packet
    /// times"); clamps negative results to zero.
    #[inline]
    pub fn mul_f64(self, k: f64) -> SimTime {
        SimTime::from_secs_f64(self.as_secs_f64() * k)
    }
}

impl Add for SimTime {
    type Output = SimTime;
    /// Saturates at [`SimTime::MAX`]: the end of time absorbs.
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    /// Panics in debug builds on underflow; use [`SimTime::saturating_sub`]
    /// when the operands may legitimately be out of order.
    #[inline]
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "a negative duration is a logic error, so underflow panics in debug"
    )]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign for SimTime {
    #[inline]
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "a negative duration is a logic error, so underflow panics in debug"
    )]
    fn sub_assign(&mut self, rhs: SimTime) {
        self.0 -= rhs.0;
    }
}

/// Exact to the nanosecond, so two times an `assert_eq!` tells apart
/// never print alike (`Display` rounds to the microsecond).
impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const NANOS_PER_SEC: u64 = 1_000_000_000;
        let (secs, nanos) = (self.0 / NANOS_PER_SEC, self.0 % NANOS_PER_SEC);
        write!(f, "{secs}.{nanos:09}s")
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

/// Convert a transmission rate in bits per second and a size in bits into
/// the time needed to serialize that many bits onto the link.
///
/// This is the single conversion the packet model uses everywhere, so the
/// rounding convention (round to nearest nanosecond) lives in one place.
#[inline]
pub fn transmission_time(bits: u64, rate_bps: f64) -> SimTime {
    assert!(rate_bps > 0.0, "link rate must be positive");
    SimTime::from_secs_f64(bits as f64 / rate_bps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn debug_prints_every_nanosecond_and_display_rounds_to_the_microsecond() {
        let almost = SimTime::from_nanos(1_999_998);
        let two_ms = SimTime::from_millis(2);
        assert_eq!(format!("{almost:?}"), "0.001999998s");
        assert_eq!(format!("{two_ms:?}"), "0.002000000s");
        assert_eq!(format!("{:?}", SimTime::MAX), "18446744073.709551615s");
        assert_eq!(format!("{almost} {two_ms}"), "0.002000s 0.002000s");
    }

    #[test]
    fn constructors_and_accessors_round_trip() {
        assert_eq!(SimTime::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(SimTime::from_secs(2).as_millis_f64(), 2000.0);
        assert_eq!(SimTime::from_micros(7).as_nanos(), 7_000);
        assert!((SimTime::from_secs_f64(1.5).as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn negative_or_nan_seconds_clamp_to_zero() {
        assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::NAN), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::NEG_INFINITY), SimTime::ZERO);
    }

    #[test]
    fn arithmetic_behaves() {
        let a = SimTime::from_millis(5);
        let b = SimTime::from_millis(2);
        assert_eq!(a + b, SimTime::from_millis(7));
        assert_eq!(a - b, SimTime::from_millis(3));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(a.saturating_mul(3), SimTime::from_millis(15));
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn the_end_of_time_absorbs_every_sum_and_constructor() {
        let one = SimTime::from_nanos(1);
        assert_eq!(SimTime::MAX + one, SimTime::MAX);
        assert_eq!(SimTime::MAX + SimTime::MAX, SimTime::MAX);
        assert_eq!(SimTime(u64::MAX - 1) + one, SimTime::MAX);
        let mut t = SimTime(u64::MAX - 1);
        t += one;
        assert_eq!(t, SimTime::MAX);
        t += one;
        assert_eq!(t, SimTime::MAX);
        // Each constructor is exact up to its last representable whole
        // unit and saturates one unit past it.
        for (from, unit) in [
            (SimTime::from_micros as fn(u64) -> SimTime, 1_000),
            (SimTime::from_millis, 1_000_000),
            (SimTime::from_secs, 1_000_000_000),
        ] {
            let last = u64::MAX / unit;
            assert_eq!(from(last), SimTime(last * unit));
            assert_eq!(from(last + 1), SimTime::MAX);
            assert_eq!(from(u64::MAX), SimTime::MAX);
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "attempt to subtract with overflow")]
    fn a_negative_duration_panics_in_debug() {
        let _ = SimTime::ZERO - SimTime::from_nanos(1);
    }

    #[test]
    fn paper_packet_time_is_one_millisecond() {
        // 1000-bit packets over a 1 Mbit/s link: exactly 1 ms.
        assert_eq!(transmission_time(1000, 1_000_000.0), SimTime::MILLISECOND);
    }

    #[test]
    fn mul_f64_scales() {
        assert_eq!(
            SimTime::from_millis(10).mul_f64(2.5),
            SimTime::from_millis(25)
        );
        assert_eq!(SimTime::from_millis(10).mul_f64(-1.0), SimTime::ZERO);
    }

    #[test]
    #[should_panic]
    fn zero_rate_transmission_panics() {
        let _ = transmission_time(1000, 0.0);
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(SimTime::from_nanos(1) < SimTime::from_nanos(2));
        assert!(SimTime::MAX > SimTime::from_secs(1_000_000));
    }

    /// What `from_secs_f64` computed while it still called `f64::round`.
    fn from_secs_f64_by_libm_round(s: f64) -> SimTime {
        if !s.is_finite() || s <= 0.0 {
            return SimTime::ZERO;
        }
        SimTime((s * 1e9).round().min(u64::MAX as f64) as u64)
    }

    #[test]
    fn from_secs_f64_rounds_half_away_at_every_edge() {
        for (secs, nanos) in [
            (4.999_999_999_999_999e-10, 0),
            (0.5e-9, 1),
            (2.5e-9, 3),
            (1.8446744073709552e10, u64::MAX),
            (1e300, u64::MAX),
            (5e-324, 0),
            (f64::NAN, 0),
            (-1.0, 0),
            (f64::INFINITY, 0),
            (f64::NEG_INFINITY, 0),
        ] {
            assert_eq!(SimTime::from_secs_f64(secs), SimTime(nanos), "{secs:e}");
        }
        // Where a half is the last bit a product still carries (2⁵² ns), and
        // where products are integers already (2⁵³ ns): as seconds, and as
        // the quotient that multiplies back to the tie itself.
        let (two52, two53) = ((1u64 << 52) as f64, (1u64 << 53) as f64);
        for x in [
            0.49999999999999994,
            0.5,
            1.5,
            two52 - 0.5,
            two52 + 0.5,
            two53 + 1.0,
            f64::MAX,
        ] {
            for secs in [x * 1e-9, x / 1e9] {
                assert_eq!(
                    SimTime::from_secs_f64(secs),
                    from_secs_f64_by_libm_round(secs),
                    "{secs:e}"
                );
            }
        }
    }

    proptest::proptest! {
        /// The libm-free rounding is the old `round()` expression on every
        /// bit pattern (NaNs, infinities and negatives included), on
        /// ordinary durations, and around the half-nanosecond ties.
        #[test]
        fn from_secs_f64_matches_libm_round(
            bits in proptest::any::<u64>(),
            secs in 0.0f64..1e4,
            nanos in 0u64..(1 << 54),
            nudge in 0u64..5,
        ) {
            let near_tie = f64::from_bits(((nanos as f64 + 0.5) / 1e9).to_bits() + nudge - 2);
            for s in [f64::from_bits(bits), secs, secs * 1e-6, near_tie] {
                assert_eq!(
                    SimTime::from_secs_f64(s),
                    from_secs_f64_by_libm_round(s),
                    "{s:e}"
                );
            }
        }
    }
}
