//! Offline stand-in for the `proptest` crate.
//!
//! This workspace must build without network access, so the subset of the
//! proptest API the ISPN crates use is re-implemented here on top of a tiny
//! deterministic generator:
//!
//! * the [`proptest!`] macro (named-argument `pat in strategy` form),
//! * [`prop_assert!`] / [`prop_assert_eq!`],
//! * range strategies over the built-in numeric types,
//! * [`any`] for unconstrained values,
//! * [`collection::vec`] and tuple strategies.
//!
//! Unlike the real crate there is no shrinking: each test runs a fixed
//! number of deterministic cases (see [`CASES`]) and panics on the first
//! failing input, printing the case number.  That keeps the workspace's
//! property tests meaningful (they still explore hundreds of random inputs
//! per property, reproducibly) without the external dependency.

#![forbid(unsafe_code)]

use std::ops::Range;

/// Number of random cases each property runs.
pub const CASES: u32 = 256;

/// The deterministic generator behind every strategy (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Create a generator from a seed.
    pub fn new(seed: u64) -> Self {
        TestRng { state: seed }
    }

    /// Next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` (`bound` > 0).
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Multiply-shift; the slight bias is irrelevant for test inputs.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

/// A value generator, mirroring proptest's `Strategy` at the level the
/// workspace uses it (sampling only, no shrinking).
pub trait Strategy {
    /// The type of generated values.
    type Value;
    /// Draw one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start + rng.below(span) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + (self.end - self.start) * rng.next_unit()
    }
}

macro_rules! tuple_strategy {
    ($(($($name:ident),+))*) => {$(
        #[expect(
            non_snake_case,
            reason = "the macro reuses the type parameters as binding names"
        )]
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
            }
        }
    )*};
}

tuple_strategy! { (A, B) (A, B, C) (A, B, C, D) }

/// Types with a full-domain default strategy (proptest's `Arbitrary`).
pub trait Arbitrary: Sized {
    /// Draw an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! int_arbitrary {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        // Finite values only — the real crate's any::<f64>() includes NaN
        // and infinities, but every use in this workspace wants ordinary
        // magnitudes.
        (rng.next_unit() - 0.5) * 2e12
    }
}

/// The character pool [`Arbitrary`] strings draw from: deliberately
/// hostile for serialization code — JSON-significant punctuation, control
/// characters, whitespace, and multi-byte non-ASCII next to plain text.
const HOSTILE_CHARS: &[char] = &[
    'a',
    'b',
    'z',
    'A',
    'Z',
    '0',
    '9',
    ' ',
    '_',
    '-',
    '.',
    ',',
    ':',
    ';',
    '=',
    '+',
    '/',
    '<',
    '>',
    '[',
    ']',
    '{',
    '}',
    '(',
    ')',
    '"',
    '\'',
    '\\',
    '\n',
    '\r',
    '\t',
    '\u{0}',
    '\u{1}',
    '\u{b}',
    '\u{1f}',
    '\u{7f}',
    'é',
    'ß',
    'Ω',
    '中',
    'か',
    '🦀',
    '\u{2028}',
    '\u{2029}',
    '\u{e000}',
    '\u{10ffff}',
];

impl Arbitrary for char {
    fn arbitrary(rng: &mut TestRng) -> char {
        HOSTILE_CHARS[rng.below(HOSTILE_CHARS.len() as u64) as usize]
    }
}

impl Arbitrary for String {
    /// Strings of length 0–23 over [`HOSTILE_CHARS`] — short enough to
    /// keep property runs fast, nasty enough to break naive escaping.
    fn arbitrary(rng: &mut TestRng) -> String {
        let len = rng.below(24) as usize;
        (0..len).map(|_| char::arbitrary(rng)).collect()
    }
}

/// Strategy returned by [`any`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The full-domain strategy for `T` (mirrors `proptest::prelude::any`).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Strategy for `Vec<S::Value>` with a length drawn from `len`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// A vector whose length is uniform in `len` and whose elements come
    /// from `element` (mirrors `proptest::collection::vec`).
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        assert!(len.start < len.end, "empty length range");
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.len.end - self.len.start) as u64;
            let n = self.len.start + rng.below(span) as usize;
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Everything a test module needs in scope.
pub mod prelude {
    pub use crate::{any, prop_assert, prop_assert_eq, proptest, Strategy};
}

/// Assert a property of the current case (panics with the case's inputs
/// already printed by [`proptest!`] on failure).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Equality assertion counterpart of [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Define property tests: each `fn name(pat in strategy, …) { body }` runs
/// the body for [`CASES`] deterministic random inputs.
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($arg:pat_param in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                // Per-test seed derived from the test's name so distinct
                // properties explore distinct streams, reproducibly.
                let mut __seed = 0xC5C5_1992_5160_0001u64;
                for b in stringify!($name).bytes() {
                    __seed = __seed.wrapping_mul(0x100_0000_01B3).wrapping_add(b as u64);
                }
                let mut __rng = $crate::TestRng::new(__seed);
                for __case in 0..$crate::CASES {
                    let ($($arg,)+) = ($($crate::Strategy::sample(&($strat), &mut __rng),)+);
                    $body
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #[test]
        fn ranges_respect_bounds(x in 3u64..17, y in -5.0f64..5.0) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-5.0..5.0).contains(&y));
        }

        #[test]
        fn vec_lengths_in_range(xs in crate::collection::vec(0u64..10, 2..6)) {
            prop_assert!(xs.len() >= 2 && xs.len() < 6);
            prop_assert!(xs.iter().all(|&x| x < 10));
        }

        #[test]
        fn tuples_and_any(pair in (0u8..4, 1usize..3), seed in any::<u64>()) {
            prop_assert!(pair.0 < 4 && pair.1 >= 1);
            prop_assert_eq!(seed, seed);
        }
    }

    #[test]
    fn deterministic_stream() {
        let mut a = super::TestRng::new(1);
        let mut b = super::TestRng::new(1);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
