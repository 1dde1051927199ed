//! Deterministic random numbers and the distributions used by the paper.
//!
//! The Appendix of CSZ'92 drives every traffic source from two random
//! processes: a geometrically distributed burst length (mean `B = 5`
//! packets) and an exponentially distributed idle period.  Reproducing the
//! tables therefore only needs uniform, exponential, geometric and Bernoulli
//! variates.  Rather than pulling in `rand_distr`, we implement a small
//! PCG-64 generator (O'Neill's PCG XSL-RR 128/64) and inverse-CDF samplers
//! here.  This keeps every experiment a pure function of its `u64` seed —
//! the same property the event queue gives us for ordering.

/// SplitMix64 — used to expand a single `u64` seed into the 128-bit PCG
/// state and to provide a tiny independent generator for tests.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// PCG XSL-RR 128/64: a small, fast, statistically strong generator with a
/// 2^128 period.  All simulation randomness in the workspace flows through
/// this type so that runs are reproducible across platforms and toolchains.
#[derive(Debug, Clone)]
pub struct Pcg64 {
    state: u128,
    inc: u128,
}

const PCG_MULT: u128 = 0x2360_ED05_1FC6_5DA4_4385_DF64_9FCC_F645;

impl Pcg64 {
    /// Create a generator from a 64-bit seed.  Distinct seeds give
    /// independent-looking streams; the per-flow sources in the experiments
    /// derive their seeds from a base seed plus the flow id.
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s0 = sm.next_u64() as u128;
        let s1 = sm.next_u64() as u128;
        let i0 = sm.next_u64() as u128;
        let i1 = sm.next_u64() as u128;
        let mut rng = Pcg64 {
            state: 0,
            inc: ((i0 << 64) | i1) | 1,
        };
        rng.state = rng.state.wrapping_mul(PCG_MULT).wrapping_add(rng.inc);
        rng.state = rng.state.wrapping_add((s0 << 64) | s1);
        rng.state = rng.state.wrapping_mul(PCG_MULT).wrapping_add(rng.inc);
        rng
    }

    /// Next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
        let rot = (self.state >> 122) as u32;
        let xored = ((self.state >> 64) as u64) ^ (self.state as u64);
        xored.rotate_right(rot)
    }

    /// Uniform `f64` in `[0, 1)`, using the top 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in the open interval `(0, 1]` — what the inverse-CDF
    /// exponential sampler needs so that `ln` never sees zero.
    pub fn next_f64_open(&mut self) -> f64 {
        1.0 - self.next_f64()
    }

    /// Uniform integer in `[0, bound)`.  Uses Lemire's multiply-shift with a
    /// rejection step to avoid modulo bias.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let low = m as u64;
            #[expect(
                clippy::arithmetic_side_effects,
                reason = "bound > 0 was asserted, so neither the sum nor the remainder can overflow"
            )]
            if low >= bound || low >= (u64::MAX - bound + 1) % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0,1]`).
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// Exponentially distributed variate with the given mean.
    ///
    /// The Appendix uses this for the idle period of the two-state Markov
    /// source ("the source remains idle for some exponentially distributed
    /// random time period").
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential mean must be positive");
        -mean * self.next_f64_open().ln()
    }

    /// Geometrically distributed variate on `{1, 2, 3, …}` with the given
    /// mean (≥ 1).
    ///
    /// The Appendix draws the number of packets in a burst from a geometric
    /// distribution with mean `B = 5`; a burst always contains at least one
    /// packet, so the support starts at 1 and the success probability is
    /// `p = 1/mean`.
    pub fn geometric(&mut self, mean: f64) -> u64 {
        assert!(mean >= 1.0, "geometric mean must be at least 1");
        if mean == 1.0 {
            return 1;
        }
        let p = 1.0 / mean;
        // Inverse CDF: k = ceil(ln(1-U) / ln(1-p)) for U in [0,1).
        let u = self.next_f64();
        let k = ((1.0 - u).ln() / (1.0 - p).ln()).ceil();
        if !k.is_finite() || k < 1.0 {
            1
        } else {
            k as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_and_var(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        (mean, var)
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Pcg64::new(42);
        let mut b = Pcg64::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Pcg64::new(1);
        let mut b = Pcg64::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 3);
    }

    #[test]
    fn uniform_f64_in_unit_interval_with_correct_moments() {
        let mut rng = Pcg64::new(7);
        let xs: Vec<f64> = (0..200_000).map(|_| rng.next_f64()).collect();
        assert!(xs.iter().all(|&x| (0.0..1.0).contains(&x)));
        let (mean, var) = mean_and_var(&xs);
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
        assert!((var - 1.0 / 12.0).abs() < 0.01, "var {var}");
    }

    #[test]
    fn exponential_has_requested_mean() {
        let mut rng = Pcg64::new(9);
        let mean_target = 0.0294; // the Table-1 source idle time, seconds
        let xs: Vec<f64> = (0..200_000).map(|_| rng.exponential(mean_target)).collect();
        let (mean, _) = mean_and_var(&xs);
        assert!(
            (mean - mean_target).abs() / mean_target < 0.02,
            "mean {mean} target {mean_target}"
        );
        assert!(xs.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn geometric_has_requested_mean_and_min_one() {
        let mut rng = Pcg64::new(11);
        let xs: Vec<u64> = (0..200_000).map(|_| rng.geometric(5.0)).collect();
        assert!(xs.iter().all(|&x| x >= 1));
        let mean = xs.iter().sum::<u64>() as f64 / xs.len() as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn geometric_mean_one_is_constant() {
        let mut rng = Pcg64::new(3);
        assert!((0..100).all(|_| rng.geometric(1.0) == 1));
    }

    #[test]
    fn bernoulli_probability() {
        let mut rng = Pcg64::new(13);
        let hits = (0..100_000).filter(|_| rng.bernoulli(0.02)).count();
        let p = hits as f64 / 100_000.0;
        assert!((p - 0.02).abs() < 0.005, "p {p}");
    }

    #[test]
    fn next_below_is_unbiased_enough() {
        let mut rng = Pcg64::new(17);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            counts[rng.next_below(10) as usize] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 600.0, "count {c}");
        }
    }

    #[test]
    fn splitmix_reproducible() {
        let mut a = SplitMix64::new(99);
        let mut b = SplitMix64::new(99);
        assert_eq!(a.next_u64(), b.next_u64());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn next_below_in_range(seed in any::<u64>(), bound in 1u64..1_000_000) {
            let mut rng = Pcg64::new(seed);
            for _ in 0..50 {
                prop_assert!(rng.next_below(bound) < bound);
            }
        }

        #[test]
        fn unit_uniform_in_range(seed in any::<u64>()) {
            let mut rng = Pcg64::new(seed);
            for _ in 0..100 {
                let x = rng.next_f64();
                prop_assert!((0.0..1.0).contains(&x));
                let y = rng.next_f64_open();
                prop_assert!(y > 0.0 && y <= 1.0);
            }
        }

        #[test]
        fn exponential_nonnegative(seed in any::<u64>(), mean in 0.001f64..1000.0) {
            let mut rng = Pcg64::new(seed);
            for _ in 0..50 {
                prop_assert!(rng.exponential(mean) >= 0.0);
            }
        }

        #[test]
        fn geometric_at_least_one(seed in any::<u64>(), mean in 1.0f64..100.0) {
            let mut rng = Pcg64::new(seed);
            for _ in 0..50 {
                prop_assert!(rng.geometric(mean) >= 1);
            }
        }
    }
}
