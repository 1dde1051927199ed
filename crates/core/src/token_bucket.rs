//! Token-bucket traffic filters (Section 4).
//!
//! "A token bucket filter is characterized by two parameters, a rate r and a
//! depth b.  One can think of the token bucket as filling up with tokens
//! continuously at a rate r, with b being its maximal depth.  Every time a
//! packet is generated it removes p tokens from the bucket, where p is the
//! size of the packet.  A traffic source conforms to a token bucket filter
//! (r, b) if there are always enough tokens in the bucket whenever a packet
//! is generated."
//!
//! The same object serves three roles in the reproduction:
//!
//! 1. *source-side policing* — the Appendix subjects every simulated source
//!    to an `(A, 50 packet)` bucket and drops non-conforming packets at the
//!    source (≈2 % of packets for the on/off process used),
//! 2. *edge enforcement* — Section 8 checks predicted flows at the first
//!    switch and drops or tags violations,
//! 3. *traffic characterization* — the `b(r)` curve of a recorded packet
//!    process feeds the Parekh–Gallager bound ([`crate::bounds`]).

use ispn_sim::SimTime;

/// Static description of a token-bucket filter: rate `r` (bits/second) and
/// depth `b` (bits).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TokenBucketSpec {
    /// Token accumulation rate in bits per second.
    pub rate_bps: f64,
    /// Bucket depth in bits.
    pub depth_bits: f64,
}

impl TokenBucketSpec {
    /// Create a spec; both parameters must be positive.
    pub fn new(rate_bps: f64, depth_bits: f64) -> Self {
        assert!(rate_bps > 0.0, "token rate must be positive");
        assert!(depth_bits > 0.0, "bucket depth must be positive");
        TokenBucketSpec {
            rate_bps,
            depth_bits,
        }
    }

    /// Convenience constructor in packet units, matching the paper's
    /// "(A, 50) token bucket filter (50 is the size of the token bucket)"
    /// where both the rate and the depth are expressed in packets.
    pub fn per_packets(rate_pkts_per_sec: f64, depth_pkts: f64, packet_bits: u64) -> Self {
        TokenBucketSpec::new(
            rate_pkts_per_sec * packet_bits as f64,
            depth_pkts * packet_bits as f64,
        )
    }
}

/// The stateful filter: tracks the token level against simulated time.
///
/// The bucket starts full (the paper's recursion starts with `n₀ = b`).
#[derive(Debug, Clone)]
pub struct TokenBucket {
    spec: TokenBucketSpec,
    /// Current token level in bits.
    tokens: f64,
    /// Last time the token level was updated.
    last_update: SimTime,
}

impl TokenBucket {
    /// Create a full bucket governed by `spec`, with time starting at zero.
    pub fn new(spec: TokenBucketSpec) -> Self {
        TokenBucket {
            spec,
            tokens: spec.depth_bits,
            last_update: SimTime::ZERO,
        }
    }

    /// The static parameters of this bucket.
    pub fn spec(&self) -> TokenBucketSpec {
        self.spec
    }

    fn refill(&mut self, now: SimTime) {
        if now > self.last_update {
            #[expect(
                clippy::arithmetic_side_effects,
                reason = "now > last_update, checked just above"
            )]
            let dt = (now - self.last_update).as_secs_f64();
            self.tokens = (self.tokens + dt * self.spec.rate_bps).min(self.spec.depth_bits);
            self.last_update = now;
        }
    }

    /// Current token level (after refilling to `now`), in bits.
    pub fn level(&mut self, now: SimTime) -> f64 {
        self.refill(now);
        self.tokens
    }

    /// Switch the filter to a new `(r, b)` in place (a renegotiated
    /// traffic contract, Section 8).
    ///
    /// The accumulated token level carries over, clamped to the new depth —
    /// renegotiating must never mint a free burst the way constructing a
    /// fresh (full) bucket would.
    pub fn reconfigure(&mut self, now: SimTime, spec: TokenBucketSpec) {
        self.refill(now);
        self.spec = spec;
        self.tokens = self.tokens.min(spec.depth_bits);
    }

    /// Would a packet of `size_bits` generated at `now` conform?  Does not
    /// change the bucket state beyond refilling.
    pub fn conforms(&mut self, now: SimTime, size_bits: u64) -> bool {
        self.refill(now);
        self.tokens >= size_bits as f64 - 1e-9
    }

    /// Offer a packet to the filter at time `now`.
    ///
    /// If the packet conforms the tokens are consumed and `true` is
    /// returned.  If it does not conform the bucket is left unchanged and
    /// `false` is returned — this is the *policing* behaviour used at the
    /// source and at the network edge ("nonconforming packets were dropped
    /// at the source").
    pub fn offer(&mut self, now: SimTime, size_bits: u64) -> bool {
        if self.conforms(now, size_bits) {
            self.tokens -= size_bits as f64;
            true
        } else {
            false
        }
    }
}

/// Check whether a recorded packet sequence `(time, size_bits)` conforms to
/// `(r, b)` using exactly the recursion from Section 4:
///
/// `n₀ = b`, `nᵢ = MIN[b, nᵢ₋₁ + (tᵢ − tᵢ₋₁)·r − pᵢ]`, conforming iff every
/// `nᵢ ≥ 0`.
pub fn sequence_conforms(packets: &[(SimTime, u64)], spec: TokenBucketSpec) -> bool {
    let mut n = spec.depth_bits;
    let mut last_t: Option<SimTime> = None;
    for &(t, p) in packets {
        let dt = match last_t {
            None => 0.0,
            Some(prev) => {
                assert!(t >= prev, "packet times must be non-decreasing");
                #[expect(
                    clippy::arithmetic_side_effects,
                    reason = "t ≥ prev, asserted just above"
                )]
                let dt = (t - prev).as_secs_f64();
                dt
            }
        };
        n = (n + dt * spec.rate_bps - p as f64).min(spec.depth_bits);
        if n < -1e-6 {
            return false;
        }
        last_t = Some(t);
    }
    true
}

/// Compute the minimal bucket depth `b(r)` (in bits) such that the recorded
/// packet sequence conforms to a token bucket of rate `r`.
///
/// This is the non-increasing function `b(r)` of Section 4 evaluated at one
/// rate; the Parekh–Gallager bound for a flow given clock rate `r` is then
/// `b(r)/r` plus per-hop packetization terms.
pub fn minimal_depth_for_rate(packets: &[(SimTime, u64)], rate_bps: f64) -> f64 {
    assert!(rate_bps > 0.0);
    // A sequence conforms to a token bucket (r, b) that starts full exactly
    // when the backlog of a fluid leaky bucket drained at rate r never
    // exceeds b.  So b(r) is the maximum of that virtual backlog:
    //   backlog_i = max(0, backlog_{i-1} - r·Δt) + p_i.
    let mut backlog: f64 = 0.0;
    let mut worst: f64 = 0.0;
    let mut last_t: Option<SimTime> = None;
    for &(t, p) in packets {
        if let Some(prev) = last_t {
            assert!(t >= prev, "packet times must be non-decreasing");
            #[expect(
                clippy::arithmetic_side_effects,
                reason = "t ≥ prev, asserted just above"
            )]
            let dt = (t - prev).as_secs_f64();
            backlog = (backlog - dt * rate_bps).max(0.0);
        }
        backlog += p as f64;
        if backlog > worst {
            worst = backlog;
        }
        last_t = Some(t);
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    const PKT: u64 = 1000;

    #[test]
    fn spec_constructors() {
        let s = TokenBucketSpec::per_packets(85.0, 50.0, PKT);
        assert_eq!(s.rate_bps, 85_000.0);
        assert_eq!(s.depth_bits, 50_000.0);
    }

    #[test]
    #[should_panic]
    fn zero_rate_spec_rejected() {
        let _ = TokenBucketSpec::new(0.0, 1.0);
    }

    #[test]
    fn reconfigure_carries_the_token_level_over() {
        // Drain a (85, 5-packet) bucket completely …
        let mut tb = TokenBucket::new(TokenBucketSpec::per_packets(85.0, 5.0, PKT));
        let t = SimTime::ZERO;
        for _ in 0..5 {
            assert!(tb.offer(t, PKT));
        }
        assert!(tb.level(t) < 1.0);
        // … then "renegotiate" to a much deeper profile: the level must
        // carry over, not snap to the new (full) depth.
        tb.reconfigure(t, TokenBucketSpec::per_packets(85.0, 50.0, PKT));
        assert!(tb.level(t) < 1.0, "no free burst from renegotiation");
        assert!(!tb.offer(t, PKT));
        // Shrinking clamps an over-full level down to the new depth.
        let mut tb = TokenBucket::new(TokenBucketSpec::per_packets(85.0, 50.0, PKT));
        tb.reconfigure(t, TokenBucketSpec::per_packets(85.0, 5.0, PKT));
        assert!((tb.level(t) - 5_000.0).abs() < 1e-9);
    }

    #[test]
    fn full_bucket_admits_burst_up_to_depth() {
        let mut tb = TokenBucket::new(TokenBucketSpec::per_packets(85.0, 5.0, PKT));
        let t = SimTime::ZERO;
        for _ in 0..5 {
            assert!(tb.offer(t, PKT));
        }
        assert!(!tb.offer(t, PKT));
    }

    #[test]
    fn tokens_refill_over_time() {
        let mut tb = TokenBucket::new(TokenBucketSpec::new(1000.0, 1000.0));
        assert!(tb.offer(SimTime::ZERO, 1000));
        assert!(!tb.offer(SimTime::ZERO, 1000));
        // After one second exactly one packet worth of tokens has refilled.
        assert!(tb.offer(SimTime::from_secs(1), 1000));
        assert!(!tb.conforms(SimTime::from_secs(1), 1));
    }

    #[test]
    fn refill_caps_at_depth() {
        let mut tb = TokenBucket::new(TokenBucketSpec::new(1000.0, 2000.0));
        // Wait a long time: level must not exceed depth.
        assert_eq!(tb.level(SimTime::from_secs(100)), 2000.0);
    }

    #[test]
    fn source_at_token_rate_always_conforms() {
        // A perfectly paced source at exactly the token rate never violates.
        let spec = TokenBucketSpec::per_packets(100.0, 1.0, PKT);
        let mut tb = TokenBucket::new(spec);
        let mut t = SimTime::ZERO;
        for _ in 0..1000 {
            assert!(tb.offer(t, PKT));
            t += SimTime::from_millis(10); // 100 packets/sec
        }
    }

    #[test]
    fn sequence_conformance_matches_paper_recursion() {
        let spec = TokenBucketSpec::new(1000.0, 2000.0);
        // Two packets back-to-back fit in the depth; a third does not.
        let ok = vec![(SimTime::ZERO, 1000u64), (SimTime::ZERO, 1000)];
        assert!(sequence_conforms(&ok, spec));
        let bad = vec![
            (SimTime::ZERO, 1000u64),
            (SimTime::ZERO, 1000),
            (SimTime::ZERO, 1000),
        ];
        assert!(!sequence_conforms(&bad, spec));
        // Spaced out at the token rate it conforms again.
        let spaced = vec![
            (SimTime::ZERO, 1000u64),
            (SimTime::ZERO, 1000),
            (SimTime::from_secs(1), 1000),
        ];
        assert!(sequence_conforms(&spaced, spec));
    }

    #[test]
    fn minimal_depth_of_constant_rate_stream_is_one_packet() {
        // 10 packets/sec stream policed at 10 pkt/s needs only one packet of
        // depth.
        let pkts: Vec<(SimTime, u64)> = (0..100)
            .map(|i| (SimTime::from_millis(100 * i), PKT))
            .collect();
        let b = minimal_depth_for_rate(&pkts, 10.0 * PKT as f64);
        assert!((b - PKT as f64).abs() < 1e-6, "b = {b}");
    }

    #[test]
    fn minimal_depth_of_burst_is_burst_size_minus_credit() {
        // 5 packets at t=0 against a slow rate needs ~5 packets of depth.
        let pkts: Vec<(SimTime, u64)> = (0..5).map(|_| (SimTime::ZERO, PKT)).collect();
        let b = minimal_depth_for_rate(&pkts, 1.0);
        assert!((b - 5.0 * PKT as f64).abs() < 1e-3);
    }

    #[test]
    fn minimal_depth_makes_sequence_conform() {
        // Whatever depth we compute, the sequence must conform to it.
        let pkts: Vec<(SimTime, u64)> = vec![
            (SimTime::ZERO, PKT),
            (SimTime::from_millis(1), PKT),
            (SimTime::from_millis(2), PKT),
            (SimTime::from_millis(500), PKT),
            (SimTime::from_millis(501), PKT),
        ];
        let rate = 2.0 * PKT as f64; // 2 packets/sec
        let b = minimal_depth_for_rate(&pkts, rate);
        assert!(sequence_conforms(
            &pkts,
            TokenBucketSpec::new(rate, b.max(1.0))
        ));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    const PKT: u64 = 1000;

    proptest! {
        /// Any packet stream accepted by the stateful policer, replayed as a
        /// sequence, conforms under the paper's recursion.
        #[test]
        fn policer_output_conforms(
            gaps in proptest::collection::vec(0u64..200_000_000, 1..200),
            rate_pkts in 1.0f64..500.0,
            depth_pkts in 1.0f64..60.0,
        ) {
            let spec = TokenBucketSpec::per_packets(rate_pkts, depth_pkts, PKT);
            let mut tb = TokenBucket::new(spec);
            let mut t = SimTime::ZERO;
            let mut accepted = Vec::new();
            for g in gaps {
                t += SimTime::from_nanos(g);
                if tb.offer(t, PKT) {
                    accepted.push((t, PKT));
                }
            }
            prop_assert!(sequence_conforms(&accepted, spec));
        }

        /// The minimal depth is monotone non-increasing in the rate.
        #[test]
        fn minimal_depth_non_increasing_in_rate(
            gaps in proptest::collection::vec(0u64..100_000_000, 1..100),
        ) {
            let mut t = SimTime::ZERO;
            let pkts: Vec<(SimTime, u64)> = gaps.iter().map(|&g| {
                t += SimTime::from_nanos(g);
                (t, PKT)
            }).collect();
            let slow = minimal_depth_for_rate(&pkts, 10_000.0);
            let fast = minimal_depth_for_rate(&pkts, 100_000.0);
            prop_assert!(fast <= slow + 1e-6);
        }

        /// The sequence always conforms to (r, minimal_depth_for_rate(r)).
        #[test]
        fn minimal_depth_is_sufficient(
            gaps in proptest::collection::vec(0u64..100_000_000, 1..100),
            rate in 1_000.0f64..1_000_000.0,
        ) {
            let mut t = SimTime::ZERO;
            let pkts: Vec<(SimTime, u64)> = gaps.iter().map(|&g| {
                t += SimTime::from_nanos(g);
                (t, PKT)
            }).collect();
            let b = minimal_depth_for_rate(&pkts, rate).max(1.0) + 1e-3;
            prop_assert!(sequence_conforms(&pkts, TokenBucketSpec::new(rate, b)));
        }
    }
}
