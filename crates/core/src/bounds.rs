//! Worst-case delay bounds for guaranteed service (Section 4).
//!
//! Parekh and Gallager's result: in a network of arbitrary topology, if a
//! flow is given the same WFQ clock rate `r` at every switch and the clock
//! rates at every switch sum to no more than the link speed, then the
//! flow's queueing delay is bounded by `b(r)/r`, where `b(r)` is the token
//! bucket depth of the flow's traffic at rate `r` — "the queueing delays
//! are no worse than if the entire network were replaced by a single link
//! with a speed equal to the flow's clock rate".
//!
//! The packetized (PGPS) version adds per-hop packetization terms.  The
//! bound the paper quotes in Table 3 is the fluid bound plus the
//! `(K−1)·L/r` store-and-forward term for the maximum-size packet, which for
//! the evaluation's parameters evaluates to 23.53 / 11.76 / 611.76 / 588.24
//! packet-times for the four sample flows; [`pg_queueing_bound`] reproduces
//! exactly those numbers (see the tests).

use ispn_sim::SimTime;

use crate::token_bucket::TokenBucketSpec;

/// The Parekh–Gallager bound on end-to-end *queueing* delay for a flow that
/// conforms to `bucket` and receives clock rate `clock_rate_bps` at each of
/// `hops` switches, with maximum packet size `max_packet_bits`.
///
/// `bound = b/r + (K − 1)·L/r`
///
/// This is the quantity the paper's Table 3 lists in its "P-G bound" column
/// (it excludes the fixed per-hop transmission time `L/Cₖ`, which the
/// paper's delay measurements also exclude).
pub fn pg_queueing_bound(
    bucket: TokenBucketSpec,
    clock_rate_bps: f64,
    hops: usize,
    max_packet_bits: u64,
) -> SimTime {
    assert!(clock_rate_bps > 0.0, "clock rate must be positive");
    assert!(hops >= 1, "a path has at least one hop");
    let b_over_r = bucket.depth_bits / clock_rate_bps;
    let per_hop = max_packet_bits as f64 / clock_rate_bps;
    SimTime::from_secs_f64(b_over_r + (hops as f64 - 1.0) * per_hop)
}

/// The full packetized PGPS bound including the per-hop transmission terms
/// `Σₖ L/Cₖ`: an upper bound on total delay (queueing plus store-and-forward
/// transmission) excluding propagation.
pub fn pg_total_bound(
    bucket: TokenBucketSpec,
    clock_rate_bps: f64,
    link_rates_bps: &[f64],
    max_packet_bits: u64,
) -> SimTime {
    assert!(!link_rates_bps.is_empty(), "a path has at least one link");
    let queueing = pg_queueing_bound(
        bucket,
        clock_rate_bps,
        link_rates_bps.len(),
        max_packet_bits,
    );
    let mut tx = 0.0;
    for &c in link_rates_bps {
        assert!(c > 0.0, "link rates must be positive");
        tx += max_packet_bits as f64 / c;
    }
    queueing + SimTime::from_secs_f64(tx)
}

#[cfg(test)]
mod tests {
    use super::*;

    const PKT: u64 = 1000;
    const LINK: f64 = 1_000_000.0;

    /// Express a SimTime in the paper's packet-transmission-time unit (1 ms).
    fn in_packet_times(t: SimTime) -> f64 {
        t.as_millis_f64()
    }

    #[test]
    fn reproduces_table3_pg_bounds() {
        // Guaranteed-Peak flows: clock rate = peak rate = 170 pkt/s, and at
        // that rate the on/off source never backs up more than one packet,
        // so b(r) = 1 packet.
        let peak_bucket = TokenBucketSpec::per_packets(170.0, 1.0, PKT);
        let peak_rate = 170.0 * PKT as f64;
        let b4 = pg_queueing_bound(peak_bucket, peak_rate, 4, PKT);
        let b2 = pg_queueing_bound(peak_bucket, peak_rate, 2, PKT);
        assert!(
            (in_packet_times(b4) - 23.53).abs() < 0.01,
            "{}",
            in_packet_times(b4)
        );
        assert!(
            (in_packet_times(b2) - 11.76).abs() < 0.01,
            "{}",
            in_packet_times(b2)
        );

        // Guaranteed-Average flows: clock rate = average rate = 85 pkt/s,
        // token bucket depth = 50 packets (the Appendix's (A, 50) filter).
        let avg_bucket = TokenBucketSpec::per_packets(85.0, 50.0, PKT);
        let avg_rate = 85.0 * PKT as f64;
        let b3 = pg_queueing_bound(avg_bucket, avg_rate, 3, PKT);
        let b1 = pg_queueing_bound(avg_bucket, avg_rate, 1, PKT);
        assert!(
            (in_packet_times(b3) - 611.76).abs() < 0.05,
            "{}",
            in_packet_times(b3)
        );
        assert!(
            (in_packet_times(b1) - 588.24).abs() < 0.05,
            "{}",
            in_packet_times(b1)
        );
    }

    #[test]
    fn total_bound_adds_transmission_times() {
        let bucket = TokenBucketSpec::per_packets(85.0, 50.0, PKT);
        let rate = 85.0 * PKT as f64;
        let q = pg_queueing_bound(bucket, rate, 3, PKT);
        let t = pg_total_bound(bucket, rate, &[LINK, LINK, LINK], PKT);
        assert_eq!(t, q + SimTime::from_millis(3));
    }

    #[test]
    fn fluid_bound_is_b_over_r() {
        // One hop leaves only the fluid term b/r: 50 000 bits at 10 kb/s.
        let bucket = TokenBucketSpec::new(10_000.0, 50_000.0);
        assert_eq!(
            pg_queueing_bound(bucket, 10_000.0, 1, PKT),
            SimTime::from_secs(5)
        );
    }

    #[test]
    fn single_hop_bound_equals_fluid_bound() {
        // Whatever the packet size: the store-and-forward term needs a
        // second hop.
        let bucket = TokenBucketSpec::new(10_000.0, 50_000.0);
        assert_eq!(
            pg_queueing_bound(bucket, 10_000.0, 1, 1),
            pg_queueing_bound(bucket, 10_000.0, 1, 12_000)
        );
    }

    #[test]
    fn bound_decreases_with_rate_and_increases_with_hops() {
        let bucket = TokenBucketSpec::new(10_000.0, 50_000.0);
        let slow = pg_queueing_bound(bucket, 10_000.0, 2, PKT);
        let fast = pg_queueing_bound(bucket, 100_000.0, 2, PKT);
        assert!(fast < slow);
        let short = pg_queueing_bound(bucket, 10_000.0, 1, PKT);
        let long = pg_queueing_bound(bucket, 10_000.0, 5, PKT);
        assert!(long > short);
    }

    #[test]
    #[should_panic]
    fn zero_hops_rejected() {
        let _ = pg_queueing_bound(TokenBucketSpec::new(1.0, 1.0), 1.0, 0, PKT);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The bound is monotone: more hops or a deeper bucket never shrink
        /// it; a faster clock never grows it.
        #[test]
        fn monotonicity(
            depth in 1_000.0f64..1_000_000.0,
            rate in 1_000.0f64..1_000_000.0,
            hops in 1usize..10,
        ) {
            let b = TokenBucketSpec::new(rate, depth);
            let base = pg_queueing_bound(b, rate, hops, 1000);
            let deeper = pg_queueing_bound(TokenBucketSpec::new(rate, depth * 2.0), rate, hops, 1000);
            let farther = pg_queueing_bound(b, rate, hops + 1, 1000);
            let faster = pg_queueing_bound(b, rate * 2.0, hops, 1000);
            prop_assert!(deeper >= base);
            prop_assert!(farther >= base);
            prop_assert!(faster <= base);
        }
    }
}
