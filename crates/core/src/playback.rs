//! Play-back applications (Section 2).
//!
//! The paper's taxonomy of real-time clients rests on the *play-back point*:
//! a receiver buffers arriving packets and replays the signal at a fixed
//! offset from generation time; packets that arrive after the play-back
//! point are useless.
//!
//! * A **rigid** application sets the play-back point once, from the a-priori
//!   delay bound advertised by the network, and never moves it.
//! * An **adaptive** application measures the delays its packets actually
//!   receive and moves the play-back point to "the minimal delay that still
//!   produces a sufficiently low loss rate", gambling that the recent past
//!   predicts the near future.
//!
//! These types are the client side of the architecture: the extension
//! experiments use them to test the paper's central conjecture that
//! predicted service plus adaptive clients yields both higher utilization
//! and lower play-back delay than guaranteed service with rigid clients.

use std::collections::VecDeque;

use ispn_sim::SimTime;
use ispn_stats::StreamingStats;

/// Outcome of offering one received packet to a play-back buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlaybackOutcome {
    /// The packet arrived before its play-back point and can be played.
    Played,
    /// The packet arrived after its play-back point and is useless.
    Late,
}

/// Statistics common to both application kinds.
#[derive(Debug, Clone, Default)]
pub struct PlaybackStats {
    played: u64,
    late: u64,
    delay: StreamingStats,
    playback_point: StreamingStats,
}

impl PlaybackStats {
    /// Packets that made their play-back point.
    pub fn played(&self) -> u64 {
        self.played
    }

    /// Packets that missed their play-back point.
    pub fn late(&self) -> u64 {
        self.late
    }

    /// Fraction of packets that missed the play-back point.
    pub fn loss_rate(&self) -> f64 {
        let total = self.played + self.late;
        if total == 0 {
            0.0
        } else {
            self.late as f64 / total as f64
        }
    }

    /// Statistics of the network delay experienced by received packets.
    pub fn delay(&self) -> &StreamingStats {
        &self.delay
    }

    /// Statistics of the play-back point in force when each packet arrived
    /// (constant for a rigid application; varies for an adaptive one).
    /// The mean of this series is the application's effective latency.
    pub fn playback_point(&self) -> &StreamingStats {
        &self.playback_point
    }

    fn record(&mut self, delay: SimTime, point: SimTime) -> PlaybackOutcome {
        self.delay.record(delay.as_secs_f64());
        self.playback_point.record(point.as_secs_f64());
        if delay <= point {
            self.played += 1;
            PlaybackOutcome::Played
        } else {
            self.late += 1;
            PlaybackOutcome::Late
        }
    }
}

/// A rigid play-back application: the play-back point is fixed at the
/// network's advertised a-priori bound.
#[derive(Debug, Clone)]
pub struct RigidPlayback {
    point: SimTime,
    stats: PlaybackStats,
}

impl RigidPlayback {
    /// Create an application whose play-back point is `advertised_bound`.
    pub fn new(advertised_bound: SimTime) -> Self {
        RigidPlayback {
            point: advertised_bound,
            stats: PlaybackStats::default(),
        }
    }

    /// The fixed play-back point.
    pub fn playback_point(&self) -> SimTime {
        self.point
    }

    /// Offer a packet that experienced `delay` end-to-end.
    pub fn on_packet(&mut self, delay: SimTime) -> PlaybackOutcome {
        self.stats.record(delay, self.point)
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &PlaybackStats {
        &self.stats
    }
}

/// An adaptive play-back application.
///
/// The receiver keeps a sliding window of the most recent packet delays and
/// sets the play-back point to the `target_quantile` of that window times a
/// small safety `margin`.  This mirrors how VAT-style audio tools adapt:
/// they track recent delay and aim to lose no more than a small fraction of
/// packets.
#[derive(Debug, Clone)]
pub struct AdaptivePlayback {
    window: VecDeque<SimTime>,
    window_len: usize,
    target_quantile: f64,
    margin: f64,
    /// The play-back point currently in force.
    current_point: SimTime,
    stats: PlaybackStats,
    readjustments: u64,
}

impl AdaptivePlayback {
    /// Create an adaptive application.
    ///
    /// * `initial_point` — play-back point before any delay has been
    ///   measured (a sensible choice is the advertised bound, as a rigid
    ///   client would use),
    /// * `window_len` — number of recent packets the estimate looks at,
    /// * `target_quantile` — the delay quantile the client aims to cover
    ///   (e.g. 0.99 to tolerate ≈1 % loss),
    /// * `margin` — multiplicative safety factor applied to the quantile.
    pub fn new(
        initial_point: SimTime,
        window_len: usize,
        target_quantile: f64,
        margin: f64,
    ) -> Self {
        assert!(window_len >= 2, "adaptation needs at least two samples");
        assert!((0.0..=1.0).contains(&target_quantile));
        assert!(margin >= 1.0, "margin below 1 would be anti-conservative");
        AdaptivePlayback {
            window: VecDeque::with_capacity(window_len),
            window_len,
            target_quantile,
            margin,
            current_point: initial_point,
            stats: PlaybackStats::default(),
            readjustments: 0,
        }
    }

    /// The play-back point currently in force.
    pub fn playback_point(&self) -> SimTime {
        self.current_point
    }

    /// Number of times the play-back point has been re-computed.
    pub fn readjustments(&self) -> u64 {
        self.readjustments
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &PlaybackStats {
        &self.stats
    }

    /// Offer a packet that experienced `delay` end-to-end.  The packet is
    /// judged against the play-back point that was in force *before* this
    /// packet's delay is folded into the estimate (the client cannot see the
    /// future).
    pub fn on_packet(&mut self, delay: SimTime) -> PlaybackOutcome {
        let outcome = self.stats.record(delay, self.current_point);
        self.window.push_back(delay);
        if self.window.len() > self.window_len {
            self.window.pop_front();
        }
        self.recompute();
        outcome
    }

    fn recompute(&mut self) {
        if self.window.len() < 2 {
            return;
        }
        let mut delays: Vec<SimTime> = self.window.iter().copied().collect();
        delays.sort_unstable();
        let pos = (self.target_quantile * (delays.len() - 1) as f64).round() as usize;
        let q = delays[pos.min(delays.len() - 1)];
        // One packet time floors the point, so it cannot collapse to zero
        // during an idle period.
        let new_point = q.mul_f64(self.margin).max(SimTime::MILLISECOND);
        if new_point != self.current_point {
            self.readjustments += 1;
            self.current_point = new_point;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rigid_counts_late_packets() {
        let mut app = RigidPlayback::new(SimTime::from_millis(100));
        assert_eq!(
            app.on_packet(SimTime::from_millis(50)),
            PlaybackOutcome::Played
        );
        assert_eq!(
            app.on_packet(SimTime::from_millis(100)),
            PlaybackOutcome::Played
        );
        assert_eq!(
            app.on_packet(SimTime::from_millis(150)),
            PlaybackOutcome::Late
        );
        assert_eq!(app.stats().played(), 2);
        assert_eq!(app.stats().late(), 1);
        assert!((app.stats().loss_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(app.playback_point(), SimTime::from_millis(100));
        // The play-back point series is constant.
        assert_eq!(app.stats().playback_point().sample_variance(), 0.0);
    }

    #[test]
    fn adaptive_tracks_delays_downward() {
        // Start with a very conservative point (as a rigid client would),
        // then observe consistently small delays: the point must come down.
        let mut app = AdaptivePlayback::new(SimTime::from_millis(500), 20, 0.95, 1.1);
        for _ in 0..100 {
            app.on_packet(SimTime::from_millis(10));
        }
        assert!(app.playback_point() <= SimTime::from_millis(12));
        assert!(app.playback_point() >= SimTime::MILLISECOND);
        assert_eq!(app.stats().late(), 0);
        assert!(app.readjustments() >= 1);
        // Effective latency (mean play-back point) far below the rigid 500ms.
        assert!(app.stats().playback_point().mean() < 0.2);
    }

    #[test]
    fn adaptive_reacts_to_delay_increase_with_transient_loss() {
        let mut app = AdaptivePlayback::new(SimTime::from_millis(15), 20, 0.95, 1.05);
        for _ in 0..50 {
            app.on_packet(SimTime::from_millis(10));
        }
        let low_point = app.playback_point();
        // Network conditions change: delays triple.  The first packets miss
        // the (still low) play-back point, then the client re-adjusts.
        let mut late = 0;
        for _ in 0..50 {
            if app.on_packet(SimTime::from_millis(30)) == PlaybackOutcome::Late {
                late += 1;
            }
        }
        assert!(late > 0, "the gamble must cost something during the change");
        assert!(app.playback_point() > low_point);
        // And afterwards the losses stop.
        let before = app.stats().late();
        for _ in 0..20 {
            app.on_packet(SimTime::from_millis(30));
        }
        assert_eq!(app.stats().late(), before);
    }

    #[test]
    fn adaptive_respects_floor() {
        let mut app = AdaptivePlayback::new(SimTime::from_millis(100), 5, 0.9, 1.0);
        for _ in 0..50 {
            app.on_packet(SimTime::from_micros(100));
        }
        assert_eq!(app.playback_point(), SimTime::MILLISECOND);
    }

    #[test]
    fn adaptive_beats_rigid_on_latency_at_similar_loss() {
        // The architectural claim of Section 2.3 in miniature: with delays
        // that are usually small but occasionally spike, the adaptive client
        // achieves a much earlier play-back point than the rigid client that
        // sits at the a-priori bound.
        let advertised = SimTime::from_millis(200);
        let mut rigid = RigidPlayback::new(advertised);
        let mut adaptive = AdaptivePlayback::new(advertised, 50, 0.99, 1.2);
        for i in 0..2000u32 {
            let delay = if i % 97 == 0 {
                SimTime::from_millis(40)
            } else {
                SimTime::from_millis(8 + (i % 5) as u64)
            };
            rigid.on_packet(delay);
            adaptive.on_packet(delay);
        }
        assert_eq!(rigid.stats().loss_rate(), 0.0);
        assert!(adaptive.stats().loss_rate() < 0.02);
        assert!(
            adaptive.stats().playback_point().mean() < 0.5 * rigid.stats().playback_point().mean(),
            "adaptive point {} vs rigid {}",
            adaptive.stats().playback_point().mean(),
            rigid.stats().playback_point().mean()
        );
    }

    #[test]
    #[should_panic]
    fn tiny_window_rejected() {
        let _ = AdaptivePlayback::new(SimTime::ZERO, 1, 0.9, 1.0);
    }

    #[test]
    #[should_panic]
    fn anti_conservative_margin_rejected() {
        let _ = AdaptivePlayback::new(SimTime::ZERO, 10, 0.9, 0.5);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = PlaybackStats::default();
        assert_eq!(s.loss_rate(), 0.0);
        assert_eq!(s.played(), 0);
        assert_eq!(s.late(), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The adaptive play-back point never falls below the floor and
        /// never exceeds margin × (max delay in window), whatever the delay
        /// pattern.
        #[test]
        fn adaptive_point_bounded(delays_ms in proptest::collection::vec(1u64..500, 2..200)) {
            let mut app = AdaptivePlayback::new(SimTime::from_millis(1000), 30, 0.99, 1.5);
            let mut max_seen = SimTime::ZERO;
            for &d in &delays_ms {
                let d = SimTime::from_millis(d);
                max_seen = max_seen.max(d);
                app.on_packet(d);
                prop_assert!(app.playback_point() >= SimTime::MILLISECOND);
                prop_assert!(app.playback_point() <= max_seen.mul_f64(1.5).max(SimTime::from_millis(1000)));
            }
            // played + late accounts for every packet
            prop_assert_eq!(app.stats().played() + app.stats().late(), delays_ms.len() as u64);
        }
    }
}
