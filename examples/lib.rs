//! Shared helpers for the runnable examples.
//!
//! The examples exercise the public API of the ISPN crates the way a
//! downstream application would, declaring their runs through
//! `ispn_scenario::ScenarioBuilder` (directly, or through an
//! `ispn-experiments` study).  `adaptive_voice` is the one low-level
//! example: it wires `Network` by hand because it registers a custom sink
//! agent — the [`PlaybackSink`] below, which feeds delivered packets into a
//! play-back application — and a scenario declaration has no sink agents.
//! The sink is also a useful template for integrating your own receivers.

use std::cell::RefCell;
use std::rc::Rc;

use ispn_core::playback::{AdaptivePlayback, PlaybackStats, RigidPlayback};
use ispn_net::{Agent, AgentApi, Delivery};
use ispn_sim::SimTime;

/// Which play-back strategy a [`PlaybackSink`] uses.
pub enum PlaybackKind {
    /// Fixed play-back point at the advertised bound.
    Rigid(RigidPlayback),
    /// Play-back point adapting to measured delays.
    Adaptive(AdaptivePlayback),
}

/// A network sink agent that drives a play-back application from delivered
/// packets' end-to-end delays.
pub struct PlaybackSink {
    app: Rc<RefCell<PlaybackKind>>,
}

impl PlaybackSink {
    /// A rigid sink with the given play-back point.
    pub fn rigid(playback_point: SimTime) -> Self {
        PlaybackSink {
            app: Rc::new(RefCell::new(PlaybackKind::Rigid(RigidPlayback::new(
                playback_point,
            )))),
        }
    }

    /// An adaptive sink starting from the given play-back point.
    pub fn adaptive(initial_point: SimTime) -> Self {
        PlaybackSink {
            app: Rc::new(RefCell::new(PlaybackKind::Adaptive(AdaptivePlayback::new(
                initial_point,
                200,
                0.99,
                1.2,
            )))),
        }
    }

    /// A shared handle to the underlying application (keep a clone before
    /// registering the sink with the network).
    pub fn handle(&self) -> Rc<RefCell<PlaybackKind>> {
        self.app.clone()
    }
}

impl PlaybackKind {
    /// The accumulated play-back statistics.
    pub fn stats(&self) -> &PlaybackStats {
        match self {
            PlaybackKind::Rigid(r) => r.stats(),
            PlaybackKind::Adaptive(a) => a.stats(),
        }
    }

    /// The play-back point currently in force.
    pub fn playback_point(&self) -> SimTime {
        match self {
            PlaybackKind::Rigid(r) => r.playback_point(),
            PlaybackKind::Adaptive(a) => a.playback_point(),
        }
    }
}

impl Agent for PlaybackSink {
    fn on_packet(&mut self, delivery: Delivery, _api: &mut AgentApi) {
        // Play-back applications care about the total delivery delay (the
        // signal must be reconstructed relative to generation time).
        let delay = delivery.total_delay;
        match &mut *self.app.borrow_mut() {
            PlaybackKind::Rigid(r) => {
                r.on_packet(delay);
            }
            PlaybackKind::Adaptive(a) => {
                a.on_packet(delay);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ispn_core::{FlowId, Packet};

    fn delivery(delay_ms: u64) -> Delivery {
        Delivery {
            packet: Packet::data(FlowId(0), 0, 1000, SimTime::ZERO),
            queueing_delay: SimTime::from_millis(delay_ms.saturating_sub(1)),
            total_delay: SimTime::from_millis(delay_ms),
        }
    }

    #[test]
    fn rigid_sink_counts_late_packets() {
        let mut sink = PlaybackSink::rigid(SimTime::from_millis(10));
        let handle = sink.handle();
        let mut api = AgentApi::new(SimTime::ZERO);
        sink.on_packet(delivery(5), &mut api);
        sink.on_packet(delivery(50), &mut api);
        let app = handle.borrow();
        assert_eq!(app.stats().played(), 1);
        assert_eq!(app.stats().late(), 1);
        assert_eq!(app.playback_point(), SimTime::from_millis(10));
    }

    #[test]
    fn adaptive_sink_moves_its_point() {
        let mut sink = PlaybackSink::adaptive(SimTime::from_millis(500));
        let handle = sink.handle();
        let mut api = AgentApi::new(SimTime::ZERO);
        for _ in 0..300 {
            sink.on_packet(delivery(8), &mut api);
        }
        let app = handle.borrow();
        assert!(app.playback_point() < SimTime::from_millis(20));
        assert_eq!(app.stats().late(), 0);
    }
}
