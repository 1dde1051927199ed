//! Adaptive versus rigid play-back points (Sections 2.3 and 12).
//!
//! "We conjecture that with predictive service and adaptive clients we can
//! achieve both higher link utilizations and superior application
//! performance (because the play-back points will be at the de facto
//! bounds, not the a priori worst-case bounds)."
//!
//! The experiment runs the Table-1 single-link scenario
//! (`table1::single_link`, ten flows) under FIFO+, takes the delivered
//! delay sequence of one flow, and feeds it to a rigid client (play-back
//! point fixed at the advertised a-priori bound) and to an adaptive client
//! (play-back point tracking a high quantile of recent delays).  The
//! comparison reports each client's effective latency — the average
//! play-back point — and its loss rate against that point.

use ispn_core::playback::{AdaptivePlayback, RigidPlayback};
use ispn_scenario::DisciplineSpec;
use ispn_sched::Averaging;
use ispn_sim::SimTime;

use crate::config::PaperConfig;
use crate::table1::{single_link, NUM_FLOWS};

/// Results of the comparison, in packet times / fractions.
#[derive(Debug, Clone)]
pub struct PlaybackComparison {
    /// The a-priori bound advertised to the rigid client.
    pub advertised_bound: f64,
    /// The rigid client's loss rate (should be ≈0 if the bound is honest).
    pub rigid_loss: f64,
    /// The rigid client's effective latency (equal to the bound).
    pub rigid_latency: f64,
    /// The adaptive client's loss rate.
    pub adaptive_loss: f64,
    /// The adaptive client's effective latency (mean play-back point).
    pub adaptive_latency: f64,
    /// Number of delay samples driving the comparison.
    pub samples: usize,
}

impl PlaybackComparison {
    /// The latency saving of adaptation, as a fraction of the advertised
    /// bound.
    pub fn latency_saving(&self) -> f64 {
        if self.rigid_latency <= 0.0 {
            0.0
        } else {
            1.0 - self.adaptive_latency / self.rigid_latency
        }
    }
}

/// The per-hop a-priori delay bound (in packet times) the network advertises
/// to the predicted class in this experiment.
pub const ADVERTISED_PER_HOP_PKT: f64 = 60.0;

/// Run the comparison.
pub fn run(cfg: &PaperConfig) -> PlaybackComparison {
    let fifo_plus = DisciplineSpec::FifoPlus(Averaging::RunningMean);
    let mut sim = single_link(cfg, fifo_plus, NUM_FLOWS);
    sim.run_until(cfg.duration);

    let pt = cfg.packet_time();
    let advertised = pt.mul_f64(ADVERTISED_PER_HOP_PKT);
    let mut rigid = RigidPlayback::new(advertised);
    let mut adaptive = AdaptivePlayback::new(advertised, 200, 0.999, 1.3);
    let sample = sim.flows()[0];
    let samples = sim.network().monitor().flow_delays(sample);
    for delay in samples.nanos().map(SimTime::from_nanos) {
        rigid.on_packet(delay);
        adaptive.on_packet(delay);
    }
    let pt_secs = pt.as_secs_f64();
    PlaybackComparison {
        advertised_bound: ADVERTISED_PER_HOP_PKT,
        rigid_loss: rigid.stats().loss_rate(),
        rigid_latency: rigid.stats().playback_point().mean() / pt_secs,
        adaptive_loss: adaptive.stats().loss_rate(),
        adaptive_latency: adaptive.stats().playback_point().mean() / pt_secs,
        samples: samples.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptation_buys_latency_at_small_loss() {
        let cfg = PaperConfig::fast();
        let c = run(&cfg);
        assert!(c.samples > 1000, "not enough samples ({})", c.samples);
        // The rigid client at the a-priori bound loses essentially nothing.
        assert!(c.rigid_loss < 0.002, "rigid loss {}", c.rigid_loss);
        assert!((c.rigid_latency - ADVERTISED_PER_HOP_PKT).abs() < 1e-6);
        // The adaptive client sits far below the bound with modest loss.
        assert!(
            c.adaptive_latency < 0.7 * c.rigid_latency,
            "adaptive latency {} vs rigid {}",
            c.adaptive_latency,
            c.rigid_latency
        );
        assert!(c.adaptive_loss < 0.02, "adaptive loss {}", c.adaptive_loss);
        assert!(c.latency_saving() > 0.3);
    }
}
