//! Measurement-based admission control in a dynamic setting (Section 9).
//!
//! Predicted-service flows arrive one after another, each declaring the
//! `(A, 50-packet)` token bucket and asking for one of two priority classes
//! with widely spaced per-hop delay targets.  One run puts the link under
//! the Section-9 example criterion ([`AdmissionSpec::paper`]), which the
//! network itself feeds with measured utilization and per-class delays; the
//! control run declares no controller, so the link accepts every request.
//! The controlled network should keep every class below its target (and
//! leave the datagram quota free) while the uncontrolled one overloads the
//! link and blows through the bounds.
//!
//! Requests are scheduled actions calling [`Sim::submit`](ispn_scenario::Sim::submit);
//! an accepted flow gets its on/off source the instant its confirmation
//! lands.  Requests are offered on a one-second grid: request `i` at
//! `i × arrival_gap` rounded up to the whole second.

use ispn_core::{FlowId, FlowSpec, ServiceClass, TokenBucketSpec};
use ispn_net::{FlowConfig, LinkId};
use ispn_scenario::{AdmissionSpec, DisciplineSpec, ScenarioBuilder};
use ispn_sched::Averaging;
use ispn_signal::SignalEvent;
use ispn_sim::SimTime;
use ispn_traffic::{OnOffConfig, OnOffSource};

use crate::config::PaperConfig;
use crate::fig1::Fig1Network;

/// Per-hop target of the high-priority predicted class, in packet times.
pub const HIGH_TARGET_PKT: f64 = 30.0;
/// Per-hop target of the low-priority predicted class, in packet times.
pub const LOW_TARGET_PKT: f64 = 300.0;

/// Outcome of one run (controlled or uncontrolled).
#[derive(Debug, Clone)]
pub struct AdmissionOutcome {
    /// Whether the Section-9 criterion was applied.
    pub controlled: bool,
    /// Flows accepted.
    pub accepted: usize,
    /// Flows rejected.
    pub rejected: usize,
    /// Final link utilization.
    pub utilization: f64,
    /// Worst measured queueing delay of any high-priority flow (packet times).
    pub worst_high_delay: f64,
    /// Worst measured queueing delay of any low-priority flow (packet times).
    pub worst_low_delay: f64,
    /// Number of admitted flows whose measured maximum delay exceeded their
    /// class target.
    pub violations: usize,
}

/// The dynamic-arrival experiment.
pub fn run(cfg: &PaperConfig, controlled: bool, offered_flows: usize) -> AdmissionOutcome {
    let pt = cfg.packet_time();
    let targets_pkt = [HIGH_TARGET_PKT, LOW_TARGET_PKT];
    let targets = targets_pkt.map(|t| pt.mul_f64(t));
    // No guaranteed flow is ever installed: two FIFO+ priority classes
    // above the datagram queue.
    let mut builder = ScenarioBuilder::chain(2)
        .link_profile(Fig1Network::link_profile(cfg))
        .discipline(DisciplineSpec::Unified {
            priority_classes: 2,
            averaging: Averaging::RunningMean,
        });
    if controlled {
        builder = builder.admission(AdmissionSpec::paper(targets.to_vec()));
    }
    let mut sim = builder.build().expect("the admission scenario is valid");

    let bucket = TokenBucketSpec::per_packets(cfg.avg_rate_pps, 50.0, cfg.packet_bits);
    // Spread the requests over the first half of the run so the second half
    // measures the steady state.
    let arrival_gap = cfg.duration.mul_f64(0.5 / offered_flows.max(1) as f64);
    for i in 0..offered_flows {
        let priority = (i % 2) as u8;
        let config = FlowConfig {
            route: vec![LinkId(0)],
            spec: FlowSpec::predicted(bucket, targets[i % 2], 0.001),
            class: ServiceClass::Predicted { priority },
            edge_policer: None,
            sink: None,
        };
        let due = arrival_gap.saturating_mul(i as u64).as_nanos();
        let at = SimTime::from_secs(due.div_ceil(SimTime::SECOND.as_nanos()));
        sim.schedule_at(at, move |sim| {
            // No declared flows and no recycled ids: request `i` is flow `i`,
            // which is how the handler and the tally below find its class
            // and seed.
            let (_, flow) = sim.submit(config);
            debug_assert_eq!(flow.index(), i);
        });
    }
    let source_cfg = cfg.clone();
    sim.on_signal(move |event, sim| {
        if let SignalEvent::Accepted { flow, .. } = *event {
            let seed = source_cfg.flow_seed(1000 + flow.index() as u32);
            let config = OnOffConfig::paper(source_cfg.avg_rate_pps, seed);
            sim.network_mut()
                .add_agent(Box::new(OnOffSource::new(flow, config)));
        }
    });
    sim.run_until(cfg.duration);

    let decisions = sim.signaling().decisions();
    let offered = decisions.len();
    let accepted = decisions.filter(|&(_, accepted)| accepted).count();
    let rejected = offered - accepted;
    let (mut violations, mut worst) = (0, [0.0f64; 2]);
    let net = sim.network_mut();
    for flow in (0..offered_flows as u32).map(FlowId) {
        if !net.flow_active(flow) {
            continue;
        }
        let class = flow.index() % 2;
        let max = net.monitor_mut().flow_report(flow).max_delay / pt.as_secs_f64();
        worst[class] = worst[class].max(max);
        violations += usize::from(max > targets_pkt[class]);
    }

    AdmissionOutcome {
        controlled,
        accepted,
        rejected,
        utilization: net.monitor().link_report(0).utilization,
        worst_high_delay: worst[0],
        worst_low_delay: worst[1],
        violations,
    }
}

/// Run both the controlled and the uncontrolled variant.
pub fn run_comparison(
    cfg: &PaperConfig,
    offered_flows: usize,
) -> (AdmissionOutcome, AdmissionOutcome) {
    (
        run(cfg, true, offered_flows),
        run(cfg, false, offered_flows),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_control_protects_the_delay_targets() {
        let cfg = PaperConfig::medium();
        // Offer twice as many flows as the link can carry within the
        // real-time quota.
        let (controlled, uncontrolled) = run_comparison(&cfg, 20);
        assert!(controlled.controlled);
        assert!(!uncontrolled.controlled);

        // The controller turned some flows away; accepting everything did not.
        assert!(controlled.rejected > 0, "{controlled:?}");
        assert_eq!(uncontrolled.rejected, 0);
        assert!(controlled.accepted < uncontrolled.accepted);

        // The uncontrolled run carries more load than the controlled one
        // (the utilization is averaged over the whole run including the
        // arrival ramp, so it does not reach 100 % even though the second
        // half of the run is saturated).
        assert!(
            uncontrolled.utilization > controlled.utilization + 0.03,
            "uncontrolled {uncontrolled:?} vs controlled {controlled:?}"
        );
        // The controlled run keeps real utilization near or under the 90 %
        // quota.
        assert!(controlled.utilization < 0.93, "{controlled:?}");

        // Delay damage: the uncontrolled run is dramatically worse for the
        // low-priority class.
        assert!(
            uncontrolled.worst_low_delay > 2.0 * controlled.worst_low_delay,
            "uncontrolled {uncontrolled:?} vs controlled {controlled:?}"
        );
        // And the controlled run keeps violations rare (the criterion is a
        // heuristic, so allow a stray one in a short run).
        assert!(controlled.violations <= 1, "{controlled:?}");
        assert!(
            uncontrolled.violations > controlled.violations,
            "{uncontrolled:?}"
        );
    }
}
