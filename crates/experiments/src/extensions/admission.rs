//! Measurement-based admission control in a dynamic setting (Section 9).
//!
//! Predicted-service flows arrive one after another, each declaring the
//! `(A, 50-packet)` token bucket and asking for one of two priority classes
//! with widely spaced per-hop delay targets.  One run uses the Section-9
//! example criterion driven by measured utilization and per-class delays;
//! the control run accepts every request.  The controlled network should
//! keep every class below its target (and leave the datagram quota free)
//! while the uncontrolled one overloads the link and blows through the
//! bounds.

use ispn_core::admission::{AdmissionConfig, AdmissionController};
use ispn_core::{FlowSpec, ServiceClass, TokenBucketSpec};
use ispn_net::{FlowConfig, Network, Topology};
use ispn_sched::{Averaging, Unified};
use ispn_sim::SimTime;

use crate::config::PaperConfig;
use crate::support::attach_onoff;

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
    let (topo, _nodes, links) =
        Topology::chain(2, cfg.link_rate_bps, SimTime::ZERO, cfg.buffer_packets);
    let link = links[0];
    let mut net = Network::new(topo);
    // No guaranteed flow is ever installed, so this is flow 0 alone: two
    // FIFO+ priority classes above the datagram queue.
    net.set_discipline(
        link,
        Unified::new(cfg.link_rate_bps, 2, Averaging::RunningMean),
    );

    let pt = cfg.packet_time();
    let targets = vec![pt.mul_f64(HIGH_TARGET_PKT), pt.mul_f64(LOW_TARGET_PKT)];
    let mut controller = AdmissionController::new(
        AdmissionConfig::new(cfg.link_rate_bps, 0.9, targets.clone()),
        10.0,
    );

    let bucket = TokenBucketSpec::per_packets(cfg.avg_rate_pps, 50.0, cfg.packet_bits);
    // Spread the requests over the first half of the run so the second half
    // measures the steady state.
    let arrival_gap = cfg.duration.mul_f64(0.5 / offered_flows.max(1) as f64);
    let step = SimTime::SECOND;

    let mut admitted: Vec<(ispn_core::FlowId, u8)> = Vec::new();
    let mut accepted = 0;
    let mut rejected = 0;
    let mut next_arrival = SimTime::ZERO;
    let mut offered = 0usize;
    let mut now = SimTime::ZERO;
    let mut last_rt_bits = 0u64;

    while now < cfg.duration {
        // Offer new flows that are due.
        while offered < offered_flows && next_arrival <= now {
            let priority = (offered % 2) as u8;
            let accept = if controlled {
                controller
                    .request_predicted(now, bucket, priority)
                    .is_accept()
            } else {
                true
            };
            if accept {
                let flow = net.add_flow(FlowConfig {
                    route: vec![link],
                    spec: FlowSpec::predicted(bucket, targets[priority as usize], 0.001),
                    class: ServiceClass::Predicted { priority },
                    edge_policer: None,
                    sink: None,
                });
                attach_onoff(&mut net, flow, cfg, 1000 + offered as u32);
                admitted.push((flow, priority));
                accepted += 1;
            } else {
                rejected += 1;
            }
            offered += 1;
            next_arrival += arrival_gap;
        }

        now += step;
        net.run_until(now);

        // Feed the controller its conservative measurements: real-time
        // throughput over the last second and the per-class worst delays
        // observed so far.
        let rt_bits = net.monitor().link_realtime_bits_sent(link.index());
        let rt_bps = (rt_bits - last_rt_bits) as f64 / step.as_secs_f64();
        last_rt_bits = rt_bits;
        controller.observe_utilization(now, rt_bps);
        for &(flow, priority) in &admitted {
            let max = net.monitor_mut().flow_report(flow).max_delay;
            controller.observe_class_delay(now, priority, SimTime::from_secs_f64(max));
        }
    }

    let pt_secs = pt.as_secs_f64();
    let mut worst = [0.0f64; 2];
    let mut violations = 0;
    for &(flow, priority) in &admitted {
        let max = net.monitor_mut().flow_report(flow).max_delay / pt_secs;
        worst[priority as usize] = worst[priority as usize].max(max);
        let target = if priority == 0 {
            HIGH_TARGET_PKT
        } else {
            LOW_TARGET_PKT
        };
        if max > target {
            violations += 1;
        }
    }

    AdmissionOutcome {
        controlled,
        accepted,
        rejected,
        utilization: net.monitor().link_report(link.index()).utilization,
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
