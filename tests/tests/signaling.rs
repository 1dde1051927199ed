//! Integration: dynamic flow signaling over the live data plane.
//!
//! These scenarios assemble the control plane the way a downstream user
//! would — `ispn-net` for the switches, `ispn-signal` for setup/teardown,
//! `ispn-traffic` for sources — and check the properties the churn
//! experiments rely on: reservations follow the signaling messages, a
//! refusal leaves no residue even while competing traffic is in flight,
//! and everything is a pure function of the seed.

use ispn_core::admission::{AdmissionConfig, AdmissionController};
use ispn_core::TokenBucketSpec;
use ispn_experiments::churn::{self, ChurnConfig};
use ispn_experiments::PaperConfig;
use ispn_integration_tests::{chain, LINK_RATE};
use ispn_net::{FlowConfig, Network, PoliceAction};
use ispn_sched::{Averaging, Unified};
use ispn_signal::{SignalEvent, Signaling};
use ispn_sim::SimTime;
use ispn_traffic::{OnOffConfig, OnOffSource};

fn admission_controlled_chain(switches: usize) -> (Network, Vec<ispn_net::LinkId>) {
    let (topo, links) = chain(switches);
    let mut net = Network::new(topo);
    for &l in &links {
        net.set_discipline(l, Unified::new(LINK_RATE, 2, Averaging::RunningMean));
        net.enable_admission(
            l,
            AdmissionController::new(
                AdmissionConfig::new(
                    LINK_RATE,
                    0.9,
                    vec![SimTime::from_millis(30), SimTime::from_millis(300)],
                ),
                10.0,
            ),
            SimTime::SECOND,
        );
    }
    (net, links)
}

/// A flow admitted by signaling carries traffic; after its teardown the
/// reservation is gone, the source is silent, and the link still serves
/// later arrivals.
#[test]
fn signalled_flow_lives_and_dies_with_its_reservation() {
    let (mut net, links) = admission_controlled_chain(3);
    let mut sig = Signaling::default();

    let (_req, flow) = sig.submit(&mut net, FlowConfig::guaranteed(links.clone(), 200_000.0));
    let events = sig.process_until(&mut net, SimTime::from_millis(100));
    assert!(matches!(events[0], SignalEvent::Accepted { .. }));

    let source = net.add_agent(Box::new(OnOffSource::new(
        flow,
        OnOffConfig::paper(85.0, 7),
    )));
    sig.process_until(&mut net, SimTime::from_secs(20));
    let mid_run = net.monitor_mut().flow_report(flow);
    assert!(mid_run.delivered > 1000, "{mid_run:?}");

    net.retire_agent(source);
    sig.teardown(&mut net, flow);
    let events = sig.process_until(&mut net, SimTime::from_secs(21));
    assert!(events
        .iter()
        .any(|e| matches!(e, SignalEvent::TornDown { .. })));
    for &l in &links {
        assert_eq!(net.admission(l).unwrap().reserved_guaranteed_bps(), 0.0);
    }

    // The source is quiet after teardown: nothing new is generated and at
    // most a handful of in-flight packets drain.
    let after_teardown = net.monitor_mut().flow_report(flow);
    sig.process_until(&mut net, SimTime::from_secs(30));
    let settled = net.monitor_mut().flow_report(flow);
    assert_eq!(settled.generated, after_teardown.generated);
    // A later arrival finds the freed capacity.
    let (_req, replacement) =
        sig.submit(&mut net, FlowConfig::guaranteed(links.clone(), 800_000.0));
    let events = sig.process_until(&mut net, SimTime::from_secs(31));
    assert!(
        matches!(events[..], [SignalEvent::Accepted { .. }]),
        "released capacity is reusable: {events:?}"
    );
    assert!(net.flow_active(replacement));
}

/// A refused setup must leave no reservation state anywhere, even when the
/// refusal happens deep in the path while admitted flows keep sending.
#[test]
fn rejections_under_live_traffic_leave_no_residue() {
    let (mut net, links) = admission_controlled_chain(4);
    let mut sig = Signaling::default();

    // Three admitted guaranteed flows load the middle link to 600 kbit/s.
    let mut admitted = Vec::new();
    for i in 0..3 {
        let (_r, f) = sig.submit(&mut net, FlowConfig::guaranteed(vec![links[1]], 200_000.0));
        admitted.push(f);
        net.add_agent(Box::new(OnOffSource::new(
            f,
            OnOffConfig::paper(85.0, 100 + i),
        )));
    }
    sig.process_until(&mut net, SimTime::from_secs(1));

    // A wide flow that fits links 0 and 2 but not link 1 is refused at
    // hop 1 and rolled back.
    let (_req, wide) = sig.submit(
        &mut net,
        FlowConfig::guaranteed(links[..3].to_vec(), 400_000.0),
    );
    let events = sig.process_until(&mut net, SimTime::from_secs(2));
    assert!(
        events
            .iter()
            .any(|e| matches!(e, SignalEvent::Rejected { hop: 1, .. })),
        "{events:?}"
    );
    assert!(!net.flow_active(wide));
    assert!(net.installed_links(wide).next().is_none());
    assert_eq!(
        net.admission(links[0]).unwrap().reserved_guaranteed_bps(),
        0.0
    );
    assert!((net.admission(links[1]).unwrap().reserved_guaranteed_bps() - 600_000.0).abs() < 1e-6);
    assert_eq!(
        net.admission(links[2]).unwrap().reserved_guaranteed_bps(),
        0.0
    );

    // The admitted flows were untouched by the failed setup.
    sig.process_until(&mut net, SimTime::from_secs(10));
    for &f in &admitted {
        assert!(net.monitor_mut().flow_report(f).delivered > 100);
    }
}

/// An adaptive predicted source renegotiates its declaration mid-flow; the
/// edge policer follows the agreed bucket.
#[test]
fn renegotiation_switches_the_edge_policer() {
    let (mut net, links) = admission_controlled_chain(2);
    let mut sig = Signaling::default();
    let small = TokenBucketSpec::per_packets(40.0, 10.0, 1000);
    let (_r, flow) = sig.submit(
        &mut net,
        FlowConfig::predicted(
            links.clone(),
            1,
            small,
            SimTime::from_millis(300),
            0.001,
            PoliceAction::Drop,
        ),
    );
    sig.process_until(&mut net, SimTime::from_secs(1));
    assert!(net.flow_active(flow));

    let roomy = TokenBucketSpec::per_packets(85.0, 50.0, 1000);
    sig.renegotiate_bucket(&mut net, flow, roomy).unwrap();
    let events = sig.process_until(&mut net, SimTime::from_secs(2));
    assert!(
        events
            .iter()
            .any(|e| matches!(e, SignalEvent::Renegotiated { .. })),
        "{events:?}"
    );
    assert_eq!(net.flow_config(flow).spec.bucket(), Some(roomy));
    assert_eq!(net.flow_config(flow).edge_policer.unwrap().0, roomy);

    // With the roomier profile the paper's source now fits through the
    // edge: run it and observe essentially loss-free policing.
    net.add_agent(Box::new(OnOffSource::new(
        flow,
        OnOffConfig::paper(85.0, 11),
    )));
    sig.process_until(&mut net, SimTime::from_secs(30));
    let report = net.monitor_mut().flow_report(flow);
    assert!(report.delivered > 1000, "{report:?}");
    assert_eq!(report.dropped_at_edge, 0, "{report:?}");
}

/// Two same-seed churn runs produce the identical accept/reject sequence
/// (the whole stack — arrivals, signaling, measurements, admissions — is a
/// pure function of the seed), and different seeds diverge.
#[test]
fn churn_accept_reject_sequence_is_deterministic_per_seed() {
    let cfg = ChurnConfig::new(PaperConfig::fast(), 1.0, 15.0);
    let a = churn::run(&cfg);
    let b = churn::run(&cfg);
    assert_eq!(a.decisions, b.decisions);
    assert_eq!(a.offered, b.offered);
    assert!((a.mean_utilization - b.mean_utilization).abs() < 1e-12);
    assert_eq!(a.residual_reserved_bps, 0.0);

    let mut other_seed = cfg.clone();
    other_seed.paper.seed ^= 0xDEAD_BEEF;
    let c = churn::run(&other_seed);
    assert_ne!(
        a.decisions, c.decisions,
        "different seeds should explore different churn"
    );
}
