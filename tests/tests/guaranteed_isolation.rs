//! Integration: the guaranteed-service commitment end to end.
//!
//! The Parekh–Gallager bound must hold "independent of the other flows'
//! characteristics; they can be arbitrarily badly behaved and the bound
//! still applies" (Section 4).  We give one flow a reservation across a
//! multi-hop path, let a deliberately misbehaving source flood every link,
//! and check the measured worst-case delay against the advertised bound.

use ispn_core::bounds::pg_queueing_bound;
use ispn_core::{FlowId, FlowSpec, ServiceClass, TokenBucketSpec};
use ispn_integration_tests::{chain, LINK_RATE, PACKET_BITS};
use ispn_net::{FlowConfig, Network};
use ispn_sched::{Averaging, Unified};
use ispn_sim::SimTime;
use ispn_traffic::{CbrSource, PoissonSource, TraceSource};

const DURATION: SimTime = SimTime::from_secs(30);

/// Reserve a guaranteed flow's declared rate on every link of its route,
/// through the network's reservation ledger.
fn reserve(net: &mut Network, flow: FlowId) {
    let config = net.flow_config(flow).clone();
    for link in config.route {
        let decision = net.renegotiate_on_link(flow, link, &config.spec);
        assert!(
            decision.is_accept(),
            "{flow} refused on {link:?}: {decision:?}"
        );
    }
}

/// A CBR flow reserved at twice its rate, crossing `hops` flooded links,
/// never exceeds its P-G bound.
fn check_isolation_over(hops: usize) {
    let (topo, links) = chain(hops + 1);
    let mut net = Network::new(topo);

    let cbr_rate_pps = 100.0;
    let clock_rate = 2.0 * cbr_rate_pps * PACKET_BITS as f64;
    let route: Vec<_> = links.clone();
    let protected = net.add_flow(FlowConfig::guaranteed(route, clock_rate));

    // Flood every link with an unpoliced Poisson source: together with the
    // protected flow each link is offered ~95 % of its capacity, none of it
    // declared to the network.  (A flood that persistently exceeds the link
    // rate would eventually fill the shared 200-packet drop-tail buffer and
    // hit every class; buffer partitioning is outside the paper's design, so
    // the isolation claim is about scheduling, not about buffer overflow.)
    let mut floods = Vec::new();
    for &l in &links {
        floods.push(net.add_flow(FlowConfig::datagram(vec![l])));
    }
    for &l in &links {
        net.set_discipline(l, Unified::new(LINK_RATE, 1, Averaging::RunningMean));
    }
    reserve(&mut net, protected);
    net.add_agent(Box::new(CbrSource::new(
        protected,
        cbr_rate_pps,
        PACKET_BITS,
    )));
    for (i, &f) in floods.iter().enumerate() {
        net.add_agent(Box::new(PoissonSource::new(
            f,
            850.0,
            PACKET_BITS,
            99 + i as u64,
        )));
    }

    net.run_until(DURATION);

    // b(r) for a CBR source clocked at twice its rate is one packet.
    let bound = pg_queueing_bound(
        TokenBucketSpec::new(clock_rate, PACKET_BITS as f64),
        clock_rate,
        hops,
        PACKET_BITS,
    );
    let r = net.monitor_mut().flow_report(protected);
    assert!(
        r.delivered > 2000,
        "protected flow delivered {}",
        r.delivered
    );
    assert_eq!(r.dropped_buffer, 0, "a reserved flow must not be dropped");
    assert!(
        r.max_delay <= bound.as_secs_f64() + 1e-6,
        "{hops}-hop max delay {:.4}s exceeds P-G bound {:.4}s",
        r.max_delay,
        bound.as_secs_f64()
    );
    // The flood really did load the links heavily.
    for i in 0..hops {
        let lr = net.monitor().link_report(i);
        assert!(
            lr.utilization > 0.90,
            "link {i} utilization {}",
            lr.utilization
        );
    }
}

#[test]
fn guaranteed_bound_holds_over_one_flooded_hop() {
    check_isolation_over(1);
}

#[test]
fn guaranteed_bound_holds_over_three_flooded_hops() {
    check_isolation_over(3);
}

#[test]
fn without_a_reservation_the_same_flow_suffers() {
    // Control experiment: the identical CBR flow, same flood, but carried as
    // datagram traffic under FIFO — its delay blows far past what the
    // reservation achieved, demonstrating that the bound above is earned by
    // isolation rather than by luck.
    let (topo, links) = chain(2);
    let mut net = Network::new(topo);
    let victim = net.add_flow(FlowConfig::datagram(vec![links[0]]));
    let flood = net.add_flow(FlowConfig::datagram(vec![links[0]]));
    net.add_agent(Box::new(CbrSource::new(victim, 100.0, PACKET_BITS)));
    net.add_agent(Box::new(PoissonSource::new(flood, 950.0, PACKET_BITS, 5)));
    net.run_until(DURATION);
    let r = net.monitor_mut().flow_report(victim);
    // With a reservation the 1-hop bound would be 2 packet times (10 ms at
    // the reserved rate); without one the victim sees queueing one to two
    // orders of magnitude larger.
    assert!(
        r.max_delay > 0.05,
        "expected heavy queueing without isolation, saw {:.4}s",
        r.max_delay
    );
}

#[test]
fn guaranteed_flows_share_between_themselves_by_clock_rate() {
    // Two guaranteed flows with 2:1 clock rates each dump a 90-packet burst
    // at the same instant.  While both are backlogged, WFQ serves them in
    // proportion to their clock rates, so the high-rate flow finishes its
    // burst (and accumulates delay) much earlier than the low-rate flow.
    let (topo, links) = chain(2);
    let mut net = Network::new(topo);
    let fast = net.add_flow(FlowConfig::guaranteed(vec![links[0]], 600_000.0));
    let slow = net.add_flow(FlowConfig::guaranteed(vec![links[0]], 300_000.0));
    net.set_discipline(links[0], Unified::new(LINK_RATE, 1, Averaging::RunningMean));
    reserve(&mut net, fast);
    reserve(&mut net, slow);
    let schedule: Vec<(SimTime, u64)> = (0..90u64)
        .map(|i| (SimTime::from_nanos(10 * i), PACKET_BITS))
        .collect();
    net.add_agent(Box::new(TraceSource::new(fast, schedule.clone())));
    net.add_agent(Box::new(TraceSource::new(slow, schedule)));
    net.run_until(SimTime::from_secs(5));
    let rf = net.monitor_mut().flow_report(fast);
    let rs = net.monitor_mut().flow_report(slow);
    // No losses: 180 packets fit comfortably in the 200-packet buffer.
    assert_eq!(rf.delivered, 90);
    assert_eq!(rs.delivered, 90);
    // The fast flow's burst drains roughly twice as quickly, so its worst
    // and mean queueing delays are clearly smaller.
    assert!(
        rf.max_delay < 0.75 * rs.max_delay,
        "fast max {:.3}s vs slow max {:.3}s",
        rf.max_delay,
        rs.max_delay
    );
    assert!(rf.mean_delay < rs.mean_delay);
}

#[test]
fn predicted_class_does_not_destroy_guaranteed_service_class_isolation() {
    // Mixing classes: a guaranteed flow, a predicted flow and datagram
    // traffic all on one unified link; every packet of every flow is
    // delivered (no buffer pressure at this load) and classes are ordered
    // by design: guaranteed protected, predicted ahead of datagram.
    let (topo, links) = chain(2);
    let mut net = Network::new(topo);
    let g = net.add_flow(FlowConfig::guaranteed(vec![links[0]], 200_000.0));
    let p = net.add_flow(FlowConfig {
        route: vec![links[0]],
        spec: FlowSpec::Datagram,
        class: ServiceClass::Predicted { priority: 0 },
        edge_policer: None,
        sink: None,
    });
    let d = net.add_flow(FlowConfig::datagram(vec![links[0]]));
    net.set_discipline(links[0], Unified::new(LINK_RATE, 1, Averaging::RunningMean));
    reserve(&mut net, g);
    net.add_agent(Box::new(CbrSource::new(g, 150.0, PACKET_BITS)));
    net.add_agent(Box::new(CbrSource::new(p, 300.0, PACKET_BITS)));
    net.add_agent(Box::new(PoissonSource::new(d, 400.0, PACKET_BITS, 3)));
    net.run_until(SimTime::from_secs(20));
    for f in [g, p] {
        let r = net.monitor_mut().flow_report(f);
        assert_eq!(r.dropped_buffer, 0, "flow {f:?} lost packets");
        // A handful of packets may still be queued when the horizon cuts the
        // run off; everything else must have been delivered.
        assert!(r.delivered + 5 >= r.generated, "flow {f:?}: {r:?}");
    }
    let rg = net.monitor_mut().flow_report(g);
    let rp = net.monitor_mut().flow_report(p);
    let rd = net.monitor_mut().flow_report(d);
    // The guaranteed CBR flow (clocked at 200 pkt/s, i.e. above its 150
    // pkt/s rate) keeps its single-hop P-G bound of one packet time at the
    // clock rate (5 ms), whatever the other classes do.
    assert!(
        rg.max_delay <= 0.005 + 1e-9,
        "guaranteed max {}",
        rg.max_delay
    );
    // Within flow 0, the predicted class is served ahead of datagram traffic.
    assert!(rp.mean_delay <= rd.mean_delay);
}
