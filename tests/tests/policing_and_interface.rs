//! Integration: the service interface and its enforcement (Section 8) —
//! token-bucket declarations, edge policing (drop and tag), and the
//! interaction between the source's own policer and the network's check.

use ispn_core::{Conformance, FlowSpec, ServiceClass, TokenBucketSpec};
use ispn_integration_tests::{chain, PACKET_BITS};
use ispn_net::{Agent, AgentApi, Delivery, FlowConfig, Network, PoliceAction};
use ispn_sim::SimTime;
use ispn_traffic::{CbrSource, OnOffConfig, OnOffSource, PoissonSource};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Sink keeping the highest sequence number delivered.
#[derive(Default)]
struct LastSeq(Rc<Cell<u64>>);

impl Agent for LastSeq {
    fn on_packet(&mut self, delivery: Delivery, _api: &mut AgentApi) {
        self.0.set(self.0.get().max(delivery.packet.seq));
    }
}

#[test]
fn self_policed_sources_pass_the_edge_check_untouched() {
    // The paper's sources drop non-conforming packets at the source, so the
    // network's own (identical) edge filter never fires.
    let (topo, links) = chain(2);
    let mut net = Network::new(topo);
    let last = LastSeq::default();
    let last_seq = Rc::clone(&last.0);
    let sink = net.add_agent(Box::new(last));
    let bucket = TokenBucketSpec::per_packets(85.0, 50.0, PACKET_BITS);
    let mut cfg = FlowConfig::predicted(
        vec![links[0]],
        0,
        bucket,
        SimTime::from_millis(100),
        0.001,
        PoliceAction::Drop,
    );
    cfg.sink = Some(sink);
    let flow = net.add_flow(cfg);
    net.add_agent(Box::new(OnOffSource::new(
        flow,
        OnOffConfig::paper(85.0, 9),
    )));
    net.run_until(SimTime::from_secs(60));
    let r = net.monitor_mut().flow_report(flow);
    // Every generated packet takes a sequence number, so the delivered
    // sequence has a gap for each packet the source policer dropped.
    assert!(
        last_seq.get() + 1 > r.delivered,
        "the source policer does work"
    );
    assert_eq!(r.dropped_at_edge, 0, "the edge never needs to drop");
    assert_eq!(r.delivered, r.generated);
}

#[test]
fn unpoliced_burst_is_cut_down_by_the_edge_filter() {
    // A source that ignores its declaration: a Poisson stream at twice the
    // declared rate.  The edge filter drops the excess, so what the network
    // carries conforms to the declaration.
    let (topo, links) = chain(2);
    let mut net = Network::new(topo);
    let declared = TokenBucketSpec::per_packets(100.0, 10.0, PACKET_BITS);
    let flow = net.add_flow(FlowConfig::predicted(
        vec![links[0]],
        0,
        declared,
        SimTime::from_millis(100),
        0.001,
        PoliceAction::Drop,
    ));
    net.add_agent(Box::new(PoissonSource::new(flow, 200.0, PACKET_BITS, 4)));
    let horizon = SimTime::from_secs(60);
    net.run_until(horizon);
    let r = net.monitor_mut().flow_report(flow);
    assert!(r.dropped_at_edge > 0);
    // The carried rate is within the declared 100 pkt/s (plus bucket slack).
    let carried = r.delivered as f64 / horizon.as_secs_f64();
    assert!(carried < 105.0, "carried {carried} pkt/s");
    assert!(carried > 80.0, "conforming packets still get through");
}

/// Sink recording conformance tags.
#[derive(Default)]
struct TagCounter {
    tagged: Rc<RefCell<(u64, u64)>>,
}

impl Agent for TagCounter {
    fn on_packet(&mut self, delivery: Delivery, _api: &mut AgentApi) {
        let mut c = self.tagged.borrow_mut();
        if delivery.packet.tag == Conformance::Tagged {
            c.1 += 1;
        } else {
            c.0 += 1;
        }
    }
}

#[test]
fn tagging_forwards_excess_traffic_but_marks_it() {
    let (topo, links) = chain(2);
    let mut net = Network::new(topo);
    let counter = TagCounter::default();
    let counts = counter.tagged.clone();
    let sink = net.add_agent(Box::new(counter));
    let declared = TokenBucketSpec::per_packets(100.0, 5.0, PACKET_BITS);
    let mut cfg = FlowConfig::predicted(
        vec![links[0]],
        0,
        declared,
        SimTime::from_millis(100),
        0.001,
        PoliceAction::Tag,
    );
    cfg.sink = Some(sink);
    let flow = net.add_flow(cfg);
    net.add_agent(Box::new(CbrSource::new(flow, 200.0, PACKET_BITS)));
    net.run_until(SimTime::from_secs(30));
    let (conforming, tagged) = *counts.borrow();
    let r = net.monitor_mut().flow_report(flow);
    assert_eq!(r.delivered, conforming + tagged, "tagging never drops");
    assert!(tagged > 0, "excess traffic gets marked");
    assert!(conforming > 0, "conforming traffic stays unmarked");
    // Roughly half the 200 pkt/s stream exceeds the declared 100 pkt/s.
    let ratio = tagged as f64 / (conforming + tagged) as f64;
    assert!((ratio - 0.5).abs() < 0.1, "tagged fraction {ratio}");
}

#[test]
fn flow_spec_accessors_reflect_registration() {
    let (topo, links) = chain(3);
    let mut net = Network::new(topo);
    let bucket = TokenBucketSpec::per_packets(85.0, 50.0, PACKET_BITS);
    let g = net.add_flow(FlowConfig::guaranteed(links.clone(), 170_000.0));
    let p = net.add_flow(FlowConfig::predicted(
        vec![links[0]],
        1,
        bucket,
        SimTime::from_millis(200),
        0.01,
        PoliceAction::Drop,
    ));
    let d = net.add_flow(FlowConfig::datagram(vec![links[1]]));
    assert_eq!(net.num_flows(), 3);
    assert_eq!(
        net.flow_config(g).spec,
        FlowSpec::Guaranteed {
            clock_rate_bps: 170_000.0
        }
    );
    assert_eq!(net.flow_config(g).class, ServiceClass::Guaranteed);
    assert_eq!(net.flow_config(p).spec.bucket(), Some(bucket));
    assert_eq!(
        net.flow_config(p).class,
        ServiceClass::Predicted { priority: 1 }
    );
    assert_eq!(net.flow_config(d).spec, FlowSpec::Datagram);
    // Fixed delay accounts for per-hop serialization along the route.
    assert_eq!(net.fixed_delay(g, PACKET_BITS), SimTime::from_millis(2));
    assert_eq!(net.fixed_delay(p, PACKET_BITS), SimTime::from_millis(1));
}
