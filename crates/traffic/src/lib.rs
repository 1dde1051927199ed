//! # ispn-traffic — traffic sources
//!
//! The Appendix of CSZ'92 drives every real-time flow from the same source
//! model: a two-state Markov process that emits geometrically distributed
//! bursts (mean `B = 5` packets) at a peak rate `P`, separated by
//! exponentially distributed idle periods, with the average rate `A` given
//! by `1/A = I/B + 1/P` and `P = 2A`; each source is then policed by an
//! `(A, 50-packet)` token bucket that drops ≈2 % of its packets.
//! [`OnOffSource`] implements exactly that model as a network
//! [`Agent`](ispn_net::Agent).
//!
//! The crate also provides the simpler sources used by examples, extension
//! experiments and tests: constant-bit-rate ([`CbrSource`]), Poisson
//! ([`PoissonSource`]) and trace-replay ([`TraceSource`]) sources.  What a
//! source sent is read where it lands: the network's monitor counts every
//! submitted packet, and a packet's `seq` counts every one generated, so a
//! gap in the delivered `seq`s is a source-policer drop.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cbr;
pub mod onoff;
pub mod poisson;
pub mod trace;

pub use cbr::CbrSource;
pub use onoff::{OnOffConfig, OnOffSource};
pub use poisson::PoissonSource;
pub use trace::TraceSource;

#[cfg(test)]
mod testing {
    //! One source alone on one link, read back through the network: the
    //! monitor counts what the source submitted, and a sink agent keeps every
    //! packet that arrived (its `seq` counts every packet generated, so the
    //! gaps are the source policer's drops).

    use std::cell::RefCell;
    use std::rc::Rc;

    use ispn_core::{FlowId, Packet};
    use ispn_net::{Agent, AgentApi, Delivery, FlowConfig, FlowReport, Network, Topology};
    use ispn_sim::SimTime;

    /// Keeps every delivered packet, in arrival order.
    struct Sink(Rc<RefCell<Vec<Packet>>>);

    impl Agent for Sink {
        fn on_packet(&mut self, delivery: Delivery, _api: &mut AgentApi) {
            self.0.borrow_mut().push(delivery.packet);
        }
    }

    /// Run the source `source` builds for a fresh flow over one `rate_bps`
    /// link for `secs` seconds; returns the monitor's report of the flow and
    /// the packets its sink received.
    pub(crate) fn run_alone<A: Agent + 'static>(
        rate_bps: f64,
        secs: u64,
        source: impl FnOnce(FlowId) -> A,
    ) -> (FlowReport, Vec<Packet>) {
        let (topo, _nodes, links) = Topology::chain(2, rate_bps, SimTime::ZERO, 1000);
        let mut net = Network::new(topo);
        let received = Rc::default();
        let sink = net.add_agent(Box::new(Sink(Rc::clone(&received))));
        let flow = net.add_flow(FlowConfig {
            sink: Some(sink),
            ..FlowConfig::datagram(vec![links[0]])
        });
        net.add_agent(Box::new(source(flow)));
        net.run_until(SimTime::from_secs(secs));
        let report = net.monitor_mut().flow_report(flow);
        (report, received.take())
    }
}
