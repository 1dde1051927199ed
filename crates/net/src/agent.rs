//! Endpoint agents: the things that produce and consume packets.
//!
//! Traffic sources (`ispn-traffic`), the simplified TCP endpoints
//! (`ispn-transport`) and play-back receivers all attach to the network as
//! *agents*.  The network calls an agent when the simulation starts, when
//! the agent's timer fires, and when a packet addressed to one of the
//! agent's flows is delivered; the agent responds by queueing outbound
//! packets and arming its one timer on the [`AgentApi`], which the network
//! applies after the call returns (a command pattern — agents never hold a
//! mutable reference to the network, which keeps re-entrancy impossible by
//! construction).  Packets and the timer are all an agent can ask for:
//! flows are set up and torn down by the control plane (`ispn-signal`), and
//! a source ends when its driver calls `Network::retire_agent`.

use ispn_core::Packet;
use ispn_sim::SimTime;

/// Identifier of an agent registered with a network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AgentId(pub usize);

/// A packet delivered to its destination, together with the delay
/// decomposition the monitor computed for it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Delivery {
    /// The delivered packet.
    pub packet: Packet,
    /// End-to-end queueing (waiting) delay: total delay minus the fixed
    /// transmission and propagation components along the route.
    pub queueing_delay: SimTime,
    /// Total delay from generation to delivery.
    pub total_delay: SimTime,
}

/// The command buffer an agent fills during a callback.
///
/// The network drains the outbox in place and takes the timer when the
/// callback returns, and keeps the emptied buffer for the next callback, so
/// a warmed-up run dispatches agents without allocating.
#[derive(Debug, Default)]
pub struct AgentApi {
    pub(crate) now: SimTime,
    pub(crate) outbox: Vec<Packet>,
    /// `(delay, token)` of the last [`set_timer`](AgentApi::set_timer).
    pub(crate) timer: Option<(SimTime, u64)>,
}

impl AgentApi {
    /// Create an API snapshot for a callback occurring at `now`.
    ///
    /// Public so downstream crates can unit-test their own agents by calling
    /// the trait methods directly; inside a simulation the network creates
    /// these for every callback.
    pub fn new(now: SimTime) -> Self {
        AgentApi {
            now,
            outbox: Vec::new(),
            timer: None,
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Send a packet.  The packet's flow must be registered with the
    /// network; it is injected at the flow's first switch when the callback
    /// returns.
    pub fn send(&mut self, packet: Packet) {
        self.outbox.push(packet);
    }

    /// Arrange for [`Agent::on_timer`] to be called `delay` from now with
    /// the given token.
    ///
    /// An agent has one timer.  Arming it while it is pending — from an
    /// earlier callback, or earlier in this one — moves it: the previous
    /// deadline and token are forgotten and only the new ones fire.
    pub fn set_timer(&mut self, delay: SimTime, token: u64) {
        self.timer = Some((delay, token));
    }

    /// Number of packets queued for sending in this callback (used by
    /// tests).
    pub fn pending_sends(&self) -> usize {
        self.outbox.len()
    }
}

/// An endpoint attached to the network.
pub trait Agent {
    /// Called once, at simulated time zero, before any events run.
    fn start(&mut self, api: &mut AgentApi) {
        let _ = api;
    }

    /// Called when the agent's timer fires: once per deadline that was not
    /// replaced by a later [`AgentApi::set_timer`], with the token of the
    /// arming that set it.
    fn on_timer(&mut self, token: u64, api: &mut AgentApi) {
        let _ = (token, api);
    }

    /// Called when a packet belonging to a flow whose sink is this agent is
    /// delivered at its destination.
    fn on_packet(&mut self, delivery: Delivery, api: &mut AgentApi) {
        let _ = (delivery, api);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ispn_core::FlowId;

    #[test]
    fn api_collects_commands() {
        let mut api = AgentApi::new(SimTime::from_millis(5));
        assert_eq!(api.now(), SimTime::from_millis(5));
        api.send(Packet::data(FlowId(1), 0, 1000, api.now()));
        api.set_timer(SimTime::from_millis(10), 42);
        assert_eq!(api.pending_sends(), 1);
        assert_eq!(api.outbox.len(), 1);
        assert_eq!(api.timer, Some((SimTime::from_millis(10), 42)));
        // A second arming replaces the first.
        api.set_timer(SimTime::from_millis(3), 43);
        assert_eq!(api.timer, Some((SimTime::from_millis(3), 43)));
        // The clock, one `Vec` header and the timer: what a callback is
        // handed.
        assert_eq!(std::mem::size_of::<AgentApi>(), 56);
    }

    #[test]
    fn default_trait_methods_are_no_ops() {
        struct Lazy;
        impl Agent for Lazy {}
        let mut l = Lazy;
        let mut api = AgentApi::new(SimTime::ZERO);
        l.start(&mut api);
        l.on_timer(0, &mut api);
        l.on_packet(
            Delivery {
                packet: Packet::data(FlowId(0), 0, 1000, SimTime::ZERO),
                queueing_delay: SimTime::ZERO,
                total_delay: SimTime::MILLISECOND,
            },
            &mut api,
        );
        assert_eq!(api.pending_sends(), 0);
    }
}
