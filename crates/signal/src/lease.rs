//! Tying a traffic source's lifetime to its reservation.
//!
//! Sources in `ispn-traffic` run forever: every timer callback schedules
//! the next one.  In a churn scenario a flow's reservation is torn down
//! while its source agent still owns pending timers; [`LeasedSource`] wraps
//! any agent and, once its [`Lease`] is revoked, stops forwarding timer
//! callbacks — so no further packets are generated and no further timers
//! are scheduled (the agent goes quiet after at most one already-pending
//! timer fires).
//!
//! A lease keeps the agent: its state stays inspectable and its slot stays
//! occupied.  A driver that is done with a source altogether — the churn
//! workload, thousands of times a run — retires it instead
//! ([`Network::retire_agent`](ispn_net::Network::retire_agent)), which
//! drops the agent and recycles its slot.

use std::cell::Cell;
use std::rc::Rc;

use ispn_net::{Agent, AgentApi, Delivery};

/// A revocable handle controlling a [`LeasedSource`].
#[derive(Debug, Clone)]
pub struct Lease {
    alive: Rc<Cell<bool>>,
}

impl Lease {
    /// Stop the leased agent: its future timer callbacks become no-ops.
    pub fn revoke(&self) {
        self.alive.set(false);
    }

    /// Whether the lease is still in force.
    pub fn is_active(&self) -> bool {
        self.alive.get()
    }
}

/// An agent wrapper whose timer-driven activity stops when its lease is
/// revoked.  Packet deliveries and setup outcomes still reach the inner
/// agent (a receiver may keep accounting for packets already in flight).
pub struct LeasedSource<A> {
    inner: A,
    alive: Rc<Cell<bool>>,
}

impl<A> LeasedSource<A> {
    /// Wrap `inner`, returning the wrapper and the controlling lease.
    pub fn new(inner: A) -> (Self, Lease) {
        let alive = Rc::new(Cell::new(true));
        let lease = Lease {
            alive: alive.clone(),
        };
        (LeasedSource { inner, alive }, lease)
    }

    /// The wrapped agent.
    pub fn inner(&self) -> &A {
        &self.inner
    }
}

impl<A: Agent> Agent for LeasedSource<A> {
    fn start(&mut self, api: &mut AgentApi) {
        if self.alive.get() {
            self.inner.start(api);
        }
    }

    fn on_timer(&mut self, token: u64, api: &mut AgentApi) {
        if self.alive.get() {
            self.inner.on_timer(token, api);
        }
    }

    fn on_packet(&mut self, delivery: Delivery, api: &mut AgentApi) {
        self.inner.on_packet(delivery, api);
    }

    fn on_setup(
        &mut self,
        token: u64,
        result: Result<ispn_core::FlowId, ispn_net::SetupError>,
        api: &mut AgentApi,
    ) {
        self.inner.on_setup(token, result, api);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ispn_sim::SimTime;

    /// Counts its timer callbacks and always re-arms.
    #[derive(Default)]
    struct Ticker {
        fired: u64,
    }

    impl Agent for Ticker {
        fn start(&mut self, api: &mut AgentApi) {
            api.set_timer(SimTime::MILLISECOND, 0);
        }
        fn on_timer(&mut self, _token: u64, api: &mut AgentApi) {
            self.fired += 1;
            api.set_timer(SimTime::MILLISECOND, 0);
        }
    }

    #[test]
    fn revoked_lease_stops_timers() {
        let (mut leased, lease) = LeasedSource::new(Ticker::default());
        assert!(lease.is_active());
        let mut api = AgentApi::new(SimTime::ZERO);
        leased.start(&mut api);
        leased.on_timer(0, &mut api);
        assert_eq!(leased.inner().fired, 1);
        lease.revoke();
        assert!(!lease.is_active());
        leased.on_timer(0, &mut api);
        leased.on_timer(0, &mut api);
        assert_eq!(
            leased.inner().fired,
            1,
            "timers after revocation are no-ops"
        );
    }
}
