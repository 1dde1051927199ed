//! Flow slots: registration, each slot's phase (whether the flow sends,
//! and the one control transaction it may have in flight), the in-flight
//! count a retired flow drains by, slot recycling, and a packet's two ends
//! — injection at its first switch and delivery past its last.

use ispn_core::{FlowId, FlowSpec, Packet, ServiceClass, TokenBucket, TokenBucketSpec};
use ispn_sched::QueueDiscipline;
use ispn_sim::SimTime;

use super::Network;
use crate::agent::{AgentId, Delivery};
use crate::topology::LinkId;
use crate::SinkError;

/// What to do with packets that fail the edge conformance check
/// (Section 8: "nonconforming packets are dropped or tagged").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoliceAction {
    /// Discard the packet at the first switch.
    Drop,
    /// Forward the packet but mark it [`Tagged`](ispn_core::Conformance::Tagged).
    Tag,
}

/// Static description of one flow offered to the network.
#[derive(Debug, Clone)]
pub struct FlowConfig {
    /// The sequence of links the flow traverses (must be a loop-free
    /// contiguous path).
    pub route: Vec<LinkId>,
    /// The service interface parameters the flow declared (Section 8).
    pub spec: FlowSpec,
    /// The scheduling class its packets receive at every switch.
    pub class: ServiceClass,
    /// Optional edge policer applied at the first switch.
    pub edge_policer: Option<(TokenBucketSpec, PoliceAction)>,
    /// Agent to notify when packets of this flow reach the destination.
    pub sink: Option<AgentId>,
}

impl FlowConfig {
    /// A datagram (best-effort) flow with no policing.
    pub fn datagram(route: Vec<LinkId>) -> Self {
        FlowConfig {
            route,
            spec: FlowSpec::Datagram,
            class: ServiceClass::Datagram,
            edge_policer: None,
            sink: None,
        }
    }

    /// A predicted-service flow at the given priority, policed at the edge.
    pub fn predicted(
        route: Vec<LinkId>,
        priority: u8,
        bucket: TokenBucketSpec,
        target_delay: SimTime,
        loss_rate: f64,
        action: PoliceAction,
    ) -> Self {
        FlowConfig {
            route,
            spec: FlowSpec::predicted(bucket, target_delay, loss_rate),
            class: ServiceClass::Predicted { priority },
            edge_policer: Some((bucket, action)),
            sink: None,
        }
    }

    /// A guaranteed-service flow with the given WFQ clock rate.  The network
    /// performs no conformance check on guaranteed flows (Section 8).
    pub fn guaranteed(route: Vec<LinkId>, clock_rate_bps: f64) -> Self {
        FlowConfig {
            route,
            spec: FlowSpec::guaranteed(clock_rate_bps),
            class: ServiceClass::Guaranteed,
            edge_policer: None,
            sink: None,
        }
    }

    /// Attach a sink agent.
    pub fn with_sink(mut self, sink: AgentId) -> Self {
        self.sink = Some(sink);
        self
    }
}

/// Identity of one signalling transaction: a flow's setup or one of its
/// renegotiations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub u64);

/// Where a flow slot stands: whether its flow sends, and the one control
/// transaction — a setup or a renegotiation — it has in flight, like
/// RSVP's one reservation state per session.  The signalling engine moves
/// a slot with [`Network::set_flow_phase`] up to `Retired`; the recycle
/// makes it `Vacant`.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowPhase {
    /// Registered ([`Network::add_flow_inactive`]), nothing in flight.
    Idle,
    /// Provisioned without signalling ([`Network::add_flow`]): sends.
    Static,
    /// This setup is admitting hop by hop.
    SettingUp(RequestId),
    /// This setup was refused past its first hop; its rollback releases
    /// the hops behind and retires the flow at the first.
    RollingBack(RequestId),
    /// Admitted on every hop: sends.
    Admitted,
    /// Admitted, with renegotiation `req` to the spec `to` in flight.
    Renegotiating {
        /// The renegotiation.
        req: RequestId,
        /// The flow's spec with the new bucket or clock rate.
        to: FlowSpec,
    },
    /// Torn down while this setup was in flight: the setup admits no
    /// further hop and its confirmation activates nothing.
    Withdrawn(RequestId),
    /// Withdrawn, and the release wave is done: the confirmation still
    /// on the last link retires the flow.
    Released(RequestId),
    /// A release wave is walking the route; the flow retires at its end.
    TearingDown,
    /// Reported by [`Network::take_drained_flows`] once its last packet
    /// has left; [`Network::recycle_flow_slot`] may then free it.
    Retired,
    /// Free, awaiting its next tenant.
    Vacant,
}

impl FlowPhase {
    /// Whether a flow in this phase may inject packets.
    fn sends(&self) -> bool {
        matches!(
            self,
            FlowPhase::Static | FlowPhase::Admitted | FlowPhase::Renegotiating { .. }
        )
    }
}

pub(super) struct FlowState {
    pub(super) config: FlowConfig,
    pub(super) policer: Option<TokenBucket>,
    /// Σ 1/rate over the route (seconds per bit of fixed serialization).
    secs_per_bit: f64,
    /// Σ propagation over the route.
    total_propagation: SimTime,
    /// The last `(size_bits, fixed_delay)` [`Network::deliver`] computed:
    /// a flow's packets are usually all one size, and the route and its
    /// rates never change, so the next delivery of that size reuses the
    /// delay.  `(0, total_propagation)` at registration, which is what
    /// [`Network::fixed_delay`] returns for zero bits.
    last_fixed: (u64, SimTime),
    phase: FlowPhase,
    /// Packets of this flow currently inside the network (injected but not
    /// yet delivered or dropped).  A retired flow's id may only be recycled
    /// when this reaches zero.
    in_flight: u32,
    /// Links where reservation state (admission and/or scheduler) has been
    /// installed for this flow and must be released on teardown, each with
    /// the guaranteed rate held there (0 for a predicted or datagram
    /// flow); only `admission.rs` changes it.
    pub(super) held: Vec<(LinkId, f64)>,
}

impl Network {
    /// Register a flow and return its id.  The flow is immediately active
    /// (static provisioning — no admission control is consulted); a rate
    /// it is to hold is reserved on each hop with
    /// [`renegotiate_on_link`](Network::renegotiate_on_link), as
    /// `ScenarioBuilder` does.
    ///
    /// # Panics
    /// Panics if the route is not a loop-free contiguous path in the
    /// topology ([`validate_route`](crate::Topology::validate_route)), or if
    /// the configured sink is not a live agent ([`SinkError`]).
    pub fn add_flow(&mut self, config: FlowConfig) -> FlowId {
        self.register_flow(config, FlowPhase::Static)
    }

    /// Register a flow [`Idle`](FlowPhase::Idle): packets injected for it
    /// are discarded (and counted) until it is admitted.  This is the first
    /// step of dynamic flow setup — the signaling layer allocates the
    /// identity, then installs per-hop reservations, then activates.
    pub fn add_flow_inactive(&mut self, config: FlowConfig) -> FlowId {
        self.register_flow(config, FlowPhase::Idle)
    }

    fn register_flow(&mut self, config: FlowConfig, phase: FlowPhase) -> FlowId {
        assert!(
            self.topo.validate_route(&config.route),
            "flow route is not a loop-free contiguous path"
        );
        let mut secs_per_bit = 0.0;
        let mut total_propagation = SimTime::ZERO;
        for link in &config.route {
            let params = self.topo.link(*link);
            secs_per_bit += 1.0 / params.rate_bps;
            #[expect(
                clippy::arithmetic_side_effects,
                reason = "`SimTime`'s `+` saturates at the end of time, by type"
            )]
            {
                total_propagation += params.propagation;
            }
        }
        if let Some(sink) = config.sink {
            self.hold_agent(sink).unwrap_or_else(|e| panic!("{e}"));
        }
        let policer = config.edge_policer.map(|(spec, _)| TokenBucket::new(spec));
        let state = FlowState {
            config,
            policer,
            secs_per_bit,
            total_propagation,
            last_fixed: (0, total_propagation),
            phase,
            in_flight: 0,
            held: Vec::new(),
        };
        let id = match self.free_flow_slots.pop() {
            Some(id) => {
                // The slot's ledger buffer outlives its tenant.
                let slot = &mut self.flows[id.index()];
                let old = std::mem::replace(slot, state);
                debug_assert!(old.phase == FlowPhase::Vacant && old.held.is_empty());
                slot.held = old.held;
                id
            }
            None => {
                let id = FlowId(self.flows.len() as u32);
                self.flows.push(state);
                id
            }
        };
        self.monitor.ensure_flows(self.flows.len());
        id
    }

    /// The configuration of a registered flow.
    pub fn flow_config(&self, flow: FlowId) -> &FlowConfig {
        &self.flows[flow.index()].config
    }

    /// Attach (or replace) the sink agent of a flow.
    ///
    /// Needed because flows and agents reference each other: transports
    /// create their flows first, then their endpoint agents, then wire the
    /// delivery callbacks up with this call.
    ///
    /// # Errors
    /// [`SinkError`] if `sink` was never added or has been retired; the
    /// flow keeps the sink it had.
    pub fn set_flow_sink(&mut self, flow: FlowId, sink: AgentId) -> Result<(), SinkError> {
        self.hold_agent(sink)?;
        if let Some(old) = self.flows[flow.index()].config.sink.replace(sink) {
            self.unhold_agent(old);
        }
        Ok(())
    }

    /// Number of registered flows.
    pub fn num_flows(&self) -> usize {
        self.flows.len()
    }

    /// Whether a flow is currently allowed to inject packets.
    pub fn flow_active(&self, flow: FlowId) -> bool {
        self.flows[flow.index()].phase.sends()
    }

    /// The phase of `flow`'s slot, or `None` for an id never minted.
    pub fn flow_phase(&self, flow: FlowId) -> Option<&FlowPhase> {
        self.flows.get(flow.index()).map(|f| &f.phase)
    }

    /// Move `flow`'s slot to `phase`, which decides whether the flow sends.
    /// Once a [`Retired`](FlowPhase::Retired) flow's last in-flight packet
    /// has left it is reported by
    /// [`take_drained_flows`](Network::take_drained_flows); the driver may
    /// then snapshot its statistics and call
    /// [`recycle_flow_slot`](Network::recycle_flow_slot), or never (the
    /// table then just grows).  Does nothing to an id never minted or a
    /// vacant slot, or when asked for `Vacant`.
    pub fn set_flow_phase(&mut self, flow: FlowId, phase: FlowPhase) {
        let Some(f) = self.flows.get_mut(flow.index()) else {
            return;
        };
        if f.phase != FlowPhase::Vacant && phase != FlowPhase::Vacant {
            f.phase = phase;
            self.note_if_drained(flow);
        }
    }

    /// Retired flows whose last in-flight packet has left the network since
    /// the previous call.  Each flow appears once per retirement.
    pub fn take_drained_flows(&mut self) -> Vec<FlowId> {
        std::mem::take(&mut self.drained)
    }

    /// Hand the buffer [`take_drained_flows`](Network::take_drained_flows)
    /// returned back once it has been gone through, so a driver that polls
    /// on every arrival does not make the network allocate a new one per
    /// retired flow.  Optional: a buffer that is not handed back is simply
    /// replaced.
    pub fn reuse_drained_buffer(&mut self, mut buffer: Vec<FlowId>) {
        if self.drained.capacity() == 0 {
            buffer.clear();
            self.drained = buffer;
        }
    }

    /// Packets of this flow currently inside the network.
    pub fn flow_in_flight(&self, flow: FlowId) -> u32 {
        self.flows[flow.index()].in_flight
    }

    /// Return a drained flow's id slot to the free list for reuse by a
    /// future [`add_flow`](Network::add_flow) /
    /// [`add_flow_inactive`](Network::add_flow_inactive).  The flow's monitor
    /// statistics are reset, so callers that need its final report must
    /// snapshot it first.  A no-op unless the flow is
    /// [`Retired`](FlowPhase::Retired) and drained, with no reservation
    /// installed: an id never minted, a slot already freed, and a flow
    /// that came back to life since it drained all keep their slot.
    pub fn recycle_flow_slot(&mut self, flow: FlowId) {
        let Some(f) = self.flows.get_mut(flow.index()) else {
            return;
        };
        if f.phase != FlowPhase::Retired || f.in_flight > 0 || !f.held.is_empty() {
            return;
        }
        f.phase = FlowPhase::Vacant;
        let sink = f.config.sink.take();
        self.monitor.reset_flow(flow);
        self.free_flow_slots.push(flow);
        // No longer a registered flow: it stops holding its sink's slot.
        if let Some(sink) = sink {
            self.unhold_agent(sink);
        }
    }

    /// One of `flow`'s packets left the network (delivered or dropped).
    pub(super) fn packet_died(&mut self, flow: FlowId) {
        let f = &mut self.flows[flow.index()];
        debug_assert!(f.in_flight > 0, "in-flight underflow for {flow}");
        f.in_flight = f.in_flight.saturating_sub(1);
        self.note_if_drained(flow);
    }

    /// Stage `flow` for the driver if it is retired and fully drained.
    fn note_if_drained(&mut self, flow: FlowId) {
        let f = &self.flows[flow.index()];
        if f.in_flight == 0 && matches!(f.phase, FlowPhase::Retired) {
            self.drained.push(flow);
        }
    }

    /// The fixed (non-queueing) delay a packet of `size_bits` experiences on
    /// this flow's route: serialization at every hop plus propagation.
    pub fn fixed_delay(&self, flow: FlowId, size_bits: u64) -> SimTime {
        let f = &self.flows[flow.index()];
        #[expect(
            clippy::arithmetic_side_effects,
            reason = "`SimTime`'s `+` saturates at the end of time, by type"
        )]
        let delay = SimTime::from_secs_f64(size_bits as f64 * f.secs_per_bit) + f.total_propagation;
        delay
    }

    /// Inject a packet directly (used by tests and by agent outboxes).  The
    /// packet enters the network at its flow's first switch at the current
    /// simulated time.
    pub fn inject(&mut self, packet: Packet) {
        assert!(
            (packet.flow.index()) < self.flows.len(),
            "packet for unregistered flow {}",
            packet.flow
        );
        if !self.flows[packet.flow.index()].phase.sends() {
            // The flow has no (or no longer any) reservation: its packets
            // never enter the network.  Tracked separately from loss so a
            // torn-down flow's delay statistics stay clean.
            self.monitor.record_inactive_drop(packet.flow, self.now);
            return;
        }
        self.monitor.record_generated(packet.flow, self.now);
        #[expect(
            clippy::arithmetic_side_effects,
            reason = "every packet in flight is in memory"
        )]
        {
            self.flows[packet.flow.index()].in_flight += 1;
        }
        debug_assert_eq!(packet.hop, 0, "injected packet already on its way");
        self.forward(packet);
    }

    pub(super) fn deliver(&mut self, packet: Packet) {
        let flow_idx = packet.flow.index();
        let total_delay = self.now.saturating_sub(packet.created_at);
        let bits = packet.size_bits;
        let fixed = match self.flows[flow_idx].last_fixed {
            (last, fixed) if last == bits => {
                debug_assert_eq!(fixed, self.fixed_delay(packet.flow, bits));
                fixed
            }
            _ => {
                let fixed = self.fixed_delay(packet.flow, bits);
                self.flows[flow_idx].last_fixed = (bits, fixed);
                fixed
            }
        };
        let queueing_delay = total_delay.saturating_sub(fixed);
        self.monitor
            .record_delivery(packet.flow, queueing_delay, self.now);
        self.packet_died(packet.flow);
        if let Some(sink) = self.flows[flow_idx].config.sink {
            let delivery = Delivery {
                packet,
                queueing_delay,
                total_delay,
            };
            self.dispatch(sink, |agent, api| agent.on_packet(delivery, api));
        }
    }

    /// Structural size of the flow table in bytes: the per-flow state
    /// records plus their route and installed-link storage, plus the
    /// per-flow state the schedulers hold on every port (lane tables,
    /// slot maps, every queue at its capacity).  A deterministic
    /// estimate (element counts × element sizes), not an allocator
    /// measurement — so two same-seed runs agree and growth is
    /// attributable to flow count, not allocator policy.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "counts and sizes of structures in memory"
    )]
    pub fn flow_table_bytes(&self) -> u64 {
        let mut bytes = self.flows.len() * std::mem::size_of::<FlowState>();
        for f in &self.flows {
            bytes += f.config.route.len() * std::mem::size_of::<LinkId>();
            bytes += f.held.len() * std::mem::size_of::<(LinkId, f64)>();
        }
        bytes as u64
            + self
                .ports
                .iter()
                .map(|p| p.discipline.state_bytes())
                .sum::<u64>()
    }

    /// Σ over flows of the packets injected but not yet delivered or
    /// dropped.
    pub(super) fn packets_in_flight(&self) -> u64 {
        self.flows.iter().map(|f| u64::from(f.in_flight)).sum()
    }
}

/// This file's tests.  `network.rs` expands them into its `tests` module,
/// which the suite lists every `Network` test under, beside the fixtures
/// they share.
#[cfg(test)]
macro_rules! tests {
    () => {
        #[test]
        fn single_packet_traverses_one_link_with_no_queueing() {
            let (mut net, link) = two_switch_net();
            let flow = net.add_flow(FlowConfig::datagram(vec![link]));
            let agent = ScheduledSender::new(flow, vec![SimTime::from_millis(10)]);
            net.add_agent(Box::new(agent));
            net.run_until(SimTime::from_secs(1));
            let report = net.monitor_mut().flow_report(flow);
            assert_eq!(report.generated, 1);
            assert_eq!(report.delivered, 1);
            // No competing traffic: queueing delay is zero; total = 1 ms tx.
            assert!(report.mean_delay < 1e-9);
            assert_eq!(net.fixed_delay(flow, PKT), SimTime::MILLISECOND);
        }

        #[test]
        fn back_to_back_packets_queue_behind_each_other() {
            let (mut net, link) = two_switch_net();
            let flow = net.add_flow(FlowConfig::datagram(vec![link]));
            // Three packets at the same instant: queueing delays 0, 1, 2 ms.
            let t = SimTime::from_millis(5);
            let agent = ScheduledSender::new(flow, vec![t, t, t]);
            net.add_agent(Box::new(agent));
            net.run_until(SimTime::from_secs(1));
            let report = net.monitor_mut().flow_report(flow);
            assert_eq!(report.delivered, 3);
            assert!(
                (report.mean_delay - 0.001).abs() < 1e-9,
                "{}",
                report.mean_delay
            );
            assert!((report.max_delay - 0.002).abs() < 1e-9);
        }

        #[test]
        fn queueing_delay_excludes_per_hop_transmission_on_long_paths() {
            // Three hops, no competition: queueing delay must be ~0 even though
            // total delay is 3 ms.
            let (topo, _nodes, links) = Topology::chain(4, MBIT, SimTime::ZERO, 200);
            let mut net = Network::new(topo);
            let flow = net.add_flow(FlowConfig::datagram(links.clone()));
            let agent = ScheduledSender::new(flow, vec![SimTime::from_millis(1)]);
            net.add_agent(Box::new(agent));
            net.run_until(SimTime::from_secs(1));
            let report = net.monitor_mut().flow_report(flow);
            assert_eq!(report.delivered, 1);
            assert!(report.mean_delay < 1e-9);
            assert_eq!(net.fixed_delay(flow, PKT), SimTime::from_millis(3));
        }

        #[test]
        fn propagation_delay_is_fixed_not_queueing() {
            let mut topo = Topology::new();
            let a = topo.add_node();
            let b = topo.add_node();
            let l = topo.add_link(a, b, MBIT, SimTime::from_millis(7), 200);
            let mut net = Network::new(topo);
            let flow = net.add_flow(FlowConfig::datagram(vec![l]));
            let agent = ScheduledSender::new(flow, vec![SimTime::ZERO]);
            net.add_agent(Box::new(agent));
            net.run_until(SimTime::from_secs(1));
            let report = net.monitor_mut().flow_report(flow);
            assert!(report.mean_delay < 1e-9);
            assert_eq!(net.fixed_delay(flow, PKT), SimTime::from_millis(8));
        }

        #[test]
        fn fixed_delay_over_links_that_never_deliver_is_the_end_of_time() {
            // Two hops of `SimTime::MAX` propagation: the route's sum
            // absorbs at the end of time instead of wrapping to 2 ms − 2 ns.
            let (topo, _nodes, links) = Topology::chain(3, MBIT, SimTime::MAX, 200);
            let mut net = Network::new(topo);
            let flow = net.add_flow(FlowConfig::datagram(links));
            assert_eq!(net.fixed_delay(flow, PKT), SimTime::MAX);
        }

        #[test]
        fn sink_agent_sees_correct_delay_decomposition() {
            let (mut net, link) = two_switch_net();
            let record = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
            let sink = net.add_agent(Box::new(RecordingSink {
                delivered: record.clone(),
            }));
            let flow = net.add_flow(FlowConfig::datagram(vec![link]).with_sink(sink));
            let t = SimTime::from_millis(5);
            let agent = ScheduledSender::new(flow, vec![t, t]);
            net.add_agent(Box::new(agent));
            net.run_until(SimTime::from_secs(1));
            let deliveries = record.borrow();
            assert_eq!(deliveries.len(), 2);
            assert_eq!(deliveries[0].total_delay, SimTime::MILLISECOND);
            assert_eq!(deliveries[0].queueing_delay, SimTime::ZERO);
            assert_eq!(deliveries[1].total_delay, SimTime::from_millis(2));
            assert_eq!(deliveries[1].queueing_delay, SimTime::MILLISECOND);
        }

        #[test]
        fn inactive_flow_injections_are_discarded_and_counted() {
            let (mut net, link) = two_switch_net();
            let flow = net.add_flow_inactive(FlowConfig::datagram(vec![link]));
            let t = SimTime::from_millis(1);
            net.add_agent(Box::new(ScheduledSender::new(flow, vec![t, t])));
            net.run_until(SimTime::from_millis(50));
            let r = net.monitor_mut().flow_report(flow);
            assert_eq!(r.generated, 0);
            assert_eq!(r.delivered, 0);
            assert_eq!(r.dropped_inactive, 2);
            // Activation opens the gate.
            net.set_flow_phase(flow, FlowPhase::Admitted);
            net.add_agent(Box::new(ScheduledSender::new(
                flow,
                vec![SimTime::from_millis(60)],
            )));
            net.run_until(SimTime::from_millis(100));
            let r = net.monitor_mut().flow_report(flow);
            assert_eq!(r.delivered, 1);
            assert_eq!(r.dropped_inactive, 2);
        }

        #[test]
        fn retired_flow_slot_is_recycled() {
            let (mut net, link) = two_switch_net();
            let flow = net.add_flow(FlowConfig::datagram(vec![link]));
            let t = SimTime::from_millis(1);
            net.add_agent(Box::new(ScheduledSender::new(flow, vec![t, t, t])));
            net.run_until(SimTime::from_millis(2));
            // Packets are still on the wire: retiring now must not report the
            // flow as drained yet.
            net.set_flow_phase(flow, FlowPhase::Retired);
            assert!(net.flow_in_flight(flow) > 0);
            assert!(net.take_drained_flows().is_empty());
            net.run_until(SimTime::from_millis(50));
            assert_eq!(net.flow_in_flight(flow), 0);
            assert_eq!(net.take_drained_flows(), vec![flow]);
            // Second take is empty (each drain reported once).
            assert!(net.take_drained_flows().is_empty());
            net.recycle_flow_slot(flow);
            // The next registration reuses the freed slot: the table stays flat
            // and the newcomer starts with clean statistics.
            let table = net.flow_table_bytes();
            let reused = net.add_flow(FlowConfig::datagram(vec![link]));
            assert_eq!(reused, flow);
            assert_eq!(net.num_flows(), 1);
            assert_eq!(net.flow_table_bytes(), table);
            let r = net.monitor_mut().flow_report(reused);
            assert_eq!(r.generated, 0);
            assert_eq!(r.delivered, 0);
        }

        #[test]
        fn revived_flow_is_not_recycled() {
            let (mut net, link) = two_switch_net();
            let flow = net.add_flow(FlowConfig::datagram(vec![link]));
            net.set_flow_phase(flow, FlowPhase::Retired);
            // The retire drains immediately (nothing in flight) …
            assert_eq!(net.take_drained_flows(), vec![flow]);
            // … but the flow is re-activated before the driver recycles it:
            // the safety valve keeps the slot live.
            net.set_flow_phase(flow, FlowPhase::Admitted);
            net.recycle_flow_slot(flow);
            let fresh = net.add_flow(FlowConfig::datagram(vec![link]));
            assert_ne!(fresh, flow, "live slot must not be handed out again");
        }

        #[test]
        #[should_panic]
        fn invalid_route_rejected() {
            let (topo, _nodes, links) = Topology::chain(4, MBIT, SimTime::ZERO, 200);
            let mut net = Network::new(topo);
            net.add_flow(FlowConfig::datagram(vec![links[0], links[2]]));
        }
    };
}
#[cfg(test)]
pub(super) use tests;
