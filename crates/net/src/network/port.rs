//! Output ports: each link's queueing discipline, its wire and the work of
//! the link timeline — forwarding a packet onto a link, putting the head of
//! its queue on the wire and completing the transmission.

use std::collections::VecDeque;

use ispn_core::{Conformance, Packet, ServiceClass};
use ispn_sched::{class_bucket, Discipline, ProbeStats, QueueDiscipline, SchedContext};
use ispn_sim::time::transmission_time;
use ispn_sim::SimTime;

use super::admission::AdmissionState;
use super::{NetEvent, Network, PoliceAction};
use crate::topology::LinkId;

pub(super) struct Port {
    /// What events name this port's link by (checked in [`Network::new`]).
    pub(super) id: u32,
    pub(super) discipline: Discipline,
    /// What has passed through `discipline` (see [`Network::link_probe`]).
    pub(super) probe: ProbeStats,
    /// A packet is being serialized onto the link.  Set by
    /// [`Network::start_transmission`], which pushes the one completion
    /// that clears it: a port never has two completions pending, which is
    /// what bounds [`Network::completions`] at one entry per port.
    pub(super) busy: bool,
    pub(super) admission: Option<AdmissionState>,
    /// Σ of the guaranteed rates flows hold here ([`Network::held_bps`]).
    pub(super) held_bps: f64,
    /// The packets this port has put on its link that have not yet reached
    /// the far end, in transmission order (the one being serialized
    /// included).  The events that complete their journey (a
    /// [`NetEvent::Arrival`], or the completion itself on a
    /// zero-propagation link) only name the link and take the front: a
    /// link's propagation delay is a constant and its transmissions
    /// complete one after another, so arrival times are non-decreasing in
    /// transmission order, and equal `(time, seq)` timestamps pop in push
    /// order — the packet an arrival event was pushed for is always the
    /// oldest one still on the wire.
    pub(super) wire: VecDeque<Packet>,
    /// The last `(size_bits, transmission time)` this port put on its
    /// link: the link's rate never changes, so the next packet of that
    /// size reuses the time.  `(0, ZERO)` to start, which is what zero
    /// bits take at any positive rate.
    pub(super) last_tx: (u64, SimTime),
}

impl Network {
    /// The probe counters of one link's output port: enqueues and dequeues
    /// per class bucket, plus the port's peak queue depth.
    pub fn link_probe(&self, link: LinkId) -> &ProbeStats {
        &self.ports[link.index()].probe
    }

    /// The deepest any output-port queue ever was (in packets).
    pub fn peak_port_depth(&self) -> u64 {
        self.ports
            .iter()
            .map(|p| p.probe.depth_high_water.get())
            .max()
            .unwrap_or(0)
    }

    /// Total queue-storage growth events across every port's scheduler:
    /// pushes that found a queue at its capacity.  Flat between two
    /// samples ⇒ the schedulers' queues allocated nothing in between.
    pub fn sched_pool_grow_events(&self) -> u64 {
        self.ports
            .iter()
            .map(|p| p.discipline.pool_grow_events())
            .sum()
    }

    /// Queue capacity held across every port's scheduler, in 32-slot
    /// units; queues never shrink, so this is also the high-water mark.
    pub fn sched_pool_segments_high_water(&self) -> u64 {
        self.ports
            .iter()
            .map(|p| p.discipline.pool_segments_high_water())
            .sum()
    }

    /// Replace the queueing discipline of a link's output port.  Accepts
    /// any of the built-in disciplines directly (they convert into
    /// [`Discipline`] variants dispatched by `match` on the hot path), a
    /// prebuilt [`Discipline`], or a `Box<dyn QueueDiscipline>` for
    /// downstream disciplines (which ride the `Custom` escape hatch).
    ///
    /// # Panics
    /// Panics if called after the simulation has started or if the port has
    /// packets queued.
    pub fn set_discipline(&mut self, link: LinkId, discipline: impl Into<Discipline>) {
        assert!(
            !self.started,
            "cannot swap disciplines after the run started"
        );
        let port = &mut self.ports[link.index()];
        assert!(
            port.discipline.is_empty(),
            "cannot swap a non-empty discipline"
        );
        port.discipline = discipline.into();
        port.probe = ProbeStats::default();
    }

    /// The name of the discipline installed on a link (for reports).
    pub fn discipline_name(&self, link: LinkId) -> &'static str {
        self.ports[link.index()].discipline.name()
    }

    /// Σ over ports of the packets queued in the discipline or on the wire.
    /// Equal to [`packets_in_flight`](Network::packets_in_flight) whenever
    /// no event is being handled: a packet inside the network is in exactly
    /// one of those two places.
    pub(super) fn packets_held(&self) -> u64 {
        self.ports
            .iter()
            .map(|p| p.discipline.len().saturating_add(p.wire.len()) as u64)
            .sum()
    }

    pub(super) fn forward(&mut self, mut packet: Packet) {
        let flow_idx = packet.flow.index();
        let hop = packet.hop as usize;
        let route = &self.flows[flow_idx].config.route;
        if hop == route.len() {
            self.deliver(packet);
            return;
        }
        let link = route[hop];

        // Edge policing at the flow's first switch only (Section 8: "After
        // that initial check, conformance is never enforced at later
        // switches").
        if hop == 0 {
            if let Some((_, action)) = self.flows[flow_idx].config.edge_policer {
                let now = self.now;
                let policer = self.flows[flow_idx]
                    .policer
                    .as_mut()
                    .expect("policer exists when edge_policer configured");
                match action {
                    PoliceAction::Drop => {
                        if !policer.offer(now, packet.size_bits) {
                            self.monitor.record_edge_drop(packet.flow, now);
                            self.packet_died(packet.flow);
                            return;
                        }
                    }
                    PoliceAction::Tag => {
                        // Non-conforming packets are forwarded but marked;
                        // they do not consume tokens, so conforming traffic
                        // keeps its share of the profile (srTCM-style
                        // colouring rather than debt accounting).
                        if !policer.offer(now, packet.size_bits) {
                            packet.tag = Conformance::Tagged;
                        }
                    }
                }
            }
        }

        // Buffer check, then enqueue.
        let class = self.flows[flow_idx].config.class;
        let buffer_limit = self.topo.link(link).buffer_packets;
        let port = &mut self.ports[link.index()];
        if port.discipline.len() >= buffer_limit {
            self.monitor
                .record_buffer_drop(packet.flow, link.index(), self.now);
            self.telemetry
                .record_link_drop(link.index(), class_bucket(class));
            self.packet_died(packet.flow);
            return;
        }
        port.probe.enqueued.bucket_mut(class_bucket(class)).incr();
        port.discipline
            .enqueue(self.now, packet, SchedContext::new(class, self.now));
        port.probe
            .depth_high_water
            .observe(port.discipline.len() as u64);
        if !port.busy {
            self.start_transmission(link);
        }
    }

    /// Put the head of `link`'s queue on the wire.
    fn start_transmission(&mut self, link: LinkId) {
        let params = *self.topo.link(link);
        let port = &mut self.ports[link.index()];
        debug_assert!(!port.busy);
        let d = port
            .discipline
            .dequeue(self.now)
            .expect("start_transmission called with a non-empty queue");
        port.probe.dequeued.bucket_mut(class_bucket(d.class)).incr();
        port.busy = true;
        let waiting = d.queueing_delay(self.now);
        let bits = d.packet.size_bits;
        let tx_time = match port.last_tx {
            (last, tx_time) if last == bits => {
                debug_assert_eq!(tx_time, transmission_time(bits, params.rate_bps));
                tx_time
            }
            _ => {
                let tx_time = transmission_time(bits, params.rate_bps);
                port.last_tx = (bits, tx_time);
                tx_time
            }
        };
        // Live measurement feedback: a transmitted predicted-class packet
        // reports its per-hop queueing delay to this link's admission
        // controller (the d̂ⱼ of Section 9).
        if let Some(ad) = port.admission.as_mut() {
            if let ServiceClass::Predicted { priority } = d.class {
                ad.controller
                    .observe_class_delay(self.now, priority, waiting);
            }
        }
        self.monitor.record_transmission(
            link.index(),
            d.class,
            waiting,
            tx_time,
            d.packet.size_bits,
            self.now,
        );
        // The packet is now committed to this link: advance its hop
        // index so the arrival at the far end forwards onto the next
        // route entry.
        let mut packet = d.packet;
        #[expect(
            clippy::arithmetic_side_effects,
            reason = "the hop indexes the packet's route, which is in memory"
        )]
        {
            packet.hop += 1;
        }
        port.wire.push_back(packet);
        let id = port.id;
        #[expect(
            clippy::arithmetic_side_effects,
            reason = "`SimTime`'s `+` saturates at the end of time, by type"
        )]
        let (done, arrival) = {
            let done = self.now + tx_time;
            (done, done + params.propagation)
        };
        self.schedule_completion(done, id);
        if params.propagation > SimTime::ZERO {
            self.schedule(arrival, NetEvent::Arrival { link: id });
        }
    }

    /// The packet the arrival event just popped was pushed for: the oldest
    /// one on `link`'s wire (see [`Port::wire`]).
    pub(super) fn take_off_wire(&mut self, link: LinkId) -> Packet {
        self.ports[link.index()]
            .wire
            .pop_front()
            .expect("an arrival event implies a packet on the wire")
    }

    /// The tail of the packet `link` was serializing leaves the port: free
    /// it and start the next transmission, if one is waiting.  On a
    /// zero-propagation link that is also the instant the packet's head
    /// reaches the next switch, so the completion doubles as the arrival —
    /// no [`NetEvent::Arrival`] was pushed for it, which halves the event
    /// traffic on the paper's zero-delay topologies — and replays the order
    /// the pair would have had: free the port first, then forward the
    /// packet, which comes off the wire (its only entry, on such a link)
    /// before the next one goes on.
    pub(super) fn on_tx_done(&mut self, link: LinkId) {
        let arrived =
            (self.topo.link(link).propagation == SimTime::ZERO).then(|| self.take_off_wire(link));
        let port = &mut self.ports[link.index()];
        port.busy = false;
        if !port.discipline.is_empty() {
            self.start_transmission(link);
        }
        if let Some(packet) = arrived {
            self.forward(packet);
        }
    }
}

/// This file's tests.  `network.rs` expands them into its `tests` module,
/// which the suite lists every `Network` test under, beside the fixtures
/// they share.
#[cfg(test)]
macro_rules! tests {
    () => {
        #[test]
        fn buffer_overflow_drops_and_is_counted() {
            let mut topo = Topology::new();
            let a = topo.add_node();
            let b = topo.add_node();
            // Tiny buffer: 2 packets.
            let l = topo.add_link(a, b, MBIT, SimTime::ZERO, 2);
            let mut net = Network::new(topo);
            let flow = net.add_flow(FlowConfig::datagram(vec![l]));
            let t = SimTime::from_millis(1);
            // 5 packets at once: 1 in transmission + 2 buffered, 2 dropped.
            let agent = ScheduledSender::new(flow, vec![t, t, t, t, t]);
            net.add_agent(Box::new(agent));
            net.run_until(SimTime::from_secs(1));
            let report = net.monitor_mut().flow_report(flow);
            assert_eq!(report.generated, 5);
            assert_eq!(report.delivered, 3);
            assert_eq!(report.dropped_buffer, 2);
            assert!((report.loss_rate() - 0.4).abs() < 1e-12);
            let link_report = net.monitor().link_report(0);
            assert_eq!(link_report.drops, 2);
        }

        #[test]
        fn edge_policer_drops_nonconforming_packets() {
            let (mut net, link) = two_switch_net();
            // Bucket of depth 2 packets refilling slowly: a 5-packet burst loses 3.
            let bucket = TokenBucketSpec::per_packets(1.0, 2.0, PKT);
            let flow = net.add_flow(FlowConfig::predicted(
                vec![link],
                0,
                bucket,
                SimTime::from_millis(10),
                0.01,
                PoliceAction::Drop,
            ));
            let t = SimTime::from_millis(1);
            let agent = ScheduledSender::new(flow, vec![t, t, t, t, t]);
            net.add_agent(Box::new(agent));
            net.run_until(SimTime::from_secs(1));
            let report = net.monitor_mut().flow_report(flow);
            assert_eq!(report.dropped_at_edge, 3);
            assert_eq!(report.delivered, 2);
        }

        #[test]
        fn edge_policer_tagging_forwards_but_marks() {
            let (mut net, link) = two_switch_net();
            let bucket = TokenBucketSpec::per_packets(1.0, 1.0, PKT);
            let sink_record = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
            let sink = net.add_agent(Box::new(RecordingSink {
                delivered: sink_record.clone(),
            }));
            let mut config = FlowConfig::predicted(
                vec![link],
                0,
                bucket,
                SimTime::from_millis(10),
                0.01,
                PoliceAction::Tag,
            )
            .with_sink(sink);
            config.edge_policer = Some((bucket, PoliceAction::Tag));
            let flow = net.add_flow(config);
            let t = SimTime::from_millis(1);
            let agent = ScheduledSender::new(flow, vec![t, t]);
            net.add_agent(Box::new(agent));
            net.run_until(SimTime::from_secs(1));
            let report = net.monitor_mut().flow_report(flow);
            assert_eq!(report.delivered, 2);
            let deliveries = sink_record.borrow();
            assert_eq!(deliveries.len(), 2);
            assert_eq!(deliveries[0].packet.tag, Conformance::Conforming);
            assert_eq!(deliveries[1].packet.tag, Conformance::Tagged);
        }

        #[test]
        fn link_utilization_matches_offered_load() {
            let (mut net, link) = two_switch_net();
            let flow = net.add_flow(FlowConfig::datagram(vec![link]));
            // 100 packets, one every 2 ms: the link is busy 50 % of the time.
            let times: Vec<SimTime> = (0..100).map(|i| SimTime::from_millis(2 * i)).collect();
            net.add_agent(Box::new(ScheduledSender::new(flow, times)));
            net.run_until(SimTime::from_millis(200));
            let lr = net.monitor().link_report(0);
            assert!((lr.utilization - 0.5).abs() < 0.02, "{}", lr.utilization);
            assert_eq!(lr.packets_sent, 100);
            // Datagram traffic is not real-time.
            assert_eq!(lr.realtime_utilization, 0.0);
        }

        #[test]
        fn probe_counts_per_class_and_tracks_depth() {
            use ispn_telemetry::{CLASS_DATAGRAM, CLASS_GUARANTEED, CLASS_PREDICTED};
            let (mut net, link) = two_switch_net();
            let t = SimTime::from_millis(1);
            for class in [
                ServiceClass::Guaranteed,
                ServiceClass::Predicted { priority: 0 },
                ServiceClass::Predicted { priority: 2 },
                ServiceClass::Datagram,
            ] {
                let flow = net.add_flow(FlowConfig {
                    class,
                    ..FlowConfig::datagram(vec![link])
                });
                net.add_agent(Box::new(ScheduledSender::new(flow, vec![t])));
            }
            net.run_through(t);
            let s = net.link_probe(link);
            assert_eq!(s.enqueued.bucket(CLASS_GUARANTEED).get(), 1);
            assert_eq!(s.enqueued.bucket(CLASS_PREDICTED).get(), 2);
            assert_eq!(s.enqueued.bucket(CLASS_DATAGRAM).get(), 1);
            // The first packet went straight onto the link; three wait.
            assert_eq!(s.dequeued.total(), 1);
            assert_eq!(s.depth_high_water.get(), 3);
            net.run_until(SimTime::SECOND);
            let s = net.link_probe(link);
            assert_eq!(s.dequeued.total(), 4);
            // Draining does not lower the peak.
            assert_eq!(s.depth_high_water.get(), 3);
            assert_eq!(net.peak_port_depth(), 3);
        }

        #[test]
        fn works_with_every_discipline_installed() {
            for which in 0..4 {
                let (topo, _nodes, links) = Topology::chain(3, MBIT, SimTime::ZERO, 200);
                let mut net = Network::new(topo);
                let disc: Discipline = match which {
                    0 => Wfq::equal_share(MBIT, 2).into(),
                    1 => FifoPlus::new(Averaging::RunningMean).into(),
                    2 => StrictPriority::<Fifo>::new(2).into(),
                    _ => Unified::new(MBIT, 2, Averaging::RunningMean).into(),
                };
                net.set_discipline(links[0], disc);
                let f0 = net.add_flow(FlowConfig::guaranteed(links.clone(), 200_000.0));
                for &l in &links {
                    let spec = FlowSpec::guaranteed(200_000.0);
                    assert!(net.renegotiate_on_link(f0, l, &spec).is_accept());
                }
                let f1 = net.add_flow(FlowConfig {
                    route: links.clone(),
                    spec: FlowSpec::Datagram,
                    class: ServiceClass::Predicted { priority: 0 },
                    edge_policer: None,
                    sink: None,
                });
                let t = SimTime::from_millis(1);
                net.add_agent(Box::new(ScheduledSender::new(f0, vec![t, t, t])));
                net.add_agent(Box::new(ScheduledSender::new(f1, vec![t, t, t])));
                net.run_until(SimTime::from_secs(1));
                assert_eq!(net.monitor_mut().flow_report(f0).delivered, 3);
                assert_eq!(net.monitor_mut().flow_report(f1).delivered, 3);
            }
        }

        /// What a [`ScriptedSender`] sends: `(instant, flow index, size in
        /// bits)` in non-decreasing time order; a packet's `seq` is its
        /// position in the script.
        type Script = Vec<(SimTime, usize, u64)>;

        /// Sends a [`Script`] over several flows, one packet per timer.
        struct ScriptedSender {
            flows: Vec<FlowId>,
            script: Script,
            next: usize,
        }

        impl ScriptedSender {
            fn arm(&mut self, api: &mut AgentApi) {
                if let Some(&(at, _, _)) = self.script.get(self.next) {
                    api.set_timer(at.saturating_sub(api.now()), 0);
                }
            }
        }

        impl Agent for ScriptedSender {
            fn start(&mut self, api: &mut AgentApi) {
                self.arm(api);
            }
            fn on_timer(&mut self, _token: u64, api: &mut AgentApi) {
                let (_, flow, bits) = self.script[self.next];
                let seq = self.next as u64;
                api.send(Packet::data(self.flows[flow], seq, bits, api.now()));
                self.next += 1;
                self.arm(api);
            }
        }

        /// Run `script` over a FIFO chain of 1 Mbit/s links, one per entry of
        /// `propagation`, two flows sharing the whole route and one sink,
        /// stepping through `horizons`.  Packet conservation — Σ per-flow
        /// in-flight = Σ per-port queued + on the wire — is checked at every
        /// stop.  Returns the network and the deliveries in arrival order.
        fn run_script(
            propagation: &[SimTime],
            script: &Script,
            horizons: &[SimTime],
        ) -> (Network, Vec<Delivery>) {
            let mut topo = Topology::new();
            let nodes = topo.add_nodes(propagation.len() + 1);
            let links: Vec<LinkId> = (propagation.iter().zip(nodes.windows(2)))
                .map(|(&p, ends)| topo.add_link(ends[0], ends[1], MBIT, p, 200))
                .collect();
            let mut net = Network::new(topo);
            let delivered = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
            let sink = net.add_agent(Box::new(RecordingSink {
                delivered: delivered.clone(),
            }));
            let flows = (0..2)
                .map(|_| net.add_flow(FlowConfig::datagram(links.clone()).with_sink(sink)))
                .collect();
            net.add_agent(Box::new(ScriptedSender {
                flows,
                script: script.clone(),
                next: 0,
            }));
            let mut wire_high_water = 0;
            for &h in horizons {
                net.run_until(h);
                assert_eq!(net.packets_in_flight(), net.packets_held(), "at {h}");
                let longest = net.ports.iter().map(|p| p.wire.len()).max();
                wire_high_water = wire_high_water.max(longest.expect("a chain has a port"));
            }
            assert_eq!(net.packets_held(), 0, "the script drained");
            if propagation.iter().any(|&p| p > SimTime::ZERO) && horizons.len() > 1 {
                assert!(
                    wire_high_water > 1,
                    "a stop should catch several packets mid-propagation"
                );
            }
            let deliveries = delivered.borrow().clone();
            (net, deliveries)
        }

        /// Every packet of `script` was delivered in transmission order — on a
        /// FIFO chain, script order — carrying its own `seq`, `size_bits` and
        /// final `hop`, at the instant store-and-forward FIFO service puts it
        /// there.
        fn assert_fifo_deliveries(
            deliveries: &[Delivery],
            script: &Script,
            propagation: &[SimTime],
        ) {
            let hops = propagation.len();
            assert_eq!(deliveries.len(), script.len());
            // `free[h]`: when link h finishes its previous transmission.
            let mut free = vec![SimTime::ZERO; hops];
            for (i, (d, &(sent, flow, bits))) in deliveries.iter().zip(script).enumerate() {
                let mut at = sent;
                for (link_free, &wire) in free.iter_mut().zip(propagation) {
                    let done = at.max(*link_free) + ispn_sim::time::transmission_time(bits, MBIT);
                    *link_free = done;
                    at = done + wire;
                }
                assert_eq!(d.packet.seq, i as u64, "delivery {i}");
                assert_eq!(d.packet.flow, FlowId(flow as u32), "delivery {i}");
                assert_eq!(d.packet.size_bits, bits, "delivery {i}");
                assert_eq!(d.packet.hop as usize, hops, "delivery {i}");
                assert_eq!(d.packet.created_at, sent, "delivery {i}");
                assert_eq!(d.total_delay, at - sent, "delivery {i}");
            }
        }

        /// Two flows, sizes from 200 to 2000 bits, sent faster than the link
        /// serves them for a while: with a 10 ms propagation up to a dozen
        /// packets are on the wire at once.
        fn mixed_script() -> Script {
            let sizes = [1000, 200, 2000, 500, 1500, 300, 800];
            (0..40u64)
                .map(|i| {
                    let at = SimTime::from_micros(700 * i + 50 * (i % 3));
                    (at, (i % 3 == 1) as usize, sizes[i as usize % sizes.len()])
                })
                .collect()
        }

        const LONG_WIRE: SimTime = SimTime::from_millis(10);

        /// A horizon every 3.3 ms until well after [`mixed_script`] drains:
        /// each stop catches packets queued, being serialized and propagating.
        fn frequent_stops() -> Vec<SimTime> {
            (1..=40).map(|k| SimTime::from_micros(3_300 * k)).collect()
        }

        #[test]
        fn wire_delivers_in_transmission_order_on_a_long_link() {
            let script = mixed_script();
            for wires in [&[LONG_WIRE; 2][..1], &[LONG_WIRE; 2]] {
                let (_, deliveries) = run_script(wires, &script, &[SimTime::SECOND]);
                assert_fifo_deliveries(&deliveries, &script, wires);
            }
        }

        #[test]
        fn wire_survives_runs_split_mid_propagation() {
            let script = mixed_script();
            let (_, deliveries) = run_script(&[LONG_WIRE; 2], &script, &frequent_stops());
            assert_fifo_deliveries(&deliveries, &script, &[LONG_WIRE; 2]);
        }

        #[test]
        fn wire_holds_a_tx_complete_driven_burst() {
            // Eight packets at one instant: the first is put on the link by
            // `forward`, each of the other seven by its predecessor's
            // completion, all onto the same wire before the first arrival,
            // 10 ms out.
            let t0 = SimTime::from_millis(2);
            let script: Script = (0..8).map(|i| (t0, i % 2, [1000, 400][i % 2])).collect();
            let (net, deliveries) = run_script(&[LONG_WIRE], &script, &[SimTime::SECOND]);
            assert_fifo_deliveries(&deliveries, &script, &[LONG_WIRE]);
            // 8 timers + 8 completions + 8 arrivals.
            assert_eq!(net.events_processed(), 24);
        }

        #[test]
        fn wire_feeds_merged_tx_arrivals_on_a_zero_propagation_link() {
            let script = mixed_script();
            for wires in [&[SimTime::ZERO; 2][..1], &[SimTime::ZERO; 2]] {
                let (_, deliveries) = run_script(wires, &script, &frequent_stops());
                assert_fifo_deliveries(&deliveries, &script, wires);
            }
        }

        /// Every port and flow of the benchmark workloads carries one packet
        /// size; here none does.  Flow 0 alternates 500, 1000 and 1500-bit
        /// packets over a three-hop WFQ chain (2 ms of propagation on the
        /// middle link), and flow 1's 700-bit packets share its first port.
        /// The per-packet transcript — flow, seq, delivery ns, queueing delay
        /// ns, in delivery order — is pinned as an FNV-1a digest.
        #[test]
        fn packet_sizes_that_change_packet_to_packet_keep_their_transcript() {
            let mut topo = Topology::new();
            let nodes = topo.add_nodes(4);
            let wires = [SimTime::ZERO, SimTime::from_millis(2), SimTime::ZERO];
            let links: Vec<LinkId> = (wires.iter().zip(nodes.windows(2)))
                .map(|(&p, ends)| topo.add_link(ends[0], ends[1], MBIT, p, 200))
                .collect();
            let mut net = Network::new(topo);
            let delivered = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
            let sink = net.add_agent(Box::new(RecordingSink {
                delivered: delivered.clone(),
            }));
            let trace = net.add_flow(FlowConfig::datagram(links.clone()).with_sink(sink));
            let cross = net.add_flow(FlowConfig::datagram(links[..1].to_vec()).with_sink(sink));
            for &link in &links {
                let mut wfq = Wfq::new(MBIT, MBIT / 4.0);
                wfq.install_guaranteed(trace, 600_000.0);
                net.set_discipline(link, wfq);
            }
            let script: Script = (0..150u64)
                .map(|i| {
                    let at = SimTime::from_micros(650 * i + 90 * (i % 7));
                    match i % 4 {
                        3 => (at, 1, 700),
                        _ => (at, 0, [500, 1000, 1500][i as usize % 3]),
                    }
                })
                .collect();
            net.add_agent(Box::new(ScriptedSender {
                flows: vec![trace, cross],
                script,
                next: 0,
            }));
            net.run_until(SimTime::SECOND);
            let deliveries = delivered.borrow();
            assert_eq!(deliveries.len(), 150);
            assert!(deliveries.iter().any(|d| d.queueing_delay > SimTime::ZERO));
            let mut digest = 0xcbf2_9ce4_8422_2325u64;
            for d in deliveries.iter() {
                let at = d.packet.created_at + d.total_delay;
                let words = [
                    u64::from(d.packet.flow.0),
                    d.packet.seq,
                    at.as_nanos(),
                    d.queueing_delay.as_nanos(),
                ];
                for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
                    digest = (digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
                }
            }
            assert_eq!(digest, 0xc2f7_b42d_efd4_b89d, "transcript digest");
        }

        #[test]
        fn both_timelines_count_as_one_pending_event_set() {
            // 40 timers, plus per packet one completion on a zero-propagation
            // hop and a completion and an arrival on a propagating one; the
            // high-water mark is the two queues' lengths summed at every push
            // to either.  The numbers are the ones the
            // single-queue engine gave, however the run is sliced.
            let script = mixed_script();
            for (wires, events, high_water) in [
                (&[SimTime::ZERO; 2][..], 120, 3),
                (&[LONG_WIRE; 2], 200, 29),
                (&[SimTime::ZERO, LONG_WIRE], 160, 16),
                (&[LONG_WIRE, SimTime::ZERO], 160, 16),
            ] {
                for stops in [vec![SimTime::SECOND], frequent_stops()] {
                    let (net, deliveries) = run_script(wires, &script, &stops);
                    assert_fifo_deliveries(&deliveries, &script, wires);
                    assert_eq!(net.events_processed(), events, "{wires:?}");
                    assert_eq!(net.event_queue_high_water(), high_water, "{wires:?}");
                }
            }
        }

        #[test]
        fn steady_state_traffic_stops_growing_queue_pools() {
            // Tentpole regression: after warm-up, a steady workload must not
            // allocate new queue segments — the pool high-water and grow
            // counters stay flat over the second half of the run.
            let (mut net, link) = two_switch_net();
            net.set_discipline(link, Unified::new(MBIT, 2, Averaging::RunningMean));
            let flow = net.add_flow(FlowConfig::datagram(vec![link]));
            // Six identical 40-packet bursts, each fully drained (40 ms of
            // service at 1 ms/packet) before the next: the first burst sets the
            // pool high-water, the rest must live off recycled segments.
            let times: Vec<SimTime> = (0..6)
                .flat_map(|burst| (0..40).map(move |_| SimTime::from_millis(60 * burst)))
                .collect();
            net.add_agent(Box::new(ScheduledSender::new(flow, times)));
            net.run_until(SimTime::from_millis(130));
            let grow_mid = net.sched_pool_grow_events();
            let high_mid = net.sched_pool_segments_high_water();
            net.run_until(SimTime::from_millis(400));
            assert_eq!(
                net.sched_pool_grow_events(),
                grow_mid,
                "steady-state traffic must be allocation-free after warm-up"
            );
            assert_eq!(net.sched_pool_segments_high_water(), high_mid);

            // The predicted classes' storage is counted too.  Every queue above
            // has held 39 packets (a burst less the one in service), so a
            // predicted class's first 40-packet burst can grow only its FIFO+
            // heap, and 39 per class at once only the flow-0 stamp queue: the
            // footprint shows each step grew something, the count must see it.
            let sender = |net: &mut Network, class, at_ms: &[u64], burst: usize| {
                let flow = net.add_flow(FlowConfig {
                    class,
                    ..FlowConfig::datagram(vec![link])
                });
                let times = at_ms
                    .iter()
                    .flat_map(|&ms| (0..burst).map(move |_| SimTime::from_millis(ms)))
                    .collect();
                net.add_agent(Box::new(ScheduledSender::new(flow, times)));
            };
            let high = ServiceClass::Predicted { priority: 0 };
            let low = ServiceClass::Predicted { priority: 1 };
            sender(&mut net, high, &[420], 40);
            sender(&mut net, low, &[480], 40);
            for class in [high, low, ServiceClass::Datagram] {
                sender(&mut net, class, &[540, 700], 39);
            }
            let mut seen = (net.sched_pool_grow_events(), net.flow_table_bytes());
            for (until_ms, grows) in [(480, true), (540, true), (700, true), (900, false)] {
                net.run_until(SimTime::from_millis(until_ms));
                let now = (net.sched_pool_grow_events(), net.flow_table_bytes());
                assert_eq!(now.0 > seen.0, grows, "grow events by {until_ms} ms");
                assert_eq!(now.1 > seen.1, grows, "footprint by {until_ms} ms");
                seen = now;
            }
        }

        #[test]
        #[should_panic]
        fn swapping_discipline_after_start_rejected() {
            let (mut net, link) = two_switch_net();
            let flow = net.add_flow(FlowConfig::datagram(vec![link]));
            net.add_agent(Box::new(ScheduledSender::new(flow, vec![SimTime::ZERO])));
            net.run_until(SimTime::from_millis(10));
            net.set_discipline(link, Fifo::new());
        }
    };
}
#[cfg(test)]
pub(super) use tests;
