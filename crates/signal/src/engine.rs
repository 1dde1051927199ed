//! The hop-by-hop signaling engine.
//!
//! Control traffic is modelled the way the Appendix models data traffic: a
//! setup, release or renegotiate message crossing a link costs one
//! control-packet transmission time plus the link's propagation delay.  The
//! engine keeps its own deterministic event queue of in-flight control
//! messages and interleaves them with the network's data-plane events, so
//! admission decisions at each hop see exactly the measurement state of that
//! simulated instant.
//! That queue is an [`EventQueue`] of its own: a flow has one transaction
//! in flight and a transaction one message, so even 200 setups a second
//! keep it a handful deep.
//!
//! The engine keeps no table of its own: a flow's one transaction — its
//! setup, or one renegotiation — and its teardown mark are the
//! [`FlowPhase`] of the flow's slot in the network.  A transaction's
//! messages name it and act only while the slot holds it, so one a
//! teardown overtook does nothing, even once the slot has a new tenant,
//! and a second teardown sends no second release wave.  A renegotiation
//! is begun only for an admitted flow with nothing in flight (anything
//! else is a typed [`Refusal`], no message sent).  Each message reads the
//! route in place (`net.flow_config(flow).route` never changes), and a
//! refusal on the way carries the controller's typed
//! [`RejectReason`](ispn_core::admission::RejectReason).

use ispn_core::admission::AdmissionDecision;
use ispn_core::{FlowId, FlowSpec, TokenBucketSpec};
use ispn_net::{FlowConfig, FlowPhase, LinkId, Network, RequestId};
use ispn_sim::{varint, EventQueue, SimTime};

use crate::messages::{Refusal, SignalEvent};

/// Size of a control packet in bits: setup, release and renegotiate all
/// use it, and the paper's data packets are 1000 bits too.
const CONTROL_PACKET_BITS: u64 = 1000;

/// A control message.  A setup and a renegotiation travel alike — out hop
/// by hop, back on a refusal, done at the far end — as transaction `req`,
/// which acts only while `flow`'s slot holds it.
enum ControlEvent {
    /// Transaction `req` reaches the switch feeding `route[hop]`.
    Forward {
        flow: FlowId,
        req: RequestId,
        hop: usize,
    },
    /// Refused further along, transaction `req` gives back `route[hop]`.
    Back {
        flow: FlowId,
        req: RequestId,
        hop: usize,
    },
    /// Transaction `req` cleared every hop.
    Done { flow: FlowId, req: RequestId },
    /// A release message arrives at the switch feeding `route[hop]`.
    Teardown { flow: FlowId, hop: usize },
}

/// The signaling engine: owns all in-flight control messages for one
/// [`Network`] and drives them interleaved with the data plane.
///
/// The engine does not own the network — drivers call
/// [`process_until`](Signaling::process_until) with the network they are
/// stepping, which keeps the data plane usable exactly as before for
/// static scenarios.
#[derive(Default)]
pub struct Signaling {
    queue: EventQueue<ControlEvent>,
    /// Transactions begun and not yet ended: setups (a withdrawn one until
    /// its last message has landed) and renegotiations.
    pending: usize,
    events: Vec<SignalEvent>,
    /// Chronological accept/reject record of every completed setup, kept
    /// for blocking-probability accounting and determinism checks: about a
    /// byte a request ([`DecisionLog`]), the signalling state that
    /// grows with the run's length.
    decision_log: DecisionLog,
    next_id: u64,
}

/// The decision log: one varint per completed setup, in completion order.
/// Each holds the zigzag difference from the previously logged request id
/// shifted left by one, with the outcome in the low bit.  Ids are drawn in
/// submission order and setups complete within a few hops of each other,
/// so a decision costs one byte (1.00 B a request on `churn-signal`, where
/// a `(RequestId, bool)` pair took 16), yet any `u64` id sequence reads
/// back exactly.
#[derive(Default)]
struct DecisionLog {
    bytes: Vec<u8>,
    len: usize,
    last: u64,
}

impl DecisionLog {
    fn push(&mut self, req: RequestId, accepted: bool) {
        let zigzag = varint::zigzag(req.0.wrapping_sub(self.last) as i64);
        varint::put(
            &mut self.bytes,
            u128::from(zigzag) << 1 | u128::from(accepted),
        );
        self.last = req.0;
        #[expect(
            clippy::arithmetic_side_effects,
            reason = "each entry adds a byte to `bytes`, so `len` ≤ `bytes.len()` ≤ isize::MAX"
        )]
        let len = self.len + 1;
        self.len = len;
    }

    fn iter(&self) -> impl ExactSizeIterator<Item = (RequestId, bool)> + '_ {
        let (mut bytes, mut id) = (&self.bytes[..], 0u64);
        (0..self.len).map(move |_| {
            let word: u128 = varint::get(&mut bytes).expect("the decision log is whole");
            id = id.wrapping_add(varint::unzigzag((word >> 1) as u64) as u64);
            (RequestId(id), word & 1 == 1)
        })
    }
}

impl Signaling {
    fn fresh_id(&mut self) -> RequestId {
        #[expect(
            clippy::arithmetic_side_effects,
            reason = "one id a request: 2^64 requests take longer than any run"
        )]
        let id = self.next_id + 1;
        self.next_id = id;
        RequestId(id)
    }

    /// Send `event`, a control message leaving at `at`, across `link`: it
    /// arrives one control-packet transmission plus the propagation later.
    fn send(&mut self, net: &Network, at: SimTime, link: LinkId, event: ControlEvent) {
        let params = net.topology().link(link);
        #[expect(
            clippy::arithmetic_side_effects,
            reason = "`SimTime`'s `+` saturates at the end of time, by type"
        )]
        let arrival = at
            + ispn_sim::time::transmission_time(CONTROL_PACKET_BITS, params.rate_bps)
            + params.propagation;
        self.queue.push(arrival, event);
    }

    /// Begin transaction `req` of `flow`, leaving its slot in `phase`: its
    /// first message is at the first switch at once (the source's
    /// host-to-switch link is infinitely fast, Appendix).
    fn begin(&mut self, net: &mut Network, flow: FlowId, req: RequestId, phase: FlowPhase) {
        net.set_flow_phase(flow, phase);
        #[expect(
            clippy::arithmetic_side_effects,
            reason = "each transaction in flight holds one of `net`'s flows, \
                      and no `Vec` holds usize::MAX of them"
        )]
        let pending = self.pending + 1;
        self.pending = pending;
        self.queue
            .push(net.now(), ControlEvent::Forward { flow, req, hop: 0 });
    }

    /// Number of signaling transactions still in flight.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// The chronological accept/reject record of completed setups, decoded
    /// from the one-byte-a-request log as it is read.
    pub fn decisions(&self) -> impl ExactSizeIterator<Item = (RequestId, bool)> + '_ {
        self.decision_log.iter()
    }

    /// The bytes the decision log's entries take: about one a request.
    pub fn decision_log_bytes(&self) -> usize {
        self.decision_log.bytes.len()
    }

    /// [`decisions`](Signaling::decisions) collected into a `Vec`, 16 bytes
    /// a request.  It exists only because the `benchmark/` package's traced
    /// pass calls it by this name and takes `.len()` and `.iter()` of the
    /// result; everything else reads `decisions()`.
    pub fn decision_log(&self) -> Vec<(RequestId, bool)> {
        self.decisions().collect()
    }

    /// Begin a hop-by-hop flow setup.  The flow is registered immediately
    /// (inactive) so its id is known; the admission outcome arrives as a
    /// [`SignalEvent::Accepted`] / [`SignalEvent::Rejected`] from
    /// [`process_until`](Signaling::process_until).
    pub fn submit(&mut self, net: &mut Network, config: FlowConfig) -> (RequestId, FlowId) {
        let req = self.fresh_id();
        assert!(!config.route.is_empty(), "a setup needs a route");
        let flow = net.add_flow_inactive(config);
        self.begin(net, flow, req, FlowPhase::SettingUp(req));
        (req, flow)
    }

    /// Begin a teardown: the source is silenced immediately (its packets
    /// stop entering the network) and each hop's reservation is released
    /// when the release message reaches it.  A setup in flight is
    /// withdrawn (it admits no further hop and never reaches the decision
    /// log); a renegotiation in flight ends, the releases giving back what
    /// it reserved.  Does nothing to a flow already tearing down or gone,
    /// or to a refused setup, whose rollback releases and retires it.
    pub fn teardown(&mut self, net: &mut Network, flow: FlowId) {
        match net.flow_phase(flow) {
            Some(FlowPhase::Idle | FlowPhase::Static | FlowPhase::Admitted) => {
                net.set_flow_phase(flow, FlowPhase::TearingDown);
            }
            Some(FlowPhase::Renegotiating { .. }) => self.end(net, flow, FlowPhase::TearingDown),
            Some(&FlowPhase::SettingUp(req)) => net.set_flow_phase(flow, FlowPhase::Withdrawn(req)),
            _ => return,
        }
        self.queue
            .push(net.now(), ControlEvent::Teardown { flow, hop: 0 });
    }

    /// Begin renegotiating a predicted flow's declared `(r, b)` token
    /// bucket (the adaptive-application path of Section 2): every hop
    /// re-runs the Section-9 criterion against the new declaration, and on
    /// success the flow's spec and edge policer switch over.
    ///
    /// # Errors
    /// A [`Refusal`], given at once with no message sent, unless `flow` is
    /// an admitted predicted-service flow with nothing else in flight.
    pub fn renegotiate_bucket(
        &mut self,
        net: &mut Network,
        flow: FlowId,
        new_bucket: TokenBucketSpec,
    ) -> Result<RequestId, Refusal> {
        self.renegotiate(net, flow, |spec| {
            let mut to = spec.clone();
            let FlowSpec::Predicted { bucket, .. } = &mut to else {
                return None;
            };
            *bucket = new_bucket;
            Some(to)
        })
    }

    /// Begin renegotiating a guaranteed flow's clock rate.  Rate increases
    /// are reserved hop by hop (and rolled back upstream if any hop
    /// refuses); decreases are applied only once every hop has agreed, so
    /// the old reservation survives a failed request.
    ///
    /// # Errors
    /// A [`Refusal`], given at once with no message sent, unless `flow` is
    /// an admitted guaranteed-service flow with nothing else in flight and
    /// `new_rate_bps` is positive and finite.
    pub fn renegotiate_clock_rate(
        &mut self,
        net: &mut Network,
        flow: FlowId,
        new_rate_bps: f64,
    ) -> Result<RequestId, Refusal> {
        let valid = new_rate_bps > 0.0 && new_rate_bps.is_finite();
        self.renegotiate(net, flow, |spec| {
            let guaranteed = matches!(spec, FlowSpec::Guaranteed { .. });
            (guaranteed && valid).then(|| FlowSpec::guaranteed(new_rate_bps))
        })
    }

    /// Send a renegotiate message for `flow` on its way, asking for the
    /// declaration `to` makes of its spec — if the flow is admitted and
    /// idle, and `to` can make one.
    fn renegotiate(
        &mut self,
        net: &mut Network,
        flow: FlowId,
        to: impl FnOnce(&FlowSpec) -> Option<FlowSpec>,
    ) -> Result<RequestId, Refusal> {
        match net.flow_phase(flow) {
            Some(FlowPhase::Admitted) => {}
            Some(FlowPhase::Renegotiating { .. }) => return Err(Refusal::Busy),
            Some(FlowPhase::Withdrawn(_) | FlowPhase::Released(_) | FlowPhase::TearingDown) => {
                return Err(Refusal::TearingDown)
            }
            _ => return Err(Refusal::NotAdmitted),
        }
        let to = to(&net.flow_config(flow).spec).ok_or(Refusal::BadRequest)?;
        let req = self.fresh_id();
        self.begin(net, flow, req, FlowPhase::Renegotiating { req, to });
        Ok(req)
    }

    /// The timestamp of the earliest in-flight control message, if any.
    ///
    /// Drivers that interleave the control plane with other event sources
    /// (the `ispn-scenario` `Sim` facade, most notably) use this to find
    /// the next point in global event time at which the control plane needs
    /// the network.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Advance the network *through* the next control message's timestamp
    /// (data-plane events at that exact instant run first — the documented
    /// data ≺ control tie-break), process every control message due at that
    /// instant, and return the transactions that completed.  Does nothing
    /// (and returns no events) when no control message is in flight.
    ///
    /// Unlike [`process_until`](Signaling::process_until) this never runs
    /// the data plane past the control event, so a caller can interleave
    /// its own event sources at exact timestamps between control messages.
    pub fn process_next(&mut self, net: &mut Network) -> Vec<SignalEvent> {
        if let Some(t) = self.queue.peek_time() {
            net.run_through(t);
            while self.queue.peek_time() == Some(t) {
                let (at, ev) = self.queue.pop().expect("peeked event exists");
                self.handle(net, at, ev);
            }
        }
        std::mem::take(&mut self.events)
    }

    /// Run the network and the control plane, interleaved in timestamp
    /// order, until `horizon`; returns the signaling transactions that
    /// completed in that window, in completion order.  Data-plane events
    /// due at the same instant as a control message run before it, so
    /// admission decisions always see the measurement state *including*
    /// that instant's arrivals.
    pub fn process_until(&mut self, net: &mut Network, horizon: SimTime) -> Vec<SignalEvent> {
        while let Some(t) = self.queue.peek_time() {
            if t >= horizon {
                break;
            }
            // Bring the data plane (and with it every admission
            // controller's measurements) through the control message's time.
            net.run_through(t);
            let (at, ev) = self.queue.pop().expect("peeked event exists");
            self.handle(net, at, ev);
        }
        net.run_until(horizon);
        std::mem::take(&mut self.events)
    }

    /// Hand the buffer [`process_next`](Signaling::process_next) or
    /// [`process_until`](Signaling::process_until) returned back once its
    /// events have been consumed, so the engine fills it again instead of
    /// allocating a new one per completed transaction.  Optional: a buffer
    /// that is not handed back is simply replaced.
    pub fn reuse_event_buffer(&mut self, mut buffer: Vec<SignalEvent>) {
        if self.events.capacity() == 0 {
            buffer.clear();
            self.events = buffer;
        }
    }

    fn handle(&mut self, net: &mut Network, at: SimTime, ev: ControlEvent) {
        match ev {
            ControlEvent::Forward { flow, req, hop } => {
                let route = &net.flow_config(flow).route;
                #[expect(
                    clippy::arithmetic_side_effects,
                    reason = "`route[hop]` is read, so hop + 1 ≤ route.len() ≤ isize::MAX"
                )]
                let (link, next) = (route[hop], hop + 1);
                let last_hop = next == route.len();
                let decision = match net.flow_phase(flow) {
                    Some(&FlowPhase::SettingUp(r)) if r == req => {
                        net.admit_flow_on_link(flow, link)
                    }
                    Some(FlowPhase::Renegotiating { req: r, to }) if *r == req => {
                        let to = to.clone();
                        net.renegotiate_on_link(flow, link, &to)
                    }
                    // Withdrawn: the release wave behind gives back the hops.
                    Some(&FlowPhase::Withdrawn(r)) if r == req => {
                        return self.end(net, flow, FlowPhase::TearingDown)
                    }
                    _ => return, // a renegotiation a teardown ended
                };
                let AdmissionDecision::Reject { reason } = decision else {
                    let next = if last_hop {
                        ControlEvent::Done { flow, req }
                    } else {
                        ControlEvent::Forward {
                            flow,
                            req,
                            hop: next,
                        }
                    };
                    return self.send(net, at, link, next);
                };
                let request = req;
                if let Some(FlowPhase::SettingUp(_)) = net.flow_phase(flow) {
                    self.decision_log.push(req, false);
                    self.events.push(SignalEvent::Rejected {
                        request,
                        flow,
                        hop,
                        link,
                        reason,
                        at,
                    });
                    if hop > 0 {
                        net.set_flow_phase(flow, FlowPhase::RollingBack(req));
                    }
                } else {
                    self.events.push(SignalEvent::RenegotiationRejected {
                        request,
                        flow,
                        hop,
                        reason,
                        at,
                    });
                }
                self.back_from(net, at, flow, req, hop);
            }
            ControlEvent::Back { flow, req, hop } => {
                let link = route_link(net, flow, hop);
                match net.flow_phase(flow) {
                    Some(&FlowPhase::RollingBack(r)) if r == req => {
                        net.release_flow_on_link(flow, link);
                    }
                    Some(FlowPhase::Renegotiating { req: r, .. }) if *r == req => {
                        net.undo_renegotiation_on_link(flow, link);
                    }
                    _ => return, // a renegotiation a teardown ended
                }
                self.back_from(net, at, flow, req, hop);
            }
            ControlEvent::Done { flow, req } => match net.flow_phase(flow) {
                Some(&FlowPhase::SettingUp(r)) if r == req => {
                    self.end(net, flow, FlowPhase::Admitted);
                    self.decision_log.push(req, true);
                    let request = req;
                    self.events
                        .push(SignalEvent::Accepted { request, flow, at });
                }
                Some(FlowPhase::Renegotiating { req: r, to }) if *r == req => {
                    let to = to.clone();
                    net.commit_renegotiation(flow, &to);
                    self.end(net, flow, FlowPhase::Admitted);
                    let request = req;
                    self.events
                        .push(SignalEvent::Renegotiated { request, flow, at });
                }
                // Withdrawn, the flow stays down: the release wave retires
                // it, or, done already, left that to this confirmation.
                Some(&FlowPhase::Withdrawn(r)) if r == req => {
                    self.end(net, flow, FlowPhase::TearingDown)
                }
                Some(&FlowPhase::Released(r)) if r == req => {
                    self.end(net, flow, FlowPhase::Retired)
                }
                _ => {} // a renegotiation a teardown ended
            },
            ControlEvent::Teardown { flow, hop } => {
                let route = &net.flow_config(flow).route;
                #[expect(
                    clippy::arithmetic_side_effects,
                    reason = "`route[hop]` is read, so hop + 1 ≤ route.len() ≤ isize::MAX"
                )]
                let (link, next) = (route[hop], hop + 1);
                let last_hop = next == route.len();
                net.release_flow_on_link(flow, link);
                if !last_hop {
                    self.send(net, at, link, ControlEvent::Teardown { flow, hop: next });
                } else {
                    self.events.push(SignalEvent::TornDown { flow, at });
                    // Released on every hop: the flow is reported drained
                    // once its last in-flight packet leaves the network —
                    // and once a withdrawn setup's confirmation, if still
                    // on the wire, has landed.
                    let next = match net.flow_phase(flow) {
                        Some(&FlowPhase::Withdrawn(req)) => FlowPhase::Released(req),
                        _ => FlowPhase::Retired,
                    };
                    net.set_flow_phase(flow, next);
                }
            }
        }
    }

    /// Transaction `req` of `flow` is refused or given back at
    /// `route[hop]`: it travels back to the hop upstream or, from the
    /// first, ends — a refused setup retires the flow, a refused
    /// renegotiation leaves it admitted as it was.
    fn back_from(
        &mut self,
        net: &mut Network,
        at: SimTime,
        flow: FlowId,
        req: RequestId,
        hop: usize,
    ) {
        if let Some(hop) = hop.checked_sub(1) {
            let back = route_link(net, flow, hop);
            self.send(net, at, back, ControlEvent::Back { flow, req, hop });
        } else if let Some(FlowPhase::Renegotiating { .. }) = net.flow_phase(flow) {
            self.end(net, flow, FlowPhase::Admitted);
        } else {
            self.end(net, flow, FlowPhase::Retired);
        }
    }

    /// `flow`'s transaction has ended, leaving its slot in `phase`.
    fn end(&mut self, net: &mut Network, flow: FlowId, phase: FlowPhase) {
        #[expect(
            clippy::arithmetic_side_effects,
            reason = "a transaction ends once, from a phase its `begin` counted"
        )]
        let pending = self.pending - 1;
        self.pending = pending;
        net.set_flow_phase(flow, phase);
    }
}

/// `route[hop]` of a registered flow, read in place.
fn route_link(net: &Network, flow: FlowId, hop: usize) -> LinkId {
    net.flow_config(flow).route[hop]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ispn_core::admission::{AdmissionConfig, AdmissionController, RejectReason};
    use ispn_net::Topology;
    use ispn_sched::{Averaging, Unified, Wfq};

    const MBIT: f64 = 1_000_000.0;

    fn controller() -> AdmissionController {
        AdmissionController::new(
            AdmissionConfig::new(MBIT, 0.9, vec![SimTime::from_millis(100)]),
            10.0,
        )
    }

    /// Three switches, two 1 Mbit/s links with 1 ms propagation, Unified
    /// scheduling and admission control on both links.
    fn net() -> (Network, Vec<LinkId>) {
        chain(3)
    }

    /// [`net`] with `switches` switches.
    fn chain(switches: usize) -> (Network, Vec<LinkId>) {
        let (topo, _nodes, links) = Topology::chain(switches, MBIT, SimTime::MILLISECOND, 200);
        let mut net = Network::new(topo);
        for &l in &links {
            net.set_discipline(l, Unified::new(MBIT, 1, Averaging::RunningMean));
            net.enable_admission(l, controller(), SimTime::SECOND);
        }
        (net, links)
    }

    /// Reserve `rate` on `link` at once, through the per-link primitives:
    /// the fixture for "this link is already this full".
    fn hog(net: &mut Network, link: LinkId, rate: f64) -> FlowId {
        let flow = net.add_flow_inactive(FlowConfig::guaranteed(vec![link], rate));
        assert!(net.admit_flow_on_link(flow, link).is_accept());
        net.set_flow_phase(flow, FlowPhase::Admitted);
        flow
    }

    fn reserved(net: &Network, link: LinkId) -> f64 {
        net.admission(link).unwrap().reserved_guaranteed_bps()
    }

    #[test]
    fn setup_confirms_with_per_hop_latency() {
        let (mut net, links) = net();
        let mut sig = Signaling::default();
        let (req, flow) = sig.submit(&mut net, FlowConfig::guaranteed(links.clone(), 300_000.0));
        assert!(!net.flow_active(flow));
        let events = sig.process_until(&mut net, SimTime::from_secs(1));
        assert_eq!(events.len(), 1);
        match &events[0] {
            SignalEvent::Accepted {
                request,
                flow: f,
                at,
            } => {
                assert_eq!(*request, req);
                assert_eq!(*f, flow);
                // Two hops to install plus the final link to the
                // destination: the confirmation lands after the setup
                // message crossed both links (1 ms tx + 1 ms propagation
                // each), i.e. at 4 ms.
                assert_eq!(*at, SimTime::from_millis(4));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(net.flow_active(flow));
        assert_eq!(sig.pending(), 0);
        assert!(sig.decisions().eq([(req, true)]));
        for &l in &links {
            assert!((net.admission(l).unwrap().reserved_guaranteed_bps() - 300_000.0).abs() < 1e-6);
        }
    }

    #[test]
    fn a_control_hop_over_a_link_that_never_delivers_lands_at_the_end_of_time() {
        let (topo, _nodes, links) = Topology::chain(2, MBIT, SimTime::MAX, 200);
        let mut net = Network::new(topo);
        net.set_discipline(links[0], Unified::new(MBIT, 1, Averaging::RunningMean));
        let mut sig = Signaling::default();
        sig.submit(&mut net, FlowConfig::guaranteed(links, 300_000.0));
        assert!(sig.process_next(&mut net).is_empty());
        // The first hop admitted the flow and sent the setup on: one
        // control-packet time plus the propagation absorbs at the end of
        // time instead of wrapping to 1 ms − 1 ns.
        assert_eq!(sig.peek_time(), Some(SimTime::MAX));
    }

    #[test]
    fn rejection_rolls_back_upstream_reservations() {
        let (mut net, links) = net();
        // Fill the second link almost to quota so a wide setup fails there.
        hog(&mut net, links[1], 800_000.0);
        let mut sig = Signaling::default();
        let (req, flow) = sig.submit(&mut net, FlowConfig::guaranteed(links.clone(), 200_000.0));
        let events = sig.process_until(&mut net, SimTime::from_secs(1));
        assert_eq!(events.len(), 1);
        match &events[0] {
            SignalEvent::Rejected {
                request, hop, link, ..
            } => {
                assert_eq!(*request, req);
                assert_eq!(*hop, 1);
                assert_eq!(*link, links[1]);
            }
            other => panic!("unexpected {other:?}"),
        }
        // After the rejection has travelled back, the first link holds no
        // residue from the failed setup.
        assert_eq!(sig.pending(), 0);
        assert_eq!(
            net.admission(links[0]).unwrap().reserved_guaranteed_bps(),
            0.0
        );
        assert!(
            (net.admission(links[1]).unwrap().reserved_guaranteed_bps() - 800_000.0).abs() < 1e-6
        );
        assert!(!net.flow_active(flow));
        assert!(net.installed_links(flow).next().is_none());
    }

    #[test]
    fn rollback_takes_time_to_travel_upstream() {
        let (mut net, links) = net();
        hog(&mut net, links[1], 800_000.0);
        let mut sig = Signaling::default();
        let (_req, flow) = sig.submit(&mut net, FlowConfig::guaranteed(links.clone(), 200_000.0));
        // The rejection happens at hop 1 (t = 2 ms) but the upstream release
        // only lands at t = 4 ms; just after the rejection the first link
        // still holds the partial reservation.
        sig.process_until(&mut net, SimTime::from_micros(2500));
        assert!(
            (net.admission(links[0]).unwrap().reserved_guaranteed_bps() - 200_000.0).abs() < 1e-6
        );
        sig.process_until(&mut net, SimTime::from_secs(1));
        assert_eq!(
            net.admission(links[0]).unwrap().reserved_guaranteed_bps(),
            0.0
        );
        assert!(!net.flow_active(flow));
    }

    #[test]
    fn teardown_during_a_rollback_folds_into_it() {
        let (mut net, links) = net();
        hog(&mut net, links[1], 800_000.0);
        let mut sig = Signaling::default();
        let (_req, flow) = sig.submit(&mut net, FlowConfig::guaranteed(links.clone(), 200_000.0));
        // Rejected at hop 1 (t = 2 ms); the release lands upstream at 4 ms.
        let events = sig.process_until(&mut net, SimTime::from_micros(2500));
        assert!(matches!(events[..], [SignalEvent::Rejected { .. }]));
        sig.teardown(&mut net, flow);
        let events = sig.process_until(&mut net, SimTime::from_micros(4100));
        assert!(events.is_empty());
        assert_eq!(sig.pending(), 0);
        // The rollback retired the flow; the driver recycles its slot and a
        // flow with a shorter route takes it.
        assert_eq!(net.take_drained_flows(), vec![flow]);
        net.recycle_flow_slot(flow);
        let next = net.add_flow_inactive(FlowConfig::guaranteed(vec![links[0]], 100_000.0));
        assert_eq!(next, flow);
        // A release wave of the teardown's own would now walk the newcomer's
        // one-hop route past its end, and retire it.
        assert_eq!(sig.process_until(&mut net, SimTime::from_secs(1)).len(), 0);
        assert!(net.take_drained_flows().is_empty());
    }

    #[test]
    fn teardown_releases_every_hop() {
        let (mut net, links) = net();
        let mut sig = Signaling::default();
        let (_req, flow) = sig.submit(&mut net, FlowConfig::guaranteed(links.clone(), 400_000.0));
        sig.process_until(&mut net, SimTime::from_secs(1));
        assert!(net.flow_active(flow));
        sig.teardown(&mut net, flow);
        assert!(!net.flow_active(flow), "source silenced immediately");
        let events = sig.process_until(&mut net, SimTime::from_secs(2));
        assert_eq!(events.len(), 1);
        assert!(matches!(events[0], SignalEvent::TornDown { flow: f, .. } if f == flow));
        for &l in &links {
            assert_eq!(net.admission(l).unwrap().reserved_guaranteed_bps(), 0.0);
        }
        assert!(net.installed_links(flow).next().is_none());
    }

    #[test]
    fn predicted_renegotiation_swaps_the_bucket() {
        let (mut net, links) = net();
        let mut sig = Signaling::default();
        let bucket = TokenBucketSpec::per_packets(85.0, 50.0, 1000);
        let (_r, flow) = sig.submit(
            &mut net,
            FlowConfig::predicted(
                links.clone(),
                0,
                bucket,
                SimTime::from_millis(100),
                0.001,
                ispn_net::PoliceAction::Drop,
            ),
        );
        sig.process_until(&mut net, SimTime::from_secs(1));
        assert!(net.flow_active(flow));

        let bigger = TokenBucketSpec::per_packets(120.0, 60.0, 1000);
        let req = sig.renegotiate_bucket(&mut net, flow, bigger).unwrap();
        let events = sig.process_until(&mut net, SimTime::from_secs(2));
        assert_eq!(events.len(), 1);
        assert!(matches!(&events[0], SignalEvent::Renegotiated { request, .. } if *request == req));
        assert_eq!(net.flow_config(flow).spec.bucket(), Some(bigger));
        assert_eq!(net.flow_config(flow).edge_policer.unwrap().0, bigger);
    }

    #[test]
    fn predicted_renegotiation_refused_keeps_old_bucket() {
        let (mut net, links) = net();
        let mut sig = Signaling::default();
        let bucket = TokenBucketSpec::per_packets(85.0, 50.0, 1000);
        let (_r, flow) = sig.submit(
            &mut net,
            FlowConfig::predicted(
                links.clone(),
                0,
                bucket,
                SimTime::from_millis(100),
                0.001,
                ispn_net::PoliceAction::Drop,
            ),
        );
        sig.process_until(&mut net, SimTime::from_secs(1));

        // An absurd request: more than the real-time quota.
        let absurd = TokenBucketSpec::new(950_000.0, 50_000.0);
        let req = sig.renegotiate_bucket(&mut net, flow, absurd).unwrap();
        let events = sig.process_until(&mut net, SimTime::from_secs(2));
        assert_eq!(events.len(), 1);
        assert!(matches!(
            &events[0],
            SignalEvent::RenegotiationRejected { request, hop: 0, .. } if *request == req
        ));
        assert_eq!(net.flow_config(flow).spec.bucket(), Some(bucket));
        assert!(net.flow_active(flow), "the flow keeps its old service");
    }

    #[test]
    fn guaranteed_renegotiation_up_and_down() {
        let (mut net, links) = net();
        let mut sig = Signaling::default();
        let (_r, flow) = sig.submit(&mut net, FlowConfig::guaranteed(links.clone(), 200_000.0));
        sig.process_until(&mut net, SimTime::from_secs(1));

        // Up: 200k -> 500k.
        sig.renegotiate_clock_rate(&mut net, flow, 500_000.0)
            .unwrap();
        let events = sig.process_until(&mut net, SimTime::from_secs(2));
        assert!(matches!(events[0], SignalEvent::Renegotiated { .. }));
        assert_eq!(net.flow_config(flow).spec.clock_rate_bps(), Some(500_000.0));
        for &l in &links {
            assert!((net.admission(l).unwrap().reserved_guaranteed_bps() - 500_000.0).abs() < 1e-6);
        }

        // Down: 500k -> 100k.
        sig.renegotiate_clock_rate(&mut net, flow, 100_000.0)
            .unwrap();
        let events = sig.process_until(&mut net, SimTime::from_secs(3));
        assert!(matches!(events[0], SignalEvent::Renegotiated { .. }));
        for &l in &links {
            assert!((net.admission(l).unwrap().reserved_guaranteed_bps() - 100_000.0).abs() < 1e-6);
        }

        // Teardown after renegotiation releases the *new* rate exactly.
        sig.teardown(&mut net, flow);
        sig.process_until(&mut net, SimTime::from_secs(4));
        for &l in &links {
            assert_eq!(net.admission(l).unwrap().reserved_guaranteed_bps(), 0.0);
        }
    }

    #[test]
    fn failed_guaranteed_increase_restores_old_rate() {
        let (mut net, links) = net();
        // Leave only a sliver of quota on link 1.
        hog(&mut net, links[1], 600_000.0);
        let mut sig = Signaling::default();
        let (_r, flow) = sig.submit(&mut net, FlowConfig::guaranteed(links.clone(), 200_000.0));
        sig.process_until(&mut net, SimTime::from_secs(1));

        // 200k -> 400k: fits on link 0, not on link 1 (600k + 400k > 900k).
        let req = sig
            .renegotiate_clock_rate(&mut net, flow, 400_000.0)
            .unwrap();
        let events = sig.process_until(&mut net, SimTime::from_secs(2));
        assert_eq!(events.len(), 1);
        assert!(matches!(
            &events[0],
            SignalEvent::RenegotiationRejected { request, hop: 1, .. } if *request == req
        ));
        // Old reservation intact everywhere.
        assert_eq!(net.flow_config(flow).spec.clock_rate_bps(), Some(200_000.0));
        assert!(
            (net.admission(links[0]).unwrap().reserved_guaranteed_bps() - 200_000.0).abs() < 1e-6
        );
        assert!(
            (net.admission(links[1]).unwrap().reserved_guaranteed_bps() - 800_000.0).abs() < 1e-6
        );
        assert!(net.flow_active(flow));
    }

    #[test]
    fn teardown_during_inflight_setup_cancels_it_cleanly() {
        let (mut net, links) = net();
        let mut sig = Signaling::default();
        let (_req, flow) = sig.submit(&mut net, FlowConfig::guaranteed(links.clone(), 300_000.0));
        // Let the setup install hop 0 (t = 0) but tear down before the
        // confirmation (t = 4 ms) can activate the flow.
        sig.process_until(&mut net, SimTime::MILLISECOND);
        sig.teardown(&mut net, flow);
        sig.process_until(&mut net, SimTime::from_secs(1));
        assert!(!net.flow_active(flow), "cancelled setup must not activate");
        assert!(net.installed_links(flow).next().is_none());
        for &l in &links {
            assert_eq!(net.admission(l).unwrap().reserved_guaranteed_bps(), 0.0);
        }
        assert_eq!(sig.pending(), 0);
        // The withdrawn setup never completed, so it is not in the log.
        assert_eq!(sig.decisions().len(), 0);
    }

    #[test]
    fn teardown_after_last_hop_admission_does_not_reactivate() {
        let (mut net, links) = net();
        let mut sig = Signaling::default();
        let (_req, flow) = sig.submit(&mut net, FlowConfig::guaranteed(links.clone(), 300_000.0));
        // Both hops admit (t = 0 and t = 2 ms) but the confirmation only
        // lands at t = 4 ms; the teardown arrives in between, so the
        // confirm of the withdrawn setup must not bring the flow back.
        sig.process_until(&mut net, SimTime::from_millis(3));
        sig.teardown(&mut net, flow);
        let events = sig.process_until(&mut net, SimTime::from_secs(1));
        assert!(!net.flow_active(flow), "cancelled setup must not activate");
        assert!(
            !events
                .iter()
                .any(|e| matches!(e, SignalEvent::Accepted { .. })),
            "a withdrawn setup must not report acceptance"
        );
        assert!(net.installed_links(flow).next().is_none());
        for &l in &links {
            assert_eq!(net.admission(l).unwrap().reserved_guaranteed_bps(), 0.0);
        }
        assert_eq!(sig.pending(), 0);
        assert_eq!(sig.decisions().len(), 0);
    }

    #[test]
    fn teardown_cancels_its_own_setup_and_the_recycled_slot_starts_clean() {
        let (mut net, links) = net();
        let mut sig = Signaling::default();
        let two_hops = || FlowConfig::guaranteed(links.clone(), 100_000.0);
        let (ra, _) = sig.submit(&mut net, two_hops());
        let (_, fb) = sig.submit(&mut net, FlowConfig::guaranteed(vec![links[0]], 100_000.0));
        let (rc, _) = sig.submit(&mut net, two_hops());
        // Admitted at hop 0; confirmations due at 4, 2 and 4 ms.
        sig.process_until(&mut net, SimTime::MILLISECOND);
        assert_eq!(sig.pending(), 3);
        sig.teardown(&mut net, fb);
        // The release wave is done at once, ahead of the confirmation on the
        // link: the flow keeps its id until that has landed.
        let events = sig.process_until(&mut net, SimTime::from_micros(1500));
        assert!(matches!(events[..], [SignalEvent::TornDown { flow, .. }] if flow == fb));
        assert_eq!((sig.pending(), net.take_drained_flows()), (3, vec![]));
        // The confirmation is swallowed: one transaction fewer, no verdict.
        assert!(sig
            .process_until(&mut net, SimTime::from_micros(2500))
            .is_empty());
        assert_eq!((sig.pending(), net.take_drained_flows()), (2, vec![fb]));
        net.recycle_flow_slot(fb);
        // The slot's next occupant is an ordinary setup; nobody else noticed.
        let (rd, fd) = sig.submit(&mut net, FlowConfig::guaranteed(vec![links[1]], 100_000.0));
        assert_eq!((fd, sig.pending()), (fb, 3));
        sig.process_until(&mut net, SimTime::from_secs(1));
        assert!(sig.decisions().eq([(ra, true), (rc, true), (rd, true)]));
        assert_eq!(sig.pending(), 0);
        assert!(net.flow_active(fd));
    }

    #[test]
    fn teardown_after_reneg_cleared_every_hop_does_not_commit() {
        let (mut net, links) = net();
        let mut sig = Signaling::default();
        let (_r, flow) = sig.submit(&mut net, FlowConfig::guaranteed(links.clone(), 200_000.0));
        sig.process_until(&mut net, SimTime::from_secs(1));
        // Grow 200k -> 500k; both hops accept and the commit message is
        // queued (t = 1 s + 4 ms).  Tear down before it lands: the commit
        // must be a no-op, not a panic or a spec change.
        sig.renegotiate_clock_rate(&mut net, flow, 500_000.0)
            .unwrap();
        sig.process_until(&mut net, SimTime::from_secs(1) + SimTime::from_millis(3));
        sig.teardown(&mut net, flow);
        let events = sig.process_until(&mut net, SimTime::from_secs(2));
        assert_eq!(sig.pending(), 0);
        assert!(events
            .iter()
            .any(|e| matches!(e, SignalEvent::TornDown { flow: f, .. } if *f == flow)));
        assert!(
            !events
                .iter()
                .any(|e| matches!(e, SignalEvent::Renegotiated { .. })),
            "a cancelled renegotiation must not commit"
        );
        assert_eq!(net.flow_config(flow).spec.clock_rate_bps(), Some(200_000.0));
        for &l in &links {
            assert_eq!(net.admission(l).unwrap().reserved_guaranteed_bps(), 0.0);
        }
    }

    #[test]
    fn guaranteed_increase_vetoed_by_scheduler() {
        // One link, Unified scheduling, no admission controller: only the
        // link's capacity can refuse the increase, and that refusal must
        // fail the renegotiation instead of desynchronizing spec and
        // scheduler.
        let (topo, _nodes, links) = Topology::chain(2, MBIT, SimTime::MILLISECOND, 200);
        let mut net = Network::new(topo);
        net.set_discipline(links[0], Unified::new(MBIT, 1, Averaging::RunningMean));
        let mut sig = Signaling::default();
        let (_r, flow) = sig.submit(&mut net, FlowConfig::guaranteed(vec![links[0]], 600_000.0));
        sig.process_until(&mut net, SimTime::from_secs(1));
        assert!(net.flow_active(flow));

        let req = sig
            .renegotiate_clock_rate(&mut net, flow, 1_200_000.0)
            .unwrap();
        let events = sig.process_until(&mut net, SimTime::from_secs(2));
        assert_eq!(events.len(), 1);
        assert!(matches!(
            &events[0],
            SignalEvent::RenegotiationRejected { request, hop: 0, .. } if *request == req
        ));
        assert_eq!(net.flow_config(flow).spec.clock_rate_bps(), Some(600_000.0));
        assert!(net.flow_active(flow), "the flow keeps its old reservation");
    }

    #[test]
    fn scheduler_veto_during_reneg_undoes_controller_delta() {
        // A controller with a 100 % quota says yes to a full-link rate, but
        // the ledger refuses it (a Unified link's Σ rates must stay strictly
        // below the link speed); the controller's delta must be given back.
        let (topo, _nodes, links) = Topology::chain(2, MBIT, SimTime::MILLISECOND, 200);
        let mut net = Network::new(topo);
        net.set_discipline(links[0], Unified::new(MBIT, 1, Averaging::RunningMean));
        net.enable_admission(
            links[0],
            AdmissionController::new(
                AdmissionConfig::new(MBIT, 1.0, vec![SimTime::from_millis(100)]),
                10.0,
            ),
            SimTime::SECOND,
        );
        let mut sig = Signaling::default();
        let (_r, flow) = sig.submit(&mut net, FlowConfig::guaranteed(vec![links[0]], 600_000.0));
        sig.process_until(&mut net, SimTime::from_secs(1));

        let req = sig
            .renegotiate_clock_rate(&mut net, flow, 1_000_000.0)
            .unwrap();
        let events = sig.process_until(&mut net, SimTime::from_secs(2));
        assert_eq!(events.len(), 1);
        assert!(matches!(
            &events[0],
            SignalEvent::RenegotiationRejected { request, hop: 0, .. } if *request == req
        ));
        assert_eq!(net.flow_config(flow).spec.clock_rate_bps(), Some(600_000.0));
        assert!(
            (net.admission(links[0]).unwrap().reserved_guaranteed_bps() - 600_000.0).abs() < 1e-6,
            "the refused delta must be released from the controller"
        );
    }

    #[test]
    fn teardown_during_inflight_renegotiation_leaks_nothing() {
        let (mut net, links) = net();
        let mut sig = Signaling::default();
        let (_r, flow) = sig.submit(&mut net, FlowConfig::guaranteed(links.clone(), 200_000.0));
        sig.process_until(&mut net, SimTime::from_secs(1));
        // Start growing 200k -> 500k, then tear down while the increase has
        // been applied on hop 0 but the message is still in flight.
        sig.renegotiate_clock_rate(&mut net, flow, 500_000.0)
            .unwrap();
        sig.process_until(&mut net, SimTime::from_secs(1) + SimTime::MILLISECOND);
        sig.teardown(&mut net, flow);
        sig.process_until(&mut net, SimTime::from_secs(2));
        assert_eq!(sig.pending(), 0);
        for &l in &links {
            assert_eq!(
                net.admission(l).unwrap().reserved_guaranteed_bps(),
                0.0,
                "neither the old rate nor the applied delta may survive"
            );
        }
    }

    #[test]
    fn a_renegotiation_racing_a_rejected_setup_leaves_no_reservation_behind() {
        let (mut net, links) = net();
        hog(&mut net, links[1], 800_000.0);
        let only_the_hog = net.reservation_state_bytes();
        let mut sig = Signaling::default();
        let (_req, flow) = sig.submit(&mut net, FlowConfig::guaranteed(links.clone(), 200_000.0));
        // The setup is in flight: nothing to renegotiate yet, and no
        // message follows the setup to meet its rejection on link 1.
        assert_eq!(
            sig.renegotiate_clock_rate(&mut net, flow, 250_000.0),
            Err(Refusal::NotAdmitted)
        );
        let events = sig.process_until(&mut net, SimTime::from_secs(1));
        assert!(
            matches!(events[..], [SignalEvent::Rejected { hop: 1, .. }]),
            "{events:?}"
        );
        assert_eq!(net.reservation_state_bytes(), only_the_hog);
        assert_eq!(reserved(&net, links[0]), 0.0);
        // Link 0 holds nothing for the rejected flow: a flow that needs
        // nearly all of it fits.
        let (_req, wide) = sig.submit(&mut net, FlowConfig::guaranteed(vec![links[0]], 850_000.0));
        let events = sig.process_until(&mut net, SimTime::from_secs(2));
        assert!(
            matches!(events[..], [SignalEvent::Accepted { flow, .. }] if flow == wide),
            "{events:?}"
        );
    }

    #[test]
    fn a_renegotiation_of_a_rejected_setup_never_commits() {
        for tear_down in [false, true] {
            let (mut net, links) = net();
            hog(&mut net, links[1], 800_000.0);
            let mut sig = Signaling::default();
            let (req, flow) =
                sig.submit(&mut net, FlowConfig::guaranteed(links.clone(), 200_000.0));
            // Rejected at hop 1 (t = 2 ms); the rollback reaches hop 0 at 4 ms.
            sig.process_until(&mut net, SimTime::from_micros(2500));
            assert_eq!(net.flow_phase(flow), Some(&FlowPhase::RollingBack(req)));
            if tear_down {
                sig.teardown(&mut net, flow);
            }
            // Refused at once, torn down or not: the rollback alone
            // retires the flow.
            assert_eq!(
                sig.renegotiate_clock_rate(&mut net, flow, 100_000.0),
                Err(Refusal::NotAdmitted)
            );
            let events = sig.process_until(&mut net, SimTime::from_secs(1));
            assert!(events.is_empty(), "{events:?}");
            assert_eq!(net.flow_config(flow).spec.clock_rate_bps(), Some(200_000.0));
            assert_eq!(sig.pending(), 0);
            assert_eq!(net.take_drained_flows(), vec![flow]);
        }
    }

    #[test]
    fn a_stale_renegotiation_commit_never_reaches_the_slots_next_tenant() {
        // An 11-ms link for the first tenant, a 1-ms one for the next; no
        // admission control, so only the messages' effects show.
        let mut topo = Topology::new();
        let (x, y) = (topo.add_node(), topo.add_node());
        let slow = topo.add_link(x, y, MBIT, SimTime::from_millis(10), 200);
        let fast = topo.add_link(y, x, MBIT, SimTime::ZERO, 200);
        let mut net = Network::new(topo);
        let mut sig = Signaling::default();
        let (_req, a) = sig.submit(&mut net, FlowConfig::guaranteed(vec![slow], 300_000.0));
        sig.process_until(&mut net, SimTime::from_millis(20));
        // Granted on its one hop at once; the commit is due at 31 ms.
        sig.renegotiate_clock_rate(&mut net, a, 400_000.0).unwrap();
        sig.process_until(&mut net, SimTime::from_millis(21));
        // Torn down first: the one-hop release wave is done at once, and
        // the drained slot goes to a flow on the fast link.
        sig.teardown(&mut net, a);
        sig.process_until(&mut net, SimTime::from_micros(21_500));
        assert_eq!(net.take_drained_flows(), vec![a]);
        net.recycle_flow_slot(a);
        let (_req, b) = sig.submit(&mut net, FlowConfig::guaranteed(vec![fast], 300_000.0));
        assert_eq!(b, a);
        sig.process_until(&mut net, SimTime::from_micros(30_500));
        // The newcomer renegotiates too; its commit is due at 31.5 ms, just
        // after the stale one, which finds another request in the slot.
        let rb = sig.renegotiate_clock_rate(&mut net, b, 200_000.0).unwrap();
        let events = sig.process_until(&mut net, SimTime::from_secs(1));
        assert!(
            matches!(
                events[..],
                [SignalEvent::Renegotiated { request, at, .. }]
                    if request == rb && at == SimTime::from_micros(31_500)
            ),
            "{events:?}"
        );
        assert_eq!(net.flow_config(b).spec.clock_rate_bps(), Some(200_000.0));
        assert_eq!(sig.pending(), 0);
    }

    #[test]
    fn a_second_increase_in_flight_is_refused_at_once() {
        let (mut net, links) = chain(4);
        hog(&mut net, links[1], 550_000.0);
        let mut sig = Signaling::default();
        let (_r, flow) = sig.submit(&mut net, FlowConfig::guaranteed(links.clone(), 200_000.0));
        sig.process_until(&mut net, SimTime::from_secs(1));
        // 200k -> 300k fits every link; 300k -> 500k would not fit link 1
        // (550k + 500k > 900k), and its undo would bring link 0 back to the
        // declared 200k after the first had reserved 300k there.
        let first = sig
            .renegotiate_clock_rate(&mut net, flow, 300_000.0)
            .unwrap();
        assert_eq!(
            sig.renegotiate_clock_rate(&mut net, flow, 500_000.0),
            Err(Refusal::Busy)
        );
        let events = sig.process_until(&mut net, SimTime::from_secs(2));
        assert!(
            matches!(events[..], [SignalEvent::Renegotiated { request, .. }] if request == first),
            "{events:?}"
        );
        assert_eq!(net.flow_config(flow).spec.clock_rate_bps(), Some(300_000.0));
        // Every link reserves exactly the committed rate (beside the hog).
        assert_eq!(reserved(&net, links[0]), 300_000.0);
        assert_eq!(reserved(&net, links[1]), 850_000.0);
        assert_eq!(reserved(&net, links[2]), 300_000.0);
    }

    #[test]
    fn a_second_teardown_does_nothing_and_the_flow_drains_once() {
        for recycle in [true, false] {
            let (mut net, links) = chain(4);
            let mut sig = Signaling::default();
            let (_r, flow) = sig.submit(&mut net, FlowConfig::guaranteed(links.clone(), 200_000.0));
            sig.process_until(&mut net, SimTime::from_secs(1));
            // A release wave reaches the three hops 0, 2 and 4 ms after
            // its teardown; the second teardown comes 1 ms after the first.
            sig.teardown(&mut net, flow);
            sig.process_until(&mut net, SimTime::from_secs(1) + SimTime::MILLISECOND);
            sig.teardown(&mut net, flow);
            sig.process_until(&mut net, SimTime::from_secs(1) + SimTime::from_micros(4500));
            assert_eq!(net.take_drained_flows(), vec![flow]);
            if recycle {
                // The slot's next tenant has a one-hop route: a second wave
                // would walk it past its end.
                net.recycle_flow_slot(flow);
                let one_hop = FlowConfig::guaranteed(vec![links[1]], 100_000.0);
                assert_eq!(sig.submit(&mut net, one_hop).1, flow);
            }
            let events = sig.process_until(&mut net, SimTime::from_secs(2));
            assert!(net.take_drained_flows().is_empty());
            assert_eq!(sig.pending(), 0);
            if recycle {
                assert!(
                    matches!(events[..], [SignalEvent::Accepted { flow: f, .. }] if f == flow),
                    "{events:?}"
                );
                let held = [0.0, 100_000.0, 0.0];
                for (&l, held) in links.iter().zip(held) {
                    assert_eq!(reserved(&net, l), held);
                }
            } else {
                assert!(events.is_empty(), "{events:?}");
                for &l in &links {
                    assert_eq!(reserved(&net, l), 0.0);
                }
            }
        }
    }

    #[test]
    fn scheduler_refusal_vetoes_admission_without_a_controller() {
        // No admission controller at all: the quota says yes to anything,
        // but a unified link cannot reserve its whole rate, and that
        // refusal must surface as a rejection, not a silent no-op.
        let (topo, _nodes, links) = Topology::chain(2, MBIT, SimTime::ZERO, 200);
        let mut net = Network::new(topo);
        net.set_discipline(links[0], Unified::new(MBIT, 1, Averaging::RunningMean));
        let flow = net.add_flow_inactive(FlowConfig::guaranteed(vec![links[0]], MBIT));
        match net.admit_flow_on_link(flow, links[0]) {
            AdmissionDecision::Reject { reason } => {
                assert!(reason.to_string().contains("scheduler refused"), "{reason}")
            }
            AdmissionDecision::Accept => {
                panic!("the scheduler cannot hold a full-link reservation")
            }
        }
        assert!(net.installed_links(flow).next().is_none());
        // A sane rate still goes through.
        hog(&mut net, links[0], 500_000.0);
    }

    #[test]
    fn link_capacity_vetoes_wfq_admission_without_a_controller() {
        // The WFQ twin of the test above: with no controller, the ledger
        // alone keeps the link's guaranteed rates below μ, for a setup and
        // for a renegotiated increase, and a refusal changes nothing.
        let (topo, _nodes, links) = Topology::chain(2, MBIT, SimTime::ZERO, 200);
        let mut net = Network::new(topo);
        net.set_discipline(links[0], Wfq::new(MBIT, 100_000.0));
        let empty = net.reservation_state_bytes();
        let refused = |rate_bps| AdmissionDecision::Reject {
            reason: RejectReason::SchedulerRefused { rate_bps },
        };
        let flow = net.add_flow_inactive(FlowConfig::guaranteed(vec![links[0]], MBIT));
        assert_eq!(net.admit_flow_on_link(flow, links[0]), refused(MBIT));
        assert!(net.installed_links(flow).next().is_none());
        assert_eq!(net.reservation_state_bytes(), empty);

        let flow = hog(&mut net, links[0], 600_000.0);
        let installed = net.reservation_state_bytes();
        let up = FlowSpec::guaranteed(MBIT);
        assert_eq!(net.renegotiate_on_link(flow, links[0], &up), refused(MBIT));
        assert!(net.installed_links(flow).eq([(links[0], 600_000.0)]));
        assert_eq!(net.held_bps(links[0]), 600_000.0);
        assert_eq!(net.reservation_state_bytes(), installed);
        // Just below μ still fits.
        let up = FlowSpec::guaranteed(MBIT - 1.0);
        assert!(net.renegotiate_on_link(flow, links[0], &up).is_accept());
        assert_eq!(net.held_bps(links[0]), MBIT - 1.0);
        assert!(net.release_flow_on_link(flow, links[0]));
        assert_eq!(net.held_bps(links[0]), 0.0);
        assert_eq!(net.reservation_state_bytes(), empty);
    }

    #[test]
    fn interleaved_setups_are_serialized_by_event_time() {
        let (mut net, links) = net();
        let mut sig = Signaling::default();
        // Two setups racing for the same quota: both fit individually, but
        // not together.  The one submitted first wins deterministically.
        let (ra, fa) = sig.submit(&mut net, FlowConfig::guaranteed(vec![links[0]], 500_000.0));
        let (rb, fb) = sig.submit(&mut net, FlowConfig::guaranteed(vec![links[0]], 500_000.0));
        let events = sig.process_until(&mut net, SimTime::from_secs(1));
        assert_eq!(events.len(), 2);
        assert_eq!(sig.decisions().len(), 2);
        let accepted: Vec<_> = sig.decisions().filter(|(_, a)| *a).collect();
        assert_eq!(accepted, vec![(ra, true)]);
        assert!(net.flow_active(fa));
        assert!(!net.flow_active(fb));
        let _ = rb;
    }

    /// Log `entries` and check they read back exactly, in order, with the
    /// iterator's length equal to the count; returns the log's bytes.
    fn assert_decisions_round_trip(entries: &[(RequestId, bool)]) -> usize {
        let mut sig = Signaling::default();
        for &(req, accepted) in entries {
            sig.decision_log.push(req, accepted);
        }
        let read = sig.decisions();
        assert_eq!(read.len(), entries.len());
        assert_eq!(read.collect::<Vec<_>>(), entries);
        assert_eq!(sig.decision_log(), entries);
        sig.decision_log.bytes.len()
    }

    #[test]
    fn decision_log_lengths_are_pinned_at_the_edges() {
        let ids = |ids: &[u64]| -> Vec<(RequestId, bool)> {
            let outcomes = [true, false].into_iter().cycle();
            ids.iter().map(|&id| RequestId(id)).zip(outcomes).collect()
        };
        // The log starts from id 0; the zigzag delta sits above the
        // outcome bit, so one byte carries a step of -32..=31.
        for (sequence, bytes) in [
            (&[][..], 0),
            (&[1, 2, 3, 5, 4][..], 5),
            (&[0, u64::MAX, 0][..], 3),
            (&[31, 0][..], 2),
            (&[32][..], 2),
            (&[u64::MAX - 31][..], 1),
            (&[u64::MAX - 32][..], 2),
            (&[1 << 63][..], 10),
            (&[i64::MAX as u64][..], 10),
            (&[u64::MAX >> 1, u64::MAX, 0, 1 << 63][..], 10 + 10 + 1 + 10),
        ] {
            assert_eq!(
                assert_decisions_round_trip(&ids(sequence)),
                bytes,
                "{sequence:?}"
            );
        }
    }

    proptest::proptest! {
        /// Ascending ids with small and arbitrary gaps, setups completing
        /// after later ones, `0` and `u64::MAX` side by side, both outcomes.
        #[test]
        fn decision_logs_read_back_exactly(
            start in proptest::prelude::any::<u64>(),
            steps in proptest::collection::vec(
                (0u8..6, proptest::prelude::any::<u64>(), proptest::prelude::any::<bool>()),
                0..64,
            ),
        ) {
            let mut id = start;
            let entries: Vec<_> = steps
                .into_iter()
                .map(|(kind, x, accepted)| {
                    id = match kind {
                        0 | 1 => id.wrapping_add(1 + x % 4),
                        2 => id.wrapping_add(x >> (x % 64)),
                        3 => id.wrapping_sub(x % 40),
                        4 => [0, u64::MAX][(x & 1) as usize],
                        _ => x,
                    };
                    (RequestId(id), accepted)
                })
                .collect();
            assert_decisions_round_trip(&entries);
        }
    }
}

/// The first slice of ROADMAP's model-based control-plane test: random
/// interleavings of the whole request lifecycle — submit, teardown (also
/// mid-setup), renegotiation (mid-setup, racing a teardown or a
/// rejection), source/sink attach, agent retirement, slot reclamation —
/// driven the way the churn driver drives them, against agents that panic
/// on anything that was not meant for them.
#[cfg(test)]
mod proptests {
    use std::cell::Cell;
    use std::rc::Rc;

    use super::*;
    use ispn_core::admission::{AdmissionConfig, AdmissionController};
    use ispn_core::Packet;
    use ispn_net::{Agent, AgentApi, AgentId, Delivery, PoliceAction, Topology};
    use ispn_sched::{Averaging, Unified};
    use proptest::prelude::*;

    const MBIT: f64 = 1_000_000.0;
    const PERIOD: SimTime = SimTime::from_millis(2);

    /// Sends a packet on `flow` every [`PERIOD`], always with one timer
    /// pending — which must never reach anyone but this agent.
    struct Source {
        flow: FlowId,
        token: u64,
    }

    impl Agent for Source {
        fn start(&mut self, api: &mut AgentApi) {
            api.set_timer(PERIOD, self.token);
        }
        fn on_timer(&mut self, token: u64, api: &mut AgentApi) {
            assert_eq!(
                token, self.token,
                "a stale timer reached a slot's next occupant"
            );
            api.send(Packet::data(self.flow, 0, 1000, api.now()));
            api.set_timer(PERIOD, self.token);
        }
        fn on_packet(&mut self, _: Delivery, _: &mut AgentApi) {
            panic!("a source was handed a packet");
        }
    }

    /// The sink of one flow (told which once the flow has its id).
    struct Sink {
        flow: Rc<Cell<Option<FlowId>>>,
    }

    impl Agent for Sink {
        fn on_timer(&mut self, _: u64, _: &mut AgentApi) {
            panic!("a sink was handed a timer");
        }
        fn on_packet(&mut self, delivery: Delivery, _: &mut AgentApi) {
            assert_eq!(
                Some(delivery.packet.flow),
                self.flow.get(),
                "someone else's packet"
            );
        }
    }

    /// Arms one timer when started and expects exactly that one back: a
    /// pending event that names the slot of an agent with no flow.
    struct Ticker {
        token: u64,
    }

    impl Agent for Ticker {
        fn start(&mut self, api: &mut AgentApi) {
            api.set_timer(PERIOD, self.token);
        }
        fn on_timer(&mut self, token: u64, _: &mut AgentApi) {
            assert_eq!(token, self.token, "someone else's timer");
        }
        fn on_packet(&mut self, _: Delivery, _: &mut AgentApi) {
            panic!("a ticker was handed a packet");
        }
    }

    #[derive(Clone, Copy, PartialEq, Debug)]
    enum State {
        /// Declared before the run and reserved through the ledger, as
        /// `ScenarioBuilder` does: never renegotiated, torn down like any.
        Declared,
        Pending,
        Accepted,
        Rejected,
        Leaving,
        Recycled,
    }

    struct Rec {
        flow: FlowId,
        state: State,
        source: Option<AgentId>,
        sink: Option<AgentId>,
        /// The renegotiation of this request not yet answered or cancelled.
        reneg: Option<RequestId>,
    }

    struct Driver {
        net: Network,
        sig: Signaling,
        links: Vec<LinkId>,
        recs: Vec<Rec>,
        live: Vec<AgentId>,
        next_token: u64,
        /// `reservation_state_bytes()` of the network before any request.
        no_reservations: u64,
    }

    /// The first `1 + (a / 3) % (3 - a % 3)` of the chain's links from
    /// link `a % 3` on.
    fn span(links: &[LinkId], a: usize) -> Vec<LinkId> {
        let first = a % 3;
        let hops = 1 + (a / 3) % (3 - first);
        links[first..first + hops].to_vec()
    }

    /// On every link, the rates the flows hold there sum to the ledger's
    /// per-link sum and to what its controller has reserved, and stay
    /// below the link rate (every link is unified).  Each rate is a whole
    /// number of bit/s far below 2⁵³, so every sum is exact.
    fn assert_ledger_balances(net: &Network, links: &[LinkId]) {
        for &l in links {
            let held: f64 = (0..net.num_flows())
                .flat_map(|i| net.installed_links(FlowId(i as u32)))
                .filter(|&(at, _)| at == l)
                .map(|(_, rate)| rate)
                .sum();
            let reserved = net.admission(l).unwrap().reserved_guaranteed_bps();
            assert_eq!(held, reserved, "{l:?} holds {held}, reserves {reserved}");
            assert_eq!(net.held_bps(l), held, "{l:?}'s sum");
            assert!(held < net.topology().link(l).rate_bps, "{l:?} holds {held}");
        }
    }

    impl Driver {
        /// A three-link chain under admission control, holding one
        /// declared guaranteed flow of `150 kbit/s × (1 + b % 3)` over
        /// [`span`]`(a)` per `(a, b)` in `declared` (two fit anywhere).
        fn new(declared: &[(usize, u64)]) -> Driver {
            let (topo, _nodes, links) = Topology::chain(4, MBIT, SimTime::MILLISECOND, 200);
            let mut net = Network::new(topo);
            for &l in &links {
                net.set_discipline(l, Unified::new(MBIT, 2, Averaging::RunningMean));
                let targets = vec![SimTime::from_millis(30), SimTime::from_millis(300)];
                net.enable_admission(
                    l,
                    AdmissionController::new(AdmissionConfig::new(MBIT, 0.9, targets), 10.0),
                    SimTime::from_millis(100),
                );
            }
            let no_reservations = net.reservation_state_bytes();
            let mut recs = Vec::new();
            for &(a, b) in declared {
                let config =
                    FlowConfig::guaranteed(span(&links, a), 150_000.0 * (1 + b % 3) as f64);
                let flow = net.add_flow(config.clone());
                for link in config.route {
                    let decision = net.renegotiate_on_link(flow, link, &config.spec);
                    assert!(decision.is_accept(), "{flow} refused: {decision:?}");
                }
                recs.push(Rec {
                    flow,
                    state: State::Declared,
                    source: None,
                    sink: None,
                    reneg: None,
                });
            }
            Driver {
                no_reservations,
                net,
                sig: Signaling::default(),
                links,
                recs,
                live: Vec::new(),
                next_token: 0,
            }
        }

        fn token(&mut self) -> u64 {
            self.next_token += 1;
            self.next_token
        }

        fn add_agent(&mut self, agent: Box<dyn Agent>) -> AgentId {
            let id = self.net.add_agent(agent);
            assert!(
                !self.live.contains(&id),
                "a live agent's slot was handed out again"
            );
            self.live.push(id);
            id
        }

        /// Every retirement goes through here, so no record keeps a retired
        /// (soon to be reused) id.
        fn retire(&mut self, id: AgentId) {
            self.net.retire_agent(id);
            self.live.retain(|&a| a != id);
            for rec in &mut self.recs {
                if rec.source == Some(id) {
                    rec.source = None;
                }
                if rec.sink == Some(id) {
                    rec.sink = None;
                }
            }
        }

        /// The record currently registered under `flow`.
        fn rec(&mut self, flow: FlowId) -> &mut Rec {
            self.recs
                .iter_mut()
                .rev()
                .find(|r| r.flow == flow && r.state != State::Recycled)
                .expect("an event for a flow nobody submitted")
        }

        /// The record renegotiation `req` of `flow` was answered for: the
        /// request must be the one that record made and has not seen
        /// answered — never one of the slot's previous tenant.
        fn answer(&mut self, flow: FlowId, req: RequestId) -> &mut Rec {
            let rec = self.rec(flow);
            let asked = rec.reneg.take();
            assert_eq!(
                asked,
                Some(req),
                "{req:?} answered for {flow}, which never asked"
            );
            rec
        }

        /// The `pick`-th record in one of `states`, if any.  A rejected
        /// request counts as `Pending` until its rollback has come home
        /// (until then it holds the hops before the rejection).
        fn pick(&self, states: &[State], pick: usize) -> Option<usize> {
            let state = |r: &Rec| match r.state {
                State::Rejected if self.net.installed_links(r.flow).next().is_some() => {
                    State::Pending
                }
                state => state,
            };
            let found: Vec<usize> = (0..self.recs.len())
                .filter(|&i| states.contains(&state(&self.recs[i])))
                .collect();
            (!found.is_empty()).then(|| found[pick % found.len()])
        }

        fn submit(&mut self, a: usize, b: u64) {
            let route = span(&self.links, a);
            let mut config = match b % 4 {
                0 => FlowConfig::predicted(
                    route,
                    (b / 4 % 2) as u8,
                    TokenBucketSpec::per_packets(85.0, 50.0, 1000),
                    SimTime::from_millis(300),
                    0.001,
                    PoliceAction::Drop,
                ),
                k => FlowConfig::guaranteed(route, 150_000.0 * k as f64),
            };
            let sink = b.is_multiple_of(3).then(|| {
                let flow = Rc::new(Cell::new(None));
                let sink = self.add_agent(Box::new(Sink { flow: flow.clone() }));
                config.sink = Some(sink);
                (sink, flow)
            });
            let (_req, flow) = self.sig.submit(&mut self.net, config);
            if let Some((_, cell)) = &sink {
                cell.set(Some(flow));
            }
            self.recs.push(Rec {
                flow,
                state: State::Pending,
                source: None,
                sink: sink.map(|(id, _)| id),
                reneg: None,
            });
        }

        fn teardown(&mut self, i: usize, retire_source: bool) {
            self.recs[i].state = State::Leaving;
            // A teardown cancels the flow's renegotiation in flight.
            self.recs[i].reneg = None;
            let Rec { flow, source, .. } = self.recs[i];
            if let (true, Some(source)) = (retire_source, source) {
                self.retire(source);
            }
            self.sig.teardown(&mut self.net, flow);
        }

        /// Renegotiate a flow — up or down for a guaranteed flow, to a
        /// bucket that may fail the criterion for a predicted one — and on
        /// one draw in six tear it down, half the time just before the
        /// call and half just after.  An admitted flow with no
        /// renegotiation outstanding is drawn first, then one with, and a
        /// setup in flight (or rolling back) only when no flow is
        /// admitted.  Only an admitted flow with no renegotiation
        /// outstanding may be granted one; a refusal sends nothing and
        /// reports nothing.
        fn renegotiate(&mut self, a: usize, b: u64) {
            let admitted: Vec<usize> = (0..self.recs.len())
                .filter(|&i| self.recs[i].state == State::Accepted)
                .collect();
            let idle: Vec<usize> = (admitted.iter().copied())
                .filter(|&i| self.recs[i].reneg.is_none())
                .collect();
            let Some(i) = [idle, admitted]
                .into_iter()
                .find(|found| !found.is_empty())
                .map(|found| found[a % found.len()])
                .or_else(|| self.pick(&[State::Pending], a))
            else {
                return;
            };
            let flow = self.recs[i].flow;
            if b % 12 == 1 {
                self.teardown(i, false);
            }
            let step = (b / 12 % 5) as usize;
            let sig = &self.sig;
            let before = (
                sig.peek_time(),
                sig.pending(),
                sig.queue.len(),
                sig.events.len(),
            );
            let asked = match self.net.flow_config(flow).spec {
                FlowSpec::Guaranteed { .. } => {
                    let rate = [100_000.0, 200_000.0, 300_000.0, 450_000.0, 600_000.0][step];
                    self.sig.renegotiate_clock_rate(&mut self.net, flow, rate)
                }
                _ => {
                    let rate = [40.0, 85.0, 120.0, 200.0, 950.0][step];
                    let bucket = TokenBucketSpec::per_packets(rate, 50.0, 1000);
                    self.sig.renegotiate_bucket(&mut self.net, flow, bucket)
                }
            };
            let sig = &self.sig;
            let after = (
                sig.peek_time(),
                sig.pending(),
                sig.queue.len(),
                sig.events.len(),
            );
            let rec = &mut self.recs[i];
            match asked {
                Ok(req) => assert!(
                    rec.state == State::Accepted && rec.reneg.replace(req).is_none(),
                    "{flow} granted {req:?} while {:?}",
                    rec.state
                ),
                Err(refusal) => assert_eq!(before, after, "{flow} refused ({refusal}) noisily"),
            }
            if b % 12 == 7 {
                self.teardown(i, false);
            }
        }

        fn reclaim(&mut self) {
            for flow in self.net.take_drained_flows() {
                let rec = self.rec(flow);
                assert!(
                    matches!(rec.state, State::Rejected | State::Leaving),
                    "{flow} drained while {:?}",
                    rec.state
                );
                rec.state = State::Recycled;
                self.net.recycle_flow_slot(flow);
            }
        }

        fn advance(&mut self, dt: SimTime) {
            let horizon = self.net.now() + dt;
            for event in self.sig.process_until(&mut self.net, horizon) {
                match event {
                    SignalEvent::Accepted { flow, .. } => {
                        let rec = self.rec(flow);
                        assert_eq!(rec.state, State::Pending);
                        rec.state = State::Accepted;
                    }
                    SignalEvent::Rejected { flow, .. } => {
                        let rec = self.rec(flow);
                        assert_eq!(rec.state, State::Pending);
                        rec.state = State::Rejected;
                    }
                    SignalEvent::TornDown { flow, .. } => {
                        assert_eq!(self.rec(flow).state, State::Leaving);
                    }
                    SignalEvent::Renegotiated { request, flow, .. } => {
                        let rec = self.answer(flow, request);
                        assert_eq!(rec.state, State::Accepted, "{flow} renegotiated");
                    }
                    SignalEvent::RenegotiationRejected { request, flow, .. } => {
                        self.answer(flow, request);
                    }
                }
            }
            for &l in &self.links {
                let reserved = self.net.admission(l).unwrap().reserved_guaranteed_bps();
                assert!(
                    reserved <= 0.9 * MBIT + 1e-6,
                    "{l:?} oversubscribed: {reserved}"
                );
                // Whatever is in flight, a link never reserves less than
                // the admitted flows holding it have declared.
                let declared: f64 = (self.recs.iter())
                    .filter(|r| matches!(r.state, State::Accepted | State::Declared))
                    .filter(|r| self.net.installed_links(r.flow).any(|(at, _)| at == l))
                    .filter_map(|r| self.net.flow_config(r.flow).spec.clock_rate_bps())
                    .sum();
                assert!(
                    reserved >= declared - 1e-6,
                    "{l:?} reserves {reserved}, below the {declared} its flows declare"
                );
            }
        }

        fn apply(&mut self, (op, a, b): (u8, usize, u64)) {
            match op {
                0..=2 => self.submit(a, b),
                3 => {
                    if let Some(i) = self.pick(&[State::Accepted, State::Declared], a) {
                        if self.recs[i].source.is_none() {
                            let (flow, token) = (self.recs[i].flow, self.token());
                            self.recs[i].source =
                                Some(self.add_agent(Box::new(Source { flow, token })));
                        }
                    }
                }
                4 => {
                    let states = [State::Pending, State::Accepted, State::Declared];
                    if let Some(i) = self.pick(&states, a) {
                        self.teardown(i, b.is_multiple_of(2));
                    }
                }
                5 => {
                    if !self.live.is_empty() {
                        let id = self.live[a % self.live.len()];
                        self.retire(id);
                        if b.is_multiple_of(2) {
                            self.net.retire_agent(id);
                        }
                    }
                }
                6 => {
                    let token = self.token();
                    self.add_agent(Box::new(Ticker { token }));
                }
                7 => self.reclaim(),
                8 => {
                    // A flow changes sinks; the old one leaves.
                    let states = [State::Pending, State::Accepted, State::Declared];
                    if let Some(i) = self.pick(&states, a) {
                        let flow = self.recs[i].flow;
                        let cell = Rc::new(Cell::new(Some(flow)));
                        let new = self.add_agent(Box::new(Sink { flow: cell }));
                        self.net
                            .set_flow_sink(flow, new)
                            .expect("a sink just added");
                        if let Some(old) = self.recs[i].sink.replace(new) {
                            self.retire(old);
                        }
                    }
                }
                9 | 10 => self.renegotiate(a, b),
                _ => self.advance(SimTime::from_micros([0, 300, 1000, 2500][b as usize % 4])),
            }
        }

        /// Tear everything down, let it drain, and check nothing is left.
        fn drain(&mut self) {
            let states = [State::Pending, State::Accepted, State::Declared];
            while let Some(i) = self.pick(&states, 0) {
                self.teardown(i, true);
            }
            for id in self.live.clone() {
                self.retire(id);
            }
            self.advance(SimTime::SECOND);
            self.reclaim();
            assert_eq!(self.sig.pending(), 0);
            assert!(
                self.recs.iter().all(|r| r.state == State::Recycled),
                "every submitted flow drains and is recycled"
            );
            for &l in &self.links {
                assert_eq!(
                    self.net.admission(l).unwrap().reserved_guaranteed_bps(),
                    0.0
                );
            }
            assert_eq!(
                self.net.reservation_state_bytes(),
                self.no_reservations,
                "a scheduler kept a reservation"
            );
            for flow in (0..self.net.num_flows()).map(|i| FlowId(i as u32)) {
                assert!(
                    self.net.installed_links(flow).next().is_none(),
                    "{flow} left state"
                );
                assert_eq!(self.net.flow_in_flight(flow), 0);
            }
            // Nothing names any agent slot any more: refilling the table
            // does not grow it.
            let slots = self.net.num_agents();
            for _ in 0..slots {
                let token = self.token();
                self.net.add_agent(Box::new(Ticker { token }));
            }
            assert_eq!(self.net.num_agents(), slots, "an agent slot leaked");
        }
    }

    /// Run one interleaving to the end; what two same-seed runs must agree
    /// on.
    fn run(
        declared: &[(usize, u64)],
        ops: &[(u8, usize, u64)],
    ) -> (Vec<(RequestId, bool)>, u64, usize, usize) {
        let mut d = Driver::new(declared);
        assert_ledger_balances(&d.net, &d.links);
        for &op in ops {
            d.apply(op);
            assert_ledger_balances(&d.net, &d.links);
        }
        d.drain();
        assert_ledger_balances(&d.net, &d.links);
        (
            d.sig.decisions().collect(),
            d.net.events_processed(),
            d.net.num_flows(),
            d.net.num_agents(),
        )
    }

    /// One drawn script against a fresh Fig-1-like chain holding the
    /// `declared` flows: each op names a flow id past the table's end, one
    /// freed by a recycle or any other, and the script ends by tearing
    /// every id down; nothing may be left, and after every op each link's
    /// held rates sum to its controller's.
    fn fuzz_script(declared: &[(usize, u64)], script: &[(u64, u64, u64)]) {
        let Driver { mut net, links, .. } = Driver::new(declared);
        let mut sig = Signaling::default();
        let mut freed = Vec::new();
        for &(op, a, b) in script {
            let minted = net.num_flows() as u64;
            let id = FlowId(match b % 3 {
                0 => minted + a % 4,
                1 if !freed.is_empty() => freed[a as usize % freed.len()],
                _ => a % (minted + 1),
            } as u32);
            match op {
                0 => {
                    let first = (a % 3) as usize;
                    let route = links[first..=first + (b as usize % (3 - first))].to_vec();
                    sig.submit(
                        &mut net,
                        FlowConfig::guaranteed(route, 150_000.0 * (1 + b % 4) as f64),
                    );
                }
                1 => sig.teardown(&mut net, id),
                2 => {
                    let rate = [-1.0, 0.0, f64::NAN, f64::INFINITY, 1e5, 4e5, 8e5][b as usize % 7];
                    let _ = sig.renegotiate_clock_rate(&mut net, id, rate);
                }
                3 => {
                    let bucket = TokenBucketSpec::per_packets(1.0 + (b % 200) as f64, 50.0, 1000);
                    let _ = sig.renegotiate_bucket(&mut net, id, bucket);
                }
                4 => {
                    let dt = SimTime::from_micros([0, 300, 1000, 2500][b as usize % 4]);
                    let horizon = net.now() + dt;
                    sig.process_until(&mut net, horizon);
                }
                _ => {
                    for flow in net.take_drained_flows() {
                        net.recycle_flow_slot(flow);
                        freed.push(flow.0 as u64);
                    }
                    net.recycle_flow_slot(id);
                }
            }
            assert_ledger_balances(&net, &links);
        }
        for i in 0..net.num_flows() {
            sig.teardown(&mut net, FlowId(i as u32));
        }
        let horizon = net.now() + SimTime::SECOND;
        sig.process_until(&mut net, horizon);
        assert_eq!(sig.pending(), 0);
        for &l in &links {
            assert_eq!(net.admission(l).unwrap().reserved_guaranteed_bps(), 0.0);
        }
    }

    /// Setup, teardown, both renegotiations and slot recycling answer any
    /// id — never minted, freed, rejected, torn down, declared — and any
    /// rate with an event, a typed refusal or nothing, never a panic:
    /// 10 000 drawn scripts of up to 24 ops over zero to two declared
    /// flows, each under `catch_unwind`.
    #[test]
    fn control_entry_points_never_panic_on_any_flow_id() {
        let mut rng = ispn_sim::Pcg64::new(0x7369_676e);
        let mut panicked = Vec::new();
        for _ in 0..10_000 {
            let len = 1 + rng.next_below(24);
            let script: Vec<_> = (0..len)
                .map(|_| (rng.next_below(6), rng.next_below(64), rng.next_below(1000)))
                .collect();
            let declared: Vec<_> = (0..rng.next_below(3))
                .map(|_| (rng.next_below(64) as usize, rng.next_below(3)))
                .collect();
            if std::panic::catch_unwind(|| fuzz_script(&declared, &script)).is_err() {
                panicked.push((declared, script));
            }
        }
        assert!(
            panicked.is_empty(),
            "{} panicked, first {:?}",
            panicked.len(),
            panicked[0]
        );
    }

    proptest! {
        #[test]
        fn request_lifecycle_leaks_nothing_and_misdelivers_nothing(
            ops in proptest::collection::vec((0u8..16, 0usize..64, 0u64..1000), 10..120),
            declared in proptest::collection::vec((0usize..64, 0u64..3), 0..3),
        ) {
            let first = run(&declared, &ops);
            let flows = ops.len() + 1 + declared.len();
            prop_assert!(first.2 <= flows && first.3 <= 2 * ops.len());
            prop_assert_eq!(first, run(&declared, &ops));
        }
    }
}
