//! The hop-by-hop signaling engine.
//!
//! Control traffic is modelled the way the Appendix models data traffic: a
//! setup, release or renegotiate message crossing a link costs one
//! control-packet transmission time plus the link's propagation delay.  The
//! engine keeps its own deterministic event queue of in-flight control
//! messages and interleaves them with the network's data-plane events, so
//! admission decisions at each hop see exactly the measurement state of that
//! simulated instant.
//! That queue is an [`EventQueue`] of its own: a transaction has one message
//! in flight, so even 200 setups a second keep it a handful deep.
//!
//! A setup in flight is a request id and a few flags in the slot its flow
//! id indexes: a flow has one setup in flight at most, its messages follow
//! one another, and the entry is vacated before the flow is retired, so a
//! message always finds its own entry.  The route is read
//! in place from the network's flow table (`net.flow_config(flow).route`)
//! by each message as it is handled — a registered flow's route never
//! changes, so nothing is copied per request or per hop — and a refusal
//! carries the controller's typed
//! [`RejectReason`](ispn_core::admission::RejectReason), which nobody
//! formats unless a driver prints it.

use std::collections::BTreeMap;

use ispn_core::admission::AdmissionDecision;
use ispn_core::{FlowId, FlowSpec, TokenBucketSpec};
use ispn_net::{FlowConfig, LinkId, Network};
use ispn_sim::{varint, EventQueue, SimTime};

use crate::messages::{RequestId, SignalEvent};

/// Size of a control packet in bits: setup, release and renegotiate all
/// use it, and the paper's data packets are 1000 bits too.
const CONTROL_PACKET_BITS: u64 = 1000;

#[derive(Debug, Clone, Copy)]
enum RenegKind {
    /// Re-run the Section-9 criterion for a new `(r, b)` declaration.
    Predicted { new_bucket: TokenBucketSpec },
    /// Change a guaranteed clock rate.  Increases are admitted (and
    /// installed) hop by hop; decreases commit only at confirmation so a
    /// failed renegotiation never loses the old reservation.
    Guaranteed { old_rate: f64, new_rate: f64 },
}

#[derive(Debug, Clone, Copy)]
struct PendingSetup {
    req: RequestId,
    /// Set when a teardown arrives while the setup is still in flight: the
    /// setup stops installing further hops and its confirmation must not
    /// activate the flow (the teardown wave, always behind the setup wave,
    /// releases whatever was installed).
    cancelled: bool,
    /// Set when a hop past the first rejects the setup: a rollback wave is
    /// releasing the hops behind the rejection and retires the flow when
    /// it reaches the first.
    rolling_back: bool,
    /// Set when the cancelling teardown's release wave finishes while the
    /// confirmation is still on the last link (the wave trails every `Setup`
    /// but, on one hop, not the `Confirm`): that confirmation then retires
    /// the flow, so the slot is vacant before the id is handed out again.
    released: bool,
}

#[derive(Debug, Clone, Copy)]
struct PendingReneg {
    flow: FlowId,
    priority: u8,
    kind: RenegKind,
    /// Hops on which a guaranteed rate *increase* has been reserved so far
    /// (so a teardown that cancels the renegotiation can give the deltas
    /// back).
    applied_hops: usize,
}

enum ControlEvent {
    /// A setup message arrives at the switch feeding `route[hop]`.
    Setup { flow: FlowId, hop: usize },
    /// A rejection travels upstream, releasing `route[hop]`.
    Rollback { flow: FlowId, hop: usize },
    /// The setup message reached the destination: activate.
    Confirm { flow: FlowId },
    /// A release message arrives at the switch feeding `route[hop]`.
    Teardown { flow: FlowId, hop: usize },
    /// A renegotiate message arrives at the switch feeding `route[hop]`.
    Renegotiate { req: RequestId, hop: usize },
    /// A renegotiation rejection travels upstream, undoing `route[hop]`.
    RenegotiateRollback { req: RequestId, hop: usize },
    /// The renegotiate message cleared every hop: commit.
    RenegotiateCommit { req: RequestId },
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
    /// The setup in flight for each flow, indexed by `FlowId::index()`.
    setups: Vec<Option<PendingSetup>>,
    /// Occupied entries of `setups`.
    setups_pending: usize,
    renegs: BTreeMap<RequestId, PendingReneg>,
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
        let delta = req.0.wrapping_sub(self.last) as i64;
        let zigzag = ((delta << 1) ^ (delta >> 63)) as u64;
        varint::put(
            &mut self.bytes,
            u128::from(zigzag) << 1 | u128::from(accepted),
        );
        self.last = req.0;
        self.len += 1;
    }

    fn iter(&self) -> impl ExactSizeIterator<Item = (RequestId, bool)> + '_ {
        let (mut bytes, mut id) = (&self.bytes[..], 0u64);
        (0..self.len).map(move |_| {
            let word: u128 = varint::get(&mut bytes).expect("the decision log is whole");
            let zigzag = (word >> 1) as u64;
            id = id.wrapping_add((zigzag >> 1) ^ (zigzag & 1).wrapping_neg());
            (RequestId(id), word & 1 == 1)
        })
    }
}

impl Signaling {
    fn fresh_id(&mut self) -> RequestId {
        self.next_id += 1;
        RequestId(self.next_id)
    }

    /// One hop's control-message latency across `link`.
    fn hop_delay(&self, net: &Network, link: LinkId) -> SimTime {
        let params = net.topology().link(link);
        ispn_sim::time::transmission_time(CONTROL_PACKET_BITS, params.rate_bps) + params.propagation
    }

    /// Number of signaling transactions still in flight.
    pub fn pending(&self) -> usize {
        self.setups_pending + self.renegs.len()
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
        if self.setups.len() <= flow.index() {
            self.setups.resize(flow.index() + 1, None);
        }
        let stale = self.setups[flow.index()].replace(PendingSetup {
            req,
            cancelled: false,
            rolling_back: false,
            released: false,
        });
        debug_assert!(stale.is_none(), "{flow} recycled with a setup pending");
        self.setups_pending += 1;
        // The source's host-to-switch link is infinitely fast (Appendix), so
        // the setup message is at the first switch at once.
        self.queue
            .push(net.now(), ControlEvent::Setup { flow, hop: 0 });
        (req, flow)
    }

    /// Begin a teardown: the source is silenced immediately (its packets
    /// stop entering the network) and each hop's reservation is released
    /// when the release message reaches it — or, if the flow's setup was
    /// rejected and is still rolling back, by that rollback alone.
    pub fn teardown(&mut self, net: &mut Network, flow: FlowId) {
        net.deactivate_flow(flow);
        // Cancel any setup still in flight for this flow: it stops
        // installing further hops and its confirmation will not activate.
        // (Such a setup never reaches the decision log — the caller
        // withdrew it before the network finished answering.)
        if let Some(Some(setup)) = self.setups.get_mut(flow.index()) {
            if setup.rolling_back {
                // Already rejected: the rollback in flight releases every
                // installed hop and retires the flow.  A release wave of
                // our own would retire it a second time — by then,
                // possibly, the slot's next occupant.
                return;
            }
            setup.cancelled = true;
        }
        // Cancel in-flight renegotiations, returning any rate increases
        // they had already reserved (the teardown wave releases the *old*
        // per-hop reservation, so the deltas would otherwise leak).
        let cancelled: Vec<RequestId> = self
            .renegs
            .iter()
            .filter(|(_, r)| r.flow == flow)
            .map(|(&req, _)| req)
            .collect();
        for req in cancelled {
            let r = self.renegs.remove(&req).expect("collected above");
            if let RenegKind::Guaranteed { old_rate, new_rate } = r.kind {
                let delta = new_rate - old_rate;
                if delta > 0.0 {
                    for hop in 0..r.applied_hops {
                        let link = route_link(net, flow, hop);
                        if let Some(ctl) = net.admission_mut(link) {
                            ctl.release_guaranteed(delta);
                        }
                    }
                }
            }
        }
        self.queue
            .push(net.now(), ControlEvent::Teardown { flow, hop: 0 });
    }

    /// Begin renegotiating a predicted flow's declared `(r, b)` token
    /// bucket (the adaptive-application path of Section 2): every hop
    /// re-runs the Section-9 criterion against the new declaration, and on
    /// success the flow's spec and edge policer switch over.
    ///
    /// # Panics
    /// Panics if the flow is not predicted-service.
    pub fn renegotiate_bucket(
        &mut self,
        net: &mut Network,
        flow: FlowId,
        new_bucket: TokenBucketSpec,
    ) -> RequestId {
        let config = net.flow_config(flow);
        assert!(
            matches!(config.spec, FlowSpec::Predicted { .. }),
            "renegotiate_bucket needs a predicted flow"
        );
        let req = self.fresh_id();
        let pending = PendingReneg {
            flow,
            priority: config.class.priority().unwrap_or(0),
            kind: RenegKind::Predicted { new_bucket },
            applied_hops: 0,
        };
        self.renegs.insert(req, pending);
        self.queue
            .push(net.now(), ControlEvent::Renegotiate { req, hop: 0 });
        req
    }

    /// Begin renegotiating a guaranteed flow's clock rate.  Rate increases
    /// are reserved hop by hop (and rolled back upstream if any hop
    /// refuses); decreases are applied only once every hop has agreed, so
    /// the old reservation survives a failed request.
    ///
    /// # Panics
    /// Panics if the flow is not guaranteed-service or `new_rate_bps` is
    /// not positive.
    pub fn renegotiate_clock_rate(
        &mut self,
        net: &mut Network,
        flow: FlowId,
        new_rate_bps: f64,
    ) -> RequestId {
        assert!(new_rate_bps > 0.0);
        let config = net.flow_config(flow);
        let FlowSpec::Guaranteed { clock_rate_bps } = config.spec else {
            panic!("renegotiate_clock_rate needs a guaranteed flow");
        };
        let req = self.fresh_id();
        let pending = PendingReneg {
            flow,
            priority: 0,
            kind: RenegKind::Guaranteed {
                old_rate: clock_rate_bps,
                new_rate: new_rate_bps,
            },
            applied_hops: 0,
        };
        self.renegs.insert(req, pending);
        self.queue
            .push(net.now(), ControlEvent::Renegotiate { req, hop: 0 });
        req
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
            ControlEvent::Setup { flow, hop } => {
                let PendingSetup { req, cancelled, .. } =
                    self.setups[flow.index()].expect("a setup message finds its entry");
                if cancelled {
                    // Withdrawn mid-setup: stop here; the teardown wave
                    // (always behind this message) releases the hops
                    // already installed.
                    self.vacate(flow);
                    return;
                }
                let route = &net.flow_config(flow).route;
                let (link, last_hop) = (route[hop], hop + 1 == route.len());
                match net.admit_flow_on_link(flow, link) {
                    AdmissionDecision::Accept => {
                        let next_at = at.saturating_add(self.hop_delay(net, link));
                        let next = if last_hop {
                            ControlEvent::Confirm { flow }
                        } else {
                            ControlEvent::Setup { flow, hop: hop + 1 }
                        };
                        self.queue.push(next_at, next);
                    }
                    AdmissionDecision::Reject { reason } => {
                        self.decision_log.push(req, false);
                        self.events.push(SignalEvent::Rejected {
                            request: req,
                            flow,
                            hop,
                            link,
                            reason,
                            at,
                        });
                        if hop > 0 {
                            // The rejection travels back over the upstream
                            // link, releasing reservations as it goes.
                            let back = route_link(net, flow, hop - 1);
                            self.queue.push(
                                at.saturating_add(self.hop_delay(net, back)),
                                ControlEvent::Rollback { flow, hop: hop - 1 },
                            );
                            self.setups[flow.index()]
                                .as_mut()
                                .expect("read above")
                                .rolling_back = true;
                        } else {
                            self.vacate(flow);
                            // Rejected at the very first hop: nothing was
                            // installed, so the flow's id slot can be
                            // reclaimed (a retry would re-activate it).
                            net.retire_flow(flow);
                        }
                    }
                }
            }
            ControlEvent::Rollback { flow, hop } => {
                net.release_flow_on_link(flow, route_link(net, flow, hop));
                if hop > 0 {
                    let back = route_link(net, flow, hop - 1);
                    self.queue.push(
                        at.saturating_add(self.hop_delay(net, back)),
                        ControlEvent::Rollback { flow, hop: hop - 1 },
                    );
                } else {
                    self.vacate(flow);
                    // The rollback reached the first hop: every installed
                    // reservation is released, the slot can be reclaimed.
                    net.retire_flow(flow);
                }
            }
            ControlEvent::Confirm { flow } => {
                let s = self.vacate(flow);
                if s.cancelled {
                    // Withdrawn mid-setup: the teardown wave releases
                    // whatever was installed, and the flow must not come
                    // back to life; a wave already done left retiring it here.
                    if s.released {
                        net.retire_flow(flow);
                    }
                    return;
                }
                net.activate_flow(flow);
                self.decision_log.push(s.req, true);
                self.events.push(SignalEvent::Accepted {
                    request: s.req,
                    flow,
                    at,
                });
            }
            ControlEvent::Teardown { flow, hop } => {
                let route = &net.flow_config(flow).route;
                let (link, last_hop) = (route[hop], hop + 1 == route.len());
                net.release_flow_on_link(flow, link);
                if !last_hop {
                    self.queue.push(
                        at.saturating_add(self.hop_delay(net, link)),
                        ControlEvent::Teardown { flow, hop: hop + 1 },
                    );
                } else {
                    self.events.push(SignalEvent::TornDown { flow, at });
                    // Teardown complete on every hop.  This also covers
                    // setups withdrawn mid-flight (their cancelled Setup /
                    // Confirm messages release nothing themselves — the
                    // teardown wave behind them does, and it always ends
                    // here).  The flow is reported drained once its last
                    // in-flight packet leaves the network — and once the
                    // withdrawn setup's confirmation, if still in flight, lands.
                    match self.setups.get_mut(flow.index()) {
                        Some(Some(setup)) => setup.released = true,
                        _ => net.retire_flow(flow),
                    }
                }
            }
            ControlEvent::Renegotiate { req, hop } => self.reneg_at(net, at, req, hop),
            ControlEvent::RenegotiateRollback { req, hop } => {
                let Some(r) = self.renegs.get_mut(&req) else {
                    return; // cancelled by a teardown
                };
                // Hops ≥ `hop` are rolled back below; keep the applied count
                // in step so a teardown that cancels the rest of this
                // rollback does not release the same hops again.
                r.applied_hops = hop;
                let flow = r.flow;
                let link = route_link(net, flow, hop);
                if let RenegKind::Guaranteed { old_rate, new_rate } = r.kind {
                    let delta = new_rate - old_rate;
                    if delta > 0.0 {
                        if let Some(ctl) = net.admission_mut(link) {
                            ctl.release_guaranteed(delta);
                        }
                        net.install_guaranteed_rate(link, flow, old_rate);
                    }
                }
                if hop > 0 {
                    let back = route_link(net, flow, hop - 1);
                    self.queue.push(
                        at.saturating_add(self.hop_delay(net, back)),
                        ControlEvent::RenegotiateRollback { req, hop: hop - 1 },
                    );
                } else {
                    self.renegs.remove(&req);
                }
            }
            ControlEvent::RenegotiateCommit { req } => {
                let Some(r) = self.renegs.remove(&req) else {
                    return; // cancelled by a teardown
                };
                match r.kind {
                    RenegKind::Predicted { new_bucket } => {
                        net.update_flow_bucket(r.flow, new_bucket);
                    }
                    RenegKind::Guaranteed { old_rate, new_rate } => {
                        // Commit deferred decreases (increases were already
                        // installed on the way out).
                        if new_rate < old_rate {
                            for hop in 0..net.flow_config(r.flow).route.len() {
                                let link = route_link(net, r.flow, hop);
                                if let Some(ctl) = net.admission_mut(link) {
                                    ctl.release_guaranteed(old_rate - new_rate);
                                }
                                net.install_guaranteed_rate(link, r.flow, new_rate);
                            }
                        }
                        net.update_flow_clock_rate(r.flow, new_rate);
                    }
                }
                self.events.push(SignalEvent::Renegotiated {
                    request: req,
                    flow: r.flow,
                    at,
                });
            }
        }
    }

    /// Take `flow`'s finished setup out of its slot.
    fn vacate(&mut self, flow: FlowId) -> PendingSetup {
        self.setups_pending -= 1;
        let setup = self.setups[flow.index()].take();
        setup.expect("a setup message finds its entry")
    }

    fn reneg_at(&mut self, net: &mut Network, at: SimTime, req: RequestId, hop: usize) {
        let Some(&PendingReneg {
            flow,
            priority,
            kind,
            ..
        }) = self.renegs.get(&req)
        else {
            return; // cancelled by a teardown
        };
        let route = &net.flow_config(flow).route;
        let (link, last_hop) = (route[hop], hop + 1 == route.len());
        let decision = match kind {
            RenegKind::Predicted { new_bucket } => match net.admission_mut(link) {
                // The new declaration faces the same criterion a fresh
                // request would; predicted service holds no controller-side
                // reservation, so nothing needs installing here.
                Some(ctl) => ctl.request_predicted(at, new_bucket, priority),
                None => AdmissionDecision::Accept,
            },
            RenegKind::Guaranteed { old_rate, new_rate } => {
                let delta = new_rate - old_rate;
                if delta > 0.0 {
                    let mut d = match net.admission_mut(link) {
                        Some(ctl) => ctl.request_guaranteed(delta),
                        None => AdmissionDecision::Accept,
                    };
                    if d.is_accept() {
                        // The scheduler can refuse the larger reservation
                        // even when the quota said yes; the veto gives the
                        // controller its delta back so accounting stays in
                        // step.
                        d = net.install_guaranteed_or_veto(link, flow, new_rate, delta);
                        if d.is_accept() {
                            self.renegs
                                .get_mut(&req)
                                .expect("pending reneg exists while its message is in flight")
                                .applied_hops = hop + 1;
                        }
                    }
                    d
                } else {
                    // Shrinking always fits; committed at confirmation.
                    AdmissionDecision::Accept
                }
            }
        };
        match decision {
            AdmissionDecision::Accept => {
                let next_at = at.saturating_add(self.hop_delay(net, link));
                let next = if last_hop {
                    ControlEvent::RenegotiateCommit { req }
                } else {
                    ControlEvent::Renegotiate { req, hop: hop + 1 }
                };
                self.queue.push(next_at, next);
            }
            AdmissionDecision::Reject { reason } => {
                self.events.push(SignalEvent::RenegotiationRejected {
                    request: req,
                    flow,
                    hop,
                    reason,
                    at,
                });
                if hop > 0 {
                    let back = route_link(net, flow, hop - 1);
                    self.queue.push(
                        at.saturating_add(self.hop_delay(net, back)),
                        ControlEvent::RenegotiateRollback { req, hop: hop - 1 },
                    );
                } else {
                    self.renegs.remove(&req);
                }
            }
        }
    }
}

/// `route[hop]` of a registered flow, read in place.
fn route_link(net: &Network, flow: FlowId, hop: usize) -> LinkId {
    net.flow_config(flow).route[hop]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ispn_core::admission::{AdmissionConfig, AdmissionController};
    use ispn_net::Topology;
    use ispn_sched::{Averaging, Unified};

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
        let (topo, _nodes, links) = Topology::chain(3, MBIT, SimTime::MILLISECOND, 200);
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
        net.activate_flow(flow);
        flow
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
        assert!(net.installed_links(flow).is_empty());
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
        assert!(net.installed_links(flow).is_empty());
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
        let req = sig.renegotiate_bucket(&mut net, flow, bigger);
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
        let req = sig.renegotiate_bucket(&mut net, flow, absurd);
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
        sig.renegotiate_clock_rate(&mut net, flow, 500_000.0);
        let events = sig.process_until(&mut net, SimTime::from_secs(2));
        assert!(matches!(events[0], SignalEvent::Renegotiated { .. }));
        assert_eq!(net.flow_config(flow).spec.clock_rate_bps(), Some(500_000.0));
        for &l in &links {
            assert!((net.admission(l).unwrap().reserved_guaranteed_bps() - 500_000.0).abs() < 1e-6);
        }

        // Down: 500k -> 100k.
        sig.renegotiate_clock_rate(&mut net, flow, 100_000.0);
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
        let req = sig.renegotiate_clock_rate(&mut net, flow, 400_000.0);
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
        assert!(net.installed_links(flow).is_empty());
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
        assert!(net.installed_links(flow).is_empty());
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
        sig.renegotiate_clock_rate(&mut net, flow, 500_000.0);
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
        // scheduler can refuse the increase, and that refusal must fail the
        // renegotiation instead of desynchronizing spec and scheduler.
        let (topo, _nodes, links) = Topology::chain(2, MBIT, SimTime::MILLISECOND, 200);
        let mut net = Network::new(topo);
        net.set_discipline(links[0], Unified::new(MBIT, 1, Averaging::RunningMean));
        let mut sig = Signaling::default();
        let (_r, flow) = sig.submit(&mut net, FlowConfig::guaranteed(vec![links[0]], 600_000.0));
        sig.process_until(&mut net, SimTime::from_secs(1));
        assert!(net.flow_active(flow));

        let req = sig.renegotiate_clock_rate(&mut net, flow, 1_200_000.0);
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
        // the Unified scheduler refuses (Σ rates must stay strictly below
        // the link speed); the controller's delta must be given back.
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

        let req = sig.renegotiate_clock_rate(&mut net, flow, 1_000_000.0);
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
        sig.renegotiate_clock_rate(&mut net, flow, 500_000.0);
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
    fn scheduler_refusal_vetoes_admission_without_a_controller() {
        // No admission controller at all: the quota says yes to anything,
        // but the unified scheduler cannot reserve the whole link, and that
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
        assert!(net.installed_links(flow).is_empty());
        // A sane rate still goes through.
        hog(&mut net, links[0], 500_000.0);
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
/// mid-setup), source/sink attach, agent retirement, slot reclamation —
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
    }

    struct Driver {
        net: Network,
        sig: Signaling,
        links: Vec<LinkId>,
        recs: Vec<Rec>,
        live: Vec<AgentId>,
        next_token: u64,
    }

    impl Driver {
        fn new() -> Driver {
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
            Driver {
                net,
                sig: Signaling::default(),
                links,
                recs: Vec::new(),
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

        /// The `pick`-th record in one of `states`, if any.  A rejected
        /// request counts as `Pending` until its rollback has come home
        /// (until then it holds the hops before the rejection).
        fn pick(&self, states: &[State], pick: usize) -> Option<usize> {
            let state = |r: &Rec| match r.state {
                State::Rejected if !self.net.installed_links(r.flow).is_empty() => State::Pending,
                state => state,
            };
            let found: Vec<usize> = (0..self.recs.len())
                .filter(|&i| states.contains(&state(&self.recs[i])))
                .collect();
            (!found.is_empty()).then(|| found[pick % found.len()])
        }

        fn submit(&mut self, a: usize, b: u64) {
            let first = a % 3;
            let hops = 1 + (a / 3) % (3 - first);
            let route = self.links[first..first + hops].to_vec();
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
            });
        }

        fn teardown(&mut self, i: usize, retire_source: bool) {
            self.recs[i].state = State::Leaving;
            let Rec { flow, source, .. } = self.recs[i];
            if let (true, Some(source)) = (retire_source, source) {
                self.retire(source);
            }
            self.sig.teardown(&mut self.net, flow);
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
                    other => panic!("nobody renegotiates here: {other:?}"),
                }
            }
            for &l in &self.links {
                let reserved = self.net.admission(l).unwrap().reserved_guaranteed_bps();
                assert!(
                    reserved <= 0.9 * MBIT + 1e-6,
                    "{l:?} oversubscribed: {reserved}"
                );
            }
        }

        fn apply(&mut self, (op, a, b): (u8, usize, u64)) {
            match op {
                0..=2 => self.submit(a, b),
                3 => {
                    if let Some(i) = self.pick(&[State::Accepted], a) {
                        if self.recs[i].source.is_none() {
                            let (flow, token) = (self.recs[i].flow, self.token());
                            self.recs[i].source =
                                Some(self.add_agent(Box::new(Source { flow, token })));
                        }
                    }
                }
                4 => {
                    if let Some(i) = self.pick(&[State::Pending, State::Accepted], a) {
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
                    if let Some(i) = self.pick(&[State::Pending, State::Accepted], a) {
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
                _ => self.advance(SimTime::from_micros([0, 300, 1000, 2500][b as usize % 4])),
            }
        }

        /// Tear everything down, let it drain, and check nothing is left.
        fn drain(&mut self) {
            while let Some(i) = self.pick(&[State::Pending, State::Accepted], 0) {
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
            for flow in (0..self.net.num_flows()).map(|i| FlowId(i as u32)) {
                assert!(
                    self.net.installed_links(flow).is_empty(),
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
    fn run(ops: &[(u8, usize, u64)]) -> (Vec<(RequestId, bool)>, u64, usize, usize) {
        let mut d = Driver::new();
        for &op in ops {
            d.apply(op);
        }
        d.drain();
        (
            d.sig.decisions().collect(),
            d.net.events_processed(),
            d.net.num_flows(),
            d.net.num_agents(),
        )
    }

    proptest! {
        #[test]
        fn request_lifecycle_leaks_nothing_and_misdelivers_nothing(
            ops in proptest::collection::vec((0u8..14, 0usize..64, 0u64..1000), 10..120),
        ) {
            let first = run(&ops);
            prop_assert!(first.2 <= ops.len() + 1 && first.3 <= 2 * ops.len());
            prop_assert_eq!(first, run(&ops));
        }
    }
}
