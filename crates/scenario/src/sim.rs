//! The `Sim` facade: one object owning data plane, control plane and
//! scheduled driver actions, stepped in global event-time order.
//!
//! Control messages, data-plane events and user-scheduled actions are
//! merged into one global timeline: the control plane steps one instant at
//! a time ([`Signaling::process_next`]), the data plane runs up to each
//! next control message or action ([`Network::run_through`]) and on to the
//! horizon ([`Network::run_until`]).  Handlers run at the exact simulated
//! instant their event completes, and stepping granularity (`run_until`
//! called once or a thousand times) cannot change any outcome, whereas a
//! driver stepping [`Signaling::process_until`] by hand, in slices,
//! observes completions at slice boundaries only.
//!
//! Ordering at equal timestamps is deterministic and documented:
//! **data ≺ control ≺ action**.  Data-plane events settle first (so
//! admission decisions and observers at `t` see every packet that arrived
//! at `t`), control messages due at that instant complete next, and
//! user-scheduled actions run last — an action observing the simulation at
//! its own instant sees a fully settled network.
//!
//! Completed signaling transactions are *delivered*, at their instants, to
//! the churn driver and the [`on_signal`](Sim::on_signal) handler, not kept.

use ispn_core::{FlowId, TokenBucketSpec};
use ispn_net::{AgentId, FlowConfig, FlowReport, Network};
use ispn_signal::{Refusal, RequestId, SignalEvent, Signaling};
use ispn_sim::{varint, EventQueue, Pcg64, SimTime};
use ispn_stats::{quantile_between, NanoSamples};
use ispn_traffic::{OnOffConfig, OnOffSource};
use ispn_transport::TcpHandles;

use crate::report::{MeasurementPlan, RunTelemetry, ScenarioReport};
use crate::topology::BuiltTopology;
use crate::workload::ChurnWorkload;

/// A deferred driver action, run with exclusive access to the simulation at
/// its scheduled instant.
type Action = Box<dyn FnOnce(&mut Sim)>;

/// A callback observing completed signaling transactions at their exact
/// event time.
type SignalHandler = Box<dyn FnMut(&SignalEvent, &mut Sim)>;

/// One flow the churn workload has admitted and not yet reclaimed (still
/// holding, or departed with the teardown wave still in flight).  Flows
/// whose id slot was already recycled live on as measurement snapshots in
/// [`Sim::churn_flow_reports`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnFlowRecord {
    /// The admitted flow.
    pub flow: FlowId,
    /// `Some(priority)` for predicted requests, `None` for guaranteed.
    pub priority: Option<u8>,
    /// Path length of the request in links.
    pub hops: usize,
}

/// The full measurement record of one admitted churn flow: live for flows
/// still holding, a snapshot taken at reclamation time for flows whose id
/// slot has since been recycled (and possibly reused by a later arrival).
#[derive(Debug, Clone)]
pub struct ChurnFlowReport {
    /// The flow id the request was admitted under.  **Not unique** across a
    /// churn run once slots recycle — order in the returned list (admission
    /// order) is the stable identity.
    pub flow: FlowId,
    /// `Some(priority)` for predicted requests, `None` for guaranteed.
    pub priority: Option<u8>,
    /// Path length of the request in links.
    pub hops: usize,
    /// The flow's end-to-end measurements over its whole lifetime.
    pub report: FlowReport,
}

/// Per-flow churn bookkeeping (retiring the source's agent slot silences it
/// on departure).
struct ChurnEntry {
    /// Admission index (0, 1, 2, …) — the stable identity of this admission
    /// even after its flow id is recycled and reused.
    order: u32,
    priority: Option<u8>,
    hops: usize,
    /// The flow's on/off source, until departure (or the drain) retires it.
    source: Option<AgentId>,
}

/// What the churn driver holds for one flow id.
enum ChurnSlot {
    /// Not the driver's flow, or reclaimed.
    Vacant,
    /// Submitted; the network has not answered yet.
    Requested { priority: Option<u8>, hops: usize },
    /// Admitted and not yet reclaimed.
    Admitted(ChurnEntry),
}

/// The facade-owned churn driver: one private RNG stream drives arrivals,
/// mixes, gaps and holding times; completions are observed through the same
/// dispatch path as user handlers (driver first).
struct ChurnDriver {
    spec: ChurnWorkload,
    rng: Pcg64,
    /// Indexed by `FlowId::index()`, so in flow-id order; `reclaim_finished`
    /// vacates a slot before the network hands its id out again.
    slots: Vec<ChurnSlot>,
    source_seq: u32,
    /// The measurement snapshots of flows whose id slots were reclaimed,
    /// one [`encode_reclaimed`] record each, in reclaim order (sorted by
    /// admission index on read-out).  A record is eight varints, plus three
    /// more (and the mean's eight bytes when it is not the maximum) when
    /// the flow delivered a packet: 15.0 B per reclaimed admission on
    /// `churn-signal` at seed 7 (1.08 MB for 71 998 records over 600 s,
    /// 22 180 of them silent).  `generated` is not stored: a reclaimed flow
    /// has no packet in flight, so it generated `delivered +
    /// dropped_at_edge + dropped_buffer`.
    completed: Vec<u8>,
    /// The admission index of the last record in `completed`, which the
    /// next record's index is stored as a step from.
    last_reclaimed: u32,
    /// Set by [`Sim::drain_churn`]: in-flight completions must no longer
    /// spawn sources or departures.
    draining: bool,
}

impl ChurnDriver {
    /// Reclaim the id slots of flows the network reports drained: rejected
    /// setups and departed flows whose teardown wave finished and whose
    /// last in-flight packet left the network.  An admitted flow's
    /// measurement snapshot is taken here, *before* the recycle resets its
    /// monitor row, so bound-compliance checks keep the full history even
    /// after the id is reused by a later arrival.  Recycling changes no RNG
    /// draw and no packet timing, so the decision sequence is unaffected.
    fn reclaim_finished(&mut self, net: &mut Network) {
        let drained = net.take_drained_flows();
        for &flow in &drained {
            let slot = self.slots.get_mut(flow.index());
            let slot = slot.map(|slot| std::mem::replace(slot, ChurnSlot::Vacant));
            if let Some(ChurnSlot::Admitted(entry)) = slot {
                let row = ChurnFlowReport {
                    flow,
                    priority: entry.priority,
                    hops: entry.hops,
                    report: net.monitor_mut().flow_report(flow),
                };
                let last = &mut self.last_reclaimed;
                let delays = net.monitor().flow_delays(flow);
                encode_reclaimed(&mut self.completed, last, entry.order, &row, delays);
            }
            net.recycle_flow_slot(flow);
        }
        net.reuse_drained_buffer(drained);
    }

    /// The flows admitted and not yet reclaimed, in flow-id order.
    fn admitted(&self) -> impl Iterator<Item = (FlowId, &ChurnEntry)> {
        let slots = self.slots.iter().enumerate();
        slots.filter_map(|(i, slot)| match slot {
            ChurnSlot::Admitted(entry) => Some((FlowId(i as u32), entry)),
            _ => None,
        })
    }
}

/// Append one reclaimed admission to the churn driver's log, its admission
/// index stored as the [zigzag](varint::zigzag) step from `last` (reclaim
/// order follows admission order to within a few holding times), which
/// then becomes `order`.
///
/// The record is LEB128 varints: the step, the flow id, the priority (0
/// for guaranteed, `p + 1` for predicted), the hop count, and the
/// delivered, edge-drop, buffer-drop and inactive-drop counters.  No
/// `generated`: a flow is reclaimed only once no packet of it is in
/// flight, so every packet it generated was delivered or dropped at the
/// edge or in a buffer, and the decoder adds them up.  When the flow
/// delivered a packet, its sorted `delays` follow as integers: the maximum
/// in ns, then `(max − hi) << 1` with "the mean is the maximum's seconds"
/// in the low bit, then `hi − lo`, where `lo` and `hi` are the
/// [`order_statistics`](ispn_stats::NanoSamples::order_statistics) the
/// 99.9th percentile reads, and last the mean's eight `f64` bytes when it
/// is not the maximum.  A flow that delivered nothing has an empty store,
/// whose three statistics are `+0.0`, so its record stops after the
/// counters.  A silent flow with small counters takes eight bytes; the
/// average on `churn-signal` is 15.0 B.
fn encode_reclaimed(
    log: &mut Vec<u8>,
    last: &mut u32,
    order: u32,
    row: &ChurnFlowReport,
    delays: &NanoSamples,
) {
    let r = &row.report;
    debug_assert_eq!(r.flow, row.flow);
    debug_assert_eq!(
        r.generated,
        r.delivered + r.dropped_at_edge + r.dropped_buffer,
        "a reclaimed flow has no packet in flight"
    );
    debug_assert_eq!(r.delivered, delays.len() as u64);
    let step = varint::zigzag(i64::from(order) - i64::from(*last));
    *last = order;
    let priority = row.priority.map_or(0, |p| u64::from(p) + 1);
    for n in [
        step,
        u64::from(row.flow.0),
        priority,
        row.hops as u64,
        r.delivered,
        r.dropped_at_edge,
        r.dropped_buffer,
        r.dropped_inactive,
    ] {
        varint::put(log, n);
    }
    let (Some((lo, hi)), Some((max, _))) = (
        delays.order_statistics(FlowReport::P999),
        delays.order_statistics(1.0),
    ) else {
        let stats = [r.mean_delay, r.p999_delay, r.max_delay];
        debug_assert!(
            stats.iter().all(|x| x.to_bits() == 0),
            "a flow that delivered nothing reports +0.0 delays: {stats:?}"
        );
        return;
    };
    let n = delays.len();
    debug_assert_eq!(
        r.p999_delay.to_bits(),
        quantile_between(FlowReport::P999, n, (lo, hi)).to_bits()
    );
    let max_secs = quantile_between(1.0, n, (max, max));
    debug_assert_eq!(r.max_delay.to_bits(), max_secs.to_bits());
    let mean_is_max = r.mean_delay.to_bits() == max_secs.to_bits();
    varint::put(log, max);
    varint::put(log, u128::from(max - hi) << 1 | u128::from(mean_is_max));
    varint::put(log, hi - lo);
    if !mean_is_max {
        log.extend_from_slice(&r.mean_delay.to_bits().to_le_bytes());
    }
}

/// Read back the record [`encode_reclaimed`] wrote at the front of `log`,
/// its admission index a step from `last`, which then becomes that index,
/// and advance past it.
fn decode_reclaimed(log: &mut &[u8], last: &mut u32) -> (u32, ChurnFlowReport) {
    fn next<T: TryFrom<u128>>(log: &mut &[u8]) -> T {
        varint::get(log).expect("a churn record is whole")
    }
    let order = (i64::from(*last) + varint::unzigzag(next(log))) as u32;
    *last = order;
    let flow = FlowId(next(log));
    let priority = next::<u16>(log).checked_sub(1).map(|p| p as u8);
    let [hops, delivered, dropped_at_edge, dropped_buffer, dropped_inactive] =
        std::array::from_fn(|_| next::<u64>(log));
    let (mut mean_delay, mut p999_delay, mut max_delay) = (0.0, 0.0, 0.0);
    if delivered > 0 {
        let max: u64 = next(log);
        let word: u128 = next(log);
        let hi = max - (word >> 1) as u64;
        let lo = hi - next::<u64>(log);
        let n = delivered as usize;
        max_delay = quantile_between(1.0, n, (max, max));
        p999_delay = quantile_between(FlowReport::P999, n, (lo, hi));
        mean_delay = if word & 1 == 1 {
            max_delay
        } else {
            let (bits, rest) = log.split_first_chunk().expect("a churn record is whole");
            *log = rest;
            f64::from_bits(u64::from_le_bytes(*bits))
        };
    }
    let report = FlowReport {
        flow,
        mean_delay,
        p999_delay,
        max_delay,
        generated: delivered + dropped_at_edge + dropped_buffer,
        delivered,
        dropped_at_edge,
        dropped_buffer,
        dropped_inactive,
    };
    let row = ChurnFlowReport {
        flow,
        priority,
        hops: hops as usize,
        report,
    };
    (order, row)
}

/// The scenario simulation: network, signaling engine, scheduled actions
/// and the signal-event handler, advanced together.
pub struct Sim {
    net: Network,
    sig: Signaling,
    actions: EventQueue<Action>,
    handler: Option<SignalHandler>,
    /// Reentrancy guard: [`run_until`](Sim::run_until) must not be called
    /// from inside a scheduled action or signal handler.
    running: bool,
    flows: Vec<FlowId>,
    tcp: Vec<TcpHandles>,
    built: BuiltTopology,
    /// The churn workload driver, when the builder declared one.
    churn: Option<ChurnDriver>,
    /// Wall-clock time spent inside [`run_until`](Sim::run_until), summed
    /// over calls.  Feeds only the opt-in [`RunTelemetry`] block — it never
    /// enters the default report, so measured output stays byte-identical
    /// across machines.
    wall: std::time::Duration,
}

impl std::fmt::Debug for Sim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("now", &self.net.now())
            .field("flows", &self.flows.len())
            .field("tcp", &self.tcp.len())
            .field("pending_actions", &self.actions.len())
            .field("pending_signaling", &self.sig.pending())
            .finish_non_exhaustive()
    }
}

impl Sim {
    /// Assemble a simulation from already-wired parts (the builder's job;
    /// prefer [`ScenarioBuilder`](crate::ScenarioBuilder)).
    pub fn from_parts(
        net: Network,
        flows: Vec<FlowId>,
        tcp: Vec<TcpHandles>,
        built: BuiltTopology,
    ) -> Self {
        Sim {
            net,
            sig: Signaling::default(),
            actions: EventQueue::new(),
            handler: None,
            running: false,
            flows,
            tcp,
            built,
            churn: None,
            wall: std::time::Duration::ZERO,
        }
    }

    /// Install a churn workload (the builder's job when the scenario
    /// declares [`WorkloadSpec::Churn`](crate::workload::WorkloadSpec)):
    /// seeds the driver's private RNG and schedules the first arrival.
    pub(crate) fn install_churn(&mut self, spec: ChurnWorkload) {
        let mut rng = Pcg64::new(spec.seed);
        let gap = SimTime::from_secs_f64(rng.exponential(1.0 / spec.arrivals_per_sec));
        self.churn = Some(ChurnDriver {
            spec,
            rng,
            slots: Vec::new(),
            source_seq: 0,
            completed: Vec::new(),
            last_reclaimed: 0,
            draining: false,
        });
        self.schedule_at(gap, Sim::churn_arrival);
    }

    /// The self-rescheduling arrival: pick a uniformly random forward span,
    /// draw the service mix, submit, schedule the next arrival.  The RNG
    /// draw order (span, span length, mix, inter-arrival gap) is part of
    /// the workload's reproducibility contract — do not reorder.
    fn churn_arrival(&mut self) {
        let Some(d) = self.churn.as_mut() else {
            return;
        };
        if d.draining {
            return;
        }
        // Before admitting more work, reclaim the id slots of flows that
        // finished since the last arrival — this is what keeps the flow
        // table bounded by the *concurrent* population instead of growing
        // with every request ever made.
        d.reclaim_finished(&mut self.net);
        let nlinks = self.built.forward.len() as u64;
        let first = d.rng.next_below(nlinks) as usize;
        let hops = 1 + d.rng.next_below(nlinks - first as u64) as usize;
        let route = self
            .built
            .span(first, hops)
            .expect("arrival spans stay inside the preset");
        let (config, priority) = if d.rng.bernoulli(d.spec.guaranteed_fraction) {
            (
                FlowConfig::guaranteed(route, d.spec.guaranteed_rate_bps),
                None,
            )
        } else {
            // A fair coin for the two-class mix (the dominant case, and the
            // draw the pre-promotion churn driver made — kept so migrated
            // runs reproduce bit-exactly); a uniform index for any other
            // class count.
            let nclasses = d.spec.classes.len();
            let idx = if nclasses == 2 {
                usize::from(d.rng.bernoulli(0.5))
            } else {
                d.rng.next_below(nclasses as u64) as usize
            };
            let class = &d.spec.classes[idx];
            let bound = class.per_hop_target.mul_f64(hops as f64);
            (
                FlowConfig::predicted(
                    route,
                    class.priority,
                    class.bucket,
                    bound,
                    class.loss_rate,
                    class.police,
                ),
                Some(class.priority),
            )
        };
        let gap = SimTime::from_secs_f64(d.rng.exponential(1.0 / d.spec.arrivals_per_sec));
        let (_req, flow) = self.sig.submit(&mut self.net, config);
        if d.slots.len() <= flow.index() {
            d.slots.resize_with(flow.index() + 1, || ChurnSlot::Vacant);
        }
        d.slots[flow.index()] = ChurnSlot::Requested { priority, hops };
        self.schedule_in(gap, Sim::churn_arrival);
    }

    /// The departure of one admitted flow: retire its source (the agent is
    /// dropped at once, its slot recycles when its last timer has fired)
    /// and begin the hop-by-hop teardown.
    fn churn_departure(&mut self, flow: FlowId) {
        let slots = self.churn.as_mut().map(|d| &mut d.slots);
        if let Some(ChurnSlot::Admitted(entry)) = slots.and_then(|s| s.get_mut(flow.index())) {
            if let Some(source) = entry.source.take() {
                self.net.retire_agent(source);
                self.teardown(flow);
            }
        }
    }

    /// The churn driver's view of a completed signaling transaction: an
    /// accepted setup gets its on/off source the instant the confirmation
    /// lands, plus a scheduled departure.
    fn churn_on_signal(&mut self, event: &SignalEvent) {
        let Some(d) = self.churn.as_mut() else {
            return;
        };
        if d.draining {
            return;
        }
        match *event {
            SignalEvent::Accepted { flow, at, .. } => {
                // Completions for flows the driver did not submit (a caller
                // using `Sim::submit` next to the churn workload) are not
                // the driver's business.
                let Some(&ChurnSlot::Requested { priority, hops }) = d.slots.get(flow.index())
                else {
                    return;
                };
                // The source-seed index counts admissions, so it doubles as
                // the admission index — the stable identity of this
                // admission once flow ids start being reused.
                let order = d.source_seq;
                let seed = d.spec.source.seed_for(order);
                let source =
                    OnOffSource::new(flow, OnOffConfig::paper(d.spec.source.avg_rate_pps, seed));
                d.source_seq += 1;
                let hold = SimTime::from_secs_f64(d.rng.exponential(d.spec.mean_holding_secs));
                let source = self.net.add_agent(Box::new(source));
                d.slots[flow.index()] = ChurnSlot::Admitted(ChurnEntry {
                    order,
                    priority,
                    hops,
                    source: Some(source),
                });
                self.schedule_at(at + hold, move |sim| sim.churn_departure(flow));
            }
            SignalEvent::Rejected { flow, .. } => {
                if let Some(slot @ ChurnSlot::Requested { .. }) = d.slots.get_mut(flow.index()) {
                    *slot = ChurnSlot::Vacant;
                }
            }
            _ => {}
        }
    }

    /// Whether this simulation carries a churn workload.
    pub fn has_churn(&self) -> bool {
        self.churn.is_some()
    }

    /// Every churn-admitted flow not yet reclaimed (still holding, or
    /// departed with its teardown wave still in flight), sorted by flow
    /// id.  Empty without a churn workload.  For the full admission
    /// history — departed-and-recycled flows included — use
    /// [`churn_flow_reports`](Sim::churn_flow_reports).
    pub fn churn_admitted(&self) -> Vec<ChurnFlowRecord> {
        let Some(d) = &self.churn else {
            return Vec::new();
        };
        d.admitted()
            .map(|(flow, entry)| ChurnFlowRecord {
                flow,
                priority: entry.priority,
                hops: entry.hops,
            })
            .collect()
    }

    /// The measurement record of **every** flow the churn workload ever
    /// admitted, in admission order: flows whose id slot was reclaimed
    /// report the snapshot taken at reclamation time (their measurements
    /// were final — the slot is only recycled once the last in-flight
    /// packet left the network), flows still live are queried from the
    /// monitor now.  Empty without a churn workload.
    ///
    /// A snapshot is kept as a compact record of integers: the counters,
    /// and the delay samples the maximum and the 99.9th percentile read,
    /// which decode through `ispn_stats`' own interpolation to the very
    /// values the monitor reported (the mean travels as `f64` bits unless
    /// it is the maximum).  A flow that delivered nothing keeps no delays
    /// at all; it reads back the `+0.0` an empty sample store reports for
    /// all three.
    pub fn churn_flow_reports(&mut self) -> Vec<ChurnFlowReport> {
        let Some(d) = &self.churn else {
            return Vec::new();
        };
        let mut rows: Vec<(u32, ChurnFlowReport)> = Vec::new();
        let (mut log, mut last) = (&d.completed[..], 0);
        while !log.is_empty() {
            rows.push(decode_reclaimed(&mut log, &mut last));
        }
        for (flow, e) in d.admitted() {
            rows.push((
                e.order,
                ChurnFlowReport {
                    flow,
                    priority: e.priority,
                    hops: e.hops,
                    report: self.net.monitor_mut().flow_report(flow),
                },
            ));
        }
        rows.sort_by_key(|&(order, _)| order);
        rows.into_iter().map(|(_, r)| r).collect()
    }

    /// Drain the churn workload: stop the arrival process (this cancels
    /// **every** scheduled action), retire each admitted
    /// flow's source and begin its teardown, and withdraw every setup still
    /// in flight (confirmed after the drain, it would never be torn down),
    /// in flow-id order.  Run the simulation a little longer afterwards to
    /// let the release waves finish; no reservation state survives a drained
    /// run.
    pub fn drain_churn(&mut self) {
        let Some(d) = self.churn.as_mut() else {
            return;
        };
        d.draining = true;
        self.actions.clear();
        // Teardown order does not affect the outcome, but index order makes
        // the drain flow-id-ordered — and so reproducible — by construction.
        for (i, slot) in d.slots.iter_mut().enumerate() {
            let flow = FlowId(i as u32);
            match slot {
                ChurnSlot::Vacant => {}
                ChurnSlot::Requested { .. } => {
                    *slot = ChurnSlot::Vacant;
                    self.sig.teardown(&mut self.net, flow);
                }
                ChurnSlot::Admitted(entry) => {
                    if let Some(source) = entry.source.take() {
                        self.net.retire_agent(source);
                        self.sig.teardown(&mut self.net, flow);
                    }
                }
            }
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.net.now()
    }

    /// The data plane.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Mutable access to the data plane (attach agents, pull reports).
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    /// The control plane.
    pub fn signaling(&self) -> &Signaling {
        &self.sig
    }

    /// The flows declared through the builder, in declaration order.
    pub fn flows(&self) -> &[FlowId] {
        &self.flows
    }

    /// The TCP connections declared through the builder, in declaration
    /// order.
    pub fn tcp(&self) -> &[TcpHandles] {
        &self.tcp
    }

    /// The built topology (preset link bookkeeping included).
    pub fn built(&self) -> &BuiltTopology {
        &self.built
    }

    /// Install the signal-event handler.  The handler runs at the exact
    /// simulated instant each transaction completes, with full mutable
    /// access to the simulation (add agents, schedule actions, submit or
    /// tear down flows) — except [`run_until`](Sim::run_until), which must
    /// not be re-entered.  Installing a handler replaces the previous one.
    /// Nothing keeps a completion once the handler has returned: a caller
    /// that wants a list pushes into its own from here.
    pub fn on_signal(&mut self, handler: impl FnMut(&SignalEvent, &mut Sim) + 'static) {
        self.handler = Some(Box::new(handler));
    }

    /// Schedule an action at absolute simulated time `at` (clamped to the
    /// current time if already past).
    pub fn schedule_at(&mut self, at: SimTime, action: impl FnOnce(&mut Sim) + 'static) {
        let at = at.max(self.now());
        self.actions.push(at, Box::new(action));
    }

    /// Schedule an action `delay` from now (`SimTime::MAX` saturates: the
    /// end of time, never a wrapped instant in the past).
    pub fn schedule_in(&mut self, delay: SimTime, action: impl FnOnce(&mut Sim) + 'static) {
        self.schedule_at(self.now() + delay, action);
    }

    /// Begin a hop-by-hop flow setup (see [`Signaling::submit`]).
    pub fn submit(&mut self, config: FlowConfig) -> (RequestId, FlowId) {
        self.sig.submit(&mut self.net, config)
    }

    /// Begin a teardown (see [`Signaling::teardown`]).
    pub fn teardown(&mut self, flow: FlowId) {
        self.sig.teardown(&mut self.net, flow);
    }

    /// Begin renegotiating a predicted flow's `(r, b)` declaration (see
    /// [`Signaling::renegotiate_bucket`]).
    ///
    /// # Errors
    /// A [`Refusal`] unless the flow is admitted, predicted and idle.
    pub fn renegotiate_bucket(
        &mut self,
        flow: FlowId,
        new_bucket: TokenBucketSpec,
    ) -> Result<RequestId, Refusal> {
        self.sig.renegotiate_bucket(&mut self.net, flow, new_bucket)
    }

    fn dispatch(&mut self, mut events: Vec<SignalEvent>) {
        for event in events.drain(..) {
            // The churn driver observes completions before any user
            // handler: sources come alive at their exact accept instants
            // whether or not the caller also watches events.
            self.churn_on_signal(&event);
            if let Some(mut handler) = self.handler.take() {
                handler(&event, self);
                // Keep the handler unless the callback installed a new one.
                if self.handler.is_none() {
                    self.handler = Some(handler);
                }
            }
        }
        self.sig.reuse_event_buffer(events);
    }

    /// Advance the simulation to `horizon`, stepping data-plane events,
    /// control messages and scheduled actions in global event-time order.
    /// Signaling transactions that complete in the window are delivered to
    /// the [`on_signal`](Sim::on_signal) handler at their exact times, in
    /// completion order, and not returned.  May be called repeatedly with
    /// increasing horizons; the stepping granularity does not affect any
    /// outcome.
    ///
    /// Events due at exactly `horizon` wait for the next call — except at
    /// the end of time itself: `run_until(SimTime::MAX)` also runs actions
    /// scheduled at `SimTime::MAX`, so "at the end of the run" is a
    /// schedulable instant rather than a silently dropped one.  An
    /// end-of-time drain runs every pending control message and scheduled
    /// action but does **not** try to exhaust the data plane's own event
    /// stream — a self-rescheduling source or periodic admission sampler
    /// has no last event, so data settles only through the last control or
    /// action instant.  Drive the simulation to a finite horizon first
    /// when measurements must cover a specific window.
    ///
    /// Ties at the same instant resolve **data ≺ control ≺ action**: the
    /// data plane settles first (so a handler or action observing the
    /// network at `t` sees every packet that arrived at `t`), then control
    /// messages complete, then scheduled actions run.
    ///
    /// # Panics
    /// Panics if called from inside a scheduled action or signal handler:
    /// those run *within* a `run_until` step, and a nested call would
    /// deliver its completions past the handler that is mid-call.
    /// The simulation keeps advancing after the callback returns — there
    /// is never a reason to pump it from inside one.
    pub fn run_until(&mut self, horizon: SimTime) {
        assert!(
            !self.running,
            "Sim::run_until must not be re-entered from a scheduled action \
             or signal handler"
        );
        self.running = true;
        #[expect(
            clippy::disallowed_methods,
            reason = "events/sec telemetry: measures the host's wall time around the run; \
                      reported only when RunTelemetry is opted in, never part of a golden \
                      report body"
        )]
        let started = std::time::Instant::now();
        let draining = horizon == SimTime::MAX;
        let due = |t: SimTime| t < horizon || (t == horizon && draining);
        loop {
            let next_control = self.sig.peek_time().filter(|&t| due(t));
            let next_action = self.actions.peek_time().filter(|&t| due(t));
            // Control wins a tie against an action (control ≺ action).
            let control_first = match (next_control, next_action) {
                (None, None) => break,
                (Some(tc), Some(ta)) => tc <= ta,
                (Some(_), None) => true,
                (None, Some(_)) => false,
            };
            if control_first {
                // `process_next` first settles the data plane through the
                // control instant (data ≺ control).
                let events = self.sig.process_next(&mut self.net);
                self.dispatch(events);
            } else {
                let ta = next_action.expect("action branch has an action");
                if !draining || ta < SimTime::MAX {
                    // Control wins ties, so no control message is due at or
                    // before the action's instant: bring the data plane
                    // through it — events at exactly `ta` included
                    // (data ≺ action) — then run the action.
                    debug_assert!(self.sig.peek_time().is_none_or(|t| t > ta));
                    self.net.run_through(ta);
                }
                // An end-of-time action runs without driving the planes to
                // t = SimTime::MAX: an unbounded event stream (periodic
                // sources, admission samplers) has no end to reach.
                let (_, action) = self.actions.pop().expect("peeked action exists");
                action(self);
            }
        }
        if !draining {
            // Every control message due before the horizon has run.
            debug_assert!(self.sig.peek_time().is_none_or(|t| t >= horizon));
            self.net.run_until(horizon);
        }
        self.running = false;
        self.wall += started.elapsed();
    }

    /// Collect the run's structured report.  When the plan opts in with
    /// [`with_run_telemetry`](MeasurementPlan::with_run_telemetry), the
    /// report carries a [`RunTelemetry`] block built from the engine
    /// counters and the wall-clock time accumulated across `run_until`
    /// calls; otherwise the report is byte-identical to a plan without the
    /// flag.
    pub fn report(&mut self, plan: &MeasurementPlan) -> ScenarioReport {
        // Before the report sorts the delay stores, so the telemetry
        // counts them as the run left them.
        let telemetry = plan
            .run_telemetry
            .then(|| RunTelemetry::collect(&self.net, self.wall.as_secs_f64()));
        ScenarioReport {
            telemetry,
            ..ScenarioReport::collect(&mut self.net, &self.sig, &self.flows)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ispn_core::admission::{AdmissionConfig, AdmissionController};
    use ispn_net::Topology;
    use ispn_sched::{Averaging, Unified};
    use std::cell::RefCell;
    use std::rc::Rc;

    const MBIT: f64 = 1_000_000.0;

    fn simple_sim() -> Sim {
        let (topo, _nodes, links) = Topology::chain(3, MBIT, SimTime::MILLISECOND, 200);
        let built = crate::topology::BuiltTopology {
            topology: topo.clone(),
            nodes: Vec::new(),
            forward: links.clone(),
            reverse: Vec::new(),
        };
        let mut net = Network::new(topo);
        for &l in &links {
            net.set_discipline(l, Unified::new(MBIT, 1, Averaging::RunningMean));
            net.enable_admission(
                l,
                AdmissionController::new(
                    AdmissionConfig::new(MBIT, 0.9, vec![SimTime::from_millis(100)]),
                    10.0,
                ),
                SimTime::SECOND,
            );
        }
        Sim::from_parts(net, Vec::new(), Vec::new(), built)
    }

    #[test]
    fn handler_runs_at_the_exact_completion_instant() {
        let mut sim = simple_sim();
        let links = sim.built().forward.clone();
        let seen: Rc<RefCell<Vec<(SimTime, SimTime)>>> = Rc::default();
        let seen2 = seen.clone();
        sim.on_signal(move |e, sim| {
            seen2.borrow_mut().push((e.at(), sim.now()));
        });
        sim.submit(FlowConfig::guaranteed(links, 300_000.0));
        sim.run_until(SimTime::from_secs(1));
        let seen = seen.borrow();
        assert_eq!(seen.len(), 1);
        // Two 1 Mbit/s links with 1 ms propagation: the confirmation lands
        // at exactly 4 ms, and the handler observed the network *at* 4 ms,
        // not at some later polling boundary.
        assert_eq!(seen[0].0, SimTime::from_millis(4));
        assert_eq!(seen[0].1, SimTime::from_millis(4));
    }

    #[test]
    fn control_events_run_before_actions_due_at_the_same_instant() {
        let mut sim = simple_sim();
        let links = sim.built().forward.clone();
        let order: Rc<RefCell<Vec<&'static str>>> = Rc::default();
        let o1 = order.clone();
        sim.on_signal(move |_, _| o1.borrow_mut().push("control"));
        sim.submit(FlowConfig::guaranteed(links, 300_000.0));
        // The confirmation completes at exactly 4 ms; the control message
        // runs first, the 4 ms action after it (the documented
        // data ≺ control ≺ action tie-break).
        let o2 = order.clone();
        sim.schedule_at(SimTime::from_millis(4), move |_| {
            o2.borrow_mut().push("action")
        });
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(*order.borrow(), vec!["control", "action"]);
    }

    #[test]
    fn data_events_settle_before_control_and_actions_at_the_same_instant() {
        // One packet traced to leave the source at 2 ms: 1 ms transmission
        // plus 1 ms propagation lands it at the destination at exactly
        // 4 ms — the same instant the setup confirmation completes and an
        // action is scheduled.  Both must observe the delivery.
        let mut sim = simple_sim();
        let links = sim.built().forward.clone();
        let flow = sim
            .network_mut()
            .add_flow(FlowConfig::datagram(vec![links[0]]));
        sim.network_mut()
            .add_agent(Box::new(ispn_traffic::TraceSource::new(
                flow,
                vec![(SimTime::from_millis(2), 1000)],
            )));
        let seen_by_handler: Rc<RefCell<Option<u64>>> = Rc::default();
        let s1 = seen_by_handler.clone();
        sim.on_signal(move |event, sim| {
            assert_eq!(event.at(), SimTime::from_millis(4));
            let r = sim.network_mut().monitor_mut().flow_report(flow);
            *s1.borrow_mut() = Some(r.delivered);
        });
        sim.submit(FlowConfig::guaranteed(links, 300_000.0));
        let seen_by_action: Rc<RefCell<Option<u64>>> = Rc::default();
        let s2 = seen_by_action.clone();
        sim.schedule_at(SimTime::from_millis(4), move |sim: &mut Sim| {
            let r = sim.network_mut().monitor_mut().flow_report(flow);
            *s2.borrow_mut() = Some(r.delivered);
        });
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(
            *seen_by_handler.borrow(),
            Some(1),
            "the 4 ms delivery must be visible to the 4 ms completion"
        );
        assert_eq!(
            *seen_by_action.borrow(),
            Some(1),
            "the 4 ms delivery must be visible to the 4 ms action"
        );
    }

    #[test]
    fn actions_scheduled_at_the_end_of_time_still_run() {
        // simple_sim has periodic admission sampling — an unbounded data
        // event stream.  The end-of-time drain must run the action without
        // trying to exhaust that stream (it has no last event).
        let mut sim = simple_sim();
        let ran: Rc<RefCell<bool>> = Rc::default();
        let r = ran.clone();
        sim.schedule_at(SimTime::MAX, move |_| *r.borrow_mut() = true);
        // Any finite horizon leaves it pending…
        sim.run_until(SimTime::from_secs(1000));
        assert!(!*ran.borrow());
        // …but draining to the end of time runs it instead of silently
        // dropping it.
        sim.run_until(SimTime::MAX);
        assert!(*ran.borrow());
    }

    #[test]
    fn schedule_in_forever_saturates_at_the_end_of_time() {
        let mut sim = simple_sim();
        sim.run_until(SimTime::SECOND);
        let ran: Rc<RefCell<bool>> = Rc::default();
        let r = ran.clone();
        // `now + MAX` overflowed: a panic in debug, and in release a wrapped
        // instant in the past that ran the "never" action at once.
        sim.schedule_in(SimTime::MAX, move |_| *r.borrow_mut() = true);
        sim.run_until(SimTime::from_secs(1000));
        assert!(!*ran.borrow());
        sim.run_until(SimTime::MAX);
        assert!(*ran.borrow());
    }

    #[test]
    fn scheduled_actions_fire_in_order_and_can_reschedule() {
        let mut sim = simple_sim();
        let ticks: Rc<RefCell<Vec<SimTime>>> = Rc::default();
        fn tick(ticks: Rc<RefCell<Vec<SimTime>>>, left: u32) -> impl FnOnce(&mut Sim) + 'static {
            move |sim: &mut Sim| {
                ticks.borrow_mut().push(sim.now());
                if left > 0 {
                    let t = ticks.clone();
                    sim.schedule_in(SimTime::from_millis(10), tick(t, left - 1));
                }
            }
        }
        sim.schedule_at(SimTime::from_millis(5), tick(ticks.clone(), 3));
        sim.run_until(SimTime::from_millis(26));
        assert_eq!(
            *ticks.borrow(),
            vec![
                SimTime::from_millis(5),
                SimTime::from_millis(15),
                SimTime::from_millis(25)
            ]
        );
        // The last rescheduled tick (t = 35 ms) is beyond the horizon and
        // still pending.
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(ticks.borrow().len(), 4);
    }

    #[test]
    fn an_earlier_horizon_never_rewinds_the_clock() {
        let mut sim = simple_sim();
        sim.on_signal(|event, _| panic!("nothing was submitted: {event:?}"));
        sim.run_until(SimTime::from_secs(5));
        sim.run_until(SimTime::from_secs(3));
        assert_eq!(sim.now(), SimTime::from_secs(5));
        // "One second from now" is 6 s, not a point in the simulated past.
        let ran: Rc<RefCell<Vec<SimTime>>> = Rc::default();
        let seen = ran.clone();
        sim.schedule_in(SimTime::SECOND, move |sim| {
            seen.borrow_mut().push(sim.now())
        });
        sim.run_until(SimTime::from_secs(10));
        assert_eq!(*ran.borrow(), vec![SimTime::from_secs(6)]);
    }

    #[test]
    fn handler_can_deregister_itself_from_inside_the_callback() {
        let mut sim = simple_sim();
        let links = sim.built().forward.clone();
        let calls: Rc<RefCell<u32>> = Rc::default();
        let calls2 = calls.clone();
        sim.on_signal(move |_, sim| {
            *calls2.borrow_mut() += 1;
            // Replacing itself with a no-op is how a one-shot handler
            // deregisters: dispatch keeps what the callback installed.
            sim.on_signal(|_, _| {});
        });
        // Two setups, two completions: a one-shot handler must only see
        // the first.
        sim.submit(FlowConfig::guaranteed(vec![links[0]], 200_000.0));
        sim.submit(FlowConfig::guaranteed(vec![links[1]], 200_000.0));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.signaling().decisions().len(), 2, "both completed");
        assert_eq!(
            *calls.borrow(),
            1,
            "the replaced handler must not fire again"
        );
    }

    #[test]
    #[should_panic(expected = "must not be re-entered")]
    fn run_until_rejects_reentrant_calls_from_actions() {
        let mut sim = simple_sim();
        sim.schedule_at(SimTime::from_millis(5), |sim: &mut Sim| {
            sim.run_until(SimTime::from_secs(1));
        });
        sim.run_until(SimTime::from_secs(1));
    }

    #[test]
    fn the_handler_sees_every_completion_once_in_completion_order() {
        let mut sim = simple_sim();
        let links = sim.built().forward.clone();
        let seen: Rc<RefCell<Vec<RequestId>>> = Rc::default();
        let list = seen.clone();
        sim.on_signal(move |event, _| match event {
            SignalEvent::Accepted { request, .. } => list.borrow_mut().push(*request),
            other => panic!("unexpected {other:?}"),
        });
        // Confirmed at 4 ms and at 2 ms: one delivery in each call.
        let (slow, flow) = sim.submit(FlowConfig::guaranteed(links.clone(), 300_000.0));
        let (fast, _) = sim.submit(FlowConfig::guaranteed(vec![links[0]], 300_000.0));
        sim.run_until(SimTime::from_millis(3));
        assert_eq!(*seen.borrow(), vec![fast]);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(*seen.borrow(), vec![fast, slow]);
        assert!(sim.network().flow_active(flow));
    }

    /// The churn log's edge values: counters across the one- and two-byte
    /// varint boundary and at the top of the range, and delay samples (ns)
    /// at the varint boundary, on both sides of the narrow store's 2³² ns
    /// and at the top of the wide store's range.
    const COUNTS: [u64; 5] = [0, 127, 128, 1 << 63, u64::MAX];
    const SAMPLES: [u64; 8] = [
        0,
        1,
        127,
        128,
        (1 << 32) - 1,
        1 << 32,
        u64::MAX - 1,
        u64::MAX,
    ];
    const PRIORITIES: [Option<u8>; 3] = [None, Some(0), Some(255)];

    /// One reclaimed admission as the churn driver holds it at reclaim
    /// time: the admission index, the row carrying the monitor's own report
    /// of a flow that delivered the samples, and the flow's sorted store.
    struct Reclaimed {
        order: u32,
        row: ChurnFlowReport,
        delays: NanoSamples,
    }

    /// A drained flow that delivered `samples` (ns, in this order) and
    /// dropped `[edge, buffer, inactive]` packets.  The drop counters are
    /// set on the monitor's report, not recorded one by one, so they can
    /// reach the top of their range; `generated` is then what a drained
    /// flow generated: its deliveries and its edge and buffer drops.
    fn reclaimed(
        order: u32,
        flow: u32,
        priority: Option<u8>,
        hops: usize,
        samples: &[u64],
        [edge, buffer, inactive]: [u64; 3],
    ) -> Reclaimed {
        let mut monitor = ispn_net::Monitor::new(1, 0);
        let f = FlowId(0);
        for &ns in samples {
            monitor.record_delivery(f, SimTime::from_nanos(ns), SimTime::ZERO);
        }
        let mut report = monitor.flow_report(f);
        report.flow = FlowId(flow);
        report.dropped_at_edge = edge;
        report.dropped_buffer = buffer;
        report.dropped_inactive = inactive;
        report.generated = report.delivered + edge + buffer;
        let row = ChurnFlowReport {
            flow: FlowId(flow),
            priority,
            hops,
            report,
        };
        let delays = monitor.flow_delays(f).clone();
        Reclaimed { order, row, delays }
    }

    /// Every field of an admission's row, the delays as bits.
    fn row_bits(order: u32, row: &ChurnFlowReport) -> [u64; 13] {
        let r = &row.report;
        [
            u64::from(order),
            u64::from(row.flow.0),
            row.priority.map_or(256, u64::from),
            row.hops as u64,
            u64::from(r.flow.0),
            r.mean_delay.to_bits(),
            r.p999_delay.to_bits(),
            r.max_delay.to_bits(),
            r.generated,
            r.delivered,
            r.dropped_at_edge,
            r.dropped_buffer,
            r.dropped_inactive,
        ]
    }

    /// Encode `rows` into one log, decode it back, and check that every
    /// record decodes to the monitor's report bit for bit, in order,
    /// ending exactly where its encoding ended — the last one at the log's
    /// last byte.
    fn assert_log_round_trips(rows: &[Reclaimed]) -> Vec<u8> {
        let (mut log, mut last) = (Vec::new(), 0);
        let mut ends = Vec::new();
        for r in rows {
            encode_reclaimed(&mut log, &mut last, r.order, &r.row, &r.delays);
            ends.push(log.len());
        }
        let (mut rest, mut last) = (&log[..], 0);
        for (r, end) in rows.iter().zip(ends) {
            let (order, row) = decode_reclaimed(&mut rest, &mut last);
            assert_eq!(row_bits(order, &row), row_bits(r.order, &r.row));
            assert_eq!(log.len() - rest.len(), end);
        }
        assert!(rest.is_empty());
        log
    }

    /// Sample stores at the codec's edges: empty, one sample, two equal
    /// and two different ones, repeated maxima, all-zero stores at the
    /// sizes where the 99.9th percentile moves to a lower rank (1000,
    /// 1001, 1002), a lone maximum above 1001 zeros, and every edge sample
    /// beside every other.
    fn edge_stores() -> Vec<Vec<u64>> {
        let mut stores = vec![vec![], vec![5, 9, 9, 9], vec![9, 5, 9]];
        for n in [1000, 1001, 1002] {
            stores.push(vec![0; n]);
            stores.push((0..n as u64).rev().collect());
        }
        let mut lone_max = vec![0; 1001];
        lone_max.push(u64::MAX);
        stores.push(lone_max);
        for x in SAMPLES {
            stores.push(vec![x]);
            stores.extend(SAMPLES.map(|y| vec![x, y]));
        }
        stores
    }

    #[test]
    fn reclaimed_churn_records_keep_every_edge_value_bit_exact() {
        let mut rows = Vec::new();
        for (i, samples) in edge_stores().iter().enumerate() {
            // Each edge count in each drop counter, as far as the flow's
            // deliveries leave room under u64::MAX for what it generated.
            let room = u64::MAX - samples.len() as u64;
            for (j, count) in COUNTS.into_iter().enumerate() {
                for pos in 0..3 {
                    let mut drops = [1; 3];
                    drops[pos] = count.min(room - 1);
                    let order = if (i + j) % 2 == 0 { 0 } else { u32::MAX };
                    let flow = (count as u32).wrapping_add(i as u32);
                    let (priority, hops) = (PRIORITIES[pos], [0, 1, usize::MAX][j % 3]);
                    rows.push(reclaimed(order, flow, priority, hops, samples, drops));
                }
            }
        }
        assert_log_round_trips(&rows);

        // Eight one-byte varints, then the delays only if a packet arrived:
        // three more varints, and the mean only when it is not the maximum.
        let len = |samples: &[u64], drops| {
            let row = reclaimed(0, 2, None, 1, samples, drops);
            assert_log_round_trips(&[row]).len()
        };
        assert_eq!(len(&[], [5, 0, 0]), 8);
        assert_eq!(len(&[100], [0, 0, 0]), 8 + 3);
        assert_eq!(len(&[100, 100], [0, 0, 0]), 8 + 3);
        assert_eq!(len(&[100, 120], [0, 0, 0]), 8 + 3 + 8);
        // `max − hi` and `hi − lo` each up to u64::MAX: ten bytes, the
        // first with the mean's bit above it (and 1 002 deliveries take
        // two bytes).
        let mut lone_max = vec![0; 1001];
        lone_max.push(u64::MAX);
        assert_eq!(len(&lone_max, [0, 0, 0]), 9 + 10 + 10 + 1 + 8);
        assert_eq!(len(&[0, u64::MAX], [0, 0, 0]), 8 + 10 + 1 + 10 + 8);
        // Five bytes carry a step of u32::MAX, ten a u64::MAX.
        let wide = reclaimed(
            u32::MAX,
            u32::MAX,
            Some(255),
            usize::MAX,
            &[u64::MAX],
            [u64::MAX - 1, 0, u64::MAX],
        );
        assert_eq!(
            assert_log_round_trips(&[wide]).len(),
            5 + 5 + 2 + 10 + 1 + 10 + 1 + 10 + 10 + 1 + 1
        );
    }

    /// A reclaimed flow drawn from `seed`: a sample store of one of the
    /// sizes where the 99.9th percentile changes rank (or a few thousand),
    /// all zero, with repeated maxima, narrow, or reaching into the wide
    /// store; drop counters that leave its `generated` in range; and the
    /// other fields each an edge value or an arbitrary one.
    fn drawn_row(seed: u64) -> Reclaimed {
        let mut rng = Pcg64::new(seed);
        let mut pick = |edges: &[u64]| match rng.next_below(3) {
            0 => rng.next_u64(),
            1 => rng.next_u64() >> rng.next_below(64),
            _ => edges[rng.next_below(edges.len() as u64) as usize],
        };
        let order = pick(&[0, u64::from(u32::MAX)]) as u32;
        let flow = pick(&[0, u64::from(u32::MAX)]) as u32;
        let priority = match pick(&[0, 1, 256]) % 257 {
            0 => None,
            p => Some((p - 1) as u8),
        };
        let hops = pick(&[0, 1, usize::MAX as u64]) as usize;
        let n = match pick(&[0, 1, 2, 1000, 1001, 1002]) {
            n @ (0 | 1 | 2 | 1000 | 1001 | 1002) => n as usize,
            n => 2000 + (n % 3000) as usize,
        };
        let shape = pick(&[0, 1, 2, 3]) % 4;
        let mut samples: Vec<u64> = (0..n)
            .map(|_| match shape {
                0 => 0,
                1 => pick(&[0, 127, 128]) % 4,
                2 => pick(&SAMPLES[..5]) >> 32,
                _ => pick(&SAMPLES),
            })
            .collect();
        let room = u64::MAX - n as u64;
        let edge = pick(&COUNTS).min(room);
        let buffer = pick(&COUNTS).min(room - edge);
        let inactive = pick(&COUNTS);
        // A repeated maximum: a few copies of the largest sample.
        if let Some(&max) = samples.iter().max() {
            for i in 0..samples.len().min(pick(&[0, 2, 3]) as usize % 4) {
                samples[i * 7 % n] = max;
            }
        }
        reclaimed(
            order,
            flow,
            priority,
            hops,
            &samples,
            [edge, buffer, inactive],
        )
    }

    proptest::proptest! {
        /// A log of mixed records — silent and measured flows, small and
        /// huge fields, narrow and wide stores — decodes in order to the
        /// monitor's reports and ends at its last byte.
        #[test]
        fn reclaimed_churn_logs_round_trip(
            seeds in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..24),
        ) {
            let rows: Vec<_> = seeds.into_iter().map(drawn_row).collect();
            assert_log_round_trips(&rows);
        }
    }
}
