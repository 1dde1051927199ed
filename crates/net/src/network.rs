//! The network itself: switches, links, flows, agents and the event loop.
//!
//! The model is output-queued: every unidirectional link has, at its
//! upstream switch, one queueing discipline and one finite packet buffer.
//! Forwarding a packet means looking up the flow's next link at the current
//! switch, applying edge policing if this is the flow's first switch,
//! enqueueing into that link's discipline (or dropping if the buffer is
//! full) and, whenever the link goes idle, asking the discipline for the
//! next packet to transmit.

use std::collections::VecDeque;

use ispn_core::admission::{AdmissionController, AdmissionDecision, RejectReason};
use ispn_core::{
    Conformance, FlowId, FlowSpec, Packet, ServiceClass, TokenBucket, TokenBucketSpec,
};
use ispn_sched::{
    class_bucket, Discipline, Fifo, GuaranteedInstall, ProbeStats, QueueDiscipline, SchedContext,
};
use ispn_sim::time::transmission_time;
use ispn_sim::{EventQueue, SimTime};

use crate::agent::{Agent, AgentApi, AgentId, Delivery};
use crate::monitor::Monitor;
use crate::telemetry::NetTelemetry;
use crate::topology::{LinkId, Topology};

/// What to do with packets that fail the edge conformance check
/// (Section 8: "nonconforming packets are dropped or tagged").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoliceAction {
    /// Discard the packet at the first switch.
    Drop,
    /// Forward the packet but mark it [`Conformance::Tagged`].
    Tag,
}

/// Static description of one flow offered to the network.
#[derive(Debug, Clone)]
pub struct FlowConfig {
    /// The sequence of links the flow traverses (must be a contiguous path).
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

struct FlowState {
    config: FlowConfig,
    policer: Option<TokenBucket>,
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
    /// Whether the flow may currently inject packets.  Statically
    /// provisioned flows are born active; dynamically signalled flows stay
    /// inactive until every hop has admitted them, and return to inactive
    /// on release.
    active: bool,
    /// The flow has been marked for slot reclamation ([`Network::retire_flow`]):
    /// once its last in-flight packet leaves the network it is reported by
    /// [`Network::take_drained_flows`].  Cleared if the flow is reactivated.
    retired: bool,
    /// Packets of this flow currently inside the network (injected but not
    /// yet delivered or dropped).  A retired flow's id may only be recycled
    /// when this reaches zero.
    in_flight: u32,
    /// Links where reservation state (admission and/or scheduler) has been
    /// installed for this flow and must be released on teardown.
    installed_links: Vec<LinkId>,
}

/// Per-link admission-control state: the Section-9 controller plus the
/// sampling bookkeeping that feeds it live utilization measurements.
struct AdmissionState {
    controller: AdmissionController,
    sample_interval: SimTime,
    last_sample: SimTime,
    last_rt_bits: u64,
}

struct Port {
    discipline: Discipline,
    /// What has passed through `discipline` (see [`Network::link_probe`]).
    probe: ProbeStats,
    /// A packet is being serialized onto the link.  Set by
    /// [`Network::start_transmission`], which pushes the one completion
    /// that clears it: a port never has two completions pending, which is
    /// what bounds [`Network::completions`] at one entry per port.
    busy: bool,
    admission: Option<AdmissionState>,
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
    wire: VecDeque<Packet>,
    /// The last `(size_bits, transmission time)` this port put on its
    /// link: the link's rate never changes, so the next packet of that
    /// size reuses the time.  `(0, ZERO)` to start, which is what zero
    /// bits take at any positive rate.
    last_tx: (u64, SimTime),
}

/// What [`Network::queue`] holds: 16-byte notices that name an agent or a
/// link, never a packet — an in-flight packet waits on its port's
/// [`wire`](Port::wire), so the pending-event set moves and compares small
/// entries however many packets are in flight.  Agent and link indices are
/// stored as `u32`, narrowed with a check where they are minted
/// ([`Network::add_agent`], [`Network::new`]).
///
/// A transmission completing is not one of them: it rides the link
/// timeline, [`Network::completions`].
enum NetEvent {
    /// A carrier for `agent`'s timer slot, queued under `seq`: it does
    /// something only if it is still the slot's carrier
    /// ([`ArmedTimer::carrier_seq`]) when it pops.
    Timer {
        agent: u32,
        seq: u64,
    },
    /// The oldest packet on `link`'s wire reaches the far end of a
    /// propagating link.
    Arrival {
        link: u32,
    },
    AdmissionSample {
        link: u32,
    },
}

/// Why a flow cannot deliver to an agent ([`Network::set_flow_sink`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkError {
    /// No agent was ever added under this id.
    Unknown(AgentId),
    /// The agent has been retired ([`Network::retire_agent`]).
    Retired(AgentId),
}

impl std::fmt::Display for SinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SinkError::Unknown(id) => write!(f, "unknown agent {id:?}"),
            SinkError::Retired(id) => write!(f, "{id:?} has been retired"),
        }
    }
}

impl std::error::Error for SinkError {}

/// The `u32` a [`NetEvent`] stores for agent or link index `index`.
///
/// # Panics
/// Panics if the index does not fit: events could no longer name it.
fn event_index(index: usize, what: &str) -> u32 {
    u32::try_from(index).unwrap_or_else(|_| panic!("{what} index {index} does not fit a u32"))
}

/// A no-op agent: the placeholder while a real agent is borrowed for a
/// callback, and what a retired slot answers with.
struct NoopAgent;
impl Agent for NoopAgent {}

/// An agent's armed timer: the deadline `on_timer` is due at, and the
/// queued event that will get it there.
///
/// Arming draws the deadline's `seq` where a push would, but pushes only if
/// no carrier is already on its way: a carrier that pops short of the
/// deadline re-pushes itself *at* the deadline under the deadline's own
/// `seq`.  So `on_timer` runs at exactly the `(time, seq)` it would have if
/// every arming pushed, and a sender that re-arms on every ACK keeps one
/// event pending instead of one per ACK.
struct ArmedTimer {
    at: SimTime,
    seq: u64,
    token: u64,
    /// The key of the one queued [`NetEvent::Timer`] that acts for this
    /// slot, at or before `(at, seq)`.  Any other still queued for the
    /// agent was superseded by an earlier re-arm and pops into nothing.
    carrier_at: SimTime,
    carrier_seq: u64,
}

/// One entry of the agent table (lifecycle: [`Network::retire_agent`]).
struct AgentSlot {
    /// The agent [`Network::add_agent`] put here; the no-op once retired.
    agent: Box<dyn Agent>,
    /// What still names this slot: timer events in the queue, live or
    /// superseded (bumped at push and pop), plus registered flows whose
    /// sink it is.  A retired slot is reused only when this is zero.
    refs: u32,
    /// Cleared by [`Network::retire_agent`].
    live: bool,
    /// The agent's one timer, while it is armed.
    timer: Option<ArmedTimer>,
}

/// The simulated packet network.
pub struct Network {
    topo: Topology,
    ports: Vec<Port>,
    flows: Vec<FlowState>,
    /// Flow-id slots freed by [`recycle_flow_slot`](Network::recycle_flow_slot),
    /// reused by the next [`register_flow`] so long churn runs keep a
    /// bounded flow table instead of growing one entry per admission ever.
    free_flow_slots: Vec<FlowId>,
    /// Retired flows whose last in-flight packet has left the network,
    /// staged for the driver to snapshot (final reports) and recycle.
    drained: Vec<FlowId>,
    agents: Vec<AgentSlot>,
    /// Agent slots freed by [`retire_agent`](Network::retire_agent), reused
    /// by the next [`add_agent`](Network::add_agent).
    free_agent_slots: Vec<AgentId>,
    /// Agents whose `start` callback has not run yet, in the order they were
    /// added (agents may be added mid-run, e.g. flows admitted by admission
    /// control; they are started at the next `run_until`).
    unstarted: VecDeque<AgentId>,
    /// The emptied command buffer awaiting the next callback.  Commands
    /// only queue packets and push timers, so no callback is dispatched
    /// while another's are being applied: callbacks never nest and the
    /// pool never holds more than one buffer.
    ///
    /// Boxed so a callback hands over a pointer: the buffer itself (the
    /// clock, a `Vec` header and the timer, 56 bytes) stays where it was
    /// allocated instead of being moved pool → callback → pool.
    // The indirection clippy objects to is the point: what is popped and
    // pushed per callback is the element, not the `Vec`.
    #[allow(clippy::vec_box)]
    api_pool: Vec<Box<AgentApi>>,
    monitor: Monitor,
    telemetry: NetTelemetry,
    /// Agent timers, arrivals on propagating links and admission samples,
    /// tens to hundreds of milliseconds out: one entry per armed agent
    /// ([`ArmedTimer`]) and per packet on a propagating wire.
    queue: EventQueue<NetEvent>,
    /// The link timeline: for each transmitting port, the instant its
    /// packet's tail leaves it, naming the link.  Links are non-preemptive
    /// and carry one packet at a time, so a port has at most one entry here
    /// ([`Port::busy`]) — one on a single-link run, eight on the Fig-1
    /// chain — and a completion about one packet time out, two events in
    /// three on that chain, sifts through that handful instead of through
    /// every armed timer (one heap for both measured +15 %).
    completions: EventQueue<u32>,
    /// The one sequence both timelines draw from, at the program points a
    /// single queue would: [`run_events`](Network::run_events) pops the
    /// smaller `(time, seq)` head, so events dispatch in exactly the order
    /// one queue holding them all would give.
    next_seq: u64,
    /// Events dispatched from either timeline.
    dispatched: u64,
    /// The most events ever pending on the two timelines together.
    pending_high_water: u64,
    now: SimTime,
    started: bool,
}

impl Network {
    /// Create a network over `topology`; every link starts with a FIFO
    /// discipline, replaceable with [`set_discipline`].
    ///
    /// [`set_discipline`]: Network::set_discipline
    pub fn new(topology: Topology) -> Self {
        let num_links = topology.num_links();
        // Events name links by `u32`: check once that every link fits.
        event_index(num_links, "link");
        let ports = (0..num_links)
            .map(|_| Port {
                discipline: Discipline::from(Fifo::new()),
                probe: ProbeStats::default(),
                busy: false,
                admission: None,
                wire: VecDeque::new(),
                last_tx: (0, SimTime::ZERO),
            })
            .collect();
        Network {
            topo: topology,
            ports,
            flows: Vec::new(),
            free_flow_slots: Vec::new(),
            drained: Vec::new(),
            agents: Vec::new(),
            free_agent_slots: Vec::new(),
            unstarted: VecDeque::new(),
            api_pool: Vec::new(),
            monitor: Monitor::new(0, num_links),
            telemetry: NetTelemetry::new(num_links),
            queue: EventQueue::new(),
            completions: EventQueue::new(),
            next_seq: 0,
            dispatched: 0,
            pending_high_water: 0,
            now: SimTime::ZERO,
            started: false,
        }
    }

    /// The topology this network runs over.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The measurement sink.
    pub fn monitor(&self) -> &Monitor {
        &self.monitor
    }

    /// Mutable access to the measurement sink (e.g. to set a warm-up
    /// period or pull reports that need sorting).
    pub fn monitor_mut(&mut self) -> &mut Monitor {
        &mut self.monitor
    }

    /// The engine telemetry accumulated so far (drops per link and class,
    /// admission verdict totals).  Unlike the [`Monitor`], these counters
    /// are not warm-up-gated: they see every event from t = 0.
    pub fn net_telemetry(&self) -> &NetTelemetry {
        &self.telemetry
    }

    /// The probe counters of one link's output port: enqueues and dequeues
    /// per class bucket, plus the port's peak queue depth.
    pub fn link_probe(&self, link: LinkId) -> &ProbeStats {
        &self.ports[link.index()].probe
    }

    /// Total events dispatched by the event loop so far.
    pub fn events_processed(&self) -> u64 {
        self.dispatched
    }

    /// The deepest the pending-event set — both timelines together — ever
    /// was.
    pub fn event_queue_high_water(&self) -> u64 {
        self.pending_high_water
    }

    /// The deepest any output-port queue ever was (in packets).
    pub fn peak_port_depth(&self) -> u64 {
        self.ports
            .iter()
            .map(|p| p.probe.depth_high_water.get())
            .max()
            .unwrap_or(0)
    }

    /// Structural size of the flow table in bytes: the per-flow state
    /// records plus their route and installed-link storage, plus the
    /// per-flow state the schedulers hold on every port (lane tables,
    /// slot maps, every queue at its capacity).  A deterministic
    /// estimate (element counts × element sizes), not an allocator
    /// measurement — so two same-seed runs agree and growth is
    /// attributable to flow count, not allocator policy.
    pub fn flow_table_bytes(&self) -> u64 {
        let mut bytes = self.flows.len() * std::mem::size_of::<FlowState>();
        for f in &self.flows {
            bytes += f.config.route.len() * std::mem::size_of::<LinkId>();
            bytes += f.installed_links.len() * std::mem::size_of::<LinkId>();
        }
        bytes as u64
            + self
                .ports
                .iter()
                .map(|p| p.discipline.state_bytes())
                .sum::<u64>()
    }

    /// Structural size of the per-link reservation state in bytes: the
    /// admission-control records installed on ports plus the per-flow
    /// reservation entries the schedulers keep (guaranteed rate maps, GPS
    /// clock state).  Same estimation rules as
    /// [`flow_table_bytes`](Network::flow_table_bytes).
    pub fn reservation_state_bytes(&self) -> u64 {
        (self.ports.iter().filter(|p| p.admission.is_some()).count()
            * std::mem::size_of::<AdmissionState>()) as u64
            + self
                .ports
                .iter()
                .map(|p| p.discipline.reservation_bytes())
                .sum::<u64>()
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

    /// Register an agent and return its id — a slot freed by
    /// [`retire_agent`](Network::retire_agent) if there is one, a new one
    /// otherwise.  Agents are started in the order they were added,
    /// whichever kind of slot they got.
    pub fn add_agent(&mut self, agent: Box<dyn Agent>) -> AgentId {
        let id = match self.free_agent_slots.pop() {
            Some(id) => {
                let slot = &mut self.agents[id.0];
                slot.agent = agent;
                slot.live = true;
                id
            }
            None => {
                let id = AgentId(self.agents.len());
                // Events name agents by `u32`: check here, where the id is
                // minted.
                event_index(id.0, "agent");
                self.agents.push(AgentSlot {
                    agent,
                    refs: 0,
                    live: true,
                    timer: None,
                });
                id
            }
        };
        self.unstarted.push_back(id);
        id
    }

    /// Number of agent slots in the table (live, retired and free).
    pub fn num_agents(&self) -> usize {
        self.agents.len()
    }

    // ----- agent-slot reclamation -----------------------------------------
    //
    // The flow-slot lifecycle (further down), for agents: retire → drain of
    // what still names the slot → free list → reuse by `add_agent`.

    /// Remove an agent from the network.  The agent is dropped at once and
    /// its timer disarmed: from now on its slot answers every callback with
    /// a no-op, so events already queued for it — a source's one
    /// outstanding timer — still pop (and still count in
    /// [`events_processed`](Network::events_processed)) but reach nothing.
    /// An agent retired before it was started is never started.
    ///
    /// The slot joins the free list, for the next
    /// [`add_agent`](Network::add_agent) to reuse, once nothing names it
    /// any more: the last pending event for it has fired and no registered
    /// flow has it as sink (a flow stops being registered when
    /// [`recycle_flow_slot`](Network::recycle_flow_slot) takes its slot).
    /// So a stale timer never reaches the slot's next occupant, and long
    /// churn runs keep an agent table bounded by the *concurrent*
    /// population.  Retiring twice is a no-op; never retiring is always
    /// safe — the table then grows by one per agent.
    pub fn retire_agent(&mut self, id: AgentId) {
        let slot = &mut self.agents[id.0];
        if !slot.live {
            return;
        }
        slot.live = false;
        slot.agent = Box::new(NoopAgent);
        slot.timer = None;
        if slot.refs == 0 {
            self.free_agent_slots.push(id);
        }
        self.unstarted.retain(|&unstarted| unstarted != id);
    }

    /// A registered flow now names `sink`, which must be a live agent.
    fn hold_agent(&mut self, sink: AgentId) -> Result<(), SinkError> {
        let slot = self
            .agents
            .get_mut(sink.0)
            .ok_or(SinkError::Unknown(sink))?;
        if !slot.live {
            return Err(SinkError::Retired(sink));
        }
        slot.refs += 1;
        Ok(())
    }

    /// Something that named agent slot `id` — a popped event, a recycled
    /// flow — is gone; a retired slot joins the free list with the last.
    fn unhold_agent(&mut self, id: AgentId) {
        let slot = &mut self.agents[id.0];
        slot.refs -= 1;
        if slot.refs == 0 && !slot.live {
            self.free_agent_slots.push(id);
        }
    }

    /// Register a flow and return its id.  The flow is immediately active
    /// (static provisioning — no admission control is consulted).
    ///
    /// # Panics
    /// Panics if the route is not a contiguous path in the topology, or if
    /// the configured sink is not a live agent ([`SinkError`]).
    pub fn add_flow(&mut self, config: FlowConfig) -> FlowId {
        self.register_flow(config, true)
    }

    /// Register a flow without activating it: packets injected for it are
    /// discarded (and counted) until [`activate_flow`] is called.  This is
    /// the first step of dynamic flow setup — the signaling layer allocates
    /// the identity, then installs per-hop reservations, then activates.
    ///
    /// [`activate_flow`]: Network::activate_flow
    pub fn add_flow_inactive(&mut self, config: FlowConfig) -> FlowId {
        self.register_flow(config, false)
    }

    fn register_flow(&mut self, config: FlowConfig, active: bool) -> FlowId {
        assert!(
            self.topo.validate_route(&config.route),
            "flow route is not a contiguous path"
        );
        assert!(!config.route.is_empty(), "non-empty route");
        // Forwarding is hop-indexed (the packet carries its position on the
        // route), so no per-node table is kept — but a route that visited a
        // switch twice would have been ambiguous under node-keyed
        // forwarding, and rejecting it keeps the two models equivalent.
        // Routes are a handful of hops: comparing each hop's switch with
        // the ones before it needs no container.
        let mut secs_per_bit = 0.0;
        let mut total_propagation = SimTime::ZERO;
        for (i, link) in config.route.iter().enumerate() {
            let params = self.topo.link(*link);
            let revisited = config.route[..i]
                .iter()
                .any(|earlier| self.topo.link(*earlier).from == params.from);
            assert!(!revisited, "route visits switch {:?} twice", params.from);
            secs_per_bit += 1.0 / params.rate_bps;
            total_propagation += params.propagation;
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
            active,
            retired: false,
            in_flight: 0,
            installed_links: Vec::new(),
        };
        let id = match self.free_flow_slots.pop() {
            Some(id) => {
                // The slot's `installed_links` buffer outlives its tenant.
                let slot = &mut self.flows[id.index()];
                let installed_links = std::mem::replace(slot, state).installed_links;
                debug_assert!(installed_links.is_empty());
                slot.installed_links = installed_links;
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

    // ----- dynamic flow signaling (control plane) -------------------------

    /// Put a link under measurement-based admission control.
    ///
    /// The controller is fed live from this point on: every transmitted
    /// predicted-class packet reports its per-hop queueing delay to d̂ⱼ, and
    /// every `sample_interval` the real-time throughput since the previous
    /// sample becomes one ν̂ utilization sample.
    pub fn enable_admission(
        &mut self,
        link: LinkId,
        controller: AdmissionController,
        sample_interval: SimTime,
    ) {
        assert!(
            sample_interval > SimTime::ZERO,
            "sampling needs a positive interval"
        );
        self.ports[link.index()].admission = Some(AdmissionState {
            controller,
            sample_interval,
            last_sample: self.now,
            last_rt_bits: self.monitor.link_realtime_bits_sent(link.index()),
        });
        let link = event_index(link.index(), "link");
        self.schedule(
            self.now.saturating_add(sample_interval),
            NetEvent::AdmissionSample { link },
        );
    }

    /// The admission controller of a link, if one was installed.
    pub fn admission(&self, link: LinkId) -> Option<&AdmissionController> {
        self.ports[link.index()]
            .admission
            .as_ref()
            .map(|a| &a.controller)
    }

    /// Mutable access to a link's admission controller (e.g. for the
    /// signaling layer's renegotiation bookkeeping, or to tune the safety
    /// factor).
    pub fn admission_mut(&mut self, link: LinkId) -> Option<&mut AdmissionController> {
        self.ports[link.index()]
            .admission
            .as_mut()
            .map(|a| &mut a.controller)
    }

    /// Whether a flow is currently allowed to inject packets.
    pub fn flow_active(&self, flow: FlowId) -> bool {
        self.flows[flow.index()].active
    }

    /// Activate a flow whose per-hop reservations are in place.
    pub fn activate_flow(&mut self, flow: FlowId) {
        let f = &mut self.flows[flow.index()];
        f.active = true;
        // A retry that revives a flow marked for reclamation wins the race:
        // the slot stays live.
        f.retired = false;
    }

    /// Deactivate a flow without touching its reservations (used by the
    /// signaling layer when a teardown starts: the source is silenced at
    /// once while the release message still travels hop by hop).
    pub fn deactivate_flow(&mut self, flow: FlowId) {
        self.flows[flow.index()].active = false;
    }

    /// The links on which reservation state is currently installed for a
    /// flow (in installation order).
    pub fn installed_links(&self, flow: FlowId) -> &[LinkId] {
        &self.flows[flow.index()].installed_links
    }

    /// Ask one link to admit `flow` at the current simulated time, and on
    /// acceptance install the reservation state (admission-controller
    /// bookkeeping plus per-flow scheduler state for guaranteed flows).
    ///
    /// Links without an admission controller accept everything — but still
    /// receive scheduler installs, so statically over-provisioned setups
    /// keep working.
    pub fn admit_flow_on_link(&mut self, flow: FlowId, link: LinkId) -> AdmissionDecision {
        let spec = self.flows[flow.index()].config.spec.clone();
        let priority = self.flows[flow.index()].config.class.priority();
        let now = self.now;
        let port = &mut self.ports[link.index()];
        let decision = match (&spec, port.admission.as_mut()) {
            (_, None) => AdmissionDecision::Accept,
            (FlowSpec::Guaranteed { clock_rate_bps }, Some(ad)) => {
                ad.controller.request_guaranteed(*clock_rate_bps)
            }
            (FlowSpec::Predicted { bucket, .. }, Some(ad)) => {
                ad.controller
                    .request_predicted(now, *bucket, priority.unwrap_or(0))
            }
            (FlowSpec::Datagram, Some(_)) => AdmissionDecision::Accept,
        };
        if decision.is_accept() {
            if let FlowSpec::Guaranteed { clock_rate_bps } = spec {
                let veto =
                    self.install_guaranteed_or_veto(link, flow, clock_rate_bps, clock_rate_bps);
                if !veto.is_accept() {
                    self.telemetry.record_admission_reject();
                    return veto;
                }
            }
            self.flows[flow.index()].installed_links.push(link);
            self.telemetry.record_admission_accept();
        } else {
            self.telemetry.record_admission_reject();
        }
        decision
    }

    /// Install per-flow guaranteed scheduler state on one link, letting the
    /// scheduler veto: a refusing scheduler overrides an accepting
    /// controller (or the absence of one) — otherwise the flow would run
    /// with no isolation at all.  On refusal `controller_release_bps` is
    /// handed back to the link's admission controller (the rate the caller
    /// had just reserved: the full clock rate on setup, the delta on a
    /// renegotiated increase) and a `Reject` is returned.
    pub fn install_guaranteed_or_veto(
        &mut self,
        link: LinkId,
        flow: FlowId,
        rate_bps: f64,
        controller_release_bps: f64,
    ) -> AdmissionDecision {
        let port = &mut self.ports[link.index()];
        if port.discipline.install_guaranteed(flow, rate_bps) == GuaranteedInstall::Refused {
            if let Some(ad) = port.admission.as_mut() {
                ad.controller.release_guaranteed(controller_release_bps);
            }
            return AdmissionDecision::Reject {
                reason: RejectReason::SchedulerRefused { rate_bps },
            };
        }
        AdmissionDecision::Accept
    }

    /// Release the reservation state `flow` holds on one link.  Returns
    /// `false` if nothing was installed there.
    pub fn release_flow_on_link(&mut self, flow: FlowId, link: LinkId) -> bool {
        let state = &mut self.flows[flow.index()];
        let Some(pos) = state.installed_links.iter().position(|&l| l == link) else {
            return false;
        };
        state.installed_links.swap_remove(pos);
        let spec = state.config.spec.clone();
        let now = self.now;
        let port = &mut self.ports[link.index()];
        if let FlowSpec::Guaranteed { clock_rate_bps } = spec {
            if let Some(ad) = port.admission.as_mut() {
                ad.controller.release_guaranteed(clock_rate_bps);
            }
            port.discipline.remove_flow(now, flow);
        }
        true
    }

    // ----- flow-slot reclamation ------------------------------------------

    /// Mark a torn-down flow's id slot for reclamation.  The flow must
    /// already be inactive with its reservations released; once its last
    /// in-flight packet leaves the network the flow is reported by
    /// [`take_drained_flows`](Network::take_drained_flows), after which the
    /// driver may snapshot its final statistics and call
    /// [`recycle_flow_slot`](Network::recycle_flow_slot).  Never calling
    /// these hooks is always safe — the flow table then simply grows
    /// monotonically, as it did before reclamation existed.
    pub fn retire_flow(&mut self, flow: FlowId) {
        self.flows[flow.index()].retired = true;
        self.note_if_drained(flow);
    }

    /// Retired flows whose last in-flight packet has left the network since
    /// the previous call.  Each flow appears exactly once (unless retired
    /// again after a revival).
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
    /// snapshot it first.  A no-op if the flow came back to life (active,
    /// packets in flight, or reservations re-installed) since it drained.
    pub fn recycle_flow_slot(&mut self, flow: FlowId) {
        let f = &self.flows[flow.index()];
        if f.active || f.in_flight > 0 || !f.installed_links.is_empty() {
            return;
        }
        if self.free_flow_slots.contains(&flow) {
            return; // already recycled (idempotence under double retire)
        }
        self.monitor.reset_flow(flow);
        self.free_flow_slots.push(flow);
        // No longer a registered flow: it stops holding its sink's slot.
        if let Some(sink) = self.flows[flow.index()].config.sink.take() {
            self.unhold_agent(sink);
        }
    }

    /// One of `flow`'s packets left the network (delivered or dropped).
    fn packet_died(&mut self, flow: FlowId) {
        let f = &mut self.flows[flow.index()];
        debug_assert!(f.in_flight > 0, "in-flight underflow for {flow}");
        f.in_flight = f.in_flight.saturating_sub(1);
        self.note_if_drained(flow);
    }

    /// Stage `flow` for the driver if it is retired and fully drained.
    fn note_if_drained(&mut self, flow: FlowId) {
        let f = &mut self.flows[flow.index()];
        if f.retired && !f.active && f.in_flight == 0 {
            f.retired = false;
            self.drained.push(flow);
        }
    }

    /// Replace the declared token bucket of a predicted flow (successful
    /// renegotiation): the spec and the edge policer both switch to the new
    /// `(r, b)`.  The caller is responsible for having re-run admission on
    /// every hop first.
    ///
    /// # Panics
    /// Panics if the flow is not predicted-service.
    pub fn update_flow_bucket(&mut self, flow: FlowId, bucket: TokenBucketSpec) {
        let now = self.now;
        let state = &mut self.flows[flow.index()];
        match &mut state.config.spec {
            FlowSpec::Predicted { bucket: b, .. } => *b = bucket,
            other => panic!("cannot renegotiate a bucket on {other:?}"),
        }
        if let Some((spec, _)) = &mut state.config.edge_policer {
            *spec = bucket;
            // Carry the current token level into the new profile — a fresh
            // (full) bucket would hand the flow a free burst of depth_bits
            // on every renegotiation.
            match state.policer.as_mut() {
                Some(policer) => policer.reconfigure(now, bucket),
                None => state.policer = Some(TokenBucket::new(bucket)),
            }
        }
    }

    /// Change the clock rate a guaranteed flow's spec declares (successful
    /// guaranteed renegotiation).  The caller must have applied the rate
    /// change on every hop's controller and scheduler first, so that
    /// subsequent releases stay consistent with the recorded spec.
    ///
    /// # Panics
    /// Panics if the flow is not guaranteed-service.
    pub fn update_flow_clock_rate(&mut self, flow: FlowId, rate_bps: f64) {
        assert!(rate_bps > 0.0);
        match &mut self.flows[flow.index()].config.spec {
            FlowSpec::Guaranteed { clock_rate_bps } => *clock_rate_bps = rate_bps,
            other => panic!("cannot renegotiate a clock rate on {other:?}"),
        }
    }

    /// Install (or update) per-flow guaranteed scheduler state on one link
    /// without touching the admission controller — the renegotiation path,
    /// where the controller's delta accounting is done by the caller.
    pub fn install_guaranteed_rate(
        &mut self,
        link: LinkId,
        flow: FlowId,
        rate_bps: f64,
    ) -> GuaranteedInstall {
        self.ports[link.index()]
            .discipline
            .install_guaranteed(flow, rate_bps)
    }

    /// The fixed (non-queueing) delay a packet of `size_bits` experiences on
    /// this flow's route: serialization at every hop plus propagation.
    pub fn fixed_delay(&self, flow: FlowId, size_bits: u64) -> SimTime {
        let f = &self.flows[flow.index()];
        SimTime::from_secs_f64(size_bits as f64 * f.secs_per_bit) + f.total_propagation
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
        if !self.flows[packet.flow.index()].active {
            // The flow has no (or no longer any) reservation: its packets
            // never enter the network.  Tracked separately from loss so a
            // torn-down flow's delay statistics stay clean.
            self.monitor.record_inactive_drop(packet.flow, self.now);
            return;
        }
        self.monitor.record_generated(packet.flow, self.now);
        self.flows[packet.flow.index()].in_flight += 1;
        debug_assert_eq!(packet.hop, 0, "injected packet already on its way");
        self.forward(packet);
    }

    /// Run the simulation until `horizon` (exclusive).  May be called
    /// repeatedly with increasing horizons; a horizon at or before
    /// [`now`](Network::now) runs nothing and leaves the clock where it is
    /// (simulated time never moves backwards).
    pub fn run_until(&mut self, horizon: SimTime) {
        self.run_events(horizon, false);
    }

    /// Run the simulation *through* `horizon` (inclusive): every data-plane
    /// event with timestamp ≤ `horizon` is processed.  Interleaving drivers
    /// use this to give data-plane events precedence over control messages
    /// and scheduled actions due at the same instant (the documented
    /// data ≺ control ≺ action tie-break); [`run_until`](Network::run_until)
    /// keeps its exclusive contract for plain horizon stepping.
    pub fn run_through(&mut self, horizon: SimTime) {
        self.run_events(horizon, true);
    }

    fn run_events(&mut self, horizon: SimTime, inclusive: bool) {
        self.started = true;
        while let Some(next) = self.unstarted.pop_front() {
            self.dispatch(next, |agent, api| agent.start(api));
        }
        loop {
            // Both heads are compared on the full key: `seq` is what makes
            // a timer and a completion due on the same nanosecond dispatch
            // in the order they were pushed.
            let (link_first, t) = match (self.completions.peek_key(), self.queue.peek_key()) {
                (Some(c), Some(q)) if c < q => (true, c.0),
                (Some(c), None) => (true, c.0),
                (_, Some(q)) => (false, q.0),
                (None, None) => break,
            };
            if t > horizon || (t == horizon && !inclusive) {
                break;
            }
            debug_assert!(t >= self.now, "event from the past");
            self.now = t;
            self.dispatched += 1;
            if link_first {
                let (_, link) = self.completions.pop().expect("peeked event exists");
                self.on_tx_done(LinkId(link as usize));
                continue;
            }
            let (_, event) = self.queue.pop().expect("peeked event exists");
            match event {
                NetEvent::Timer { agent, seq } => self.on_timer_event(agent, seq),
                NetEvent::Arrival { link } => {
                    let packet = self.take_off_wire(LinkId(link as usize));
                    self.forward(packet)
                }
                NetEvent::AdmissionSample { link } => {
                    self.on_admission_sample(LinkId(link as usize))
                }
            }
        }
        // An earlier horizon than a previous call's ran nothing above and
        // must not rewind the clock: timers armed afterwards would land in
        // the already-simulated past.
        self.now = self.now.max(horizon);
        self.monitor.advance_horizon(horizon);
        debug_assert_eq!(
            self.packets_in_flight(),
            self.packets_held(),
            "packet conservation: every in-flight packet is queued or on a wire"
        );
    }

    /// Σ over flows of the packets injected but not yet delivered or
    /// dropped.
    fn packets_in_flight(&self) -> u64 {
        self.flows.iter().map(|f| u64::from(f.in_flight)).sum()
    }

    /// Σ over ports of the packets queued in the discipline or on the wire.
    /// Equal to [`packets_in_flight`](Network::packets_in_flight) whenever
    /// no event is being handled: a packet inside the network is in exactly
    /// one of those two places.
    fn packets_held(&self) -> u64 {
        self.ports
            .iter()
            .map(|p| (p.discipline.len() + p.wire.len()) as u64)
            .sum()
    }

    // ----- the two timelines ----------------------------------------------

    /// Put `event` on the timer-and-arrival timeline.
    fn schedule(&mut self, at: SimTime, event: NetEvent) {
        let seq = self.draw_seq();
        self.schedule_as(at, seq, event);
    }

    /// [`schedule`](Network::schedule) under a `seq` already drawn.
    fn schedule_as(&mut self, at: SimTime, seq: u64, event: NetEvent) {
        self.queue.push_with_seq(at, seq, event);
        self.pushed();
    }

    /// Put `link`'s one pending completion on the link timeline.
    fn schedule_completion(&mut self, at: SimTime, link: LinkId) {
        let link = event_index(link.index(), "link");
        let seq = self.draw_seq();
        self.completions.push_with_seq(at, seq, link);
        self.pushed();
    }

    /// The next number of the shared sequence: drawn at every program point
    /// a single queue would push at, whether or not something is pushed.
    fn draw_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// After a push to either timeline: the pending set's high-water mark
    /// is taken.
    fn pushed(&mut self) {
        let pending = (self.queue.len() + self.completions.len()) as u64;
        self.pending_high_water = self.pending_high_water.max(pending);
    }

    // ----- agent timers ---------------------------------------------------

    /// (Re-)arm `agent`'s timer for `at` (see [`ArmedTimer`]).
    fn arm_timer(&mut self, agent: AgentId, at: SimTime, token: u64) {
        let seq = self.draw_seq();
        let slot = &mut self.agents[agent.0];
        match &mut slot.timer {
            // The carrier pops no later than the new deadline and will hop
            // to it: nothing to push.
            Some(t) if t.carrier_at <= at => (t.at, t.seq, t.token) = (at, seq, token),
            // Idle, or re-armed for earlier than its carrier: this arming
            // is its own carrier, and supersedes any other.
            timer => {
                *timer = Some(ArmedTimer {
                    at,
                    seq,
                    token,
                    carrier_at: at,
                    carrier_seq: seq,
                });
                slot.refs += 1;
                let agent = event_index(agent.0, "agent");
                self.schedule_as(at, seq, NetEvent::Timer { agent, seq });
            }
        }
    }

    /// The timer event queued for `agent` under `seq` popped.
    fn on_timer_event(&mut self, agent: u32, seq: u64) {
        let id = AgentId(agent as usize);
        let slot = &mut self.agents[id.0];
        match &mut slot.timer {
            Some(t) if t.carrier_seq == seq && t.seq == seq => {
                let token = t.token;
                slot.timer = None;
                self.dispatch(id, |a, api| a.on_timer(token, api));
            }
            Some(t) if t.carrier_seq == seq => {
                // Short of a deadline that moved on after this carrier was
                // pushed: hop to it, under the key its arming drew.  The
                // event still names the slot, so `refs` stands.
                let (at, seq) = (t.at, t.seq);
                (t.carrier_at, t.carrier_seq) = (at, seq);
                self.schedule_as(at, seq, NetEvent::Timer { agent, seq });
                return;
            }
            // Superseded by an earlier re-arm, or the agent was retired.
            _ => {}
        }
        self.unhold_agent(id);
    }

    // ----- agent dispatch -------------------------------------------------

    /// Apply what `agent` asked for — packets in the order requested, then
    /// the timer — and return the emptied buffer to the pool.
    fn apply_commands(&mut self, agent: AgentId, mut api: Box<AgentApi>) {
        for p in api.outbox.drain(..) {
            self.inject(p);
        }
        if let Some((delay, token)) = api.timer.take() {
            // Saturating, like every sum that mints an event time: past
            // `SimTime::MAX` a wrapped stamp would pop "from the past".
            self.arm_timer(agent, self.now.saturating_add(delay), token);
        }
        self.api_pool.push(api);
    }

    /// Run one callback of agent `id` against a pooled command buffer and
    /// apply the commands it queued.
    fn dispatch(&mut self, id: AgentId, callback: impl FnOnce(&mut dyn Agent, &mut AgentApi)) {
        let mut api = self.api_pool.pop().unwrap_or_default();
        api.now = self.now;
        let mut agent = std::mem::replace(&mut self.agents[id.0].agent, Box::new(NoopAgent));
        callback(agent.as_mut(), &mut api);
        self.agents[id.0].agent = agent;
        self.apply_commands(id, api);
    }

    // ----- forwarding -----------------------------------------------------

    fn forward(&mut self, mut packet: Packet) {
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
        packet.hop += 1;
        port.wire.push_back(packet);
        let done = self.now.saturating_add(tx_time);
        self.schedule_completion(done, link);
        if params.propagation > SimTime::ZERO {
            let link = event_index(link.index(), "link");
            self.schedule(
                done.saturating_add(params.propagation),
                NetEvent::Arrival { link },
            );
        }
    }

    fn on_admission_sample(&mut self, link: LinkId) {
        let rt_bits = self.monitor.link_realtime_bits_sent(link.index());
        let now = self.now;
        let Some(ad) = self.ports[link.index()].admission.as_mut() else {
            return;
        };
        let dt = now.saturating_sub(ad.last_sample).as_secs_f64();
        if dt > 0.0 {
            let bps = rt_bits.saturating_sub(ad.last_rt_bits) as f64 / dt;
            ad.controller.observe_utilization(now, bps);
        }
        ad.last_rt_bits = rt_bits;
        ad.last_sample = now;
        let next = now.saturating_add(ad.sample_interval);
        let link = event_index(link.index(), "link");
        self.schedule(next, NetEvent::AdmissionSample { link });
    }

    /// The packet the arrival event just popped was pushed for: the oldest
    /// one on `link`'s wire (see [`Port::wire`]).
    fn take_off_wire(&mut self, link: LinkId) -> Packet {
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
    fn on_tx_done(&mut self, link: LinkId) {
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

    fn deliver(&mut self, packet: Packet) {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use ispn_sched::{Averaging, FifoPlus, StrictPriority, Unified, Wfq};

    const MBIT: f64 = 1_000_000.0;
    const PKT: u64 = 1000;

    /// An agent that sends a fixed schedule of packets on one flow.
    struct ScheduledSender {
        flow: FlowId,
        times: Vec<SimTime>,
        next: usize,
        seq: u64,
    }

    impl ScheduledSender {
        fn new(flow: FlowId, times: Vec<SimTime>) -> Self {
            ScheduledSender {
                flow,
                times,
                next: 0,
                seq: 0,
            }
        }
        fn arm(&mut self, api: &mut AgentApi) {
            if self.next < self.times.len() {
                let delay = self.times[self.next].saturating_sub(api.now());
                api.set_timer(delay, 0);
            }
        }
    }

    impl Agent for ScheduledSender {
        fn start(&mut self, api: &mut AgentApi) {
            self.arm(api);
        }
        fn on_timer(&mut self, _token: u64, api: &mut AgentApi) {
            api.send(Packet::data(self.flow, self.seq, PKT, api.now()));
            self.seq += 1;
            self.next += 1;
            self.arm(api);
        }
    }

    /// A sink that records deliveries.
    #[derive(Default)]
    struct RecordingSink {
        delivered: std::rc::Rc<std::cell::RefCell<Vec<Delivery>>>,
    }

    impl Agent for RecordingSink {
        fn on_packet(&mut self, delivery: Delivery, _api: &mut AgentApi) {
            self.delivered.borrow_mut().push(delivery);
        }
    }

    fn two_switch_net() -> (Network, LinkId) {
        let (topo, _nodes, links) = Topology::chain(2, MBIT, SimTime::ZERO, 200);
        (Network::new(topo), links[0])
    }

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
                _ => {
                    let mut u = Unified::new(MBIT, 2, Averaging::RunningMean);
                    u.add_guaranteed_flow(FlowId(0), 200_000.0);
                    u.into()
                }
            };
            net.set_discipline(links[0], disc);
            let f0 = net.add_flow(FlowConfig::guaranteed(links.clone(), 200_000.0));
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

    #[test]
    fn repeated_run_until_is_equivalent_to_single_run() {
        let build = || {
            let (mut net, link) = two_switch_net();
            let flow = net.add_flow(FlowConfig::datagram(vec![link]));
            let times: Vec<SimTime> = (0..50).map(|i| SimTime::from_millis(3 * i)).collect();
            net.add_agent(Box::new(ScheduledSender::new(flow, times)));
            (net, flow)
        };
        let (mut a, fa) = build();
        a.run_until(SimTime::from_secs(1));
        let ra = a.monitor_mut().flow_report(fa);
        // Every 100 ms, and at every instant a transmission completes
        // (packet i is sent at 3i ms and leaves the link 1 ms later).
        let coarse = (1..=10).map(|k| SimTime::from_millis(100 * k));
        let on_completions = (0..50).map(|i| SimTime::from_millis(3 * i + 1));
        for stops in [coarse.collect::<Vec<_>>(), on_completions.collect()] {
            let (mut b, fb) = build();
            for stop in stops {
                b.run_until(stop);
            }
            b.run_until(SimTime::from_secs(1));
            let rb = b.monitor_mut().flow_report(fb);
            assert_eq!(ra.delivered, rb.delivered);
            assert_eq!(ra.mean_delay, rb.mean_delay);
            assert_eq!(ra.max_delay, rb.max_delay);
            assert_eq!(a.events_processed(), b.events_processed());
        }
    }

    #[test]
    fn a_horizon_on_a_completion_instant_is_exclusive_for_run_until_only() {
        let (mut net, link) = two_switch_net();
        let flow = net.add_flow(FlowConfig::datagram(vec![link]));
        let sent = SimTime::MILLISECOND;
        net.add_agent(Box::new(ScheduledSender::new(flow, vec![sent])));
        let done = sent + SimTime::MILLISECOND;
        net.run_until(done);
        // The timer ran; the completion due at the horizon waits.
        assert_eq!((net.now(), net.events_processed()), (done, 1));
        assert_eq!(net.monitor_mut().flow_report(flow).delivered, 0);
        net.run_through(done);
        assert_eq!((net.now(), net.events_processed()), (done, 2));
        assert_eq!(net.monitor_mut().flow_report(flow).delivered, 1);
    }

    #[test]
    fn a_timer_and_a_completion_due_together_dispatch_in_push_order() {
        type Log = std::rc::Rc<std::cell::RefCell<Vec<(&'static str, SimTime)>>>;
        /// Logs its timers (armed `delay` apart, `left` of them) and its
        /// deliveries; sends one packet per timer if it has a flow.
        struct Beat {
            name: &'static str,
            delay: SimTime,
            left: u32,
            flow: Option<FlowId>,
            log: Log,
        }
        impl Beat {
            fn arm(&mut self, api: &mut AgentApi) {
                if self.left > 0 {
                    self.left -= 1;
                    api.set_timer(self.delay, 0);
                }
            }
        }
        impl Agent for Beat {
            fn start(&mut self, api: &mut AgentApi) {
                self.arm(api);
            }
            fn on_timer(&mut self, _token: u64, api: &mut AgentApi) {
                self.log.borrow_mut().push((self.name, api.now()));
                if let Some(flow) = self.flow {
                    api.send(Packet::data(flow, 0, PKT, api.now()));
                }
                self.arm(api);
            }
            fn on_packet(&mut self, _delivery: Delivery, api: &mut AgentApi) {
                self.log.borrow_mut().push(("delivery", api.now()));
            }
        }
        let (mut net, link) = two_switch_net();
        let log = Log::default();
        let ms = SimTime::from_millis;
        let beat = |name, delay, left, flow| {
            let log = log.clone();
            Box::new(Beat {
                name,
                delay,
                left,
                flow,
                log,
            })
        };
        // `early` arms its 2 ms timer at the start; `sender` fires at 1 ms,
        // puts a packet on the link (completion due at 2 ms) and then
        // re-arms for 2 ms.  Three events on one nanosecond, two structures:
        // the timer pushed before the completion, the completion, and the
        // timer pushed after it.
        let sink = net.add_agent(beat("sink", ms(0), 0, None));
        let flow = net.add_flow(FlowConfig::datagram(vec![link]).with_sink(sink));
        net.add_agent(beat("early", ms(2), 1, None));
        net.add_agent(beat("sender", ms(1), 2, Some(flow)));
        net.run_until(ms(3));
        assert_eq!(
            *log.borrow(),
            vec![
                ("sender", ms(1)),
                ("early", ms(2)),
                ("delivery", ms(2)),
                ("sender", ms(2)),
            ]
        );
    }

    use ispn_core::admission::{AdmissionConfig, AdmissionController};

    fn controller(rate: f64) -> AdmissionController {
        AdmissionController::new(
            AdmissionConfig::new(rate, 0.9, vec![SimTime::from_millis(100)]),
            10.0,
        )
    }

    #[test]
    fn per_link_admission_reserves_and_release_frees() {
        let (topo, _nodes, links) = Topology::chain(3, MBIT, SimTime::ZERO, 200);
        let mut net = Network::new(topo);
        for &l in &links {
            net.set_discipline(l, Unified::new(MBIT, 1, Averaging::RunningMean));
            net.enable_admission(l, controller(MBIT), SimTime::SECOND);
        }
        let flow = net.add_flow_inactive(FlowConfig::guaranteed(links.clone(), 400_000.0));
        for &l in &links {
            assert!(net.admit_flow_on_link(flow, l).is_accept(), "empty network");
        }
        net.activate_flow(flow);
        assert!(net.flow_active(flow));
        assert_eq!(net.installed_links(flow).len(), 2);
        for &l in &links {
            let ad = net.admission(l).unwrap();
            assert!((ad.reserved_guaranteed_bps() - 400_000.0).abs() < 1e-6);
            assert_eq!(ad.accepted(), 1);
        }
        for &l in &links {
            assert!(net.release_flow_on_link(flow, l));
        }
        net.deactivate_flow(flow);
        assert!(!net.flow_active(flow));
        assert!(net.installed_links(flow).is_empty());
        for &l in &links {
            assert_eq!(net.admission(l).unwrap().reserved_guaranteed_bps(), 0.0);
        }
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
        net.activate_flow(flow);
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
    fn admission_sampling_feeds_live_utilization() {
        let (mut net, link) = two_switch_net();
        net.enable_admission(link, controller(MBIT), SimTime::SECOND);
        let flow = net.add_flow(FlowConfig {
            route: vec![link],
            spec: FlowSpec::Datagram,
            class: ServiceClass::Predicted { priority: 0 },
            edge_policer: None,
            sink: None,
        });
        // 500 packets back to back: the link carries 500 kbit over 1 s.
        let times: Vec<SimTime> = (0..500).map(|_| SimTime::ZERO).collect();
        net.add_agent(Box::new(ScheduledSender::new(flow, times)));
        net.run_until(SimTime::from_secs(3));
        let meas = net
            .admission_mut(link)
            .unwrap()
            .measurement(SimTime::from_secs(3));
        // The windowed mean saw ≈500 kbit/s samples; with the 1.2 safety
        // factor the conservative estimate lands well above zero.
        assert!(
            meas.realtime_util_bps > 100_000.0,
            "ν̂ = {}",
            meas.realtime_util_bps
        );
        // Per-hop waiting times of the predicted class reached d̂ⱼ.
        assert!(meas.class_delay[0] > SimTime::ZERO);
    }

    #[test]
    fn chained_callbacks_apply_commands_in_order_from_one_pooled_buffer() {
        type Log = std::rc::Rc<std::cell::RefCell<Vec<(&'static str, SimTime)>>>;
        /// Logs each delivery; relays it onto `next` if set, arming a timer
        /// for the instant the relayed packet will arrive.
        struct Relay {
            name: &'static str,
            next: Option<FlowId>,
            log: Log,
        }
        impl Agent for Relay {
            fn on_packet(&mut self, delivery: Delivery, api: &mut AgentApi) {
                self.log.borrow_mut().push((self.name, api.now()));
                if let Some(next) = self.next {
                    // Queued timer first, packet second: the network applies
                    // packets first whatever the order of the calls.
                    api.set_timer(SimTime::MILLISECOND, 0);
                    api.send(Packet::data(next, delivery.packet.seq, PKT, api.now()));
                }
            }
            fn on_timer(&mut self, _token: u64, api: &mut AgentApi) {
                self.log.borrow_mut().push(("timer", api.now()));
            }
        }
        let (mut net, link) = two_switch_net();
        let log = Log::default();
        // A relay agent and the flow that delivers to it.
        let hop = |net: &mut Network, name, next| {
            let log = log.clone();
            let agent = net.add_agent(Box::new(Relay { name, next, log }));
            net.add_flow(FlowConfig::datagram(vec![link]).with_sink(agent))
        };
        let to_c = hop(&mut net, "c", None);
        let to_b = hop(&mut net, "b", Some(to_c));
        let to_a = hop(&mut net, "a", Some(to_b));
        let t0 = SimTime::MILLISECOND;
        net.add_agent(Box::new(ScheduledSender::new(to_a, vec![t0])));
        net.run_until(SimTime::from_millis(10));

        // One packet time per relay.  Each relayed packet was put on the
        // idle link before the relay's timer was pushed, so at the shared
        // instant its delivery is dispatched ahead of that timer.
        let ms = SimTime::from_millis;
        assert_eq!(
            *log.borrow(),
            vec![
                ("a", ms(2)),
                ("b", ms(3)),
                ("timer", ms(3)),
                ("c", ms(4)),
                ("timer", ms(4)),
            ]
        );
        // Starts, timers and deliveries: no callback was dispatched from
        // inside another's command application, so they all shared one
        // buffer, handed back empty with its capacity.
        assert_eq!(net.api_pool.len(), 1);
        let api = &net.api_pool[0];
        assert!(api.outbox.is_empty() && api.timer.is_none());
        assert!(api.outbox.capacity() >= 1);
    }

    #[test]
    fn events_are_sixteen_byte_notices() {
        // The layout the event queue's cost rests on: a notice names an
        // agent or a link and never carries a packet by value.
        assert!(std::mem::size_of::<NetEvent>() <= 16);
    }

    #[test]
    fn an_earlier_horizon_never_rewinds_the_clock() {
        /// Records the instant it was started and the instant its one
        /// timer (armed 1 s after the start) fired.
        struct Stamp(std::rc::Rc<std::cell::RefCell<Vec<SimTime>>>);
        impl Agent for Stamp {
            fn start(&mut self, api: &mut AgentApi) {
                self.0.borrow_mut().push(api.now());
                api.set_timer(SimTime::SECOND, 0);
            }
            fn on_timer(&mut self, _token: u64, api: &mut AgentApi) {
                self.0.borrow_mut().push(api.now());
            }
        }
        let rewinds: [fn(&mut Network, SimTime); 2] = [Network::run_until, Network::run_through];
        for rewind in rewinds {
            let (mut net, _link) = two_switch_net();
            net.run_until(SimTime::from_secs(5));
            rewind(&mut net, SimTime::from_secs(3));
            assert_eq!(net.now(), SimTime::from_secs(5));
            // An agent added now starts at 5 s and its timer fires at 6 s,
            // not in the already-simulated past.
            let seen = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
            net.add_agent(Box::new(Stamp(seen.clone())));
            net.run_until(SimTime::from_secs(10));
            assert_eq!(
                *seen.borrow(),
                vec![SimTime::from_secs(5), SimTime::from_secs(6)]
            );
        }
    }

    #[test]
    fn event_times_saturate_at_the_end_of_time() {
        /// Sends one packet at its start and arms one timer 1 ms out;
        /// records the clock at the start and at the timer.
        struct Late(FlowId, std::rc::Rc<std::cell::RefCell<Vec<SimTime>>>);
        impl Agent for Late {
            fn start(&mut self, api: &mut AgentApi) {
                self.1.borrow_mut().push(api.now());
                api.set_timer(SimTime::MILLISECOND, 0);
                api.send(Packet::data(self.0, 0, PKT, api.now()));
            }
            fn on_timer(&mut self, _token: u64, api: &mut AgentApi) {
                self.1.borrow_mut().push(api.now());
            }
        }
        for propagation in [SimTime::ZERO, SimTime::from_millis(7)] {
            let (topo, _nodes, links) = Topology::chain(2, MBIT, propagation, 200);
            let mut net = Network::new(topo);
            let flow = net.add_flow(FlowConfig::datagram(links));
            net.run_until(SimTime::MAX);
            assert_eq!(net.now(), SimTime::MAX);
            // `now + delay` has nowhere to go: the timer, the completion and
            // the arrival are all due at the end of time, not 1 ms after a
            // wrapped clock's zero.
            let seen = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
            net.add_agent(Box::new(Late(flow, seen.clone())));
            net.run_through(SimTime::MAX);
            assert_eq!(*seen.borrow(), vec![SimTime::MAX, SimTime::MAX]);
            assert_eq!(net.now(), SimTime::MAX);
            assert_eq!(net.monitor_mut().flow_report(flow).delivered, 1);
        }
    }

    // ----- agent-slot lifecycle --------------------------------------------

    type ProbeLog = std::rc::Rc<std::cell::RefCell<Vec<(&'static str, &'static str)>>>;

    /// Logs its start and its timers; arms one timer (token = `token`) at
    /// start if `timer` is set, and panics on a token it did not arm — a
    /// stale timer reaching a slot's next occupant.
    struct Probe {
        name: &'static str,
        token: u64,
        timer: Option<SimTime>,
        log: ProbeLog,
    }

    impl Agent for Probe {
        fn start(&mut self, api: &mut AgentApi) {
            self.log.borrow_mut().push((self.name, "start"));
            if let Some(delay) = self.timer {
                api.set_timer(delay, self.token);
            }
        }
        fn on_timer(&mut self, token: u64, _api: &mut AgentApi) {
            assert_eq!(token, self.token, "{} got someone else's timer", self.name);
            self.log.borrow_mut().push((self.name, "timer"));
        }
    }

    fn probe(
        net: &mut Network,
        log: &ProbeLog,
        name: &'static str,
        token: u64,
        timer_ms: Option<u64>,
    ) -> AgentId {
        net.add_agent(Box::new(Probe {
            name,
            token,
            timer: timer_ms.map(SimTime::from_millis),
            log: log.clone(),
        }))
    }

    #[test]
    fn a_retired_agents_pending_timer_fires_into_nothing_and_is_still_counted() {
        let (mut net, _link) = two_switch_net();
        let log = ProbeLog::default();
        let a = probe(&mut net, &log, "a", 1, Some(10));
        net.run_until(SimTime::MILLISECOND);
        let before = net.events_processed();
        net.retire_agent(a);
        net.run_until(SimTime::from_millis(20));
        assert_eq!(*log.borrow(), vec![("a", "start")]);
        assert_eq!(net.events_processed(), before + 1);
    }

    #[test]
    fn a_retired_slot_is_reused_only_after_its_last_timer_fired() {
        let (mut net, _link) = two_switch_net();
        let log = ProbeLog::default();
        let a = probe(&mut net, &log, "a", 1, Some(10));
        net.run_until(SimTime::MILLISECOND);
        // Re-armed for 20 ms, then retired: the 10 ms event is all that
        // names the slot, and pops without hopping to the dropped deadline.
        arm(&mut net, a, &[(19, 1)]);
        net.retire_agent(a);
        // a's timer still names the slot: the newcomer gets a fresh one and
        // (it would panic otherwise) never sees that timer.
        let b = probe(&mut net, &log, "b", 2, Some(15));
        assert_ne!(b, a);
        assert_eq!(net.num_agents(), 2);
        net.run_until(SimTime::from_millis(20));
        let c = probe(&mut net, &log, "c", 3, Some(5));
        assert_eq!(c, a, "the drained slot is reused");
        assert_eq!(net.num_agents(), 2);
        net.run_until(SimTime::from_millis(30));
        assert_eq!(
            *log.borrow(),
            vec![
                ("a", "start"),
                ("b", "start"),
                ("b", "timer"),
                ("c", "start"),
                ("c", "timer")
            ]
        );
    }

    #[test]
    fn an_agent_retired_before_it_started_is_never_started_nor_its_successor_twice() {
        let (mut net, _link) = two_switch_net();
        let log = ProbeLog::default();
        let a = probe(&mut net, &log, "a", 1, Some(1));
        net.retire_agent(a);
        // Nothing names the slot: it is free at once, and its next occupant
        // is started once, for itself — not a second time for `a`.
        let b = probe(&mut net, &log, "b", 2, Some(1));
        assert_eq!(b, a);
        net.run_until(SimTime::from_millis(5));
        assert_eq!(*log.borrow(), vec![("b", "start"), ("b", "timer")]);
    }

    #[test]
    fn agents_added_in_one_instant_start_in_add_order_on_fresh_and_recycled_slots() {
        let (mut net, _link) = two_switch_net();
        let log = ProbeLog::default();
        let first = probe(&mut net, &log, "p", 0, None);
        probe(&mut net, &log, "q", 0, None);
        let third = probe(&mut net, &log, "r", 0, None);
        net.run_until(SimTime::MILLISECOND);
        net.retire_agent(first);
        net.retire_agent(third);
        log.borrow_mut().clear();
        // Two recycled slots (handed out highest first) and a fresh one.
        let x = probe(&mut net, &log, "x", 0, None);
        let y = probe(&mut net, &log, "y", 0, None);
        let z = probe(&mut net, &log, "z", 0, None);
        assert_eq!((x, y, z), (third, first, AgentId(3)));
        net.run_until(SimTime::from_millis(2));
        assert_eq!(
            *log.borrow(),
            vec![("x", "start"), ("y", "start"), ("z", "start")]
        );
    }

    #[test]
    fn a_slot_named_as_a_registered_flows_sink_is_not_recycled() {
        let (mut net, link) = two_switch_net();
        let log = ProbeLog::default();
        let sink = probe(&mut net, &log, "sink", 0, None);
        let flow = net.add_flow(FlowConfig::datagram(vec![link]).with_sink(sink));
        net.add_agent(Box::new(ScheduledSender::new(
            flow,
            vec![SimTime::from_millis(5)],
        )));
        net.run_until(SimTime::MILLISECOND);
        net.retire_agent(sink);
        // The flow still delivers to that slot (into nothing, now): a
        // newcomer must not inherit its packets.
        let other = probe(&mut net, &log, "other", 0, None);
        assert_ne!(other, sink);
        net.run_until(SimTime::from_millis(10));
        assert_eq!(net.monitor_mut().flow_report(flow).delivered, 1);
        // Once the flow's slot is recycled nothing names the agent slot.
        net.deactivate_flow(flow);
        net.retire_flow(flow);
        assert_eq!(net.take_drained_flows(), vec![flow]);
        net.recycle_flow_slot(flow);
        assert_eq!(probe(&mut net, &log, "next", 0, None), sink);
    }

    #[test]
    fn set_flow_sink_refuses_an_unknown_or_retired_agent_and_keeps_the_old_sink() {
        let (mut net, link) = two_switch_net();
        let log = ProbeLog::default();
        let sink = probe(&mut net, &log, "sink", 0, None);
        let retired = probe(&mut net, &log, "retired", 0, None);
        net.retire_agent(retired);
        let flow = net.add_flow(FlowConfig::datagram(vec![link]));
        assert_eq!(net.set_flow_sink(flow, sink), Ok(()));
        let unknown = AgentId(9);
        assert_eq!(
            net.set_flow_sink(flow, unknown),
            Err(SinkError::Unknown(unknown))
        );
        assert_eq!(
            net.set_flow_sink(flow, retired),
            Err(SinkError::Retired(retired))
        );
        assert_eq!(net.flow_config(flow).sink, Some(sink));
        // The refusals held nothing: the retired slot is free for the next
        // agent, and the sink's slot is held by the flow alone.
        assert_eq!(probe(&mut net, &log, "next", 0, None), retired);
        net.retire_agent(sink);
        assert_ne!(probe(&mut net, &log, "later", 0, None), sink);
    }

    #[test]
    fn retiring_an_agent_twice_is_a_no_op() {
        let (mut net, _link) = two_switch_net();
        let log = ProbeLog::default();
        let a = probe(&mut net, &log, "a", 1, Some(10));
        net.run_until(SimTime::MILLISECOND);
        net.retire_agent(a);
        net.retire_agent(a); // draining
        net.run_until(SimTime::from_millis(20));
        net.retire_agent(a); // free
        let b = probe(&mut net, &log, "b", 2, None);
        let c = probe(&mut net, &log, "c", 3, None);
        assert_eq!(b, a);
        assert_ne!(c, a, "the slot was on the free list once");
        // Retiring the slot again retires its new occupant, once.
        net.retire_agent(b);
        net.retire_agent(b);
        assert_eq!(probe(&mut net, &log, "d", 4, None), a);
        assert_eq!(net.num_agents(), 2);
    }

    // ----- the timer slot --------------------------------------------------

    /// `(instant, agent name, token)` of every `on_timer`, in call order.
    type Transcript = Vec<(SimTime, usize, u64)>;

    type TimerLog = std::rc::Rc<std::cell::RefCell<Transcript>>;

    /// Logs its timers; the tests arm it from outside, with [`arm`].
    struct Ticker(usize, TimerLog);

    impl Agent for Ticker {
        fn on_timer(&mut self, token: u64, api: &mut AgentApi) {
            self.1.borrow_mut().push((api.now(), self.0, token));
        }
    }

    /// A callback of `agent` at the current instant that arms its timer
    /// once per `(delay in ms, token)`.
    fn arm(net: &mut Network, agent: AgentId, armings: &[(u64, u64)]) {
        net.dispatch(agent, |_, api| {
            for &(delay_ms, token) in armings {
                api.set_timer(SimTime::from_millis(delay_ms), token);
            }
        });
    }

    const MS: fn(u64) -> SimTime = SimTime::from_millis;

    /// The engine before slots, for three agents: every arming pushed into
    /// one queue as `(agent, generation, token)`, and an agent-side
    /// generation check dropping all but the latest.
    #[derive(Default)]
    struct PushEveryArming {
        queue: EventQueue<(usize, u64, u64)>,
        generation: [u64; 3],
        retired: [bool; 3],
        pushes: u64,
        transcript: Transcript,
    }

    impl PushEveryArming {
        fn run_until(&mut self, horizon: SimTime) {
            while self.queue.peek_time().is_some_and(|t| t < horizon) {
                let (t, (agent, armed_as, token)) = self.queue.pop().expect("peeked");
                if !self.retired[agent] && armed_as == self.generation[agent] {
                    self.transcript.push((t, agent, token));
                }
            }
        }
    }

    /// Steps of `(ms to run first, agent, Some(delay in ms) to arm it with
    /// the step's index as token | None to retire it)`.
    type TimerScript = [(u64, usize, Option<u64>)];

    /// Run `script` over three tickers, then on to 1 s, beside
    /// [`PushEveryArming`].  The `on_timer` transcript — instants, order
    /// across agents on a tie, tokens — must be the model's, from no more
    /// events than the model pushed, and in the end nothing may name a
    /// slot: the retired ones are all free.
    fn run_timer_script(script: &TimerScript) -> (Network, Transcript) {
        let (mut net, _link) = two_switch_net();
        let log = TimerLog::default();
        let agents: Vec<AgentId> = (0..3)
            .map(|name| net.add_agent(Box::new(Ticker(name, log.clone()))))
            .collect();
        let mut model = PushEveryArming::default();
        for (token, &(step_ms, agent, order)) in script.iter().enumerate() {
            let now = net.now() + MS(step_ms);
            net.run_until(now);
            model.run_until(now);
            match order {
                _ if model.retired[agent] => {}
                None => {
                    net.retire_agent(agents[agent]);
                    model.retired[agent] = true;
                }
                Some(delay_ms) => {
                    arm(&mut net, agents[agent], &[(delay_ms, token as u64)]);
                    model.generation[agent] += 1;
                    let event = (agent, model.generation[agent], token as u64);
                    model.queue.push(now + MS(delay_ms), event);
                    model.pushes += 1;
                }
            }
        }
        net.run_until(SimTime::SECOND);
        model.run_until(SimTime::SECOND);
        assert_eq!(*log.borrow(), model.transcript);
        assert!(net.queue.is_empty() && net.events_processed() <= model.pushes);
        assert!(net.agents.iter().all(|slot| slot.refs == 0));
        let retired = model.retired.iter().filter(|&&r| r).count();
        assert_eq!(net.free_agent_slots.len(), retired);
        (net, model.transcript)
    }

    #[test]
    fn of_two_armings_in_one_callback_only_the_second_fires() {
        let (mut net, _link) = two_switch_net();
        let log = TimerLog::default();
        let a = net.add_agent(Box::new(Ticker(0, log.clone())));
        arm(&mut net, a, &[(5, 1), (9, 2)]);
        net.run_until(MS(20));
        assert_eq!(*log.borrow(), vec![(MS(9), 0, 2)]);
        assert_eq!(net.events_processed(), 1);
    }

    #[test]
    fn a_re_armed_timer_fires_once_at_its_last_deadline() {
        let cases: [(&TimerScript, Transcript, u64, u64); 4] = [
            // Later, twice, while the 10 ms event is pending: neither
            // arming pushes, the event hops once to 20 ms.
            (
                &[(0, 0, Some(10)), (4, 0, Some(16)), (2, 0, Some(14))],
                vec![(MS(20), 0, 2)],
                2,
                1,
            ),
            // Earlier: fires at 5 ms.  Armed again at 7 ms, while the
            // superseded 10 ms event is still queued: that event is not
            // the new arming's carrier and reaches nothing.
            (
                &[(0, 0, Some(10)), (2, 0, Some(3)), (5, 0, Some(13))],
                vec![(MS(5), 0, 1), (MS(20), 0, 2)],
                3,
                2,
            ),
            // For the pending instant itself: one hop to the newer `seq`,
            // so the timer `b` armed in between still runs first.
            (
                &[(0, 0, Some(10)), (1, 1, Some(9)), (1, 0, Some(8))],
                vec![(MS(10), 1, 1), (MS(10), 0, 2)],
                3,
                2,
            ),
            // Retired after a re-arm for later: the 10 ms event pops into
            // nothing and does not hop.
            (
                &[(0, 0, Some(10)), (1, 0, Some(19)), (0, 0, None)],
                vec![],
                1,
                1,
            ),
        ];
        for (script, fired, events, high_water) in cases {
            let (net, transcript) = run_timer_script(script);
            assert_eq!(transcript, fired, "{script:?}");
            assert_eq!(net.events_processed(), events, "{script:?}");
            assert_eq!(net.event_queue_high_water(), high_water, "{script:?}");
        }
    }

    proptest::proptest! {
        /// [`run_timer_script`] on random scripts.  Delays and steps share
        /// a 1 ms grid, so re-armings land earlier than, later than and
        /// exactly on the pending deadline, and on the current instant.
        #[test]
        fn timer_slots_fire_as_if_every_arming_had_been_pushed(
            // (ms to run first, agent, 0 = retire / else arm, delay in ms).
            script in proptest::collection::vec((0u64..4, 0usize..3, 0u8..10, 0u64..6), 1..150)
        ) {
            let script: Vec<_> = script
                .iter()
                .map(|&(step_ms, agent, kind, delay_ms)| (step_ms, agent, (kind > 0).then_some(delay_ms)))
                .collect();
            run_timer_script(&script);
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
    fn assert_fifo_deliveries(deliveries: &[Delivery], script: &Script, propagation: &[SimTime]) {
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
            wfq.set_rate(trace, 600_000.0);
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
    fn installed_flow_grows_footprint_accounting() {
        // Satellite regression: flow_table_bytes must include the
        // schedulers' per-flow state and reservation_state_bytes the
        // per-flow reservation entries — before the fix both ignored the
        // ports entirely, so installing a guaranteed flow left
        // reservation_state_bytes unchanged.
        let (mut net, link) = two_switch_net();
        net.set_discipline(link, Wfq::new(MBIT, 100_000.0));
        let table_before = net.flow_table_bytes();
        let resv_before = net.reservation_state_bytes();
        let flow = net.add_flow_inactive(FlowConfig::guaranteed(vec![link], 300_000.0));
        assert!(net.admit_flow_on_link(flow, link).is_accept());
        assert!(
            net.flow_table_bytes() > table_before,
            "flow table footprint must grow when a flow is installed"
        );
        assert!(
            net.reservation_state_bytes() > resv_before,
            "reservation footprint must include the scheduler's per-flow entries"
        );
        // Releasing returns the scheduler's reservation entry.
        net.release_flow_on_link(flow, link);
        assert_eq!(net.reservation_state_bytes(), resv_before);
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
        net.deactivate_flow(flow);
        net.retire_flow(flow);
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
        net.deactivate_flow(flow);
        net.retire_flow(flow);
        // The retire drains immediately (nothing in flight) …
        assert_eq!(net.take_drained_flows(), vec![flow]);
        // … but the flow is re-activated before the driver recycles it:
        // the safety valve keeps the slot live.
        net.activate_flow(flow);
        net.recycle_flow_slot(flow);
        let fresh = net.add_flow(FlowConfig::datagram(vec![link]));
        assert_ne!(fresh, flow, "live slot must not be handed out again");
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
    fn invalid_route_rejected() {
        let (topo, _nodes, links) = Topology::chain(4, MBIT, SimTime::ZERO, 200);
        let mut net = Network::new(topo);
        net.add_flow(FlowConfig::datagram(vec![links[0], links[2]]));
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
}
