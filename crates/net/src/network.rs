//! The network itself: switches, links, flows, agents and the event loop.
//!
//! The model is output-queued: every unidirectional link has, at its
//! upstream switch, one queueing discipline and one finite packet buffer.
//! Forwarding a packet means looking up the flow's next link at the current
//! switch, applying edge policing if this is the flow's first switch,
//! enqueueing into that link's discipline (or dropping if the buffer is
//! full) and, whenever the link goes idle, asking the discipline for the
//! next packet to transmit.
//!
//! One [`Network`] owns it all.  Each file under `network/` holds one kind
//! of its state and the methods that write it (the crate docs list them);
//! this one holds the struct, its two timelines and `run_events`, the one
//! loop that calls into all of them.

use std::collections::VecDeque;

use ispn_core::FlowId;
use ispn_sched::{Discipline, Fifo, ProbeStats};
use ispn_sim::{EventQueue, SimTime};

use crate::agent::{AgentApi, AgentId};
use crate::monitor::Monitor;
use crate::telemetry::NetTelemetry;
use crate::topology::{LinkId, Topology};

mod admission;
mod agents;
mod flows;
mod port;

use agents::AgentSlot;
pub use agents::SinkError;
use flows::FlowState;
pub use flows::{FlowConfig, FlowPhase, PoliceAction, RequestId};
use port::Port;

/// What [`Network::queue`] holds: 16-byte notices that name an agent or a
/// link, never a packet — an in-flight packet waits on its port's
/// [`wire`](Port::wire), so the pending-event set moves and compares small
/// entries however many packets are in flight.  Agent and link indices are
/// the `u32`s a slot or port keeps from its mint ([`Network::add_agent`],
/// [`Network::new`]), where they were checked to fit.
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

/// The `u32` a [`NetEvent`] stores for agent or link index `index`.
///
/// # Panics
/// Panics if the index does not fit: events could no longer name it.
fn event_index(index: usize, what: &str) -> u32 {
    u32::try_from(index).unwrap_or_else(|_| panic!("{what} index {index} does not fit a u32"))
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
    #[expect(
        clippy::vec_box,
        reason = "the indirection is the point: what is popped and pushed per callback is \
                  the element, not the `Vec`"
    )]
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
        // Events name links by `u32`: each port is checked here, once.
        let ports = (0..num_links)
            .map(|link| Port {
                id: event_index(link, "link"),
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

    /// Total events dispatched by the event loop so far.
    pub fn events_processed(&self) -> u64 {
        self.dispatched
    }

    /// The deepest the pending-event set — both timelines together — ever
    /// was.
    pub fn event_queue_high_water(&self) -> u64 {
        self.pending_high_water
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

    /// Put the one pending completion of the link events name `link` on
    /// the link timeline.
    fn schedule_completion(&mut self, at: SimTime, link: u32) {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::{Agent, Delivery};
    use ispn_core::admission::{AdmissionConfig, AdmissionController};
    use ispn_core::{Conformance, FlowId, FlowSpec, Packet, ServiceClass, TokenBucketSpec};
    use ispn_sched::{
        Averaging, Discipline, Fifo, FifoPlus, QueueDiscipline, StrictPriority, Unified, Wfq,
    };

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

    port::tests!();
    flows::tests!();
    agents::tests!();
    admission::tests!();
}
