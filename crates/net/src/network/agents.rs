//! Agent slots: registration, retirement and the references that hold a
//! retired slot back from reuse, each agent's one timer slot, and the
//! dispatch of a callback with the commands it queued.

use ispn_sim::SimTime;

use super::{event_index, NetEvent, Network};
use crate::agent::{Agent, AgentApi, AgentId};

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
pub(super) struct ArmedTimer {
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
pub(super) struct AgentSlot {
    /// What events name this slot by (checked in [`Network::add_agent`]).
    id: u32,
    /// The agent [`Network::add_agent`] put here; the no-op once retired.
    agent: Box<dyn Agent>,
    /// What still names this slot: timer events in the queue, live or
    /// superseded (bumped at push and pop), plus registered flows whose
    /// sink it is.  A retired slot is reused only when this is zero.
    pub(super) refs: u32,
    /// Cleared by [`Network::retire_agent`].
    live: bool,
    /// The agent's one timer, while it is armed.
    timer: Option<ArmedTimer>,
}

impl Network {
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
                self.agents.push(AgentSlot {
                    id: event_index(id.0, "agent"),
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
    pub(super) fn hold_agent(&mut self, sink: AgentId) -> Result<(), SinkError> {
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
    pub(super) fn unhold_agent(&mut self, id: AgentId) {
        let slot = &mut self.agents[id.0];
        slot.refs -= 1;
        if slot.refs == 0 && !slot.live {
            self.free_agent_slots.push(id);
        }
    }

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
                let agent = slot.id;
                self.schedule_as(at, seq, NetEvent::Timer { agent, seq });
            }
        }
    }

    /// The timer event queued for `agent` under `seq` popped.
    pub(super) fn on_timer_event(&mut self, agent: u32, seq: u64) {
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

    /// Apply what `agent` asked for — packets in the order requested, then
    /// the timer — and return the emptied buffer to the pool.
    fn apply_commands(&mut self, agent: AgentId, mut api: Box<AgentApi>) {
        for p in api.outbox.drain(..) {
            self.inject(p);
        }
        if let Some((delay, token)) = api.timer.take() {
            self.arm_timer(agent, self.now + delay, token);
        }
        self.api_pool.push(api);
    }

    /// Run one callback of agent `id` against a pooled command buffer and
    /// apply the commands it queued.
    pub(super) fn dispatch(
        &mut self,
        id: AgentId,
        callback: impl FnOnce(&mut dyn Agent, &mut AgentApi),
    ) {
        let mut api = self.api_pool.pop().unwrap_or_default();
        api.now = self.now;
        let mut agent = std::mem::replace(&mut self.agents[id.0].agent, Box::new(NoopAgent));
        callback(agent.as_mut(), &mut api);
        self.agents[id.0].agent = agent;
        self.apply_commands(id, api);
    }
}

/// This file's tests.  `network.rs` expands them into its `tests` module,
/// which the suite lists every `Network` test under, beside the fixtures
/// they share.
#[cfg(test)]
macro_rules! tests {
    () => {
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
            net.set_flow_phase(flow, FlowPhase::Retired);
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
    };
}
#[cfg(test)]
pub(super) use tests;
