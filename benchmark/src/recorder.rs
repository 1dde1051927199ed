//! The recording wrapper the traced run installs on the measured links
//! through the public `Network::set_discipline` + `Discipline::custom`
//! seam.  It forwards every call unchanged — the traced run's report must
//! stay byte-identical to the untraced one — while logging the call stream
//! so the scheduler can be replayed, in isolation, under exactly the
//! arrival pattern the workload gave it.

use std::cell::RefCell;
use std::rc::Rc;

use ispn_core::{FlowId, Packet};
use ispn_sched::{Dequeued, Discipline, GuaranteedInstall, QueueDiscipline, SchedContext};
use ispn_sim::SimTime;

/// One logged call into a link's discipline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// `enqueue(now, packet, ctx)`.
    Enqueue(SimTime, Packet, SchedContext),
    /// `dequeue(now)`.
    Dequeue(SimTime),
    /// `install_guaranteed(flow, rate_bps)`.
    Install(FlowId, f64),
    /// `remove_flow(now, flow)`.
    Remove(SimTime, FlowId),
}

/// What one recorder saw on its link.
#[derive(Debug, Default)]
pub struct LinkLog {
    /// The call stream from the start of the run, cut off for good once it
    /// holds [`LinkLog::enqueue_cap`] enqueues (a prefix of a call stream
    /// is itself a valid stream: it starts from an empty queue).
    pub ops: Vec<Op>,
    /// Enqueues logged in `ops`.
    pub logged_enqueues: u64,
    /// Lane operations logged in `ops`.
    pub logged_lane_ops: u64,
    /// Every enqueue the link saw, logged or not.
    pub enqueues: u64,
    /// Every `install_guaranteed` + `remove_flow` the link saw.
    pub lane_ops: u64,
    /// Enqueues after which logging stops.
    pub enqueue_cap: u64,
}

impl LinkLog {
    fn note(&mut self, op: Op) {
        let logging = self.logged_enqueues < self.enqueue_cap;
        match op {
            Op::Enqueue(..) => {
                self.enqueues += 1;
                self.logged_enqueues += u64::from(logging);
            }
            Op::Install(..) | Op::Remove(..) => {
                self.lane_ops += 1;
                self.logged_lane_ops += u64::from(logging);
            }
            Op::Dequeue(_) => {}
        }
        if logging {
            self.ops.push(op);
        }
    }
}

/// A discipline that logs the calls it forwards to `inner`.
pub struct Recorder {
    inner: Discipline,
    log: Rc<RefCell<LinkLog>>,
}

impl Recorder {
    /// Wrap `inner`, logging up to `enqueue_cap` enqueues (and every call
    /// in between) into the returned shared log.
    pub fn new(inner: Discipline, enqueue_cap: u64) -> (Recorder, Rc<RefCell<LinkLog>>) {
        let log = Rc::new(RefCell::new(LinkLog {
            enqueue_cap,
            ..LinkLog::default()
        }));
        (
            Recorder {
                inner,
                log: log.clone(),
            },
            log,
        )
    }
}

impl QueueDiscipline for Recorder {
    fn enqueue(&mut self, now: SimTime, packet: Packet, ctx: SchedContext) {
        self.log.borrow_mut().note(Op::Enqueue(now, packet, ctx));
        self.inner.enqueue(now, packet, ctx);
    }

    fn dequeue(&mut self, now: SimTime) -> Option<Dequeued> {
        self.log.borrow_mut().note(Op::Dequeue(now));
        self.inner.dequeue(now)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn install_guaranteed(&mut self, flow: FlowId, rate_bps: f64) -> GuaranteedInstall {
        self.log.borrow_mut().note(Op::Install(flow, rate_bps));
        self.inner.install_guaranteed(flow, rate_bps)
    }

    fn remove_flow(&mut self, now: SimTime, flow: FlowId) -> bool {
        self.log.borrow_mut().note(Op::Remove(now, flow));
        self.inner.remove_flow(now, flow)
    }

    fn state_bytes(&self) -> u64 {
        self.inner.state_bytes()
    }

    fn reservation_bytes(&self) -> u64 {
        self.inner.reservation_bytes()
    }

    fn pool_grow_events(&self) -> u64 {
        self.inner.pool_grow_events()
    }

    fn pool_segments_high_water(&self) -> u64 {
        self.inner.pool_segments_high_water()
    }
}

/// Apply a logged call stream to `disc` and drain what is left queued.
/// Returns a checksum over the served packets so the work cannot be
/// optimised away.
pub fn replay(disc: &mut Discipline, ops: &[Op]) -> u64 {
    let mut served = 0u64;
    let mut last = SimTime::ZERO;
    for op in ops {
        match *op {
            Op::Enqueue(now, packet, ctx) => {
                disc.enqueue(now, packet, ctx);
                last = now;
            }
            Op::Dequeue(now) => {
                if let Some(d) = disc.dequeue(now) {
                    served = served.wrapping_add(d.packet.seq);
                }
                last = now;
            }
            Op::Install(flow, rate_bps) => {
                disc.install_guaranteed(flow, rate_bps);
            }
            Op::Remove(now, flow) => {
                disc.remove_flow(now, flow);
                last = now;
            }
        }
    }
    while let Some(d) = disc.dequeue(last) {
        served = served.wrapping_add(d.packet.seq);
    }
    served
}
