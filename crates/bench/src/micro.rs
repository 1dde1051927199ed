//! Micro-benchmark workload cores, shared by the Criterion benches under
//! `benches/` and the [`crate::snapshot`] harness.
//!
//! Section 3 of the paper: the packet scheduling behaviour "must be
//! executed for every packet \[so\] it must not be so complex as to effect
//! overall network performance".  The workloads here exercise exactly the
//! per-packet and per-event hot paths that claim rests on — and, for the
//! Sections 8–9 control plane, one setup request's whole life — so both
//! the interactive Criterion runs and the recorded `BENCH_*.json`
//! trajectory measure the same code.

use ispn_core::{FlowId, Packet, ServiceClass};
use ispn_experiments::churn::{build_sim, ChurnConfig};
use ispn_experiments::config::PaperConfig;
use ispn_sched::{
    Averaging, Fifo, FifoPlus, QueueDiscipline, SchedContext, StrictPriority, Unified,
    VirtualClock, Wfq,
};
use ispn_sim::{EventQueue, Pcg64, SimTime};
use std::sync::OnceLock;

const MBIT: f64 = 1_000_000.0;
const FLOWS: u32 = 10;

/// One micro-workload: runs `n` operations and returns a checksum the
/// optimizer cannot elide.
pub type Workload = fn(u64) -> u64;

/// Enqueue and dequeue `n` packets, alternating flows, with the queue kept
/// around 20 packets deep.  Returns a checksum over the served sequence
/// numbers so the optimizer cannot elide the work.
pub fn churn<D: QueueDiscipline>(disc: &mut D, n: u64) -> u64 {
    let mut served = 0;
    let mut now = SimTime::ZERO;
    for i in 0..n {
        now += SimTime::from_micros(100);
        let flow = FlowId((i % FLOWS as u64) as u32);
        let class = match i % 4 {
            0 => ServiceClass::Guaranteed,
            1 => ServiceClass::Predicted { priority: 0 },
            2 => ServiceClass::Predicted { priority: 1 },
            _ => ServiceClass::Datagram,
        };
        let pkt = Packet::data(flow, i, 1000, now);
        disc.enqueue(now, pkt, SchedContext::new(class, now));
        if disc.len() > 20 {
            if let Some(d) = disc.dequeue(now) {
                served += d.packet.seq;
            }
        }
    }
    while let Some(d) = disc.dequeue(now) {
        served += d.packet.seq;
    }
    served
}

/// One call of the paced stream: `Some(flow)` enqueues a packet of that
/// flow, `None` dequeues.
pub type PacedOp = (SimTime, Option<FlowId>);

/// Packets in the cached paced stream (`paced` replays a prefix of it).
pub const PACED_PKTS: u64 = 16_384;

/// The call stream one output port sees under the paper's Table-1 load:
/// ten two-state Markov on/off flows at `(A, 2A, 5)` with `A` = 85
/// packets/s of 1000 bits on a 1 Mbit/s link (≈ 85 % load), enqueued at
/// their arrival instants and dequeued as `Network` would — on arrival at
/// an idle port, and at every transmission completion that leaves packets
/// queued.  Unlike [`churn`], flows empty and refill, so a GPS clock under
/// it runs its iterated deletion.  Covers `pkts` enqueues and their
/// dequeues; deterministic.
pub fn paced_stream(pkts: u64) -> Vec<PacedOp> {
    const AVG_PPS: f64 = 85.0;
    const MEAN_BURST: f64 = 5.0;
    let peak_gap = 1.0 / (2.0 * AVG_PPS);
    let mean_idle = MEAN_BURST * (1.0 / AVG_PPS - peak_gap);
    let tx = SimTime::from_secs_f64(1000.0 / MBIT);

    // Per-flow next arrival, remaining packets of the burst, and RNG.
    let mut sources: Vec<(SimTime, u64, Pcg64)> = (0..FLOWS as u64)
        .map(|f| {
            let mut rng = Pcg64::new(0xACED + f);
            let offset = rng.next_f64() * MEAN_BURST / AVG_PPS;
            (SimTime::from_secs_f64(offset), 0, rng)
        })
        .collect();
    let mut ops = Vec::with_capacity(2 * pkts as usize);
    let (mut queued, mut port_free_at) = (0u64, None::<SimTime>);
    for _ in 0..pkts {
        let flow = (0..sources.len())
            .min_by_key(|&f| sources[f].0)
            .expect("at least one flow");
        let (at, left, rng) = &mut sources[flow];
        let now = *at;
        if *left == 0 {
            *left = rng.geometric(MEAN_BURST);
        }
        *left -= 1;
        let idle = if *left == 0 {
            rng.exponential(mean_idle)
        } else {
            0.0
        };
        *at = now + SimTime::from_secs_f64(peak_gap + idle);

        // Transmission completions up to (and at) this arrival come first.
        while let Some(done) = port_free_at.filter(|&done| done <= now) {
            if queued == 0 {
                port_free_at = None;
            } else {
                ops.push((done, None));
                queued -= 1;
                port_free_at = Some(done + tx);
            }
        }
        ops.push((now, Some(FlowId(flow as u32))));
        queued += 1;
        if port_free_at.is_none() {
            ops.push((now, None));
            queued -= 1;
            port_free_at = Some(now + tx);
        }
    }
    while let Some(done) = port_free_at.filter(|_| queued > 0) {
        ops.push((done, None));
        queued -= 1;
        port_free_at = Some(done + tx);
    }
    ops
}

/// Replay the first `n` packets of the cached [`paced_stream`] (and the
/// dequeues among them) through `disc`, then drain it.  Returns the same
/// checksum as [`churn`].
///
/// # Panics
/// Panics if `n` exceeds [`PACED_PKTS`].
pub fn paced<D: QueueDiscipline>(disc: &mut D, n: u64) -> u64 {
    static STREAM: OnceLock<Vec<PacedOp>> = OnceLock::new();
    assert!(
        n <= PACED_PKTS,
        "the paced stream holds {PACED_PKTS} packets"
    );
    let mut served = 0;
    let mut now = SimTime::ZERO;
    let mut seq = 0;
    for &(at, op) in STREAM.get_or_init(|| paced_stream(PACED_PKTS)) {
        match op {
            Some(_) if seq == n => break,
            Some(flow) => {
                // Flows 0–2 are the guaranteed flows `sched/unified`
                // installs; the rest spread over the shared classes.
                let class = match flow.0 {
                    0..=2 => ServiceClass::Guaranteed,
                    3..=5 => ServiceClass::Predicted { priority: 0 },
                    6..=8 => ServiceClass::Predicted { priority: 1 },
                    _ => ServiceClass::Datagram,
                };
                let pkt = Packet::data(flow, seq, 1000, at);
                disc.enqueue(at, pkt, SchedContext::new(class, at));
                seq += 1;
            }
            None => served += disc.dequeue(at).map_or(0, |d| d.packet.seq),
        }
        now = at;
    }
    while let Some(d) = disc.dequeue(now) {
        served += d.packet.seq;
    }
    served
}

/// The per-packet scheduling workloads: one `(label, workload)` pair per
/// discipline, each running `n` packets through a fresh queue.  The
/// `_paced` pair drives the two GPS-clocked disciplines with
/// [`paced_stream`] instead of [`churn`]'s standing backlog.
pub fn sched_workloads() -> Vec<(&'static str, Workload)> {
    vec![
        ("sched/fifo", |n| churn(&mut Fifo::new(), n)),
        ("sched/wfq", |n| {
            churn(&mut Wfq::equal_share(MBIT, FLOWS as usize), n)
        }),
        ("sched/virtual_clock", |n| {
            churn(&mut VirtualClock::new(MBIT / FLOWS as f64), n)
        }),
        ("sched/fifo_plus_running_mean", |n| {
            churn(&mut FifoPlus::new(Averaging::RunningMean), n)
        }),
        ("sched/fifo_plus_ewma", |n| {
            churn(&mut FifoPlus::new(Averaging::Ewma(1.0 / 16.0)), n)
        }),
        ("sched/priority_over_fifo", |n| {
            let mut d: StrictPriority<Fifo> = StrictPriority::new(2);
            churn(&mut d, n)
        }),
        ("sched/unified", |n| {
            let mut d = Unified::new(MBIT, 2, Averaging::RunningMean);
            for f in 0..3u32 {
                d.add_guaranteed_flow(FlowId(f), 100_000.0);
            }
            churn(&mut d, n)
        }),
        ("sched/wfq_paced", |n| {
            paced(&mut Wfq::equal_share(MBIT, FLOWS as usize), n)
        }),
        ("sched/unified_paced", |n| {
            let mut d = Unified::new(MBIT, 2, Averaging::RunningMean);
            for f in 0..3u32 {
                d.add_guaranteed_flow(FlowId(f), 100_000.0);
            }
            paced(&mut d, n)
        }),
    ]
}

/// Push `n` randomly timestamped events through the event queue, popping
/// every other push and then draining; returns a checksum of the popped
/// payloads.
pub fn event_queue_push_pop(n: u64) -> u64 {
    let mut q = EventQueue::with_capacity(1024);
    let mut rng = Pcg64::new(1);
    let mut sink = 0u64;
    for i in 0..n {
        q.push(SimTime::from_nanos(rng.next_below(1_000_000_000)), i);
        if i % 2 == 0 {
            if let Some((_, e)) = q.pop() {
                sink = sink.wrapping_add(e);
            }
        }
    }
    while let Some((_, e)) = q.pop() {
        sink = sink.wrapping_add(e);
    }
    sink
}

/// `n` holds (pop the earliest event, push its successor) under the
/// pending-event pattern one Fig-1 chain produces: each of four busy links
/// re-arms one packet time (1000 bits at 1 Mbit/s) ahead, each of 24
/// sources re-arms an exponential gap ahead (mean 1/85 s, the paper's
/// average packet rate) — 28 pending events, six or seven due in each
/// 2^20 ns calendar day.  The payload is 16 bytes, the size of a network
/// event, so the queue moves entries the size the engine's are;
/// [`event_queue_push_pop`] spreads bare `u64`s uniformly over a second and
/// sees neither the pacing nor the entry size.  Returns a checksum of the
/// popped payloads.
pub fn event_queue_paced(n: u64) -> u64 {
    const LINKS: u64 = 4;
    const SOURCES: u64 = 24;
    const GAPS: usize = 1024;
    // Drawn once, so the loop times the queue and not `ln`.
    static SOURCE_GAPS: OnceLock<Vec<SimTime>> = OnceLock::new();
    let gaps = SOURCE_GAPS.get_or_init(|| {
        let mut rng = Pcg64::new(14);
        (0..GAPS)
            .map(|_| SimTime::from_secs_f64(rng.exponential(1.0 / 85.0)))
            .collect()
    });
    let packet_time = SimTime::from_secs_f64(1000.0 / MBIT);

    // The payload: (who re-arms, how many times it has).
    let mut q: EventQueue<(u64, u64)> = EventQueue::with_capacity(64);
    for link in 0..LINKS {
        q.push(SimTime::from_micros(250 * link), (link, 0));
    }
    for source in 0..SOURCES {
        q.push(gaps[source as usize], (LINKS + source, 0));
    }
    let mut sink = 0u64;
    for i in 0..n {
        let (now, (who, fired)) = q.pop().expect("every pop is followed by a push");
        sink = sink.wrapping_add(who ^ fired);
        let hold = if who < LINKS {
            packet_time
        } else {
            gaps[i as usize % GAPS]
        };
        q.push(now + hold, (who, fired + 1));
    }
    sink
}

/// Draw `n` exponential inter-arrival samples from the PCG generator and
/// return the bit pattern of their sum as a checksum.
pub fn pcg_exponential(n: u64) -> u64 {
    let mut rng = Pcg64::new(7);
    let mut acc = 0.0;
    for _ in 0..n {
        acc += rng.exponential(0.0294);
    }
    acc.to_bits()
}

/// The simulation-substrate workloads: event-queue throughput (uniform
/// spread and the engine's paced hold pattern) and the random-number
/// generator.
pub fn engine_workloads() -> Vec<(&'static str, Workload)> {
    vec![
        ("engine/event_queue_push_pop", event_queue_push_pop),
        ("engine/event_queue_paced", event_queue_paced),
        ("engine/pcg64_exponential", pcg_exponential),
    ]
}

/// The whole lives of `n` setup requests, in situ: the churn experiment's
/// scenario (Fig-1 chain, unified scheduler, Section-9 admission on every
/// forward link) offered 200 requests a second holding 75 ms on average
/// — the mix at which about two requests in five are refused — for `n / 200`
/// simulated seconds, then drained.  Each request is submitted, decided
/// hop by hop, confirmed or rolled back; an admitted one gets its on/off
/// source, sends for its holding time, departs, is torn down hop by hop
/// and hands its flow and agent slots back.  Unlike a replay of the
/// signaling engine alone this bills a request everything it costs the
/// run, allocator traffic included.  Returns the number of decisions made
/// (≈ `n`: arrivals are Poisson).
pub fn churn_request(n: u64) -> u64 {
    const ARRIVALS_PER_SEC: f64 = 200.0;
    const MEAN_HOLDING_SECS: f64 = 0.075;
    let paper = PaperConfig {
        duration: SimTime::from_secs_f64(n as f64 / ARRIVALS_PER_SEC),
        ..PaperConfig::paper()
    };
    let horizon = paper.duration;
    let mut sim = build_sim(&ChurnConfig::new(
        paper,
        ARRIVALS_PER_SEC,
        MEAN_HOLDING_SECS,
    ));
    sim.run_until(horizon);
    sim.drain_churn();
    sim.run_until(horizon + SimTime::SECOND);
    sim.signaling().decision_log().len() as u64
}

/// The control-plane workloads: a setup request's whole life.
pub fn signal_workloads() -> Vec<(&'static str, Workload)> {
    vec![("signal/churn_request", churn_request)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_request_decides_about_n_requests_and_refuses_two_in_five() {
        let n = 4_000;
        let decided = churn_request(n);
        assert!(decided.abs_diff(n) < n / 10, "{decided} decisions for {n}");
        // The refusal share is what makes the workload the churn mix: count
        // it on the same scenario.
        let paper = PaperConfig {
            duration: SimTime::from_secs(20),
            ..PaperConfig::paper()
        };
        let outcome = ispn_experiments::churn::run(&ChurnConfig::new(paper, 200.0, 0.075));
        assert_eq!(outcome.offered as u64, decided);
        let refused = outcome.blocking_probability();
        assert!((0.3..0.5).contains(&refused), "refusal share {refused}");
        assert_eq!(outcome.residual_reserved_bps, 0.0);
    }

    #[test]
    fn every_workload_serves_all_packets_deterministically() {
        for (name, work) in signal_workloads() {
            assert_eq!(work(500), work(500), "{name}");
        }
        for (name, work) in sched_workloads() {
            // Same checksum on repeat runs: the workload is deterministic.
            assert_eq!(work(2_000), work(2_000), "{name}");
        }
        for (name, work) in engine_workloads() {
            assert_eq!(work(2_000), work(2_000), "{name}");
        }
    }

    #[test]
    fn paced_stream_is_the_port_a_network_would_drive() {
        let ops = paced_stream(4_000);
        let enqueues = ops.iter().filter(|(_, op)| op.is_some()).count();
        assert_eq!(enqueues, 4_000);
        assert_eq!(ops.len(), 8_000, "every packet is dequeued once");
        assert!(
            ops.windows(2).all(|w| w[0].0 <= w[1].0),
            "time runs forward"
        );
        // Work conserving, never dequeuing from an empty queue, and
        // transmissions are one packet time apart or later.
        let (mut depth, mut last_dequeue) = (0i64, None::<SimTime>);
        let mut emptied = 0;
        for &(at, op) in &ops {
            if op.is_some() {
                depth += 1;
            } else {
                assert!(depth > 0, "dequeue from an empty port at {at:?}");
                depth -= 1;
                emptied += u32::from(depth == 0);
                if let Some(prev) = last_dequeue {
                    assert!(at >= prev + SimTime::MILLISECOND);
                }
                last_dequeue = Some(at);
            }
        }
        // ≈ 85 % load: the port empties often but is mostly busy.
        let load = 4_000.0 * 0.001 / ops.last().unwrap().0.as_secs_f64();
        assert!((0.75..0.95).contains(&load), "load {load}");
        assert!(emptied > 100, "the port emptied only {emptied} times");
        // Every packet served exactly once through a real discipline.
        let n = 3_000u64;
        assert_eq!(paced(&mut Fifo::new(), n), n * (n - 1) / 2);
        assert_eq!(
            paced(&mut Wfq::equal_share(MBIT, FLOWS as usize), n),
            n * (n - 1) / 2
        );
    }

    #[test]
    fn sched_churn_serves_every_sequence_number() {
        // The checksum equals the sum 0 + 1 + … + (n-1) exactly when every
        // enqueued packet was eventually dequeued once.
        let n = 1_000u64;
        let served = churn(&mut Fifo::new(), n);
        assert_eq!(served, n * (n - 1) / 2);
    }
}
