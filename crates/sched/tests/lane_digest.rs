//! Pins what the three per-flow stamped-queue disciplines do over seeded
//! random op streams: an FNV-1a digest of the *service* — the served order,
//! every install / remove result and, after every call, `len` and
//! `reservation_bytes`.  Installs follow the network ledger's rule: on WFQ
//! and the unified scheduler an install that would take the stream's Σ of
//! installed rates to the link rate is refused (folded as 3) and never
//! reaches the discipline.  The streams tear lanes down while backlogged and
//! register them again before the drain, so lane lifecycle is covered as
//! well as service order.  `VirtualClock` is run by no benchmark workload
//! and no golden; this digest is its byte-identity evidence.  A change that
//! moves a constant changed behaviour — say so, don't re-bless silently.
//!
//! Queue *storage* is checked on the same streams as properties, never as
//! pinned bytes (how much a queue reserves is its container's business):
//! `pool_grow_events` never decreases, `state_bytes` covers every queued
//! element, and a burst that is drained and offered again finds both
//! counters where the first pass left them.

use ispn_core::{FlowId, Packet, ServiceClass};
use ispn_sched::{
    Averaging, GuaranteedInstall, QueueDiscipline, SchedContext, Unified, VirtualClock, Wfq,
};
use ispn_sim::{Pcg64, SimTime};

const MBIT: f64 = 1_000_000.0;
const SEEDS: u64 = 100;
const OPS: usize = 400;
/// The least any discipline stores per queued packet.
const QUEUED: u64 = std::mem::size_of::<(Packet, SchedContext)>() as u64;

fn fold(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn fold_served(h: &mut u64, q: &mut impl QueueDiscipline, now: SimTime) -> bool {
    let Some(d) = q.dequeue(now) else {
        fold(h, u64::MAX);
        return false;
    };
    fold(h, u64::from(d.packet.flow.0));
    fold(h, d.packet.seq);
    fold(h, d.arrival.as_nanos());
    fold(h, u64::from(d.class == ServiceClass::Guaranteed));
    true
}

/// Offer every flow a 40-packet burst in all three classes, then drain.
fn burst_and_drain(q: &mut impl QueueDiscipline, now: SimTime) {
    for seq in 0..40 {
        for flow in 1..=12 {
            let class = match (flow + seq) % 3 {
                0 => ServiceClass::Datagram,
                1 => ServiceClass::Predicted { priority: 0 },
                _ => ServiceClass::Guaranteed,
            };
            let packet = Packet::data(FlowId(flow), u64::from(seq), 1000, now);
            q.enqueue(now, packet, SchedContext::new(class, now));
        }
    }
    while q.dequeue(now).is_some() {}
}

/// Service digest of `SEEDS` op streams over a discipline built by `make`,
/// asserting the storage properties on the way; installs must keep the
/// installed rates' sum below `capacity`, if there is one.
fn digest<D: QueueDiscipline>(make: fn() -> D, capacity: Option<f64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for seed in 0..SEEDS {
        let mut q = make();
        let mut rng = Pcg64::new(seed);
        // The rate each flow (1 to 12) holds: every one a whole number of
        // bit/s, so the sum is exact in any order.
        let mut held = [0.0; 13];
        let mut now = SimTime::ZERO;
        let mut grown = 0;
        for seq in 0..OPS as u64 {
            now += SimTime::from_micros(rng.next_below(1500));
            let flow = FlowId(1 + rng.next_below(12) as u32);
            match rng.next_below(10) {
                0..=3 => {
                    let class = match rng.next_below(8) {
                        0 => ServiceClass::Datagram,
                        1 => ServiceClass::Predicted { priority: 0 },
                        _ => ServiceClass::Guaranteed,
                    };
                    let bits = 400 + rng.next_below(1200);
                    let packet = Packet::data(flow, seq, bits, now);
                    q.enqueue(now, packet, SchedContext::new(class, now));
                }
                4..=7 => {
                    fold_served(&mut h, &mut q, now);
                }
                8 => {
                    let rate = 50_000.0 * (1 + rng.next_below(6)) as f64;
                    let others = held.iter().sum::<f64>() - held[flow.0 as usize];
                    if capacity.is_some_and(|mu| others + rate >= mu) {
                        fold(&mut h, 3);
                    } else {
                        held[flow.0 as usize] = rate;
                        fold(&mut h, install(&mut q, flow, rate));
                    }
                }
                _ => {
                    held[flow.0 as usize] = 0.0;
                    fold(&mut h, u64::from(q.remove_flow(now, flow)));
                }
            }
            fold(&mut h, q.len() as u64);
            fold(&mut h, q.reservation_bytes());
            let grown_before = grown;
            grown = q.pool_grow_events();
            assert!(grown >= grown_before, "seed {seed} op {seq}");
            assert!(
                q.state_bytes() >= q.len() as u64 * QUEUED,
                "seed {seed} op {seq}"
            );
        }
        while fold_served(&mut h, &mut q, now) {}
        fold(&mut h, q.reservation_bytes());
        // The first pass warms whatever the stream left cold.
        let storage = |q: &D| (q.pool_grow_events(), q.state_bytes());
        burst_and_drain(&mut q, now);
        let warm = storage(&q);
        burst_and_drain(&mut q, now);
        assert_eq!(storage(&q), warm, "seed {seed}");
    }
    h
}

fn install(q: &mut impl QueueDiscipline, flow: FlowId, rate_bps: f64) -> u64 {
    match q.install_guaranteed(flow, rate_bps) {
        GuaranteedInstall::Installed => 1,
        GuaranteedInstall::Unsupported => 2,
    }
}

#[test]
fn wfq_op_streams_keep_their_digest() {
    let h = digest(|| Wfq::new(MBIT, 100_000.0), Some(MBIT));
    assert_eq!(h, 0x26ac_fbfd_30af_51af, "{h:#018x}");
}

#[test]
fn virtual_clock_op_streams_keep_their_digest() {
    let h = digest(|| VirtualClock::new(100_000.0), None);
    assert_eq!(h, 0xc3ca_5db9_c298_163f, "{h:#018x}");
}

#[test]
fn unified_op_streams_keep_their_digest() {
    let h = digest(|| Unified::new(MBIT, 2, Averaging::RunningMean), Some(MBIT));
    assert_eq!(h, 0x96e6_17d3_3cf4_dfc9, "{h:#018x}");
}
