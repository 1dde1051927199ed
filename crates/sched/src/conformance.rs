//! A conformance suite every queue discipline must satisfy.
//!
//! These checks encode the contract stated on [`QueueDiscipline`]: no packet
//! is lost or duplicated, the discipline is work-conserving, and packets of
//! a single flow leave in the order they arrived (all the paper's
//! disciplines are per-flow FIFO — reordering only ever happens *between*
//! flows).  The suite is public so that downstream crates adding their own
//! disciplines can run the same checks.

use std::collections::BTreeMap;

use ispn_core::{FlowId, Packet, ServiceClass};
use ispn_sim::{Pcg64, SimTime};

use crate::disc::{QueueDiscipline, SchedContext};

/// A deterministic synthetic workload: `n_packets` packets spread over
/// `n_flows` flows with pseudo-random arrival gaps.  Every flow keeps one
/// service class for its lifetime (as a real reservation would), chosen
/// pseudo-randomly per flow.
pub fn synthetic_workload(
    seed: u64,
    n_flows: u32,
    n_packets: usize,
) -> Vec<(SimTime, Packet, SchedContext)> {
    let mut rng = Pcg64::new(seed);
    let classes: Vec<ServiceClass> = (0..n_flows)
        .map(|_| match rng.next_below(4) {
            0 => ServiceClass::Guaranteed,
            1 => ServiceClass::Predicted { priority: 0 },
            2 => ServiceClass::Predicted { priority: 1 },
            _ => ServiceClass::Datagram,
        })
        .collect();
    let mut out = Vec::with_capacity(n_packets);
    let mut now = SimTime::ZERO;
    let mut seqs: BTreeMap<u32, u64> = BTreeMap::new();
    for _ in 0..n_packets {
        now += SimTime::from_micros(rng.next_below(2000));
        let flow = rng.next_below(n_flows as u64) as u32;
        let seq = seqs.entry(flow).or_insert(0);
        let pkt = Packet::data(FlowId(flow), *seq, 1000, now);
        *seq += 1;
        out.push((now, pkt, SchedContext::new(classes[flow as usize], now)));
    }
    out
}

/// Feed the workload through the discipline, interleaving enqueues with
/// dequeues (one dequeue per millisecond of simulated time, mimicking a
/// 1 Mbit/s link), then drain it.  Returns the dequeued packets in order.
pub fn exercise<D: QueueDiscipline>(
    disc: &mut D,
    workload: &[(SimTime, Packet, SchedContext)],
) -> Vec<Packet> {
    let mut out = Vec::with_capacity(workload.len());
    let mut next_service = SimTime::ZERO;
    for (t, pkt, ctx) in workload {
        // Serve everything that would have been transmitted before this
        // arrival (one packet per millisecond).
        while next_service < *t {
            if let Some(d) = disc.dequeue(next_service) {
                out.push(d.packet);
            }
            next_service += SimTime::MILLISECOND;
        }
        disc.enqueue(*t, *pkt, *ctx);
    }
    let mut now = next_service;
    while !disc.is_empty() {
        let before = disc.len();
        if let Some(d) = disc.dequeue(now) {
            out.push(d.packet);
        }
        assert!(
            disc.len() < before,
            "{}: dequeue made no progress on a non-empty queue (work conservation violated)",
            disc.name()
        );
        now += SimTime::MILLISECOND;
    }
    out
}

/// Assert that `served` is a permutation of the workload's packets.
pub fn assert_no_loss_no_duplication(
    workload: &[(SimTime, Packet, SchedContext)],
    served: &[Packet],
) {
    assert_eq!(workload.len(), served.len(), "packet count mismatch");
    let mut expected: Vec<(u32, u64)> =
        workload.iter().map(|(_, p, _)| (p.flow.0, p.seq)).collect();
    let mut got: Vec<(u32, u64)> = served.iter().map(|p| (p.flow.0, p.seq)).collect();
    expected.sort_unstable();
    got.sort_unstable();
    assert_eq!(
        expected, got,
        "served packets are not a permutation of offered packets"
    );
}

/// Assert per-flow FIFO order: within a flow, sequence numbers leave in
/// increasing order.
pub fn assert_per_flow_fifo(served: &[Packet]) {
    let mut last: BTreeMap<u32, u64> = BTreeMap::new();
    for p in served {
        if let Some(prev) = last.get(&p.flow.0) {
            assert!(
                p.seq > *prev,
                "flow {} delivered seq {} after seq {}",
                p.flow.0,
                p.seq,
                prev
            );
        }
        last.insert(p.flow.0, p.seq);
    }
}

/// Run the full conformance suite against a freshly constructed discipline.
pub fn check_discipline<D: QueueDiscipline>(mut disc: D) {
    for seed in [1u64, 7, 42] {
        let workload = synthetic_workload(seed, 6, 400);
        let served = exercise(&mut disc, &workload);
        assert_no_loss_no_duplication(&workload, &served);
        assert_per_flow_fifo(&served);
        assert!(disc.is_empty());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fifo::Fifo;
    use crate::fifo_plus::{Averaging, FifoPlus};
    use crate::priority::StrictPriority;
    use crate::unified::Unified;
    use crate::virtual_clock::VirtualClock;
    use crate::wfq::Wfq;

    const MBIT: f64 = 1_000_000.0;

    #[test]
    fn fifo_conforms() {
        check_discipline(Fifo::new());
    }

    #[test]
    fn wfq_conforms() {
        check_discipline(Wfq::equal_share(MBIT, 6));
    }

    #[test]
    fn virtual_clock_conforms() {
        check_discipline(VirtualClock::new(MBIT / 6.0));
    }

    #[test]
    fn fifo_plus_conforms() {
        check_discipline(FifoPlus::new(Averaging::RunningMean));
    }

    #[test]
    fn priority_conforms() {
        let q: StrictPriority<Fifo> = StrictPriority::new(2);
        check_discipline(q);
    }

    #[test]
    fn unified_conforms() {
        let mut u = Unified::new(MBIT, 2, Averaging::RunningMean);
        u.install_guaranteed(FlowId(0), 100_000.0);
        u.install_guaranteed(FlowId(1), 100_000.0);
        check_discipline(u);
    }

    #[test]
    fn workload_is_deterministic() {
        let a = synthetic_workload(5, 4, 100);
        let b = synthetic_workload(5, 4, 100);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.0, y.0);
            assert_eq!(x.1, y.1);
        }
        // Different seeds give different workloads.
        let c = synthetic_workload(6, 4, 100);
        assert!(a.iter().zip(c.iter()).any(|(x, y)| x.1 != y.1));
    }
}

#[cfg(test)]
mod jitter_property_tests {
    //! Statistical checks of the paper's central qualitative claims at the
    //! single-queue level (the full network-level versions are in the
    //! integration tests and experiments).

    use super::*;
    use crate::fifo::Fifo;
    use crate::wfq::Wfq;
    use ispn_stats::SampleSet;

    const MBIT: f64 = 1_000_000.0;

    /// Build a bursty workload: `n_flows` flows alternate between idle and
    /// bursts of several back-to-back packets (a caricature of the paper's
    /// on/off sources), then measure per-packet waiting times under a
    /// discipline.
    fn bursty_delays<D: QueueDiscipline>(disc: &mut D, seed: u64) -> SampleSet {
        let mut rng = Pcg64::new(seed);
        let mut arrivals: Vec<(SimTime, Packet, SchedContext)> = Vec::new();
        let mut seq = [0u64; 8];
        for flow in 0..8u32 {
            let mut t = SimTime::from_micros(rng.next_below(10_000));
            while t < SimTime::from_secs(2) {
                let burst = 1 + rng.next_below(8);
                for _ in 0..burst {
                    let p = Packet::data(FlowId(flow), seq[flow as usize], 1000, t);
                    seq[flow as usize] += 1;
                    arrivals.push((t, p, SchedContext::datagram(t)));
                }
                t += SimTime::from_micros(8_000 + rng.next_below(30_000));
            }
        }
        arrivals.sort_by_key(|(t, p, _)| (*t, p.flow.0, p.seq));

        // Run an output link at 1 packet per ms.
        let mut delays = SampleSet::new();
        let mut next_free = SimTime::ZERO;
        let mut idx = 0;
        while idx < arrivals.len() || !disc.is_empty() {
            // Enqueue everything that arrives before the link is next free.
            while idx < arrivals.len() && arrivals[idx].0 <= next_free {
                let (t, p, c) = arrivals[idx];
                disc.enqueue(t, p, c);
                idx += 1;
            }
            if disc.is_empty() {
                if idx < arrivals.len() {
                    next_free = arrivals[idx].0;
                }
                continue;
            }
            if let Some(d) = disc.dequeue(next_free) {
                delays.record(d.queueing_delay(next_free).as_millis_f64());
            }
            next_free += SimTime::MILLISECOND;
        }
        delays
    }

    #[test]
    fn fifo_tail_delay_is_lower_than_wfq_for_shared_bursty_traffic() {
        // The Table-1 claim in miniature: same workload, same link; the
        // 99.9th-percentile waiting time under FIFO is no worse than under
        // equal-share WFQ, while the means are comparable.
        let mut fifo = Fifo::new();
        let mut wfq = Wfq::equal_share(MBIT, 8);
        let mut fifo_delays = bursty_delays(&mut fifo, 99);
        let mut wfq_delays = bursty_delays(&mut wfq, 99);
        assert_eq!(fifo_delays.len(), wfq_delays.len());
        let f999 = fifo_delays.p999();
        let w999 = wfq_delays.p999();
        assert!(
            f999 <= w999 * 1.05,
            "FIFO 99.9th percentile {f999:.2} should not exceed WFQ's {w999:.2}"
        );
        let fm = fifo_delays.mean();
        let wm = wfq_delays.mean();
        assert!(
            (fm - wm).abs() / wm < 0.25,
            "means should be comparable: FIFO {fm:.2} vs WFQ {wm:.2}"
        );
    }
}
