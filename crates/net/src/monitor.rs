//! Measurement: per-flow delay statistics, per-link utilization and drops.
//!
//! The quantity the paper's tables report is the *queueing delay* of each
//! delivered packet, "measured in the unit of per packet transmission time",
//! over a ten-minute run.  The monitor therefore keeps, per flow, every
//! end-to-end queueing-delay sample (so the 99.9th percentile is exact) plus
//! packet counters, and per link the busy time, the bits sent and the drop
//! counters that the admission-control experiments need.
//!
//! A delay sample is stored as the integer nanoseconds it was measured in,
//! in a [`NanoSamples`]: packed 128 to a block, each block as wide as its
//! own spread needs, in record order — or, for a flow marked order-free
//! ([`Monitor::set_order_free`]), sealed into sorted runs of 4 096 as they
//! arrive.  That is 1.88 B a sample on the Table-3 chain and 1.61 on
//! Table 1's link (3.12 in record order), where a `Vec<u32>` took four
//! ([`Monitor::delay_sample_bytes`] counts them).  Seconds are computed
//! only when a report reads a sample, as [`SimTime::as_secs_f64`] computes
//! them, so the reported floats are those of a store of `as_secs_f64`
//! values.  The mean, the jitter and the maximum are kept as samples
//! arrive.  For the percentile a report seals the flow's store
//! ([`Monitor::seal_flow`]: what is left in record order is sorted into
//! runs of at most 4 096, through the monitor's one sort buffer, which the
//! seals during the run share) and reads it where it lies, through a merge
//! of its runs.

use ispn_core::{FlowId, ServiceClass};
use ispn_sim::SimTime;
use ispn_stats::{quantile_between, NanoSamples};
use std::num::Saturating;

/// Count one more event: 2⁶⁴ of them outlast any run.
fn bump(count: &mut u64) {
    *count = count.saturating_add(1);
}

/// Per-flow measurement state.
#[derive(Debug, Default)]
struct FlowStats {
    /// End-to-end queueing delays, in nanoseconds.
    delays: NanoSamples,
    counters: FlowCounters,
}

/// One flow's packet counters, readable through
/// [`Monitor::flow_counters`] without touching the flow's delay samples.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlowCounters {
    /// Packets generated by the source (after any source-side policing).
    pub generated: u64,
    /// Packets delivered to the destination.
    pub delivered: u64,
    /// Packets dropped by edge policing at the first switch.
    pub dropped_at_edge: u64,
    /// Packets dropped to full buffers inside the network.
    pub dropped_buffer: u64,
    /// Packets submitted while the flow had no active reservation and
    /// discarded at the entry switch.
    pub dropped_inactive: u64,
}

/// Per-link measurement state.
#[derive(Debug, Default)]
struct LinkStats {
    busy: SimTime,
    /// Saturating, like `busy`: a packet of `u64::MAX` bits is legal input.
    bits_sent: Saturating<u64>,
    realtime_bits_sent: Saturating<u64>,
    drops: u64,
}

/// Summary of one flow, produced by [`Monitor::flow_report`].
#[derive(Debug, Clone)]
pub struct FlowReport {
    /// The flow.
    pub flow: FlowId,
    /// Mean end-to-end queueing delay in seconds.
    pub mean_delay: f64,
    /// 99.9th-percentile end-to-end queueing delay in seconds.
    pub p999_delay: f64,
    /// Maximum end-to-end queueing delay in seconds.
    pub max_delay: f64,
    /// Packets generated by the source (after any source-side policing).
    pub generated: u64,
    /// Packets delivered to the destination.
    pub delivered: u64,
    /// Packets dropped by edge policing at the first switch.
    pub dropped_at_edge: u64,
    /// Packets dropped to full buffers inside the network.
    pub dropped_buffer: u64,
    /// Packets submitted while the flow had no active reservation (between
    /// a release/teardown and any later re-admission) and discarded at the
    /// entry switch.
    pub dropped_inactive: u64,
}

impl FlowReport {
    /// The quantile [`p999_delay`](FlowReport::p999_delay) reports.
    pub const P999: f64 = 0.999;

    /// Fraction of generated packets that never reached the destination.
    pub fn loss_rate(&self) -> f64 {
        if self.generated == 0 {
            0.0
        } else {
            1.0 - self.delivered as f64 / self.generated as f64
        }
    }
}

/// Summary of one link, produced by [`Monitor::link_report`].
#[derive(Debug, Clone)]
pub struct LinkReport {
    /// Fraction of the measured interval the link was transmitting.
    pub utilization: f64,
    /// Fraction of the measured interval the link spent on real-time
    /// (guaranteed or predicted) traffic.
    pub realtime_utilization: f64,
    /// Packets dropped at this link's output buffer.
    pub drops: u64,
    /// Total packets transmitted.
    pub packets_sent: u64,
}

/// The network-wide measurement sink.
#[derive(Debug)]
pub struct Monitor {
    flows: Vec<FlowStats>,
    /// The buffer every flow's delays are sorted through, one run of at
    /// most 4 096 at a time, as they are sealed during the run and when
    /// they are reported; kept for the next.
    sort_scratch: Vec<u32>,
    links: Vec<LinkStats>,
    link_packets: Vec<u64>,
    /// End of the measured interval (last event seen).
    last_event: SimTime,
}

impl Monitor {
    /// Create a monitor for `num_flows` flows and `num_links` links.
    pub fn new(num_flows: usize, num_links: usize) -> Self {
        Monitor {
            flows: (0..num_flows).map(|_| FlowStats::default()).collect(),
            sort_scratch: Vec::new(),
            links: (0..num_links).map(|_| LinkStats::default()).collect(),
            link_packets: vec![0; num_links],
            last_event: SimTime::ZERO,
        }
    }

    /// Ensure the monitor covers at least `n` flows (flows may be added to a
    /// network after construction).
    pub fn ensure_flows(&mut self, n: usize) {
        while self.flows.len() < n {
            self.flows.push(FlowStats::default());
        }
    }

    fn note_time(&mut self, now: SimTime) {
        if now > self.last_event {
            self.last_event = now;
        }
    }

    /// Record that a source generated (and actually submitted) a packet.
    pub fn record_generated(&mut self, flow: FlowId, now: SimTime) {
        self.note_time(now);
        bump(&mut self.flows[flow.index()].counters.generated);
    }

    /// Record a packet dropped by edge policing.
    pub fn record_edge_drop(&mut self, flow: FlowId, now: SimTime) {
        self.note_time(now);
        bump(&mut self.flows[flow.index()].counters.dropped_at_edge);
    }

    /// Record a packet submitted to an inactive (torn-down or never
    /// activated) flow and discarded at the entry switch.
    pub fn record_inactive_drop(&mut self, flow: FlowId, now: SimTime) {
        self.note_time(now);
        bump(&mut self.flows[flow.index()].counters.dropped_inactive);
    }

    /// Record a packet dropped because an output buffer was full.
    pub fn record_buffer_drop(&mut self, flow: FlowId, link: usize, now: SimTime) {
        self.note_time(now);
        bump(&mut self.flows[flow.index()].counters.dropped_buffer);
        bump(&mut self.links[link].drops);
    }

    /// Record a delivered packet and its end-to-end queueing delay.
    pub fn record_delivery(&mut self, flow: FlowId, queueing_delay: SimTime, now: SimTime) {
        self.note_time(now);
        let f = &mut self.flows[flow.index()];
        bump(&mut f.counters.delivered);
        f.delays
            .record(queueing_delay.as_nanos(), &mut self.sort_scratch);
    }

    /// Record one packet transmission on a link: how long the link was busy
    /// and whether it was real-time traffic.  (How long the packet waited at
    /// this hop is passed too, but no report reads a per-link waiting time,
    /// so it is not recorded.)
    pub fn record_transmission(
        &mut self,
        link: usize,
        class: ServiceClass,
        _waiting: SimTime,
        tx_time: SimTime,
        bits: u64,
        now: SimTime,
    ) {
        let l = &mut self.links[link];
        #[expect(
            clippy::arithmetic_side_effects,
            reason = "`SimTime`'s `+` saturates at the end of time, by type"
        )]
        let end = {
            l.busy += tx_time;
            now + tx_time
        };
        l.bits_sent += bits;
        if class.is_realtime() {
            l.realtime_bits_sent += bits;
        }
        bump(&mut self.link_packets[link]);
        self.note_time(end);
    }

    /// The end of the measured interval (time of the last recorded event).
    pub fn horizon(&self) -> SimTime {
        self.last_event
    }

    /// Extend the measured interval to at least `t` (called by the network
    /// when a run finishes, so utilization denominators cover the whole run
    /// rather than stopping at the last transmission).
    pub fn advance_horizon(&mut self, t: SimTime) {
        self.note_time(t);
    }

    /// Reset one flow's statistics to a fresh state (called when a torn-down
    /// flow's id slot is recycled for a new flow, so the newcomer does not
    /// inherit the previous occupant's samples); the fresh store keeps
    /// record order.
    pub fn reset_flow(&mut self, flow: FlowId) {
        self.flows[flow.index()] = FlowStats::default();
    }

    /// Let a flow's delay store give up record order (`true`), or keep it
    /// (every store's default): an order-free store seals its samples into
    /// sorted runs as they arrive, which take about half the bytes and
    /// leave its first report at most one short run to seal
    /// ([`NanoSamples::set_order_free`]).  Mean and jitter keep record
    /// order either way; [`flow_delays`](Monitor::flow_delays) reads an
    /// order-free store's samples only once a report has sealed them.
    pub fn set_order_free(&mut self, flow: FlowId, free: bool) {
        self.flows[flow.index()].delays.set_order_free(free);
    }

    /// Per-flow summary.
    ///
    /// Delay statistics are reported in seconds; experiments convert to the
    /// paper's packet-time unit.  The mean (`sum / n`) and the Welford
    /// jitter come from the store's fold, kept in record order as samples
    /// arrive, so every report of a flow reads the same bits; the report
    /// seals the samples ([`seal_flow`](Monitor::seal_flow)), and the
    /// percentile then reads the two samples it interpolates from a merge
    /// of the store's runs.
    pub fn flow_report(&mut self, flow: FlowId) -> FlowReport {
        self.seal_flow(flow);
        let delays = &self.flows[flow.index()].delays;
        let p999 = delays.order_statistics(FlowReport::P999);
        self.sealed_flow_report(flow, p999).0
    }

    /// Seal a flow's delay store for a report ([`NanoSamples::seal`]),
    /// through the monitor's sort buffer: the samples left in record order
    /// are sorted into runs where they lie, a run at a time, and a store
    /// sealed since its last sample is left as it is.
    pub fn seal_flow(&mut self, flow: FlowId) {
        self.flows[flow.index()].delays.seal(&mut self.sort_scratch);
    }

    /// [`flow_report`](Monitor::flow_report) of a sealed flow whose
    /// 99.9th-percentile order statistics the caller has read already (a
    /// class pass notes them, [`NanoSamples::fold_as_read`]), and the
    /// flow's delay jitter in seconds: the sample (`n − 1`) standard
    /// deviation of the end-to-end queueing delays, in record order.
    /// (Beside the report rather than in it: the churn driver keeps the
    /// report of every flow it ever admitted, and no jitter.)
    pub fn sealed_flow_report(&self, flow: FlowId, p999: Option<(u64, u64)>) -> (FlowReport, f64) {
        let f = &self.flows[flow.index()];
        debug_assert_eq!(p999, f.delays.order_statistics(FlowReport::P999));
        let (mean_delay, jitter) = f.delays.mean_and_std_dev();
        let c = f.counters;
        let n = f.delays.len();
        let report = FlowReport {
            flow,
            mean_delay,
            p999_delay: p999.map_or(0.0, |pair| quantile_between(FlowReport::P999, n, pair)),
            max_delay: f.delays.max(),
            generated: c.generated,
            delivered: c.delivered,
            dropped_at_edge: c.dropped_at_edge,
            dropped_buffer: c.dropped_buffer,
            dropped_inactive: c.dropped_inactive,
        };
        (report, jitter)
    }

    /// A flow's packet counters alone.
    pub fn flow_counters(&self, flow: FlowId) -> FlowCounters {
        self.flows[flow.index()].counters
    }

    /// The bytes every flow's delay samples take
    /// ([`NanoSamples::stored_bytes`]): a deterministic count, not the
    /// capacity around it.
    pub fn delay_sample_bytes(&self) -> u64 {
        self.flows
            .iter()
            .map(|f| f.delays.stored_bytes() as u64)
            .sum()
    }

    /// Direct access to a flow's delay samples (nanoseconds; the store
    /// reads them out in seconds too), e.g. for pooled class quantiles.
    /// An order-kept store reads them in arrival order until its first
    /// report; after a report, ascending up to that report, then those
    /// recorded since in arrival order — the order a class report reads
    /// them in.  An order-free store ([`set_order_free`](Monitor::set_order_free),
    /// a declared flow's under the scenario facade) reads back only once a
    /// report has sealed it, and until it seals a run again
    /// ([`NanoSamples::nanos`]).
    pub fn flow_delays(&self, flow: FlowId) -> &NanoSamples {
        &self.flows[flow.index()].delays
    }

    /// Per-link summary over the measured interval.
    pub fn link_report(&self, link: usize) -> LinkReport {
        let l = &self.links[link];
        let span = self.last_event.as_secs_f64();
        let (utilization, realtime_utilization) = if span > 0.0 {
            let busy = l.busy.as_secs_f64() / span;
            let rt = if l.bits_sent.0 > 0 {
                busy * l.realtime_bits_sent.0 as f64 / l.bits_sent.0 as f64
            } else {
                0.0
            };
            (busy, rt)
        } else {
            (0.0, 0.0)
        };
        LinkReport {
            utilization,
            realtime_utilization,
            drops: l.drops,
            packets_sent: self.link_packets[link],
        }
    }

    /// Cumulative bits of real-time (guaranteed or predicted) traffic
    /// transmitted on a link.
    pub fn link_realtime_bits_sent(&self, link: usize) -> u64 {
        self.links[link].realtime_bits_sent.0
    }

    /// Number of links the monitor knows about.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ispn_stats::StreamingStats;

    /// A flow's report and jitter as a class pass takes them: sealed, its
    /// percentile's samples read, then reported.
    fn report_with_jitter(m: &mut Monitor, f: FlowId) -> (FlowReport, f64) {
        m.seal_flow(f);
        let mut fold = StreamingStats::new();
        let p999 = m.flow_delays(f).fold_as_read(&mut fold, FlowReport::P999);
        m.sealed_flow_report(f, p999)
    }

    #[test]
    fn flow_accounting() {
        let mut m = Monitor::new(2, 1);
        let f = FlowId(0);
        m.record_generated(f, SimTime::from_millis(1));
        m.record_generated(f, SimTime::from_millis(2));
        m.record_generated(f, SimTime::from_millis(3));
        m.record_delivery(f, SimTime::from_millis(5), SimTime::from_millis(10));
        m.record_delivery(f, SimTime::from_millis(15), SimTime::from_millis(20));
        m.record_buffer_drop(f, 0, SimTime::from_millis(21));
        let r = m.flow_report(f);
        assert_eq!(r.generated, 3);
        assert_eq!(r.delivered, 2);
        assert_eq!(r.dropped_buffer, 1);
        assert!((r.mean_delay - 0.010).abs() < 1e-12);
        assert!((r.max_delay - 0.015).abs() < 1e-12);
        assert!((r.loss_rate() - 1.0 / 3.0).abs() < 1e-12);
        // The untouched flow is all zeros.
        let r1 = m.flow_report(FlowId(1));
        assert_eq!(r1.generated, 0);
        assert_eq!(r1.loss_rate(), 0.0);
    }

    #[test]
    fn link_utilization_and_realtime_share() {
        let mut m = Monitor::new(1, 1);
        // Two transmissions of 1 ms each over a 10 ms horizon: 20 % busy.
        m.record_transmission(
            0,
            ServiceClass::Datagram,
            SimTime::ZERO,
            SimTime::MILLISECOND,
            1000,
            SimTime::from_millis(1),
        );
        m.record_transmission(
            0,
            ServiceClass::Guaranteed,
            SimTime::from_millis(2),
            SimTime::MILLISECOND,
            1000,
            SimTime::from_millis(9),
        );
        let r = m.link_report(0);
        assert!((r.utilization - 0.2).abs() < 1e-9);
        assert!((r.realtime_utilization - 0.1).abs() < 1e-9);
        assert_eq!(r.packets_sent, 2);
        assert_eq!(r.drops, 0);
        assert!((m.horizon().as_millis_f64() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn ensure_flows_grows_the_table() {
        let mut m = Monitor::new(1, 0);
        m.ensure_flows(3);
        assert_eq!(m.flows.len(), 3);
        m.record_generated(FlowId(2), SimTime::ZERO);
        assert_eq!(m.flow_report(FlowId(2)).generated, 1);
        assert_eq!(m.num_links(), 0);
    }

    /// The store reads a sample back in seconds exactly as
    /// `SimTime::as_secs_f64` computes them, at the width edges, past
    /// 2⁵³ ns (where `as f64` rounds) and at random.
    #[test]
    fn stored_delays_read_back_as_sim_time_seconds() {
        let mut rng = proptest::TestRng::new(0x5eed);
        let edges = [
            0,
            1,
            999_999_999,
            (1 << 32) - 1,
            1 << 32,
            (1 << 53) + 1,
            u64::MAX,
        ];
        let delays: Vec<u64> = edges
            .into_iter()
            .chain((0..2000).map(|i| rng.next_u64() >> (i % 64)))
            .collect();
        let mut m = Monitor::new(1, 0);
        for &ns in &delays {
            m.record_delivery(FlowId(0), SimTime::from_nanos(ns), SimTime::ZERO);
        }
        let read: Vec<u64> = m.flow_delays(FlowId(0)).secs().map(f64::to_bits).collect();
        let expected: Vec<u64> = delays
            .iter()
            .map(|&ns| SimTime::from_nanos(ns).as_secs_f64().to_bits())
            .collect();
        assert_eq!(read, expected);
    }

    /// A flow whose delay crosses 2³² ns partway through the run (its store
    /// widens there) reports what a `SampleSet` of `as_secs_f64` delays
    /// reports, bit for bit, mean and jitter in record order included.
    #[test]
    fn a_flow_whose_delay_crosses_four_seconds_reports_like_the_f64_oracle() {
        let mut m = Monitor::new(1, 0);
        let mut oracle = ispn_stats::SampleSet::new();
        let f = FlowId(0);
        // A queue building up over ~5 s of delay and draining again.
        for i in 0..6000u64 {
            let delay = SimTime::from_nanos(i.min(8000 - i) * 1_234_567 + i % 7);
            m.record_generated(f, SimTime::from_millis(i));
            m.record_delivery(f, delay, SimTime::from_millis(i));
            oracle.record(delay.as_secs_f64());
        }
        assert!(oracle.max() > 4.294967296, "the run must cross 2^32 ns");
        let (mean, jitter) = oracle.mean_and_std_dev();
        let (r, got_jitter) = report_with_jitter(&mut m, f);
        assert_eq!(format!("{r:?}"), format!("{:?}", m.flow_report(f)));
        let bits = |xs: [f64; 4]| xs.map(f64::to_bits);
        assert_eq!(
            bits([r.mean_delay, got_jitter, r.p999_delay, r.max_delay]),
            bits([mean, jitter, oracle.quantile(0.999), oracle.max()])
        );
        assert_eq!((r.generated, r.delivered), (6000, 6000));
    }

    /// Three and a half runs of a queue that builds and drains, so that
    /// record order is far from sorted order.
    fn sawtooth() -> Vec<u64> {
        (0..14_500u64).map(|i| (i % 997) * 31_000 + i % 5).collect()
    }

    /// An order-kept store (a TCP connection's, a churn admission's) never
    /// seals as it records: it reads back in record order however long it
    /// grows.  An order-free one (a declared flow's) seals its runs into
    /// fewer bytes.  A report seals either kind, and each then reads back
    /// as its sorted runs.
    #[test]
    fn only_an_order_free_store_seals_its_samples_into_sorted_runs() {
        let delays = sawtooth();
        let mut m = Monitor::new(2, 0);
        let (kept, free) = (FlowId(0), FlowId(1));
        m.set_order_free(free, true);
        for &ns in &delays {
            for f in [kept, free] {
                m.record_delivery(f, SimTime::from_nanos(ns), SimTime::ZERO);
            }
        }
        let stored = |m: &Monitor, f| m.flow_delays(f).nanos().collect::<Vec<_>>();
        assert_eq!(stored(&m, kept), delays);
        // Sorted runs pack tighter than record order.
        let bytes = |f| m.flow_delays(f).stored_bytes();
        assert!(bytes(free) < bytes(kept), "{} {}", bytes(free), bytes(kept));
        let mut sorted = delays.clone();
        sorted.sort_unstable();
        for f in [kept, free] {
            m.flow_report(f);
            let mut runs = stored(&m, f);
            assert!(runs[..4_096].is_sorted() && runs[4_096..8_192].is_sorted());
            runs.sort_unstable();
            assert_eq!(runs, sorted);
        }
        // A recycled slot starts order-kept.
        m.reset_flow(free);
        for &ns in &delays {
            m.record_delivery(free, SimTime::from_nanos(ns), SimTime::ZERO);
        }
        assert_eq!(stored(&m, free), delays);
    }

    /// Every report of a flow reads the same mean and jitter: the bits a
    /// `SampleSet` of its delays in record order gives, whether the store
    /// keeps that order or not, reported twice, and reported again after
    /// more samples.
    #[test]
    fn a_flow_reports_its_record_order_mean_and_jitter_every_time() {
        let delays = sawtooth();
        let (head, rest) = delays.split_at(9_000);
        for free in [false, true] {
            let mut m = Monitor::new(1, 0);
            let f = FlowId(0);
            m.set_order_free(f, free);
            let mut oracle = ispn_stats::SampleSet::new();
            let mut record = |m: &mut Monitor, delays: &[u64]| {
                for &ns in delays {
                    let delay = SimTime::from_nanos(ns);
                    m.record_delivery(f, delay, SimTime::ZERO);
                    oracle.record(delay.as_secs_f64());
                }
                // A copy sorts for the percentile; the oracle keeps record
                // order.
                let (mean, jitter) = oracle.mean_and_std_dev();
                let p999 = oracle.clone().quantile(0.999);
                [mean, jitter, p999, oracle.max()].map(f64::to_bits)
            };
            let bits = |(r, jitter): (FlowReport, f64)| {
                [r.mean_delay, jitter, r.p999_delay, r.max_delay].map(f64::to_bits)
            };
            let expected = record(&mut m, head);
            assert_eq!(bits(report_with_jitter(&mut m, f)), expected, "{free}");
            assert_eq!(bits(report_with_jitter(&mut m, f)), expected, "{free}");
            let expected = record(&mut m, rest);
            assert_eq!(bits(report_with_jitter(&mut m, f)), expected, "{free}");
            assert_eq!(bits(report_with_jitter(&mut m, f)), expected, "{free}");
        }
    }

    /// A report reads the stores where they lie: the sort buffer holds one
    /// seal's samples at most (4 096, or the 4 096 and a block's worth
    /// rounded up by `Vec`'s doubling), however long the flows, through
    /// the seals of the run, every flow report and a class pass.
    #[test]
    fn the_sort_buffer_never_holds_more_than_one_seal() {
        const ONE_SEAL: usize = (4_096 + 128_usize).next_power_of_two();
        let delays = sawtooth();
        assert!(delays.len() > 3 * 4_096);
        let mut m = Monitor::new(2, 0);
        let (kept, free) = (FlowId(0), FlowId(1));
        m.set_order_free(free, true);
        for &ns in &delays {
            for f in [kept, free] {
                m.record_delivery(f, SimTime::from_nanos(ns), SimTime::ZERO);
            }
        }
        assert!(m.sort_scratch.capacity() <= ONE_SEAL);
        let reports = [kept, free].map(|f| m.flow_report(f));
        assert!(
            m.sort_scratch.capacity() <= ONE_SEAL,
            "{}",
            m.sort_scratch.capacity()
        );
        let stores = [kept, free].map(|f| m.flow_delays(f));
        let mut pairs = [None; 2];
        let spread = &mut StreamingStats::new();
        let (mean, _) = ispn_stats::merge_runs(&stores, &[0.999], 0, spread, 0.999, &mut pairs);
        assert_eq!(pairs.map(|pair| pair.is_some()), [true; 2]);
        assert!(mean > 0.0 && reports.iter().all(|r| r.delivered == delays.len() as u64));
        assert!(m.sort_scratch.capacity() <= ONE_SEAL);
    }

    #[test]
    fn empty_link_report_is_zero() {
        let m = Monitor::new(0, 1);
        let r = m.link_report(0);
        assert_eq!(r.utilization, 0.0);
        assert_eq!(r.packets_sent, 0);
    }
}
