//! A simplified TCP Reno sender/receiver pair.

use std::cell::RefCell;
use std::collections::{BTreeSet, VecDeque};
use std::rc::Rc;

use ispn_core::{FlowId, Packet, PacketKind};
use ispn_net::topology::LinkId;
use ispn_net::{Agent, AgentApi, AgentId, Delivery, FlowConfig, Network};
use ispn_sim::SimTime;

/// Static transport parameters.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Data segment size in bits (the paper's packets are 1000 bits).
    pub segment_bits: u64,
    /// ACK packet size in bits.
    pub ack_bits: u64,
    /// Initial congestion window, in segments.
    pub initial_cwnd: f64,
    /// Initial slow-start threshold, in segments.
    pub initial_ssthresh: f64,
    /// Receiver window: the sender never has more than this many segments
    /// outstanding.
    pub max_window: f64,
    /// Lower bound on the retransmission timeout.
    pub min_rto: SimTime,
    /// Upper bound on the retransmission timeout.
    pub max_rto: SimTime,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            segment_bits: 1000,
            ack_bits: 320,
            initial_cwnd: 1.0,
            initial_ssthresh: 32.0,
            max_window: 64.0,
            min_rto: SimTime::from_millis(10),
            max_rto: SimTime::from_secs(10),
        }
    }
}

/// Counters shared between a connection and the experiment that created it.
#[derive(Debug, Default, Clone)]
pub struct TcpStats {
    /// Segments transmitted (including retransmissions).
    pub segments_sent: u64,
    /// Retransmitted segments.
    pub retransmissions: u64,
    /// Retransmission timeouts that fired.
    pub timeouts: u64,
    /// Fast retransmits triggered by triple duplicate ACKs.
    pub fast_retransmits: u64,
    /// Highest cumulative sequence number acknowledged.
    pub acked: u64,
    /// Data segments received in order by the receiver.
    pub received_in_order: u64,
    /// ACK packets the receiver sent.
    pub acks_sent: u64,
}

impl TcpStats {
    /// Goodput in segments per second over `secs` of simulated time.
    pub fn goodput_pps(&self, secs: f64) -> f64 {
        if secs <= 0.0 {
            0.0
        } else {
            self.acked as f64 / secs
        }
    }
}

/// Shared handle to a connection's counters.
pub type SharedTcpStats = Rc<RefCell<TcpStats>>;

// ---------------------------------------------------------------------------
// Sender
// ---------------------------------------------------------------------------

/// The greedy TCP sender: always has data to send.
pub struct TcpSender {
    data_flow: FlowId,
    config: TcpConfig,
    /// Lowest unacknowledged sequence number.
    snd_una: u64,
    /// Next sequence number to send.
    next_seq: u64,
    cwnd: f64,
    ssthresh: f64,
    dup_acks: u32,
    /// End of the current fast-recovery episode (packets below this were
    /// outstanding when loss was detected).
    recover: u64,
    in_recovery: bool,
    /// RTT estimation (Jacobson/Karels), in seconds.
    srtt: Option<f64>,
    rttvar: f64,
    rto: SimTime,
    /// Send times of segments eligible for RTT sampling, by rising
    /// sequence number (removed when retransmitted — Karn's rule).
    send_times: VecDeque<(u64, SimTime)>,
    stats: SharedTcpStats,
}

impl TcpSender {
    /// Create a sender for `data_flow`.
    pub fn new(data_flow: FlowId, config: TcpConfig) -> Self {
        let rto = SimTime::from_millis(200).max(config.min_rto);
        TcpSender {
            data_flow,
            snd_una: 0,
            next_seq: 0,
            cwnd: config.initial_cwnd,
            ssthresh: config.initial_ssthresh,
            dup_acks: 0,
            recover: 0,
            in_recovery: false,
            srtt: None,
            rttvar: 0.0,
            rto,
            send_times: VecDeque::new(),
            stats: Rc::new(RefCell::new(TcpStats::default())),
            config,
        }
    }

    /// Shared counter handle.
    pub fn stats(&self) -> SharedTcpStats {
        self.stats.clone()
    }

    fn flight(&self) -> u64 {
        self.next_seq - self.snd_una
    }

    fn window(&self) -> u64 {
        self.cwnd.min(self.config.max_window).floor().max(1.0) as u64
    }

    fn send_segment(&mut self, seq: u64, api: &mut AgentApi, is_retransmission: bool) {
        let pkt = Packet::data(self.data_flow, seq, self.config.segment_bits, api.now());
        api.send(pkt);
        let mut st = self.stats.borrow_mut();
        st.segments_sent += 1;
        if is_retransmission {
            st.retransmissions += 1;
            if let Ok(i) = self.send_times.binary_search_by_key(&seq, |&(s, _)| s) {
                self.send_times.remove(i);
            }
        } else {
            // New segments go out in sequence order.
            self.send_times.push_back((seq, api.now()));
        }
    }

    fn fill_window(&mut self, api: &mut AgentApi) {
        while self.flight() < self.window() {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.send_segment(seq, api, false);
        }
    }

    /// (Re-)start the retransmission timer: the agent's one timer, so an
    /// arming replaces whatever was pending.
    fn arm_rto(&mut self, api: &mut AgentApi) {
        api.set_timer(self.rto, 0);
    }

    fn rto_from_estimator(&self) -> SimTime {
        let raw = match self.srtt {
            Some(srtt) => SimTime::from_secs_f64(srtt + 4.0 * self.rttvar),
            None => SimTime::from_millis(200),
        };
        raw.max(self.config.min_rto).min(self.config.max_rto)
    }

    fn update_rtt(&mut self, sample_secs: f64) {
        match self.srtt {
            None => {
                self.srtt = Some(sample_secs);
                self.rttvar = sample_secs / 2.0;
            }
            Some(srtt) => {
                let err = sample_secs - srtt;
                self.srtt = Some(srtt + 0.125 * err);
                self.rttvar += 0.25 * (err.abs() - self.rttvar);
            }
        }
        self.rto = self.rto_from_estimator();
    }

    fn on_new_ack(&mut self, ack: u64, api: &mut AgentApi) {
        let newly_acked = ack - self.snd_una;
        // RTT sample from the highest newly acked, never-retransmitted
        // segment (Karn's rule is enforced by removal on retransmission).
        let mut newest = None;
        while self.send_times.front().is_some_and(|&(seq, _)| seq < ack) {
            newest = self.send_times.pop_front();
        }
        if let Some((_, sent)) = newest {
            self.update_rtt(api.now().saturating_sub(sent).as_secs_f64());
        }
        self.snd_una = ack;
        self.dup_acks = 0;
        self.stats.borrow_mut().acked = ack;
        // An acknowledged segment ends any exponential RTO backoff: go back
        // to the estimator-derived timeout.
        self.rto = self.rto_from_estimator();

        if self.in_recovery {
            if ack >= self.recover {
                // Full recovery: every segment outstanding at loss detection
                // has now been acknowledged.
                self.in_recovery = false;
                self.cwnd = self.ssthresh;
            } else {
                // Partial ACK (NewReno): the next hole is now at the new
                // snd_una — retransmit it immediately instead of waiting for
                // a timeout.
                let una = self.snd_una;
                self.send_segment(una, api, true);
            }
        }
        if !self.in_recovery {
            if self.cwnd < self.ssthresh {
                // Slow start: one segment per acked segment.
                self.cwnd += newly_acked as f64;
            } else {
                // Congestion avoidance: roughly one segment per RTT.
                self.cwnd += newly_acked as f64 / self.cwnd;
            }
        }
        self.fill_window(api);
        if self.flight() > 0 {
            self.arm_rto(api);
        }
    }

    fn on_dup_ack(&mut self, api: &mut AgentApi) {
        self.dup_acks += 1;
        if self.dup_acks == 3 && !self.in_recovery {
            // Fast retransmit / fast recovery (simplified: no window
            // inflation during recovery).
            self.ssthresh = (self.flight() as f64 / 2.0).max(2.0);
            self.cwnd = self.ssthresh;
            self.in_recovery = true;
            self.recover = self.next_seq;
            self.stats.borrow_mut().fast_retransmits += 1;
            let una = self.snd_una;
            self.send_segment(una, api, true);
            self.arm_rto(api);
        }
    }
}

impl Agent for TcpSender {
    fn start(&mut self, api: &mut AgentApi) {
        self.fill_window(api);
        self.arm_rto(api);
    }

    fn on_timer(&mut self, _token: u64, api: &mut AgentApi) {
        if self.flight() == 0 {
            return;
        }
        // Retransmission timeout.
        self.stats.borrow_mut().timeouts += 1;
        self.ssthresh = (self.flight() as f64 / 2.0).max(2.0);
        self.cwnd = 1.0;
        self.in_recovery = false;
        self.dup_acks = 0;
        // Exponential backoff.
        self.rto = (self.rto + self.rto).min(self.config.max_rto);
        let una = self.snd_una;
        self.send_segment(una, api, true);
        self.arm_rto(api);
    }

    fn on_packet(&mut self, delivery: Delivery, api: &mut AgentApi) {
        let PacketKind::Ack { ack } = delivery.packet.kind else {
            return; // data packets are never routed to the sender
        };
        if ack > self.snd_una {
            self.on_new_ack(ack, api);
        } else {
            self.on_dup_ack(api);
        }
    }
}

// ---------------------------------------------------------------------------
// Receiver
// ---------------------------------------------------------------------------

/// The TCP receiver: acknowledges every data segment with the cumulative
/// next-expected sequence number.
pub struct TcpReceiver {
    ack_flow: FlowId,
    ack_bits: u64,
    rcv_next: u64,
    out_of_order: BTreeSet<u64>,
    ack_seq: u64,
    stats: SharedTcpStats,
}

impl TcpReceiver {
    /// Create a receiver that sends its ACKs on `ack_flow`, sharing the
    /// sender's counter handle.
    pub fn new(ack_flow: FlowId, ack_bits: u64, stats: SharedTcpStats) -> Self {
        TcpReceiver {
            ack_flow,
            ack_bits,
            rcv_next: 0,
            out_of_order: BTreeSet::new(),
            ack_seq: 0,
            stats,
        }
    }
}

impl Agent for TcpReceiver {
    fn on_packet(&mut self, delivery: Delivery, api: &mut AgentApi) {
        let seq = delivery.packet.seq;
        if seq == self.rcv_next {
            self.rcv_next += 1;
            self.stats.borrow_mut().received_in_order += 1;
            while self.out_of_order.remove(&self.rcv_next) {
                self.rcv_next += 1;
                self.stats.borrow_mut().received_in_order += 1;
            }
        } else if seq > self.rcv_next {
            self.out_of_order.insert(seq);
        }
        let ack = Packet::ack(
            self.ack_flow,
            self.ack_seq,
            self.rcv_next,
            self.ack_bits,
            api.now(),
        );
        self.ack_seq += 1;
        self.stats.borrow_mut().acks_sent += 1;
        api.send(ack);
    }
}

// ---------------------------------------------------------------------------
// Wiring helper
// ---------------------------------------------------------------------------

/// Everything the caller needs to observe an installed connection.
pub struct TcpHandles {
    /// The forward (data) flow.
    pub data_flow: FlowId,
    /// The reverse (ACK) flow.
    pub ack_flow: FlowId,
    /// The sender agent.
    pub sender: AgentId,
    /// The receiver agent.
    pub receiver: AgentId,
    /// Shared statistics for the connection.
    pub stats: SharedTcpStats,
}

/// Install a greedy TCP connection on the network: a datagram data flow
/// along `data_route`, a datagram ACK flow along `ack_route`, and the two
/// endpoint agents wired to each other.
pub fn install_tcp(
    net: &mut Network,
    data_route: Vec<LinkId>,
    ack_route: Vec<LinkId>,
    config: TcpConfig,
) -> TcpHandles {
    let data_flow = net.add_flow(FlowConfig::datagram(data_route));
    let ack_flow = net.add_flow(FlowConfig::datagram(ack_route));
    let sender = TcpSender::new(data_flow, config.clone());
    let stats = sender.stats();
    let receiver = TcpReceiver::new(ack_flow, config.ack_bits, stats.clone());
    let sender_id = net.add_agent(Box::new(sender));
    let receiver_id = net.add_agent(Box::new(receiver));
    for (flow, sink) in [(data_flow, receiver_id), (ack_flow, sender_id)] {
        net.set_flow_sink(flow, sink)
            .expect("the endpoint agents were added just above");
    }
    TcpHandles {
        data_flow,
        ack_flow,
        sender: sender_id,
        receiver: receiver_id,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ispn_net::Topology;

    const MBIT: f64 = 1_000_000.0;

    /// A two-switch dumbbell with a forward and a reverse link.
    fn duplex_net(buffer: usize) -> (Network, LinkId, LinkId) {
        let mut topo = Topology::new();
        let a = topo.add_node();
        let b = topo.add_node();
        let fwd = topo.add_link(a, b, MBIT, SimTime::from_millis(5), buffer);
        let rev = topo.add_link(b, a, MBIT, SimTime::from_millis(5), buffer);
        (Network::new(topo), fwd, rev)
    }

    #[test]
    fn lone_connection_fills_the_link() {
        let (mut net, fwd, rev) = duplex_net(200);
        let tcp = install_tcp(&mut net, vec![fwd], vec![rev], TcpConfig::default());
        net.run_until(SimTime::from_secs(30));
        let stats = tcp.stats.borrow();
        // The link carries 1000 packets/s; a lone greedy TCP should achieve
        // the lion's share of that.
        let goodput = stats.goodput_pps(30.0);
        assert!(goodput > 850.0, "goodput {goodput} pps");
        // In-order delivery at the receiver tracks the acked count.
        assert!(stats.received_in_order >= stats.acked);
        let util = net.monitor().link_report(fwd.index()).utilization;
        assert!(util > 0.85, "utilization {util}");
    }

    #[test]
    fn recovers_from_buffer_overflow_losses() {
        // A tiny buffer forces drops; the connection must keep making
        // progress (retransmitting as needed) rather than stalling.
        let (mut net, fwd, rev) = duplex_net(5);
        let tcp = install_tcp(&mut net, vec![fwd], vec![rev], TcpConfig::default());
        net.run_until(SimTime::from_secs(20));
        let stats = tcp.stats.borrow();
        assert!(
            stats.retransmissions > 0,
            "expected losses with a 5-packet buffer"
        );
        assert!(
            stats.acked > 10_000,
            "connection should keep making progress, acked {}",
            stats.acked
        );
        // Loss recovery is mostly via fast retransmit, not timeouts.
        assert!(stats.fast_retransmits > 0);
        let drops = net.monitor().link_report(fwd.index()).drops;
        assert!(drops > 0);
    }

    #[test]
    fn two_connections_share_a_bottleneck() {
        let mut topo = Topology::new();
        let a = topo.add_node();
        let b = topo.add_node();
        let fwd = topo.add_link(a, b, MBIT, SimTime::from_millis(2), 50);
        let rev = topo.add_link(b, a, MBIT, SimTime::from_millis(2), 50);
        let mut net = Network::new(topo);
        let t1 = install_tcp(&mut net, vec![fwd], vec![rev], TcpConfig::default());
        let t2 = install_tcp(&mut net, vec![fwd], vec![rev], TcpConfig::default());
        net.run_until(SimTime::from_secs(30));
        let g1 = t1.stats.borrow().goodput_pps(30.0);
        let g2 = t2.stats.borrow().goodput_pps(30.0);
        assert!(g1 + g2 > 800.0, "aggregate goodput {g1}+{g2}");
        // Rough fairness: neither connection is starved.
        assert!(g1 > 150.0 && g2 > 150.0, "goodputs {g1} / {g2}");
    }

    #[test]
    fn rto_recovers_when_every_ack_is_lost() {
        // ACK path with a 1-packet buffer and a bursty forward path: force
        // pathological conditions and check the sender still uses timeouts
        // to make progress.
        let mut topo = Topology::new();
        let a = topo.add_node();
        let b = topo.add_node();
        let fwd = topo.add_link(a, b, 100_000.0, SimTime::from_millis(1), 2);
        let rev = topo.add_link(b, a, 100_000.0, SimTime::from_millis(1), 1);
        let mut net = Network::new(topo);
        let tcp = install_tcp(&mut net, vec![fwd], vec![rev], TcpConfig::default());
        net.run_until(SimTime::from_secs(30));
        let stats = tcp.stats.borrow();
        assert!(stats.acked > 100, "acked {}", stats.acked);
    }

    /// The RTT sample of a cumulative ACK comes from the newest segment it
    /// acknowledges, and never from a retransmitted one (Karn's rule).
    #[test]
    fn rtt_samples_the_newest_acked_segment_that_was_sent_once() {
        let config = TcpConfig {
            initial_cwnd: 2.0,
            ..TcpConfig::default()
        };
        let mut tcp = TcpSender::new(FlowId(0), config);
        let ms = SimTime::from_millis;
        let ack = |tcp: &mut TcpSender, ack: u64, at: u64| {
            let packet = Packet::ack(FlowId(1), 0, ack, 320, ms(at));
            let (queueing_delay, total_delay) = (SimTime::ZERO, SimTime::ZERO);
            let delivery = Delivery {
                packet,
                queueing_delay,
                total_delay,
            };
            tcp.on_packet(delivery, &mut AgentApi::new(ms(at)));
        };
        // Segments 0 and 1 go out at 0 ms; the ACK of 0 at 10 ms sends 2
        // and 3; the ACK of 1 at 20 ms sends 4 and 5.
        let smoothed = |srtt: f64, sample: f64| srtt + 0.125 * (sample - srtt);
        tcp.start(&mut AgentApi::new(SimTime::ZERO));
        ack(&mut tcp, 1, 10);
        assert_eq!(tcp.srtt, Some(0.010));
        ack(&mut tcp, 2, 20);
        assert_eq!(tcp.srtt, Some(smoothed(0.010, 0.020)));
        // One ACK for 2–4 at 50 ms: 4 was sent at 20 ms, so 30 ms (2 and
        // 3, sent at 10 ms, would read 40).
        ack(&mut tcp, 5, 50);
        let srtt = Some(smoothed(smoothed(0.010, 0.020), 0.030));
        assert_eq!(tcp.srtt, srtt);
        // Three duplicate ACKs of 5 retransmit 5 at 60 ms; an ACK that
        // covers only 5 then takes no sample.
        for _ in 0..3 {
            ack(&mut tcp, 5, 60);
        }
        assert_eq!(tcp.stats.borrow().retransmissions, 1);
        ack(&mut tcp, 6, 70);
        assert_eq!(tcp.srtt, srtt);
        // Acknowledged entries are gone; 6 was retransmitted on the
        // partial ACK, so 7 onwards are left.
        assert_eq!(tcp.send_times.len() as u64, tcp.next_seq - 7);
    }

    #[test]
    fn stats_helpers() {
        let mut s = TcpStats::default();
        assert_eq!(s.goodput_pps(10.0), 0.0);
        s.acked = 500;
        assert!((s.goodput_pps(10.0) - 50.0).abs() < 1e-12);
        assert_eq!(s.goodput_pps(0.0), 0.0);
    }

    #[test]
    fn sender_window_accessors() {
        let s = TcpSender::new(FlowId(0), TcpConfig::default());
        assert_eq!(s.cwnd, 1.0);
        let r = TcpReceiver::new(FlowId(1), 320, s.stats());
        assert_eq!(r.rcv_next, 0);
    }
}
