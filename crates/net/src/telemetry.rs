//! Engine telemetry for the network: what the event loop, ports and
//! admission controllers actually did during a run.
//!
//! Unlike the measurement [`Monitor`](crate::monitor::Monitor) — which is
//! warm-up-gated and feeds the *paper's* tables — these counters see every
//! event from t = 0 and exist to answer engineering questions: how many
//! events the run processed, how deep queues got, where packets were
//! dropped, how often admission said no, and how big the flow table grew.
//! Every value is a deterministic function of the simulated event sequence
//! (no wall-clock input), so two same-seed runs report identical numbers.

use ispn_telemetry::{Counter, PerClass};

/// Per-run engine counters owned by [`Network`](crate::Network).
///
/// The per-link enqueue/dequeue counts and depth high-water marks live in
/// each port's [`ProbeStats`](ispn_sched::ProbeStats)
/// ([`Network::link_probe`](crate::Network::link_probe)); this struct holds
/// what happens short of the discipline (drops happen *before* a packet
/// reaches it, admission verdicts never reach it at all).
#[derive(Debug, Default)]
pub struct NetTelemetry {
    /// Buffer-overflow drops at each link's output port, per class bucket.
    link_drops: Vec<PerClass<Counter>>,
    /// Flow admissions accepted, summed over links
    /// ([`admit_flow_on_link`](crate::Network::admit_flow_on_link) outcomes).
    admission_accepted: Counter,
    /// Flow admissions rejected (controller refusals and scheduler vetoes).
    admission_rejected: Counter,
}

impl NetTelemetry {
    /// Telemetry for a network with `num_links` links.
    pub fn new(num_links: usize) -> Self {
        NetTelemetry {
            link_drops: vec![PerClass::default(); num_links],
            admission_accepted: Counter::new(),
            admission_rejected: Counter::new(),
        }
    }

    /// Count one buffer drop at `link` in class bucket `bucket`.
    #[inline]
    pub(crate) fn record_link_drop(&mut self, link: usize, bucket: usize) {
        self.link_drops[link].bucket_mut(bucket).incr();
    }

    /// Count one accepted admission request.
    #[inline]
    pub(crate) fn record_admission_accept(&mut self) {
        self.admission_accepted.incr();
    }

    /// Count one rejected admission request.
    #[inline]
    pub(crate) fn record_admission_reject(&mut self) {
        self.admission_rejected.incr();
    }

    /// Buffer drops at one link's output port, per class bucket.
    pub fn link_drops(&self, link: usize) -> &PerClass<Counter> {
        &self.link_drops[link]
    }

    /// Total buffer drops across all links and classes.
    pub fn total_drops(&self) -> u64 {
        self.link_drops.iter().map(PerClass::total).sum()
    }

    /// Per-link admission verdicts accepted so far.
    pub fn admission_accepted(&self) -> u64 {
        self.admission_accepted.get()
    }

    /// Per-link admission verdicts rejected so far.
    pub fn admission_rejected(&self) -> u64 {
        self.admission_rejected.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drops_and_admissions_accumulate() {
        let mut t = NetTelemetry::new(2);
        t.record_link_drop(0, ispn_telemetry::CLASS_DATAGRAM);
        t.record_link_drop(0, ispn_telemetry::CLASS_DATAGRAM);
        t.record_link_drop(1, ispn_telemetry::CLASS_PREDICTED);
        t.record_admission_accept();
        t.record_admission_reject();
        t.record_admission_reject();
        assert_eq!(t.total_drops(), 3);
        assert_eq!(
            t.link_drops(0).bucket(ispn_telemetry::CLASS_DATAGRAM).get(),
            2
        );
        assert_eq!(t.admission_accepted(), 1);
        assert_eq!(t.admission_rejected(), 2);
    }
}
