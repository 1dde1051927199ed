//! Delay versus offered load on a single shared link.
//!
//! Section 4 argues that offering only guaranteed (peak-rate style) service
//! caps real-time utilization near 50 %, which motivates predicted service;
//! this sweep quantifies how the mean and tail delays of a shared FIFO /
//! WFQ link grow as the number of identical on/off sources rises toward the
//! link capacity.

use ispn_core::FlowSpec;
use ispn_net::{FlowConfig, Network, Topology};
use ispn_scenario::DisciplineSpec;
use ispn_sim::SimTime;

use crate::config::PaperConfig;
use crate::support::{attach_onoff, realtime_class};

/// One point of the sweep (delays in packet times).
#[derive(Debug, Clone)]
pub struct UtilizationPoint {
    /// Scheduling discipline.
    pub scheduler: &'static str,
    /// Number of on/off sources sharing the link.
    pub flows: usize,
    /// Measured link utilization.
    pub utilization: f64,
    /// Mean queueing delay of a sample flow.
    pub mean: f64,
    /// 99.9th-percentile queueing delay of a sample flow.
    pub p999: f64,
}

/// Run one point.
pub fn run_point(cfg: &PaperConfig, discipline: DisciplineSpec, flows: usize) -> UtilizationPoint {
    let (topo, _nodes, links) =
        Topology::chain(2, cfg.link_rate_bps, SimTime::ZERO, cfg.buffer_packets);
    let mut net = Network::new(topo);
    let queue = discipline.build(net.topology().link(links[0]), flows, &[]);
    net.set_discipline(links[0], queue);
    let mut ids = Vec::new();
    for i in 0..flows {
        let f = net.add_flow(FlowConfig {
            route: vec![links[0]],
            spec: FlowSpec::Datagram,
            class: realtime_class(),
            edge_policer: None,
            sink: None,
        });
        attach_onoff(&mut net, f, cfg, i as u32);
        ids.push(f);
    }
    net.run_until(cfg.duration);
    let pt = cfg.packet_time().as_secs_f64();
    let r = net.monitor_mut().flow_report(ids[0]);
    UtilizationPoint {
        scheduler: discipline.label(),
        flows,
        utilization: net.monitor().link_report(0).utilization,
        mean: r.mean_delay / pt,
        p999: r.p999_delay / pt,
    }
}

/// Sweep source counts for FIFO and WFQ.
pub fn run_sweep(cfg: &PaperConfig, flow_counts: &[usize]) -> Vec<UtilizationPoint> {
    let mut out = Vec::new();
    for &n in flow_counts {
        for d in [DisciplineSpec::Fifo, DisciplineSpec::Wfq] {
            out.push(run_point(cfg, d, n));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_grows_with_load() {
        let cfg = PaperConfig::fast();
        let points = run_sweep(&cfg, &[6, 10]);
        assert_eq!(points.len(), 4);
        let get = |s: &str, n: usize| {
            points
                .iter()
                .find(|p| p.scheduler == s && p.flows == n)
                .unwrap()
                .clone()
        };
        for d in ["FIFO", "WFQ"] {
            let light = get(d, 6);
            let heavy = get(d, 10);
            assert!(heavy.utilization > light.utilization);
            assert!(heavy.mean > light.mean, "{d}");
            assert!(heavy.p999 > light.p999, "{d}");
        }
        // Utilization tracks the offered load (6 × 83.3 ≈ 0.50, 10 × ≈ 0.835).
        assert!((get("FIFO", 6).utilization - 0.50).abs() < 0.05);
        assert!((get("FIFO", 10).utilization - 0.835).abs() < 0.05);
    }
}
