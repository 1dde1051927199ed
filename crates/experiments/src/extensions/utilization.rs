//! Delay versus offered load on a single shared link.
//!
//! Section 4 argues that offering only guaranteed (peak-rate style) service
//! caps real-time utilization near 50 %, which motivates predicted service;
//! this sweep quantifies how the mean and tail delays of a shared FIFO /
//! WFQ link grow as the number of identical on/off sources rises toward the
//! link capacity.  Each point is Table 1's single-link scenario
//! (`table1::single_link`) with a different flow count.

use ispn_scenario::DisciplineSpec;

use crate::config::PaperConfig;
use crate::table1::single_link;

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
    let mut sim = single_link(cfg, discipline, flows);
    sim.run_until(cfg.duration);
    let pt = cfg.packet_time().as_secs_f64();
    let sample = sim.flows()[0];
    let net = sim.network_mut();
    let r = net.monitor_mut().flow_report(sample);
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
