//! Jitter growth with path length (the Section-6 claim behind FIFO+).
//!
//! "One of the problems with the FIFO algorithm is that if we generalize our
//! gedanken experiment to include several links, then the jitter tends to
//! increase dramatically with the number of hops … The key is to correlate
//! the sharing experience which a packet has at the successive nodes in its
//! path."
//!
//! The scenario generalizes Figure 1: a chain of `n` links, each 83.5 %
//! utilized by ten flows — two flows that traverse the whole chain plus
//! eight one-hop flows per link — and we track the end-to-end jitter of a
//! full-path flow as `n` grows.  Each point is one `ScenarioBuilder` chain;
//! flow `i` in declaration order (long flows first) draws seed `i`.

use ispn_scenario::{DisciplineSpec, FlowDef, ScenarioBuilder, SourceSpec};

use crate::config::PaperConfig;
use crate::fig1::Fig1Network;
use crate::support::table2_set;

/// Flows sharing each link (matches the paper's evaluation).
pub const FLOWS_PER_LINK: usize = 10;
/// Flows that traverse the entire chain.
pub const LONG_FLOWS: usize = 2;

/// Result for one (discipline, chain length) pair, in packet times.
#[derive(Debug, Clone)]
pub struct HopsPoint {
    /// Scheduling discipline.
    pub scheduler: &'static str,
    /// Number of links in the chain.
    pub hops: usize,
    /// Mean end-to-end queueing delay of the full-path sample flow.
    pub mean: f64,
    /// 99.9th percentile of the full-path sample flow.
    pub p999: f64,
}

/// Run one chain length under one discipline.
pub fn run_chain(cfg: &PaperConfig, discipline: DisciplineSpec, hops: usize) -> HopsPoint {
    // The measured long flows, then one-hop cross traffic filling every
    // link to FLOWS_PER_LINK.
    let long = (0..LONG_FLOWS).map(|_| FlowDef::best_effort_realtime(0, hops));
    let cross = (0..hops).flat_map(|l| {
        (0..FLOWS_PER_LINK - LONG_FLOWS).map(move |_| FlowDef::best_effort_realtime(l, 1))
    });
    let mut sim = ScenarioBuilder::chain(hops + 1)
        .link_profile(Fig1Network::link_profile(cfg))
        .discipline(discipline)
        .flows(long.chain(cross).enumerate().map(|(i, def)| {
            def.source(SourceSpec::onoff_paper(
                cfg.avg_rate_pps,
                cfg.flow_seed(i as u32),
            ))
        }))
        .build()
        .expect("a chain of at least one hop is a valid scenario");
    sim.run_until(cfg.duration);
    let pt = cfg.packet_time().as_secs_f64();
    let sample = sim.flows()[0];
    let r = sim.network_mut().monitor_mut().flow_report(sample);
    HopsPoint {
        scheduler: discipline.label(),
        hops,
        mean: r.mean_delay / pt,
        p999: r.p999_delay / pt,
    }
}

/// Sweep chain lengths for the three Table-2 disciplines.
pub fn run_sweep(cfg: &PaperConfig, hop_counts: &[usize]) -> Vec<HopsPoint> {
    let mut out = Vec::new();
    for &h in hop_counts {
        for d in table2_set() {
            out.push(run_chain(cfg, d, h));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jitter_grows_with_hops_and_fifo_plus_grows_slowest() {
        let cfg = PaperConfig::fast();
        let points = run_sweep(&cfg, &[1, 3]);
        assert_eq!(points.len(), 6);
        let get = |s: &str, h: usize| {
            points
                .iter()
                .find(|p| p.scheduler == s && p.hops == h)
                .unwrap()
                .clone()
        };
        for d in ["WFQ", "FIFO", "FIFO+"] {
            assert!(
                get(d, 3).mean > get(d, 1).mean,
                "{d} mean must grow with hops"
            );
            assert!(
                get(d, 3).p999 > get(d, 1).p999,
                "{d} p999 must grow with hops"
            );
        }
        // At 3 hops FIFO+ has the smallest tail of the three (small slack
        // for the shortened run).
        let fp = get("FIFO+", 3).p999;
        assert!(fp <= get("FIFO", 3).p999 * 1.1, "FIFO+ {fp}");
        assert!(fp <= get("WFQ", 3).p999 * 1.1, "FIFO+ {fp}");
    }
}
