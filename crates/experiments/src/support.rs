//! Shared plumbing for the experiment scenarios.

use ispn_core::{FlowId, ServiceClass};
use ispn_net::Network;
use ispn_scenario::DisciplineSpec;
use ispn_sched::Averaging;
use ispn_traffic::{OnOffConfig, OnOffSource, SharedSourceStats};

use crate::config::PaperConfig;

/// The three disciplines Table 2 compares, in the paper's order.
pub fn table2_set() -> [DisciplineSpec; 3] {
    [
        DisciplineSpec::Wfq,
        DisciplineSpec::Fifo,
        DisciplineSpec::FifoPlus(Averaging::RunningMean),
    ]
}

/// Attach the Appendix's on/off source (rate A, peak 2A, burst 5, `(A, 50)`
/// source policer) to an already-registered flow; returns the source's
/// shared counters.
pub fn attach_onoff(
    net: &mut Network,
    flow: FlowId,
    cfg: &PaperConfig,
    seed_index: u32,
) -> SharedSourceStats {
    let source = OnOffSource::new(
        flow,
        OnOffConfig::paper(cfg.avg_rate_pps, cfg.flow_seed(seed_index)),
    );
    let stats = source.stats();
    net.add_agent(Box::new(source));
    stats
}

/// The service class Tables 1 and 2 use for their undifferentiated
/// real-time flows: a single predicted class (priority 0).  The choice only
/// affects real-time-utilization bookkeeping — FIFO, WFQ and FIFO+ do not
/// look at the class.
pub fn realtime_class() -> ServiceClass {
    ServiceClass::Predicted { priority: 0 }
}

/// Every scheduler label an experiment row can carry: the range of
/// [`DisciplineSpec::label`], and the pool a row's wire decoder interns its
/// `scheduler` field against.
pub(crate) const DISCIPLINE_LABELS: &[&str] = &[
    "FIFO",
    "WFQ",
    "FIFO+",
    "VirtualClock",
    "StrictPriority",
    "Unified",
];

#[cfg(test)]
mod tests {
    use super::*;

    /// Drift guard: every label the experiments can emit — every
    /// `DisciplineSpec` variant — must intern, or distributed runs would
    /// poison points with "unknown discipline label" at decode while
    /// in-process runs keep working.
    #[test]
    fn discipline_pool_covers_every_emittable_label() {
        for spec in [
            DisciplineSpec::Fifo,
            DisciplineSpec::FifoPlus(Averaging::RunningMean),
            DisciplineSpec::Wfq,
            DisciplineSpec::VirtualClock,
            DisciplineSpec::StrictPriority { classes: 2 },
            DisciplineSpec::Unified {
                priority_classes: 2,
                averaging: Averaging::RunningMean,
            },
        ] {
            assert!(
                DISCIPLINE_LABELS.contains(&spec.label()),
                "{}",
                spec.label()
            );
        }
    }

    #[test]
    fn table2_set_is_the_papers_three() {
        let set = table2_set();
        assert_eq!(set[0].label(), "WFQ");
        assert_eq!(set[1].label(), "FIFO");
        assert_eq!(set[2].label(), "FIFO+");
    }
}
