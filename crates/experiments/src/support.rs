//! Shared plumbing for the experiment scenarios: the Table-2 discipline set
//! and the scheduler-label pool the row codecs intern against.

use ispn_scenario::DisciplineSpec;
use ispn_sched::Averaging;

/// The three disciplines Table 2 compares, in the paper's order.
pub fn table2_set() -> [DisciplineSpec; 3] {
    [
        DisciplineSpec::Wfq,
        DisciplineSpec::Fifo,
        DisciplineSpec::FifoPlus(Averaging::RunningMean),
    ]
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
