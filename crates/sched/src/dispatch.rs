//! Enum dispatch over the built-in disciplines.
//!
//! The per-hop hot path used to reach the scheduler through a
//! `Box<dyn QueueDiscipline>` — a pointer indirection and a vtable call
//! per enqueue/dequeue.  [`Discipline`] flattens that into a
//! concrete enum the compiler can match on (and inline through), while the
//! [`Discipline::Custom`] variant keeps the trait-object escape hatch for
//! downstream disciplines the enum does not know about.
//!
//! The enum is behaviorally transparent: driving any workload through the
//! enum variant produces exactly the packet sequence the wrapped concrete
//! discipline produces (pinned by the equivalence property tests below), so
//! converting a call site from `Box<dyn QueueDiscipline>` to `Discipline`
//! is byte-identical by construction.

use ispn_core::{FlowId, Packet};
use ispn_sim::SimTime;

use crate::disc::{Dequeued, GuaranteedInstall, QueueDiscipline, SchedContext};
use crate::fifo::Fifo;
use crate::fifo_plus::FifoPlus;
use crate::priority::StrictPriority;
use crate::unified::Unified;
use crate::virtual_clock::VirtualClock;
use crate::wfq::Wfq;

/// A concrete queueing discipline, dispatched by `match` instead of vtable.
///
/// Every discipline the paper discusses has its own variant; anything else
/// rides in [`Discipline::Custom`].  Construct variants with `From` (or
/// [`Discipline::custom`] for trait objects):
///
/// ```
/// use ispn_sched::{Discipline, Fifo, QueueDiscipline};
/// let d: Discipline = Fifo::new().into();
/// assert_eq!(d.name(), "FIFO");
/// ```
pub enum Discipline {
    /// Plain FIFO (Section 5 sharing).
    Fifo(Fifo),
    /// FIFO+ multi-hop sharing (Section 6).
    FifoPlus(FifoPlus),
    /// Weighted Fair Queueing / PGPS (Section 4 isolation).
    Wfq(Wfq),
    /// The VirtualClock baseline (ablations).
    VirtualClock(VirtualClock),
    /// Strict priority over FIFO bands (the ablation discipline).
    Priority(StrictPriority<Fifo>),
    /// The full Section-7 unified scheduler.
    Unified(Unified),
    /// Escape hatch for disciplines the enum does not know about; the
    /// ledger applies no capacity check to a custom discipline.
    Custom(Box<dyn QueueDiscipline>),
}

impl Discipline {
    /// Wrap an arbitrary discipline in the [`Discipline::Custom`] variant.
    pub fn custom(disc: impl QueueDiscipline + 'static) -> Self {
        Discipline::Custom(Box::new(disc))
    }

    /// What a link's guaranteed clock rates must sum below: μ for WFQ and
    /// the unified scheduler (Σ rα < μ), no bound for the rest.
    pub fn guaranteed_capacity_bps(&self) -> Option<f64> {
        match self {
            Discipline::Wfq(Wfq { link_rate_bps, .. })
            | Discipline::Unified(Unified { link_rate_bps, .. }) => Some(*link_rate_bps),
            _ => None,
        }
    }
}

impl From<Fifo> for Discipline {
    fn from(d: Fifo) -> Self {
        Discipline::Fifo(d)
    }
}
impl From<FifoPlus> for Discipline {
    fn from(d: FifoPlus) -> Self {
        Discipline::FifoPlus(d)
    }
}
impl From<Wfq> for Discipline {
    fn from(d: Wfq) -> Self {
        Discipline::Wfq(d)
    }
}
impl From<VirtualClock> for Discipline {
    fn from(d: VirtualClock) -> Self {
        Discipline::VirtualClock(d)
    }
}
impl From<StrictPriority<Fifo>> for Discipline {
    fn from(d: StrictPriority<Fifo>) -> Self {
        Discipline::Priority(d)
    }
}
impl From<Unified> for Discipline {
    fn from(d: Unified) -> Self {
        Discipline::Unified(d)
    }
}
impl From<Box<dyn QueueDiscipline>> for Discipline {
    fn from(d: Box<dyn QueueDiscipline>) -> Self {
        Discipline::Custom(d)
    }
}

macro_rules! dispatch {
    ($self:expr, $d:ident => $body:expr) => {
        match $self {
            Discipline::Fifo($d) => $body,
            Discipline::FifoPlus($d) => $body,
            Discipline::Wfq($d) => $body,
            Discipline::VirtualClock($d) => $body,
            Discipline::Priority($d) => $body,
            Discipline::Unified($d) => $body,
            Discipline::Custom($d) => $body,
        }
    };
}

impl QueueDiscipline for Discipline {
    #[inline]
    fn enqueue(&mut self, now: SimTime, packet: Packet, ctx: SchedContext) {
        dispatch!(self, d => d.enqueue(now, packet, ctx))
    }

    #[inline]
    fn dequeue(&mut self, now: SimTime) -> Option<Dequeued> {
        dispatch!(self, d => d.dequeue(now))
    }

    #[inline]
    fn len(&self) -> usize {
        dispatch!(self, d => d.len())
    }

    #[inline]
    fn is_empty(&self) -> bool {
        dispatch!(self, d => d.is_empty())
    }

    fn name(&self) -> &'static str {
        dispatch!(self, d => d.name())
    }

    fn install_guaranteed(&mut self, flow: FlowId, rate_bps: f64) -> GuaranteedInstall {
        dispatch!(self, d => d.install_guaranteed(flow, rate_bps))
    }

    fn remove_flow(&mut self, now: SimTime, flow: FlowId) -> bool {
        dispatch!(self, d => d.remove_flow(now, flow))
    }

    fn state_bytes(&self) -> u64 {
        dispatch!(self, d => d.state_bytes())
    }

    fn reservation_bytes(&self) -> u64 {
        dispatch!(self, d => d.reservation_bytes())
    }

    fn pool_grow_events(&self) -> u64 {
        dispatch!(self, d => d.pool_grow_events())
    }

    fn pool_segments_high_water(&self) -> u64 {
        dispatch!(self, d => d.pool_segments_high_water())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fifo_plus::Averaging;

    const MBIT: f64 = 1_000_000.0;

    #[test]
    fn names_pass_through_every_variant() {
        let variants: Vec<Discipline> = vec![
            Fifo::new().into(),
            FifoPlus::new(Averaging::RunningMean).into(),
            Wfq::equal_share(MBIT, 4).into(),
            VirtualClock::new(100_000.0).into(),
            StrictPriority::<Fifo>::new(2).into(),
            Unified::new(MBIT, 2, Averaging::RunningMean).into(),
            Discipline::custom(Fifo::new()),
        ];
        let names: Vec<&str> = variants.iter().map(|d| d.name()).collect();
        assert_eq!(
            names,
            vec![
                "FIFO",
                "FIFO+",
                "WFQ",
                "VirtualClock",
                "Priority",
                "Unified",
                "FIFO"
            ]
        );
        for d in &variants {
            assert!(d.is_empty());
            assert_eq!(d.len(), 0);
        }
    }

    #[test]
    fn guaranteed_install_delegates() {
        let mut d: Discipline = Unified::new(MBIT, 1, Averaging::RunningMean).into();
        assert_eq!(
            d.install_guaranteed(FlowId(1), 200_000.0),
            GuaranteedInstall::Installed
        );
        assert!(d.remove_flow(SimTime::ZERO, FlowId(1)));
        let mut f: Discipline = Fifo::new().into();
        assert_eq!(
            f.install_guaranteed(FlowId(1), 200_000.0),
            GuaranteedInstall::Unsupported
        );
    }

    #[test]
    fn boxed_discipline_converts_to_custom() {
        let boxed: Box<dyn QueueDiscipline> = Box::new(Wfq::equal_share(MBIT, 2));
        let d: Discipline = boxed.into();
        assert_eq!(d.name(), "WFQ");
        assert!(matches!(d, Discipline::Custom(_)));
    }

    /// The satellite equivalence property: every discipline driven through
    /// its `Discipline` enum variant serves exactly the packet sequence the
    /// bare concrete discipline (here: the old boxed trait-object path, via
    /// `Custom`) serves, for arbitrary synthetic workloads.
    mod enum_vs_boxed_equivalence {
        use super::*;
        use crate::conformance;
        use proptest::prelude::*;

        fn make_pair(which: u8) -> (Discipline, Discipline) {
            // Construct the same discipline twice: once as its dedicated
            // enum variant, once behind the old boxed indirection.
            let variant: Discipline = match which % 6 {
                0 => Fifo::new().into(),
                1 => FifoPlus::new(Averaging::RunningMean).into(),
                2 => Wfq::equal_share(MBIT, 6).into(),
                3 => VirtualClock::new(MBIT / 6.0).into(),
                4 => StrictPriority::<Fifo>::new(2).into(),
                _ => {
                    let mut u = Unified::new(MBIT, 2, Averaging::RunningMean);
                    u.install_guaranteed(FlowId(0), 120_000.0);
                    u.into()
                }
            };
            let boxed: Discipline = match which % 6 {
                0 => Discipline::custom(Fifo::new()),
                1 => Discipline::custom(FifoPlus::new(Averaging::RunningMean)),
                2 => Discipline::custom(Wfq::equal_share(MBIT, 6)),
                3 => Discipline::custom(VirtualClock::new(MBIT / 6.0)),
                4 => Discipline::custom(StrictPriority::<Fifo>::new(2)),
                _ => {
                    let mut u = Unified::new(MBIT, 2, Averaging::RunningMean);
                    u.install_guaranteed(FlowId(0), 120_000.0);
                    Discipline::custom(u)
                }
            };
            (variant, boxed)
        }

        proptest! {
            #[test]
            fn identical_event_sequences(which in 0u8..6, seed in any::<u64>()) {
                let (mut variant, mut boxed) = make_pair(which);
                let workload = conformance::synthetic_workload(seed, 6, 300);
                let via_variant = conformance::exercise(&mut variant, &workload);
                let via_boxed = conformance::exercise(&mut boxed, &workload);
                prop_assert_eq!(via_variant, via_boxed);
            }
        }
    }
}
