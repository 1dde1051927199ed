//! Heterogeneous-mix sweep: per-class delay and jitter versus offered load
//! across all four disciplines.
//!
//! The paper compares disciplines on a homogeneous population of on/off
//! sources; the second scenario the declarative API unlocks mixes source
//! models the way a real integrated-services link would see them — CBR
//! "voice" circuits on guaranteed service, bursty on/off "video" on
//! Predicted-High, Poisson "transaction" traffic on Predicted-Low and a
//! greedy Poisson datagram background — and sweeps the number of flows per
//! class (the offered-load knob) under FIFO, FIFO+, WFQ and the unified
//! scheduler.  The interesting read-outs are the per-class *jitter* (CBR
//! circuits care about delay variance far more than mean) and how each
//! discipline splits the pain as the link saturates.

use ispn_core::TokenBucketSpec;
use ispn_net::PoliceAction;
use ispn_scenario::{
    wire_record, DisciplineSpec, FlowDef, MeasurementPlan, PointResult, RouteSpec, ScenarioBuilder,
    ScenarioSet, ServiceSpec, Sim, SourceSpec, SweepReport,
};
use ispn_sched::Averaging;

use crate::config::PaperConfig;
use crate::experiment::Experiment;
use crate::mesh::{aggregate_class, ClassStats};
use crate::support::DISCIPLINE_LABELS;
use crate::table3::{HIGH_PRIORITY_TARGET_PKT, LOW_PRIORITY_TARGET_PKT};

/// The four disciplines the sweep compares.
pub fn discipline_set() -> [DisciplineSpec; 4] {
    [
        DisciplineSpec::Fifo,
        DisciplineSpec::FifoPlus(Averaging::RunningMean),
        DisciplineSpec::Wfq,
        DisciplineSpec::Unified {
            priority_classes: 2,
            averaging: Averaging::RunningMean,
        },
    ]
}

/// One sweep point: one discipline at one load level.
#[derive(Debug, Clone)]
pub struct HetMixPoint {
    /// Discipline label.
    pub scheduler: &'static str,
    /// Flows per class.
    pub level: usize,
    /// Measured link utilization.
    pub utilization: f64,
    /// Per-class aggregates: Guaranteed-CBR, Predicted-High (on/off),
    /// Predicted-Low (Poisson), Datagram.
    pub classes: Vec<ClassStats>,
}

wire_record! { HetMixPoint { scheduler: label(DISCIPLINE_LABELS), level, utilization, classes } }

/// Build one (discipline, level) scenario: a single shared link carrying
/// `level` flows of each real-time class plus the datagram background.
fn build_point(cfg: &PaperConfig, spec: DisciplineSpec, level: usize) -> Sim {
    assert!(level >= 1);
    let pt = cfg.packet_time();
    let a = cfg.avg_rate_pps;
    let bucket = TokenBucketSpec::per_packets(a, 50.0, cfg.packet_bits);
    // A CBR circuit is not bursty: a clock rate 10 % above its constant
    // rate keeps the reservation honest without hoarding the link.
    let cbr_clock_bps = 1.1 * a * cfg.packet_bits as f64;

    let mut builder = ScenarioBuilder::chain(2)
        .link_profile(crate::fig1::Fig1Network::link_profile(cfg))
        .discipline(spec);
    // Guaranteed CBR circuits.
    for _ in 0..level {
        builder = builder.flow(
            FlowDef::new(
                RouteSpec::Span { first: 0, hops: 1 },
                ServiceSpec::Guaranteed {
                    clock_rate_bps: cbr_clock_bps,
                },
            )
            .source(SourceSpec::cbr(a, cfg.packet_bits)),
        );
    }
    // Predicted-High on/off video.
    for i in 0..level {
        builder = builder.flow(
            FlowDef::new(
                RouteSpec::Span { first: 0, hops: 1 },
                ServiceSpec::Predicted {
                    priority: 0,
                    bucket,
                    target_delay: pt.mul_f64(HIGH_PRIORITY_TARGET_PKT),
                    loss_rate: 0.001,
                    police: PoliceAction::Drop,
                },
            )
            .source(SourceSpec::onoff_paper(a, cfg.flow_seed(i as u32))),
        );
    }
    // Predicted-Low Poisson transactions.
    for i in 0..level {
        builder = builder.flow(
            FlowDef::new(
                RouteSpec::Span { first: 0, hops: 1 },
                ServiceSpec::Predicted {
                    priority: 1,
                    bucket,
                    target_delay: pt.mul_f64(LOW_PRIORITY_TARGET_PKT),
                    loss_rate: 0.001,
                    police: PoliceAction::Drop,
                },
            )
            .source(SourceSpec::poisson(
                a,
                cfg.packet_bits,
                cfg.flow_seed(1000 + i as u32),
            )),
        );
    }
    // The datagram background: a greedy Poisson source at twice the
    // per-flow rate.
    builder = builder.flow(
        FlowDef::new(RouteSpec::Span { first: 0, hops: 1 }, ServiceSpec::Datagram).source(
            SourceSpec::poisson(2.0 * a, cfg.packet_bits, cfg.flow_seed(2000)),
        ),
    );

    builder.build().expect("the mix scenario is valid")
}

/// Run one (discipline, level) point and aggregate the per-class delays.
pub fn run_point(cfg: &PaperConfig, spec: DisciplineSpec, level: usize) -> HetMixPoint {
    let mut sim = build_point(cfg, spec, level);
    sim.run_until(cfg.duration);
    let report = sim.report(&MeasurementPlan::default());

    let classes = vec![
        aggregate_class(&report.flows[0..level], cfg, "Guaranteed-CBR"),
        aggregate_class(&report.flows[level..2 * level], cfg, "Predicted-High"),
        aggregate_class(&report.flows[2 * level..3 * level], cfg, "Predicted-Low"),
        aggregate_class(&report.flows[3 * level..], cfg, "Datagram"),
    ];
    HetMixPoint {
        scheduler: spec.label(),
        level,
        utilization: report.links[0].utilization,
        classes,
    }
}

/// The heterogeneous-mix sweep: every discipline of [`discipline_set`] at
/// every load level (discipline outer, level inner), each point a
/// self-contained scenario.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// The Appendix constants and the run length.
    pub cfg: PaperConfig,
    /// Flows per class, one sweep level each.
    pub levels: Vec<usize>,
}

impl Experiment for Sweep {
    type Params = (DisciplineSpec, usize);
    type Row = HetMixPoint;

    fn set(&self) -> ScenarioSet<(DisciplineSpec, usize)> {
        ScenarioSet::over("discipline", discipline_set()).by("level", self.levels.clone())
    }

    fn point(&self, &(spec, level): &(DisciplineSpec, usize)) -> HetMixPoint {
        run_point(&self.cfg, spec, level)
    }

    fn render(&self, reports: &[SweepReport<PointResult<HetMixPoint>>]) -> String {
        crate::report::render_hetmix(reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ispn_scenario::assert_wire_codec;
    use ispn_sim::SimTime;

    fn short() -> PaperConfig {
        PaperConfig {
            duration: SimTime::from_secs(20),
            ..PaperConfig::paper()
        }
    }

    #[test]
    fn load_rises_with_level() {
        let cfg = short();
        let light = run_point(&cfg, DisciplineSpec::Fifo, 1);
        let heavy = run_point(&cfg, DisciplineSpec::Fifo, 3);
        assert!(
            heavy.utilization > light.utilization + 0.2,
            "{} vs {}",
            heavy.utilization,
            light.utilization
        );
        assert_eq!(light.classes.len(), 4);
        assert_eq!(light.classes[3].flows, 1);
    }

    #[test]
    fn unified_protects_cbr_jitter_under_load() {
        let cfg = short();
        let fifo = run_point(&cfg, DisciplineSpec::Fifo, 3);
        let unified = run_point(
            &cfg,
            DisciplineSpec::Unified {
                priority_classes: 2,
                averaging: Averaging::RunningMean,
            },
            3,
        );
        let cbr = |p: &HetMixPoint| p.classes[0].jitter;
        // Under FIFO the CBR circuits inherit the bursts of everyone else;
        // the unified scheduler isolates them.
        assert!(
            cbr(&unified) < cbr(&fifo),
            "unified {} vs fifo {}",
            cbr(&unified),
            cbr(&fifo)
        );
    }

    #[test]
    fn sweep_covers_every_discipline_and_level() {
        let points = crate::experiment::rows(&Sweep {
            cfg: PaperConfig {
                duration: SimTime::from_secs(5),
                ..PaperConfig::paper()
            },
            levels: vec![1, 2],
        });
        assert_eq!(points.len(), 8);
        let schedulers: std::collections::BTreeSet<&str> =
            points.iter().map(|p| p.scheduler).collect();
        assert_eq!(schedulers.len(), 4);
    }

    #[test]
    fn points_round_trip_the_wire() {
        let point = HetMixPoint {
            scheduler: "Unified",
            level: 2,
            utilization: f64::NAN,
            classes: vec![ClassStats {
                class: "Guaranteed-CBR",
                flows: 2,
                mean: 0.5,
                worst_p999: 1.0,
                worst_max: 1.25,
                jitter: 0.1,
                loss_rate: 0.0,
            }],
        };
        let json = "{\"scheduler\":\"Unified\",\"level\":2,\"utilization\":null,\
            \"classes\":[{\"class\":\"Guaranteed-CBR\",\"flows\":2,\"mean\":0.5,\
            \"worst_p999\":1.0,\"worst_max\":1.25,\"jitter\":0.1,\"loss_rate\":0.0}]}";
        assert_wire_codec(
            &point,
            json,
            &[
                &json.replace("Unified", "EvilSched"),
                &json.replace("Guaranteed-CBR", "Best-Effort-Maybe"),
            ],
        );
    }
}
