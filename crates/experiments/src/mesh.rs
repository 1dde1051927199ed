//! Mesh cross-traffic study: guaranteed, predicted and datagram flows
//! competing on the shared interior links of a 3×3 grid.
//!
//! The paper's own evaluation never leaves the Figure-1 chain; this is the
//! first scenario the declarative API makes cheap.  Three guaranteed
//! west→east row flows, three Predicted-High north→south column flows, a
//! configurable number of Predicted-Low row flows (the offered-load knob)
//! and four best-effort corner-to-corner flows all meet on the links around
//! the centre switch, every link running the unified scheduler.  The study
//! asks the Table-3 question in a topology with genuine cross-traffic: do
//! the guaranteed flows stay isolated, does the priority spacing hold, and
//! how much worse off are the interior links than the edge?

use ispn_core::TokenBucketSpec;
use ispn_net::PoliceAction;
use ispn_net::{LinkId, NodeId};
use ispn_scenario::{
    wire_record, DisciplineSpec, FlowDef, MeasurementPlan, PointResult, RouteSpec, ScenarioBuilder,
    ScenarioReport, ScenarioSet, ServiceSpec, Sim, SourceSpec, SweepReport,
};
use ispn_sched::Averaging;

use crate::config::PaperConfig;
use crate::experiment::Experiment;
use crate::table3::{HIGH_PRIORITY_TARGET_PKT, LOW_PRIORITY_TARGET_PKT};

/// Grid side length (3×3: one genuine interior switch).
pub const SIDE: usize = 3;

/// Number of best-effort corner-to-corner flows in the mesh scenario.
const CORNER_FLOWS: usize = 4;

/// Aggregate statistics of one traffic class (delays in packet times).
#[derive(Debug, Clone)]
pub struct ClassStats {
    /// Class label.
    pub class: &'static str,
    /// Number of flows in the class.
    pub flows: usize,
    /// Mean queueing delay over the class's flows.
    pub mean: f64,
    /// Worst per-flow 99.9th-percentile queueing delay.
    pub worst_p999: f64,
    /// Worst per-flow maximum queueing delay.
    pub worst_max: f64,
    /// Mean per-flow delay jitter (standard deviation).
    pub jitter: f64,
    /// Packets lost inside the network over packets generated.
    pub loss_rate: f64,
}

/// Every class label an experiment's [`ClassStats`] row can carry (mesh
/// and hetmix share the type, so the pool is their union).
const CLASS_LABELS: &[&str] = &[
    "Guaranteed",
    "Guaranteed-CBR",
    "Predicted-High",
    "Predicted-Low",
    "Datagram",
];

wire_record! { ClassStats {
    class: label(CLASS_LABELS), flows, mean, worst_p999, worst_max, jitter, loss_rate,
} }

/// Outcome of one mesh run.
#[derive(Debug, Clone)]
pub struct MeshOutcome {
    /// Predicted-Low row flows per row (the offered-load knob).
    pub cross_flows_per_row: usize,
    /// Per-class aggregates: Guaranteed, Predicted-High, Predicted-Low,
    /// Datagram.
    pub classes: Vec<ClassStats>,
    /// Mean utilization of the links incident to the centre switch.
    pub interior_utilization: f64,
    /// Mean utilization of the remaining (edge) links.
    pub edge_utilization: f64,
    /// Buffer drops on interior links.
    pub interior_drops: u64,
    /// The structured scenario report (for serialization).
    pub report: ScenarioReport,
}

wire_record! { MeshOutcome {
    cross_flows_per_row, classes, interior_utilization, edge_utilization, interior_drops, report,
} }

/// Fold a class's per-flow summaries into one [`ClassStats`] row, with
/// delays converted to the configuration's packet-time unit.  Shared by
/// every scenario-API study that groups flows into classes ([`crate::hetmix`]
/// uses it too).
pub fn aggregate_class(
    flows: &[ispn_scenario::FlowSummary],
    cfg: &PaperConfig,
    class: &'static str,
) -> ClassStats {
    let pt = cfg.packet_time().as_secs_f64();
    let n = flows.len().max(1) as f64;
    let mut generated = 0u64;
    let mut lost = 0u64;
    let mut mean = 0.0;
    let mut jitter = 0.0;
    let mut worst_p999: f64 = 0.0;
    let mut worst_max: f64 = 0.0;
    for f in flows {
        generated += f.generated;
        lost += f.dropped_buffer;
        mean += f.mean_delay_s / pt / n;
        jitter += f.jitter_s / pt / n;
        worst_p999 = worst_p999.max(f.p999_delay_s / pt);
        worst_max = worst_max.max(f.max_delay_s / pt);
    }
    ClassStats {
        class,
        flows: flows.len(),
        mean,
        worst_p999,
        worst_max,
        jitter,
        loss_rate: if generated > 0 {
            lost as f64 / generated as f64
        } else {
            0.0
        },
    }
}

/// Build one mesh scenario with `cross_flows_per_row` Predicted-Low flows
/// sharing each row with its guaranteed flow.
fn build_mesh(cfg: &PaperConfig, cross_flows_per_row: usize) -> Sim {
    let pt = cfg.packet_time();
    let bucket = TokenBucketSpec::per_packets(cfg.avg_rate_pps, 50.0, cfg.packet_bits);
    let peak_bps = 2.0 * cfg.avg_rate_pps * cfg.packet_bits as f64;
    let node = |r: usize, c: usize| NodeId(r * SIDE + c);

    let mut builder = ScenarioBuilder::mesh(SIDE, SIDE)
        .link_profile(crate::fig1::Fig1Network::link_profile(cfg))
        .discipline(DisciplineSpec::Unified {
            priority_classes: 2,
            averaging: Averaging::RunningMean,
        });

    let mut seed = 0u32;
    let mut next_seed = |def: FlowDef| {
        let def = def.source(SourceSpec::onoff_paper(
            cfg.avg_rate_pps,
            cfg.flow_seed(seed),
        ));
        seed += 1;
        def
    };

    // Guaranteed west→east row flows (indices 0..SIDE).
    for r in 0..SIDE {
        builder = builder.flow(next_seed(FlowDef::new(
            RouteSpec::Path {
                from: node(r, 0),
                to: node(r, SIDE - 1),
            },
            ServiceSpec::Guaranteed {
                clock_rate_bps: peak_bps,
            },
        )));
    }
    // Predicted-High north→south column flows (indices SIDE..2*SIDE).
    for c in 0..SIDE {
        builder = builder.flow(next_seed(FlowDef::new(
            RouteSpec::Path {
                from: node(0, c),
                to: node(SIDE - 1, c),
            },
            ServiceSpec::Predicted {
                priority: 0,
                bucket,
                target_delay: pt.mul_f64(HIGH_PRIORITY_TARGET_PKT * (SIDE - 1) as f64),
                loss_rate: 0.001,
                police: PoliceAction::Drop,
            },
        )));
    }
    // Predicted-Low cross traffic sharing the row links (the load knob).
    for r in 0..SIDE {
        for _ in 0..cross_flows_per_row {
            builder = builder.flow(next_seed(FlowDef::new(
                RouteSpec::Path {
                    from: node(r, 0),
                    to: node(r, SIDE - 1),
                },
                ServiceSpec::Predicted {
                    priority: 1,
                    bucket,
                    target_delay: pt.mul_f64(LOW_PRIORITY_TARGET_PKT * (SIDE - 1) as f64),
                    loss_rate: 0.001,
                    police: PoliceAction::Drop,
                },
            )));
        }
    }
    // Best-effort corner-to-corner flows crossing rows and columns.
    let corners = [
        (node(0, 0), node(SIDE - 1, SIDE - 1)),
        (node(SIDE - 1, SIDE - 1), node(0, 0)),
        (node(0, SIDE - 1), node(SIDE - 1, 0)),
        (node(SIDE - 1, 0), node(0, SIDE - 1)),
    ];
    for (from, to) in corners {
        builder = builder.flow(next_seed(FlowDef::new(
            RouteSpec::Path { from, to },
            ServiceSpec::Datagram,
        )));
    }

    builder.build().expect("the mesh scenario is valid")
}

/// Run one mesh scenario with `cross_flows_per_row` Predicted-Low flows
/// sharing each row with its guaranteed flow.
pub fn run(cfg: &PaperConfig, cross_flows_per_row: usize) -> MeshOutcome {
    let mut sim = build_mesh(cfg, cross_flows_per_row);
    sim.run_until(cfg.duration);
    let report = sim.report(&MeasurementPlan::default());

    // Interior = links incident to the centre switch.
    let centre = NodeId((SIDE / 2) * SIDE + SIDE / 2);
    let mut interior_utilization = 0.0;
    let mut edge_utilization = 0.0;
    let mut interior = 0usize;
    let mut edge = 0usize;
    let mut interior_drops = 0u64;
    for l in &report.links {
        let params = sim.network().topology().link(LinkId(l.link));
        if params.from == centre || params.to == centre {
            interior_utilization += l.utilization;
            interior_drops += l.drops;
            interior += 1;
        } else {
            edge_utilization += l.utilization;
            edge += 1;
        }
    }
    interior_utilization /= interior.max(1) as f64;
    edge_utilization /= edge.max(1) as f64;

    let g = SIDE;
    let h = SIDE;
    let low = SIDE * cross_flows_per_row;
    let classes = vec![
        aggregate_class(&report.flows[0..g], cfg, "Guaranteed"),
        aggregate_class(&report.flows[g..g + h], cfg, "Predicted-High"),
        aggregate_class(&report.flows[g + h..g + h + low], cfg, "Predicted-Low"),
        aggregate_class(
            &report.flows[g + h + low..g + h + low + CORNER_FLOWS],
            cfg,
            "Datagram",
        ),
    ];

    MeshOutcome {
        cross_flows_per_row,
        classes,
        interior_utilization,
        edge_utilization,
        interior_drops,
        report,
    }
}

/// The mesh sweep: the grid at each Predicted-Low cross-traffic level,
/// each level a self-contained scenario point.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// The Appendix constants and the run length.
    pub cfg: PaperConfig,
    /// Predicted-Low flows per row, one sweep level each.
    pub levels: Vec<usize>,
}

impl Experiment for Sweep {
    type Params = (usize,);
    type Row = MeshOutcome;

    fn set(&self) -> ScenarioSet<(usize,)> {
        ScenarioSet::over("cross", self.levels.clone())
    }

    fn point(&self, &(level,): &(usize,)) -> MeshOutcome {
        run(&self.cfg, level)
    }

    fn render(&self, reports: &[SweepReport<PointResult<MeshOutcome>>]) -> String {
        crate::report::render_mesh(reports)
    }

    fn check(&self, rows: &[&MeshOutcome]) -> Option<String> {
        for o in rows {
            assert_eq!(
                o.classes[0].loss_rate, 0.0,
                "guaranteed flows must never lose a packet to a buffer"
            );
        }
        Some("guaranteed loss: 0 packets at every cross-traffic level (checked)".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ispn_scenario::assert_wire_codec;

    /// Drift guard: every class label mesh and hetmix hand to
    /// [`aggregate_class`] must intern, or distributed runs would poison
    /// points with "unknown class label" at decode.
    #[test]
    fn class_pool_covers_every_emittable_label() {
        for label in [
            "Guaranteed",
            "Guaranteed-CBR",
            "Predicted-High",
            "Predicted-Low",
            "Datagram",
        ] {
            assert!(CLASS_LABELS.contains(&label), "{label}");
        }
    }

    #[test]
    fn classes_are_ordered_and_complete() {
        let cfg = PaperConfig {
            duration: ispn_sim::SimTime::from_secs(10),
            ..PaperConfig::paper()
        };
        let out = run(&cfg, 2);
        assert_eq!(out.classes.len(), 4);
        assert_eq!(out.classes[0].class, "Guaranteed");
        assert_eq!(out.classes[0].flows, 3);
        assert_eq!(out.classes[2].flows, 6);
        // Every class moved traffic.
        for c in &out.classes {
            assert!(c.mean >= 0.0, "{c:?}");
        }
        assert!(out.report.flows.iter().all(|f| f.delivered > 0));
        // 12 duplex grid edges = 24 directed links, 8 of them interior.
        assert_eq!(out.report.links.len(), 24);
    }

    #[test]
    fn cross_traffic_raises_interior_load_and_low_class_delay() {
        let cfg = PaperConfig {
            duration: ispn_sim::SimTime::from_secs(20),
            ..PaperConfig::paper()
        };
        let light = run(&cfg, 1);
        let heavy = run(&cfg, 6);
        assert!(
            heavy.edge_utilization > light.edge_utilization,
            "more cross flows must load the rows: {} vs {}",
            heavy.edge_utilization,
            light.edge_utilization
        );
        let low = |o: &MeshOutcome| o.classes[2].mean;
        assert!(
            low(&heavy) > low(&light),
            "Predicted-Low should queue longer under load: {} vs {}",
            low(&heavy),
            low(&light)
        );
        // Guaranteed flows stay isolated: their worst max remains small
        // even under heavy cross traffic (WFQ isolation inside Unified).
        assert!(
            heavy.classes[0].worst_max < heavy.classes[2].worst_max,
            "guaranteed {} vs predicted-low {}",
            heavy.classes[0].worst_max,
            heavy.classes[2].worst_max
        );
    }

    #[test]
    fn same_seed_same_outcome() {
        let cfg = PaperConfig {
            duration: ispn_sim::SimTime::from_secs(5),
            ..PaperConfig::paper()
        };
        let a = run(&cfg, 2);
        let b = run(&cfg, 2);
        assert_eq!(a.report.to_json(), b.report.to_json());
    }

    #[test]
    fn class_rows_and_outcomes_round_trip_the_wire() {
        let class = ClassStats {
            class: "Predicted-Low",
            flows: 4,
            mean: 1.5,
            worst_p999: 20.0,
            worst_max: f64::NAN,
            jitter: 0.25,
            loss_rate: 0.0,
        };
        let class_json = "{\"class\":\"Predicted-Low\",\"flows\":4,\"mean\":1.5,\
            \"worst_p999\":20.0,\"worst_max\":null,\"jitter\":0.25,\"loss_rate\":0.0}";
        assert_wire_codec(
            &class,
            class_json,
            &[&class_json.replace("Predicted-Low", "Best-Effort-Maybe")],
        );
        let outcome = MeshOutcome {
            cross_flows_per_row: 2,
            classes: vec![class],
            interior_utilization: 0.9,
            edge_utilization: 0.4,
            interior_drops: 7,
            report: ScenarioReport {
                horizon_s: 20.0,
                flows: Vec::new(),
                links: Vec::new(),
                classes: Vec::new(),
                disciplines: Vec::new(),
                signaling: Default::default(),
                telemetry: None,
            },
        };
        let outcome_json = format!(
            "{{\"cross_flows_per_row\":2,\"classes\":[{class_json}],\
             \"interior_utilization\":0.9,\"edge_utilization\":0.4,\"interior_drops\":7,\
             \"report\":{{\"horizon_s\":20.0,\"flows\":[],\"links\":[],\"classes\":[],\
             \"disciplines\":[],\"signaling\":{{\"accepted\":0,\"rejected\":0,\"pending\":0,\
             \"decisions\":[]}}}}}}"
        );
        assert_wire_codec(
            &outcome,
            &outcome_json,
            &[&outcome_json.replace("\"interior_drops\":7", "\"interior_drops\":-7")],
        );
    }
}
