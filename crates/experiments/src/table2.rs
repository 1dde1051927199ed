//! Table 2: WFQ vs FIFO vs FIFO+ on the Figure-1 chain.
//!
//! "Table 2 displays the mean and 99.9'th percentile queueing delays for a
//! single sample flow for each path length (the data from the other flows
//! are similar).  We compare the WFQ, FIFO, and FIFO+ algorithms (where we
//! have used equal clock rates in the WFQ algorithm).  Note that the mean
//! delays are comparable in all three cases.  While the 99.9'th percentile
//! delays increase with path length for all three algorithms, the rate of
//! growth is much smaller with the FIFO+ algorithm."

use ispn_core::FlowId;
use ispn_scenario::{
    wire_record, DisciplineSpec, FlowDef, PointResult, ScenarioBuilder, ScenarioSet, Sim,
    SourceSpec, SweepReport, TopologySpec,
};

use crate::config::PaperConfig;
use crate::experiment::Experiment;
use crate::fig1::{self, Fig1Network, FlowPlacement};
use crate::support::{table2_set, DISCIPLINE_LABELS};

/// One cell group of Table 2: the sample flow of one path length under one
/// discipline (delays in packet transmission times).
#[derive(Debug, Clone)]
pub struct Table2Cell {
    /// Scheduling discipline.
    pub scheduler: &'static str,
    /// Path length in inter-switch links (1–4).
    pub path_length: usize,
    /// Mean queueing delay of the sample flow.
    pub mean: f64,
    /// 99.9th-percentile queueing delay of the sample flow.
    pub p999: f64,
}

wire_record! { Table2Cell { scheduler: label(DISCIPLINE_LABELS), path_length, mean, p999 } }

/// One discipline's sweep point: its four path-length cells plus the mean
/// inter-switch link utilization of the run.
#[derive(Debug, Clone)]
pub struct Table2Point {
    /// Scheduling discipline label.
    pub scheduler: &'static str,
    /// The four path-length cells, in path order.
    pub cells: Vec<Table2Cell>,
    /// Mean utilization over the four inter-switch links.
    pub utilization: f64,
}

wire_record! { Table2Point { scheduler: label(DISCIPLINE_LABELS), cells, utilization } }

/// Build the Figure-1 network with 22 identically distributed on/off flows
/// (Table 2 ignores the Table-3 class assignment) under one discipline,
/// declared through the scenario API, run it, and return the simulation
/// alongside the placed flows.
pub fn run_chain(
    cfg: &PaperConfig,
    discipline: DisciplineSpec,
) -> (Sim, Vec<(FlowPlacement, FlowId)>) {
    let placements = fig1::placement();
    let mut builder = ScenarioBuilder::new(TopologySpec::chain_duplex(5))
        .link_profile(Fig1Network::link_profile(cfg))
        .discipline(discipline);
    for (i, p) in placements.iter().enumerate() {
        builder = builder.flow(FlowDef::best_effort_realtime(p.first_link, p.hops).source(
            SourceSpec::onoff_paper(cfg.avg_rate_pps, cfg.flow_seed(i as u32)),
        ));
    }
    let mut sim = builder.build().expect("the Table-2 scenario is valid");
    let flows = placements.into_iter().zip(sim.flows().to_vec()).collect();
    sim.run_until(cfg.duration);
    (sim, flows)
}

/// Pick the sample flow the table reports for each path length: the flow of
/// that length whose route starts earliest in the chain (deterministic and
/// crosses the most-loaded prefix).
fn sample_flow(flows: &[(FlowPlacement, FlowId)], path_length: usize) -> FlowId {
    flows
        .iter()
        .filter(|(p, _)| p.hops == path_length)
        .min_by_key(|(p, _)| p.first_link)
        .map(|(_, f)| *f)
        .expect("every path length 1-4 exists in the placement")
}

/// Run one Table-2 sweep point: the Figure-1 chain under one discipline,
/// summarized into the discipline's four path-length cells.
pub fn run_point(cfg: &PaperConfig, discipline: DisciplineSpec) -> Table2Point {
    let (mut sim, flows) = run_chain(cfg, discipline);
    let net = sim.network_mut();
    let pt = cfg.packet_time().as_secs_f64();
    let cells: Vec<Table2Cell> = (1..=4)
        .map(|path_length| {
            let flow = sample_flow(&flows, path_length);
            let r = net.monitor_mut().flow_report(flow);
            Table2Cell {
                scheduler: discipline.label(),
                path_length,
                mean: r.mean_delay / pt,
                p999: r.p999_delay / pt,
            }
        })
        .collect();
    let utilization: f64 = (0..fig1::NUM_LINKS)
        .map(|i| net.monitor().link_report(i).utilization)
        .sum::<f64>()
        / fig1::NUM_LINKS as f64;
    Table2Point {
        scheduler: discipline.label(),
        cells,
        utilization,
    }
}

/// The Table-2 sweep: the Figure-1 chain under WFQ, FIFO and FIFO+ (the
/// paper's order), one self-contained scenario point per discipline.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// The Appendix constants and the run length.
    pub cfg: PaperConfig,
}

impl Experiment for Sweep {
    type Params = (DisciplineSpec,);
    type Row = Table2Point;

    fn set(&self) -> ScenarioSet<(DisciplineSpec,)> {
        ScenarioSet::over("discipline", table2_set())
    }

    fn point(&self, &(discipline,): &(DisciplineSpec,)) -> Table2Point {
        run_point(&self.cfg, discipline)
    }

    fn render(&self, reports: &[SweepReport<PointResult<Table2Point>>]) -> String {
        crate::report::render_table2(reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::rows;
    use ispn_scenario::assert_wire_codec;

    #[test]
    fn shortened_run_reproduces_the_tables_shape() {
        let points = rows(&Sweep {
            cfg: PaperConfig::fast(),
        });
        let cell = |d: &str, h: usize| {
            let point = points.iter().find(|p| p.scheduler == d).unwrap();
            &point.cells[h - 1]
        };
        assert_eq!(points.iter().map(|p| p.cells.len()).sum::<usize>(), 12);
        // Every discipline ran at roughly 83.5 % utilization.
        for p in &points {
            let (name, util) = (p.scheduler, p.utilization);
            assert!((util - 0.835).abs() < 0.06, "{name} utilization {util}");
        }
        // Delays grow with path length for every discipline (means).
        for d in ["WFQ", "FIFO", "FIFO+"] {
            let m1 = cell(d, 1).mean;
            let m4 = cell(d, 4).mean;
            assert!(m4 > m1, "{d}: mean at 4 hops {m4} vs 1 hop {m1}");
            for h in 1..=4 {
                let c = cell(d, h);
                assert!(c.p999 >= c.mean);
            }
        }
        // FIFO+ controls the long-path tail at least as well as FIFO, which
        // in turn beats WFQ (a 40-second run is noisy, so allow 15 % slack).
        let f4 = cell("FIFO", 4).p999;
        let fp4 = cell("FIFO+", 4).p999;
        let w4 = cell("WFQ", 4).p999;
        assert!(fp4 <= f4 * 1.15, "FIFO+ {fp4} vs FIFO {f4}");
        assert!(fp4 <= w4 * 1.15, "FIFO+ {fp4} vs WFQ {w4}");
    }

    #[test]
    fn sample_flows_prefer_earliest_entry() {
        let flows: Vec<(FlowPlacement, FlowId)> = fig1::placement()
            .into_iter()
            .enumerate()
            .map(|(i, p)| (p, FlowId(i as u32)))
            .collect();
        for h in 1..=4 {
            let f = sample_flow(&flows, h);
            let (p, _) = flows.iter().find(|(_, id)| *id == f).unwrap();
            assert_eq!(p.hops, h);
        }
    }

    #[test]
    fn cells_and_points_round_trip_the_wire() {
        let cell = Table2Cell {
            scheduler: "FIFO+",
            path_length: 3,
            mean: 1.0 / 3.0,
            p999: f64::NAN,
        };
        let cell_json =
            "{\"scheduler\":\"FIFO+\",\"path_length\":3,\"mean\":0.3333333333333333,\"p999\":null}";
        assert_wire_codec(
            &cell,
            cell_json,
            &[&cell_json.replace("FIFO+", "EvilSched")],
        );
        let point = Table2Point {
            scheduler: "WFQ",
            cells: vec![cell],
            utilization: 0.835,
        };
        let point_json =
            format!("{{\"scheduler\":\"WFQ\",\"cells\":[{cell_json}],\"utilization\":0.835}}");
        assert_wire_codec(
            &point,
            &point_json,
            &[&point_json.replace("WFQ", "EvilSched")],
        );
    }
}
