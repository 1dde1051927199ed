//! Table 1: WFQ vs FIFO on a single shared link.
//!
//! "We consider a single link being utilized by 10 flows, each having the
//! same statistical generation process.  In Table 1 we show the mean and
//! 99.9'th percentile queueing delays for a sample flow (the data from the
//! various flows are similar) under each of the two scheduling algorithms.
//! Note that while the mean delays are about the same for the two
//! algorithms, the 99.9'th percentile delays are significantly smaller under
//! the FIFO algorithm."  The link runs at 83.5 % utilization.

use ispn_scenario::{
    wire_record, DisciplineSpec, FlowDef, MeasurementPlan, PointResult, RunTelemetry,
    ScenarioBuilder, ScenarioSet, Sim, SourceSpec, SweepReport,
};

use crate::config::PaperConfig;
use crate::experiment::Experiment;
use crate::fig1::Fig1Network;
use crate::support::DISCIPLINE_LABELS;

/// Number of flows sharing the single link.
pub const NUM_FLOWS: usize = 10;

/// One row of Table 1 (delays in packet transmission times).
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Scheduling discipline.
    pub scheduler: &'static str,
    /// Mean queueing delay of the sample flow.
    pub mean: f64,
    /// 99.9th-percentile queueing delay of the sample flow.
    pub p999: f64,
    /// Mean over all ten flows (not in the paper's table; reported for
    /// completeness).
    pub all_flows_mean: f64,
    /// Largest per-flow 99.9th percentile over all ten flows.
    pub all_flows_worst_p999: f64,
    /// Measured link utilization.
    pub utilization: f64,
}

wire_record! { Table1Row {
    scheduler: label(DISCIPLINE_LABELS), mean, p999, all_flows_mean, all_flows_worst_p999,
    utilization,
} }

/// The single-link scenario under one discipline — a two-switch chain
/// with `flows` identically distributed on/off flows (seeds `0..flows`).
/// Table 1 runs it with ten; the utilization and playback studies reuse it.
pub(crate) fn single_link(cfg: &PaperConfig, discipline: DisciplineSpec, flows: usize) -> Sim {
    ScenarioBuilder::chain(2)
        .link_profile(Fig1Network::link_profile(cfg))
        .discipline(discipline)
        .flows((0..flows).map(|i| {
            FlowDef::best_effort_realtime(0, 1).source(SourceSpec::onoff_paper(
                cfg.avg_rate_pps,
                cfg.flow_seed(i as u32),
            ))
        }))
        .build()
        .expect("the single-link scenario is valid")
}

/// Run the single-link scenario under one discipline and summarize the
/// sample flow's delays into a table row.
pub fn run_single_link(cfg: &PaperConfig, discipline: DisciplineSpec) -> Table1Row {
    let mut sim = single_link(cfg, discipline, NUM_FLOWS);

    sim.run_until(cfg.duration);

    let pt = cfg.packet_time().as_secs_f64();
    let flows = sim.flows().to_vec();
    let net = sim.network_mut();
    let sample = net.monitor_mut().flow_report(flows[0]);
    let mut mean_sum = 0.0;
    let mut worst_p999: f64 = 0.0;
    for &f in &flows {
        let r = net.monitor_mut().flow_report(f);
        mean_sum += r.mean_delay;
        worst_p999 = worst_p999.max(r.p999_delay);
    }
    Table1Row {
        scheduler: discipline.label(),
        mean: sample.mean_delay / pt,
        p999: sample.p999_delay / pt,
        all_flows_mean: mean_sum / NUM_FLOWS as f64 / pt,
        all_flows_worst_p999: worst_p999 / pt,
        utilization: net.monitor().link_report(0).utilization,
    }
}

/// The Table-1 sweep: the single shared link under WFQ and under FIFO (the
/// paper's order), one self-contained scenario point per discipline.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// The Appendix constants and the run length.
    pub cfg: PaperConfig,
}

impl Experiment for Sweep {
    type Params = (DisciplineSpec,);
    type Row = Table1Row;

    fn set(&self) -> ScenarioSet<(DisciplineSpec,)> {
        ScenarioSet::over("discipline", [DisciplineSpec::Wfq, DisciplineSpec::Fifo])
    }

    fn point(&self, &(discipline,): &(DisciplineSpec,)) -> Table1Row {
        run_single_link(&self.cfg, discipline)
    }

    fn render(&self, reports: &[SweepReport<PointResult<Table1Row>>]) -> String {
        crate::report::render_table1(reports)
    }

    /// The WFQ point's run: its ten flows' delay stores are the sample
    /// bytes a single-link run keeps.
    fn footprint(&self) -> Option<RunTelemetry> {
        let mut sim = single_link(&self.cfg, DisciplineSpec::Wfq, NUM_FLOWS);
        sim.run_until(self.cfg.duration);
        sim.report(&MeasurementPlan::default().with_run_telemetry())
            .telemetry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::rows;
    use ispn_scenario::assert_wire_codec;
    use ispn_sim::SimTime;

    #[test]
    fn shortened_run_reproduces_the_tables_shape() {
        // 40 simulated seconds are enough for the qualitative claims: the
        // means are comparable and FIFO's tail is no worse than WFQ's.
        let t = rows(&Sweep {
            cfg: PaperConfig::fast(),
        });
        assert_eq!(t.len(), 2);
        let wfq = &t[0];
        let fifo = &t[1];
        assert_eq!(wfq.scheduler, "WFQ");
        assert_eq!(fifo.scheduler, "FIFO");
        // The link really is loaded at roughly 83.5 %.
        assert!(
            (wfq.utilization - 0.835).abs() < 0.05,
            "utilization {}",
            wfq.utilization
        );
        // Delays are positive and the tail exceeds the mean.
        for row in &t {
            assert!(row.mean > 0.5, "{row:?}");
            assert!(row.p999 > row.mean, "{row:?}");
        }
        // Means within a factor of each other; FIFO tail not worse than WFQ.
        assert!((wfq.mean - fifo.mean).abs() / wfq.mean < 0.5);
        assert!(
            fifo.p999 <= wfq.p999 * 1.15,
            "FIFO {} vs WFQ {}",
            fifo.p999,
            wfq.p999
        );
    }

    #[test]
    fn rows_round_trip_the_wire() {
        let row = Table1Row {
            scheduler: "WFQ",
            mean: 3.16,
            p999: 53.86,
            all_flows_mean: 1.0 / 3.0,
            all_flows_worst_p999: f64::NAN,
            utilization: 0.835,
        };
        let json = "{\"scheduler\":\"WFQ\",\"mean\":3.16,\"p999\":53.86,\
            \"all_flows_mean\":0.3333333333333333,\"all_flows_worst_p999\":null,\
            \"utilization\":0.835}";
        // Unknown scheduler labels are schema errors, not panics.
        assert_wire_codec(&row, json, &[&json.replace("WFQ", "EvilSched")]);
    }

    #[test]
    fn single_run_is_deterministic() {
        let cfg = PaperConfig {
            duration: SimTime::from_secs(20),
            ..PaperConfig::paper()
        };
        let a = run_single_link(&cfg, DisciplineSpec::Fifo);
        let b = run_single_link(&cfg, DisciplineSpec::Fifo);
        assert_eq!(a.mean, b.mean);
        assert_eq!(a.p999, b.p999);
        assert_eq!(a.utilization, b.utilization);
    }
}
