//! Table 3: the unified scheduling algorithm carrying guaranteed, predicted
//! and datagram traffic simultaneously on the Figure-1 chain.
//!
//! The scenario (Section 7): the same 22 real-time on/off flows as Table 2,
//! now differentiated — 3 Guaranteed-Peak flows (clock rate = peak rate),
//! 2 Guaranteed-Average flows (clock rate = average rate), 7 Predicted-High
//! and 10 Predicted-Low flows — plus two greedy datagram TCP connections.
//! Every inter-switch link carries 2 G-Peak, 1 G-Avg, 3 P-High, 4 P-Low and
//! one TCP connection, runs the unified scheduler, and ends up over 99 %
//! utilized with 83.5 % of that being real-time traffic.  The paper reports,
//! for eight sample flows, the mean / 99.9th-percentile / maximum queueing
//! delay and (for guaranteed flows) the Parekh–Gallager bound, and notes the
//! datagram traffic saw a drop rate around 0.1 %.

use ispn_core::bounds::pg_queueing_bound;
use ispn_core::{FlowId, TokenBucketSpec};
use ispn_net::{LinkId, PoliceAction};
use ispn_scenario::{
    wire_record, DisciplineMatrix, DisciplineSpec, FlowDef, MeasurementPlan, PointResult,
    RouteSpec, RunTelemetry, ScenarioBuilder, ScenarioSet, ServiceSpec, Sim, SourceSpec,
    SweepReport, TcpDef, TopologySpec,
};
use ispn_sched::Averaging;
use ispn_transport::SharedTcpStats;

use crate::config::PaperConfig;
use crate::experiment::Experiment;
use crate::fig1::{self, Fig1Network, FlowKind, FlowPlacement};

/// Per-hop delay targets for the two predicted classes (the paper asks for
/// "widely spaced" targets; an order of magnitude apart, in packet times).
pub const HIGH_PRIORITY_TARGET_PKT: f64 = 20.0;
/// Low-priority per-hop delay target in packet times.
pub const LOW_PRIORITY_TARGET_PKT: f64 = 200.0;

/// One row of Table 3 (delays in packet transmission times).
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Flow class (Guaranteed-Peak / Guaranteed-Average / Predicted-High /
    /// Predicted-Low).
    pub kind: FlowKind,
    /// Path length in inter-switch links.
    pub path_length: usize,
    /// Mean queueing delay.
    pub mean: f64,
    /// 99.9th-percentile queueing delay.
    pub p999: f64,
    /// Maximum queueing delay.
    pub max: f64,
    /// The Parekh–Gallager bound (guaranteed flows only).
    pub pg_bound: Option<f64>,
}

/// The full Table-3 result.
#[derive(Debug, Clone)]
pub struct Table3 {
    /// The eight sample rows, in the paper's order.
    pub rows: Vec<Table3Row>,
    /// Fraction of datagram (TCP data) packets dropped inside the network.
    pub datagram_drop_rate: f64,
    /// Mean total utilization over the four inter-switch links.
    pub mean_utilization: f64,
    /// Mean real-time utilization over the four inter-switch links.
    pub realtime_utilization: f64,
    /// Goodput of each TCP connection in segments per second.
    pub tcp_goodput_pps: Vec<f64>,
}

impl Table3 {
    /// Look up a row.
    pub fn row(&self, kind: FlowKind, path_length: usize) -> Option<&Table3Row> {
        self.rows
            .iter()
            .find(|r| r.kind == kind && r.path_length == path_length)
    }
}

// A guaranteed row's bound is always finite, so its `null` can only mean
// "no bound".
wire_record! { Table3Row { kind, path_length, mean, p999, max, pg_bound } }

wire_record! { Table3 {
    rows, datagram_drop_rate, mean_utilization, realtime_utilization, tcp_goodput_pps,
} }

/// The WFQ clock rate (bits/s) each guaranteed kind reserves.
pub fn clock_rate_bps(cfg: &PaperConfig, kind: FlowKind) -> f64 {
    match kind {
        FlowKind::GuaranteedPeak => 2.0 * cfg.avg_rate_pps * cfg.packet_bits as f64,
        FlowKind::GuaranteedAverage => cfg.avg_rate_pps * cfg.packet_bits as f64,
        _ => panic!("only guaranteed flows reserve a clock rate"),
    }
}

/// The token bucket that characterizes a guaranteed flow's traffic at its
/// clock rate, i.e. the `b(r)` the Parekh–Gallager bound uses: one packet at
/// the peak rate, the full 50-packet source bucket at the average rate.
pub fn pg_bucket(cfg: &PaperConfig, kind: FlowKind) -> TokenBucketSpec {
    match kind {
        FlowKind::GuaranteedPeak => {
            TokenBucketSpec::per_packets(2.0 * cfg.avg_rate_pps, 1.0, cfg.packet_bits)
        }
        FlowKind::GuaranteedAverage => {
            TokenBucketSpec::per_packets(cfg.avg_rate_pps, 50.0, cfg.packet_bits)
        }
        _ => panic!("only guaranteed flows have a P-G bucket"),
    }
}

/// Everything the scenario constructs, exposed so tests, examples and the
/// admission-control extension can reuse the wiring.
pub struct Table3Scenario {
    /// The simulation (network + control plane), ready to run.
    pub sim: Sim,
    /// The 22 real-time flows with their placements.
    pub flows: Vec<(FlowPlacement, FlowId)>,
    /// The TCP connections' shared statistics.
    pub tcp_stats: Vec<SharedTcpStats>,
    /// The TCP data-flow ids (for drop accounting).
    pub tcp_data_flows: Vec<FlowId>,
}

/// The declarative flow definition of one Table-3 placement.
pub fn flow_def(cfg: &PaperConfig, p: &FlowPlacement, seed_index: u32) -> FlowDef {
    let source_bucket = TokenBucketSpec::per_packets(cfg.avg_rate_pps, 50.0, cfg.packet_bits);
    let pt = cfg.packet_time();
    let service = match p.kind {
        FlowKind::GuaranteedPeak | FlowKind::GuaranteedAverage => ServiceSpec::Guaranteed {
            clock_rate_bps: clock_rate_bps(cfg, p.kind),
        },
        FlowKind::PredictedHigh => ServiceSpec::Predicted {
            priority: 0,
            bucket: source_bucket,
            target_delay: pt.mul_f64(HIGH_PRIORITY_TARGET_PKT * p.hops as f64),
            loss_rate: 0.001,
            police: PoliceAction::Drop,
        },
        FlowKind::PredictedLow => ServiceSpec::Predicted {
            priority: 1,
            bucket: source_bucket,
            target_delay: pt.mul_f64(LOW_PRIORITY_TARGET_PKT * p.hops as f64),
            loss_rate: 0.001,
            police: PoliceAction::Drop,
        },
    };
    FlowDef::new(
        RouteSpec::Span {
            first: p.first_link,
            hops: p.hops,
        },
        service,
    )
    .source(SourceSpec::onoff_paper(
        cfg.avg_rate_pps,
        cfg.flow_seed(seed_index),
    ))
}

/// Build the Table-3 scenario (does not run it): the Figure-1 duplex
/// chain, the unified scheduler on every forward link, the 22 classed
/// flows and the two TCP connections — all declared through the scenario
/// API.
pub fn build(cfg: &PaperConfig) -> Table3Scenario {
    let placements = fig1::placement();
    let forward: Vec<LinkId> = (0..fig1::NUM_LINKS).map(LinkId).collect();
    let mut builder = ScenarioBuilder::new(TopologySpec::chain_duplex(5))
        .link_profile(Fig1Network::link_profile(cfg))
        .disciplines(DisciplineMatrix::default().with_links(
            &forward,
            DisciplineSpec::Unified {
                priority_classes: 2,
                averaging: Averaging::RunningMean,
            },
        ));
    for (i, p) in placements.iter().enumerate() {
        builder = builder.flow(flow_def(cfg, p, i as u32));
    }
    for (first, hops) in fig1::tcp_placement() {
        builder = builder.tcp(TcpDef::over_span(first, hops));
    }
    let sim = builder.build().expect("the Table-3 scenario is valid");

    let flows = placements.into_iter().zip(sim.flows().to_vec()).collect();
    let tcp_stats = sim.tcp().iter().map(|h| h.stats.clone()).collect();
    let tcp_data_flows = sim.tcp().iter().map(|h| h.data_flow).collect();
    Table3Scenario {
        sim,
        flows,
        tcp_stats,
        tcp_data_flows,
    }
}

fn sample_flow(
    flows: &[(FlowPlacement, FlowId)],
    kind: FlowKind,
    path_length: usize,
) -> Option<FlowId> {
    flows
        .iter()
        .filter(|(p, _)| p.kind == kind && p.hops == path_length)
        .min_by_key(|(p, _)| p.first_link)
        .map(|(_, f)| *f)
}

/// Run the Table-3 scenario and summarize it in the paper's format.
pub fn run(cfg: &PaperConfig) -> Table3 {
    let mut scenario = build(cfg);
    scenario.sim.run_until(cfg.duration);
    summarize(cfg, &mut scenario)
}

/// The Table-3 seed replication: the paper reports one random run; a seed
/// axis turns it into a replication study (how much do the sample rows
/// move between runs?).  Each seed is a self-contained scenario point.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// The Appendix constants and the run length (its own seed is
    /// overridden per point).
    pub cfg: PaperConfig,
    /// The seed axis, in print order.
    pub seeds: Vec<u64>,
}

impl Experiment for Sweep {
    type Params = (u64,);
    type Row = (u64, Table3);

    fn set(&self) -> ScenarioSet<(u64,)> {
        ScenarioSet::over("seed", self.seeds.clone())
    }

    fn point(&self, &(seed,): &(u64,)) -> (u64, Table3) {
        let cfg = PaperConfig {
            seed,
            ..self.cfg.clone()
        };
        (seed, run(&cfg))
    }

    fn render(&self, reports: &[SweepReport<PointResult<(u64, Table3)>>]) -> String {
        crate::report::render_table3_seeds(reports)
    }

    /// The first seed's run: 22 declared flows and two TCP connections,
    /// the report's largest mix of sealed and record-order stores.
    fn footprint(&self) -> Option<RunTelemetry> {
        let seed = self.seeds.first().copied().unwrap_or(self.cfg.seed);
        let cfg = PaperConfig {
            seed,
            ..self.cfg.clone()
        };
        let mut scenario = build(&cfg);
        scenario.sim.run_until(cfg.duration);
        let plan = MeasurementPlan::default().with_run_telemetry();
        scenario.sim.report(&plan).telemetry
    }
}

/// Summarize an already-run scenario.
pub fn summarize(cfg: &PaperConfig, scenario: &mut Table3Scenario) -> Table3 {
    let pt = cfg.packet_time().as_secs_f64();
    let samples = [
        (FlowKind::GuaranteedPeak, 4),
        (FlowKind::GuaranteedPeak, 2),
        (FlowKind::GuaranteedAverage, 3),
        (FlowKind::GuaranteedAverage, 1),
        (FlowKind::PredictedHigh, 4),
        (FlowKind::PredictedHigh, 2),
        (FlowKind::PredictedLow, 3),
        (FlowKind::PredictedLow, 1),
    ];
    let mut rows = Vec::new();
    for (kind, hops) in samples {
        let flow = sample_flow(&scenario.flows, kind, hops)
            .expect("the placement provides every sample row");
        let r = scenario.sim.network_mut().monitor_mut().flow_report(flow);
        let pg_bound = kind.is_guaranteed().then(|| {
            pg_queueing_bound(
                pg_bucket(cfg, kind),
                clock_rate_bps(cfg, kind),
                hops,
                cfg.packet_bits,
            )
            .as_secs_f64()
                / pt
        });
        rows.push(Table3Row {
            kind,
            path_length: hops,
            mean: r.mean_delay / pt,
            p999: r.p999_delay / pt,
            max: r.max_delay / pt,
            pg_bound,
        });
    }

    // Datagram drop rate: buffer drops over generated segments, across the
    // two TCP data flows.
    let mut generated = 0u64;
    let mut dropped = 0u64;
    for &f in &scenario.tcp_data_flows {
        let r = scenario.sim.network_mut().monitor_mut().flow_report(f);
        generated += r.generated;
        dropped += r.dropped_buffer;
    }
    let datagram_drop_rate = if generated > 0 {
        dropped as f64 / generated as f64
    } else {
        0.0
    };

    let mut util = 0.0;
    let mut rt_util = 0.0;
    for i in 0..fig1::NUM_LINKS {
        let lr = scenario.sim.network().monitor().link_report(i);
        util += lr.utilization;
        rt_util += lr.realtime_utilization;
    }
    util /= fig1::NUM_LINKS as f64;
    rt_util /= fig1::NUM_LINKS as f64;

    let secs = cfg.duration.as_secs_f64();
    let tcp_goodput_pps = scenario
        .tcp_stats
        .iter()
        .map(|s| s.borrow().goodput_pps(secs))
        .collect();

    Table3 {
        rows,
        datagram_drop_rate,
        mean_utilization: util,
        realtime_utilization: rt_util,
        tcp_goodput_pps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ispn_core::ServiceClass;
    use ispn_scenario::assert_wire_codec;

    #[test]
    fn clock_rates_and_buckets_match_the_paper() {
        let cfg = PaperConfig::paper();
        assert_eq!(clock_rate_bps(&cfg, FlowKind::GuaranteedPeak), 170_000.0);
        assert_eq!(clock_rate_bps(&cfg, FlowKind::GuaranteedAverage), 85_000.0);
        let peak = pg_bucket(&cfg, FlowKind::GuaranteedPeak);
        assert_eq!(peak.depth_bits, 1000.0);
        let avg = pg_bucket(&cfg, FlowKind::GuaranteedAverage);
        assert_eq!(avg.depth_bits, 50_000.0);
    }

    #[test]
    #[should_panic]
    fn predicted_flows_have_no_clock_rate() {
        let _ = clock_rate_bps(&PaperConfig::paper(), FlowKind::PredictedHigh);
    }

    #[test]
    fn scenario_wiring_is_complete() {
        let cfg = PaperConfig::fast();
        let scenario = build(&cfg);
        // 22 real-time flows + 2 TCP data flows + 2 TCP ack flows.
        assert_eq!(scenario.sim.network().num_flows(), 26);
        assert_eq!(scenario.flows.len(), 22);
        assert_eq!(scenario.tcp_stats.len(), 2);
        // Every forward link runs the unified scheduler.
        for i in 0..fig1::NUM_LINKS {
            assert_eq!(
                scenario.sim.network().discipline_name(ispn_net::LinkId(i)),
                "Unified"
            );
        }
        // Guaranteed flows carry the Guaranteed class, predicted flows their
        // priorities.
        for (p, id) in &scenario.flows {
            let class = scenario.sim.network().flow_config(*id).class;
            match p.kind {
                FlowKind::GuaranteedPeak | FlowKind::GuaranteedAverage => {
                    assert_eq!(class, ServiceClass::Guaranteed)
                }
                FlowKind::PredictedHigh => {
                    assert_eq!(class, ServiceClass::Predicted { priority: 0 })
                }
                FlowKind::PredictedLow => {
                    assert_eq!(class, ServiceClass::Predicted { priority: 1 })
                }
            }
        }
    }

    /// Three reports of one run.  The flow section and every class that
    /// pools declared flows alone repeat byte for byte, and the second and
    /// third reports repeat whole.  The class that pools the TCP flows
    /// moves between the first and the second: the first report reads a
    /// connection's samples in record order and seals them, the later ones
    /// read them ascending (the first-report asymmetry of ROADMAP item
    /// 3(b), pinned here until that item removes it).
    #[test]
    fn reports_after_the_first_repeat_it_and_each_other() {
        use ispn_scenario::{ClassSummary, MeasurementPlan};
        let cfg = PaperConfig::fast();
        let mut scenario = build(&cfg);
        scenario.sim.run_until(cfg.duration);
        let reports: Vec<_> = (0..3)
            .map(|_| scenario.sim.report(&MeasurementPlan::default()))
            .collect();
        let net = scenario.sim.network();
        let undeclared: Vec<ServiceClass> = (0..net.num_flows() as u32)
            .map(FlowId)
            .filter(|f| !scenario.sim.flows().contains(f))
            .map(|f| net.flow_config(f).class)
            .collect();
        assert_eq!(undeclared, [ServiceClass::Datagram; 4]);
        let debug = |x: &dyn std::fmt::Debug| format!("{x:?}");
        for later in &reports[1..] {
            assert_eq!(debug(&later.flows), debug(&reports[0].flows));
            assert_eq!(later.classes.len(), reports[0].classes.len());
            for (first, again) in reports[0].classes.iter().zip(&later.classes) {
                if first.class == "datagram" {
                    // Only the jitter, which sums in the order it reads.
                    assert_ne!(first.jitter_s.to_bits(), again.jitter_s.to_bits());
                    let jitter_s = first.jitter_s;
                    assert_eq!(
                        debug(first),
                        debug(&ClassSummary {
                            jitter_s,
                            ..again.clone()
                        })
                    );
                } else {
                    assert_eq!(debug(first), debug(again));
                }
            }
        }
        assert_eq!(reports[1].to_json(), reports[2].to_json());
    }

    #[test]
    fn shortened_run_reproduces_the_tables_shape() {
        let cfg = PaperConfig::fast();
        let t = run(&cfg);
        assert_eq!(t.rows.len(), 8);

        // Guaranteed flows stay within their Parekh-Gallager bounds.
        for row in &t.rows {
            if let Some(bound) = row.pg_bound {
                assert!(
                    row.max <= bound + 1.0,
                    "{:?} path {} max {} exceeds P-G bound {}",
                    row.kind,
                    row.path_length,
                    row.max,
                    bound
                );
            }
            assert!(row.p999 >= row.mean);
            assert!(row.max >= row.p999 * 0.999);
        }

        // The published bound values themselves.
        let b = |k, h| t.row(k, h).unwrap().pg_bound.unwrap();
        assert!((b(FlowKind::GuaranteedPeak, 4) - 23.53).abs() < 0.05);
        assert!((b(FlowKind::GuaranteedPeak, 2) - 11.76).abs() < 0.05);
        assert!((b(FlowKind::GuaranteedAverage, 3) - 611.76).abs() < 0.1);
        assert!((b(FlowKind::GuaranteedAverage, 1) - 588.24).abs() < 0.1);

        // Predicted-High sees less delay than Predicted-Low on comparable
        // paths (here: 99.9th percentile of the 1-vs-2 hop samples compared
        // per class is noisy in 40 s, so compare means of the short paths).
        let high2 = t.row(FlowKind::PredictedHigh, 2).unwrap().mean;
        let low3 = t.row(FlowKind::PredictedLow, 3).unwrap().mean;
        assert!(
            high2 < low3,
            "P-High(2) {high2} should be below P-Low(3) {low3}"
        );

        // The TCP background pushes utilization well above the 83.5 % the
        // real-time flows alone would produce.
        assert!(
            t.mean_utilization > 0.93,
            "utilization {}",
            t.mean_utilization
        );
        assert!(
            (t.realtime_utilization - 0.835).abs() < 0.06,
            "realtime utilization {}",
            t.realtime_utilization
        );
        // Datagram drops exist but stay small.
        assert!(
            t.datagram_drop_rate < 0.05,
            "drop rate {}",
            t.datagram_drop_rate
        );
        // Both TCP connections move traffic.
        assert!(
            t.tcp_goodput_pps.iter().all(|&g| g > 10.0),
            "{:?}",
            t.tcp_goodput_pps
        );
    }

    #[test]
    fn rows_and_tables_round_trip_the_wire() {
        let bounded = Table3Row {
            kind: FlowKind::GuaranteedPeak,
            path_length: 4,
            mean: 2.5,
            p999: f64::NAN,
            max: 30.25,
            pg_bound: Some(77.0),
        };
        let bounded_json = "{\"kind\":\"Guaranteed-Peak\",\"path_length\":4,\"mean\":2.5,\
            \"p999\":null,\"max\":30.25,\"pg_bound\":77.0}";
        assert_wire_codec(
            &bounded,
            bounded_json,
            &[&bounded_json.replace("Guaranteed-Peak", "Best-Effort-Maybe")],
        );
        let unbounded = Table3Row {
            kind: FlowKind::PredictedLow,
            path_length: 1,
            mean: 0.1,
            p999: 9.0,
            max: 11.0,
            pg_bound: None,
        };
        let unbounded_json = "{\"kind\":\"Predicted-Low\",\"path_length\":1,\"mean\":0.1,\
            \"p999\":9.0,\"max\":11.0,\"pg_bound\":null}";
        assert_wire_codec(&unbounded, unbounded_json, &[]);
        let table = Table3 {
            rows: vec![bounded, unbounded],
            datagram_drop_rate: 0.001,
            mean_utilization: 0.99,
            realtime_utilization: 0.835,
            tcp_goodput_pps: vec![12.5, 13.0],
        };
        let table_json = format!(
            "{{\"rows\":[{bounded_json},{unbounded_json}],\"datagram_drop_rate\":0.001,\
             \"mean_utilization\":0.99,\"realtime_utilization\":0.835,\
             \"tcp_goodput_pps\":[12.5,13.0]}}"
        );
        assert_wire_codec(
            &table,
            &table_json,
            &[&table_json.replace("Predicted-Low", "Best-Effort-Maybe")],
        );
    }
}
