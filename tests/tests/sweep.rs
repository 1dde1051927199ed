//! Sweep-API integration tests: the determinism contract of
//! `ispn-scenario::sweep` and the migrated experiment sweeps.
//!
//! The acceptance surface: a sweep of ≥ 8 scenario points run with
//! `threads = N > 1` must produce **byte-identical** `SweepReport` JSON to
//! the serial run, and the six experiments (tables 1–3, hetmix, mesh,
//! churn) must produce the same rows and the same rendered tables through
//! a parallel runner as through the serial one
//! (`fx::assert_exec_matches_serial`) — completion order must never leak
//! into results.

use ispn_experiments::Experiment;
use ispn_integration_tests::dist_fixtures as fx;
use ispn_net::PoliceAction;
use ispn_scenario::{
    failed_points, sweep_to_json, AdmissionSpec, ChurnClass, ChurnSourceSpec, ChurnWorkload,
    DisciplineSpec, FlowDef, MeasurementPlan, ScenarioBuilder, ScenarioSet, SourceSpec, SweepExec,
    SweepProgress, SweepRunner, TopologySpec, WorkloadSpec,
};
use ispn_sched::Averaging;
use ispn_sim::SimTime;

/// The discipline axis the generic sweep uses.
fn disciplines() -> [DisciplineSpec; 4] {
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

/// Build and run one (discipline, flows-per-class) point: a short
/// heterogeneous mix on a two-switch chain, reported with per-class
/// distributions.
fn run_point(spec: DisciplineSpec, level: usize) -> ispn_scenario::ScenarioReport {
    let mut builder = ScenarioBuilder::chain(2).discipline(spec);
    for i in 0..level {
        builder = builder
            .flow(FlowDef::guaranteed(0, 1, 120_000.0).source(SourceSpec::cbr(85.0, 1000)))
            .flow(
                FlowDef::best_effort_realtime(0, 1)
                    .source(SourceSpec::onoff_paper(85.0, 40 + i as u64)),
            )
            .flow(FlowDef::datagram(0, 1).source(SourceSpec::poisson(85.0, 1000, 80 + i as u64)));
    }
    let mut sim = builder.build().expect("valid sweep point");
    sim.run_until(SimTime::from_secs(5));
    sim.report(&MeasurementPlan::default())
}

#[test]
fn eight_point_parallel_sweep_is_byte_identical_to_serial() {
    // 4 disciplines × 2 load levels = 8 self-contained scenario points.
    let set = ScenarioSet::over("discipline", disciplines()).by("level", [1usize, 3]);
    assert_eq!(set.len(), 8);
    let f = |&(spec, level): &(DisciplineSpec, usize)| run_point(spec, level);
    let serial = SweepRunner::serial().run(&set, f, &SweepProgress::default());
    let parallel = SweepRunner::parallel(4).run(&set, f, &SweepProgress::default());
    let serial_json = sweep_to_json(&serial);
    let parallel_json = sweep_to_json(&parallel);
    assert!(
        serial_json == parallel_json,
        "parallel sweep JSON diverged from serial"
    );
    // The reports are tagged with both axes, in point order.
    assert_eq!(parallel[0].tag("discipline"), Some("FIFO"));
    assert_eq!(parallel[0].tag("level"), Some("1"));
    assert_eq!(parallel[7].tag("discipline"), Some("Unified"));
    assert_eq!(parallel[7].tag("level"), Some("3"));
    // And the per-class additions are present in every point's JSON.
    assert!(serial_json.contains("\"classes\":[{\"class\":\"guaranteed\""));
    assert!(serial_json.contains("\"histogram\":null"));
    assert!(serial_json.contains("\"disciplines\":[{\"discipline\":\"WFQ\""));
}

#[test]
fn oversubscribed_thread_pool_changes_nothing() {
    // More threads than points, and more points than a round number: the
    // work-claiming counter must still map every result to its point.
    let set = ScenarioSet::over("discipline", disciplines()).by("level", [1usize, 2, 4]);
    assert_eq!(set.len(), 12);
    let f = |&(spec, level): &(DisciplineSpec, usize)| run_point(spec, level).to_json();
    let serial = SweepRunner::serial().run(&set, f, &SweepProgress::default());
    let wide = SweepRunner::parallel(32).run(&set, f, &SweepProgress::default());
    assert_eq!(serial, wide);
}

/// Three threads: more than Table 1 has points, fewer than hetmix has.
fn threads() -> SweepExec {
    SweepExec::InProcess(SweepRunner::parallel(3))
}

#[test]
fn table1_and_table2_parallel_runs_match_serial() {
    fx::assert_exec_matches_serial(&fx::table1(), &threads());
    fx::assert_exec_matches_serial(&fx::table2(), &threads());
}

#[test]
fn table3_seed_axis_replicates_deterministically() {
    let (serial, _) = fx::assert_exec_matches_serial(&fx::table3(), &threads());
    assert_eq!(serial.len(), 2);
    // Distinct seeds genuinely re-randomize the run.
    assert_ne!(serial[0].0, serial[1].0);
    assert_ne!(serial[0].1.rows[0].mean, serial[1].1.rows[0].mean);
}

#[test]
fn hetmix_parallel_sweep_matches_serial() {
    let (serial, _) = fx::assert_exec_matches_serial(&fx::hetmix(), &threads());
    assert_eq!(serial.len(), 4, "4 disciplines × 1 level");
}

#[test]
fn mesh_parallel_sweep_matches_serial() {
    fx::assert_exec_matches_serial(&fx::mesh(), &threads());
}

#[test]
fn churn_parallel_sweep_matches_serial_decisions() {
    fx::assert_churn_matches_serial(&threads());
}

/// A churn workload declared straight through the scenario API (no
/// experiment wrapper): the facade drives arrivals, sources and
/// departures, and drains cleanly.
#[test]
fn declarative_churn_workload_runs_and_drains() {
    let pt = SimTime::MILLISECOND;
    let workload = ChurnWorkload {
        arrivals_per_sec: 1.0,
        mean_holding_secs: 10.0,
        seed: 0xDECAF,
        guaranteed_fraction: 0.3,
        guaranteed_rate_bps: 170_000.0,
        classes: vec![
            ChurnClass {
                priority: 0,
                bucket: ispn_core::TokenBucketSpec::per_packets(85.0, 20.0, 1000),
                per_hop_target: pt.mul_f64(30.0),
                loss_rate: 0.001,
                police: PoliceAction::Drop,
            },
            ChurnClass {
                priority: 1,
                bucket: ispn_core::TokenBucketSpec::per_packets(85.0, 50.0, 1000),
                per_hop_target: pt.mul_f64(300.0),
                loss_rate: 0.001,
                police: PoliceAction::Drop,
            },
        ],
        source: ChurnSourceSpec {
            avg_rate_pps: 85.0,
            seed_base: 0x1992,
        },
    };
    let forward: Vec<ispn_net::LinkId> = (0..2).map(ispn_net::LinkId).collect();
    let mut sim = ScenarioBuilder::new(TopologySpec::chain_duplex(3))
        .disciplines(ispn_scenario::DisciplineMatrix::default().with_links(
            &forward,
            DisciplineSpec::Unified {
                priority_classes: 2,
                averaging: Averaging::RunningMean,
            },
        ))
        .admission_on(
            forward.clone(),
            AdmissionSpec {
                realtime_quota: 0.9,
                class_targets: vec![pt.mul_f64(30.0), pt.mul_f64(300.0)],
                measurement_window_secs: 10.0,
                util_safety_factor: Some(1.6),
                sample_interval: SimTime::SECOND,
            },
        )
        .workload(WorkloadSpec::Churn(workload))
        .build()
        .expect("valid churn scenario");
    assert!(sim.has_churn());
    sim.run_until(SimTime::from_secs(40));
    let admitted = sim.churn_admitted();
    assert!(!admitted.is_empty(), "40 s at 1/s must admit something");
    // Records are sorted and carry the request mix.
    assert!(admitted.windows(2).all(|w| w[0].flow < w[1].flow));
    assert!(admitted.iter().all(|r| r.hops >= 1 && r.hops <= 2));
    let report = sim.report(&MeasurementPlan::default());
    assert!(report.signaling.accepted > 0);
    // Admitted sources really moved packets.
    assert!(report.classes.iter().any(|c| c.delivered > 0));
    // Drain: no reservation survives.
    sim.drain_churn();
    sim.run_until(SimTime::from_secs(41));
    let residual: f64 = forward
        .iter()
        .map(|&l| {
            sim.network()
                .admission(l)
                .expect("admission enabled")
                .reserved_guaranteed_bps()
        })
        .sum();
    assert_eq!(residual, 0.0);
    assert_eq!(sim.signaling().pending(), 0);
}

/// A caller may drive its own setups through `Sim::submit` next to a churn
/// workload: the churn driver must ignore completions it did not request
/// instead of panicking on them.
#[test]
fn user_submitted_flows_coexist_with_the_churn_workload() {
    let pt = SimTime::MILLISECOND;
    let workload = ChurnWorkload {
        arrivals_per_sec: 0.5,
        mean_holding_secs: 10.0,
        seed: 0xFEED,
        guaranteed_fraction: 1.0,
        guaranteed_rate_bps: 100_000.0,
        classes: Vec::new(),
        source: ChurnSourceSpec {
            avg_rate_pps: 85.0,
            seed_base: 0x1992,
        },
    };
    let forward: Vec<ispn_net::LinkId> = (0..2).map(ispn_net::LinkId).collect();
    let mut sim = ScenarioBuilder::new(TopologySpec::chain_duplex(3))
        .disciplines(ispn_scenario::DisciplineMatrix::default().with_links(
            &forward,
            DisciplineSpec::Unified {
                priority_classes: 2,
                averaging: Averaging::RunningMean,
            },
        ))
        .admission_on(
            forward,
            AdmissionSpec {
                realtime_quota: 0.9,
                class_targets: vec![pt.mul_f64(30.0), pt.mul_f64(300.0)],
                measurement_window_secs: 10.0,
                util_safety_factor: Some(1.6),
                sample_interval: SimTime::SECOND,
            },
        )
        .workload(WorkloadSpec::Churn(workload))
        .build()
        .expect("valid churn scenario");
    // A user-submitted guaranteed flow accepted alongside churn arrivals
    // used to hit the driver's "accepted churn flow was requested" panic.
    let route = sim.built().span(0, 2).unwrap();
    let (_req, user_flow) = sim.submit(ispn_net::FlowConfig::guaranteed(route, 50_000.0));
    sim.run_until(SimTime::from_secs(20));
    assert!(sim.network().flow_active(user_flow));
    // The driver never adopted the user's flow.
    assert!(sim.churn_admitted().iter().all(|r| r.flow != user_flow));
}

/// Churn arrivals span contiguous forward links, so a mesh is refused at
/// build time instead of panicking mid-run.
#[test]
fn churn_on_non_chain_topologies_is_refused_at_build_time() {
    let workload = ChurnWorkload {
        arrivals_per_sec: 1.0,
        mean_holding_secs: 5.0,
        seed: 1,
        guaranteed_fraction: 1.0,
        guaranteed_rate_bps: 100_000.0,
        classes: Vec::new(),
        source: ChurnSourceSpec {
            avg_rate_pps: 85.0,
            seed_base: 1,
        },
    };
    let err = ScenarioBuilder::mesh(2, 2)
        .workload(WorkloadSpec::Churn(workload))
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("chain topology"), "{err}");
}

/// Churn workload declarations that cannot work are refused at build time.
#[test]
fn invalid_churn_workloads_are_refused() {
    let valid = ChurnWorkload {
        arrivals_per_sec: 1.0,
        mean_holding_secs: 5.0,
        seed: 1,
        guaranteed_fraction: 1.0,
        guaranteed_rate_bps: 100_000.0,
        classes: Vec::new(),
        source: ChurnSourceSpec {
            avg_rate_pps: 85.0,
            seed_base: 1,
        },
    };
    // All-guaranteed churn with no predicted classes is fine.
    assert!(ScenarioBuilder::chain(3)
        .workload(WorkloadSpec::Churn(valid.clone()))
        .build()
        .is_ok());
    // A zero arrival rate is not.
    let err = ScenarioBuilder::chain(3)
        .workload(WorkloadSpec::Churn(ChurnWorkload {
            arrivals_per_sec: 0.0,
            ..valid.clone()
        }))
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("arrival rate"), "{err}");
    // Predicted requests with no classes to draw from are not.
    let err = ScenarioBuilder::chain(3)
        .workload(WorkloadSpec::Churn(ChurnWorkload {
            guaranteed_fraction: 0.5,
            ..valid.clone()
        }))
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("predicted class"), "{err}");
    // A NaN guaranteed fraction must not sail through the range checks.
    let err = ScenarioBuilder::chain(3)
        .workload(WorkloadSpec::Churn(ChurnWorkload {
            guaranteed_fraction: f64::NAN,
            ..valid
        }))
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("guaranteed fraction"), "{err}");
}

/// The flow definitions of a sweep point must not leak between points:
/// every point builds its own Sim with its own flow-id space.
#[test]
fn sweep_points_are_isolated() {
    let set = ScenarioSet::over("flows", [1usize, 2, 3, 4]);
    let reports = SweepRunner::parallel(4).run(
        &set,
        |&(n,)| {
            let mut builder = ScenarioBuilder::chain(2).discipline(DisciplineSpec::Fifo);
            for _ in 0..n {
                builder = builder.flow(FlowDef::datagram(0, 1).source(SourceSpec::cbr(10.0, 1000)));
            }
            let mut sim = builder.build().unwrap();
            sim.run_until(SimTime::from_secs(1));
            sim.network().num_flows()
        },
        &SweepProgress::default(),
    );
    let flows: Vec<usize> = reports.into_iter().map(|r| r.expect_ok().result).collect();
    assert_eq!(flows, vec![1, 2, 3, 4]);
}

/// Regression for the double-`expect` abort: a sweep with one poisoned
/// point must still return every sibling point's report and name the
/// failing point's axis tags — under both the serial and the parallel
/// runner.
#[test]
fn poisoned_point_keeps_sibling_reports_and_names_its_tags() {
    let set = ScenarioSet::over("discipline", disciplines()).by("level", [1usize, 2]);
    assert_eq!(set.len(), 8);
    let f = |&(spec, level): &(DisciplineSpec, usize)| {
        // Poison exactly one point: WFQ at level 2.
        assert!(
            !(matches!(spec, DisciplineSpec::Wfq) && level == 2),
            "injected fault: WFQ at level 2 exploded"
        );
        run_point(spec, level)
    };
    for runner in [SweepRunner::serial(), SweepRunner::parallel(4)] {
        let reports = runner.run(&set, f, &SweepProgress::default());
        assert_eq!(reports.len(), 8, "every point has a slot");
        let failures: Vec<_> = reports
            .iter()
            .filter_map(|r| r.result.as_ref().err())
            .collect();
        assert_eq!(failures.len(), 1, "exactly the poisoned point failed");
        let err = failures[0];
        assert_eq!(err.tags[0], ("discipline".to_string(), "WFQ".to_string()));
        assert_eq!(err.tags[1], ("level".to_string(), "2".to_string()));
        assert!(err.payload.contains("WFQ at level 2 exploded"), "{err}");
        // The seven healthy points all carry real reports.
        assert_eq!(
            reports.iter().filter(|r| r.result.is_ok()).count(),
            7,
            "sibling points ran to completion"
        );
        // The error serializes into the checked JSON stream in place.
        let json = sweep_to_json(&reports);
        assert!(json.contains("\"error\":\""), "{json}");
        assert_eq!(json.matches("\"report\":").count(), 7);
    }
}

/// The streaming contract: every point reaches a streaming
/// [`SweepProgress`] before the sweep returns — counted and timed once —
/// while the returned reports stay in point order with JSON
/// byte-identical to a quiet serial run.
#[test]
fn streaming_emits_every_point_and_stays_byte_identical() {
    let set = ScenarioSet::over("discipline", disciplines()).by("level", [1usize, 3]);
    let f = |&(spec, level): &(DisciplineSpec, usize)| run_point(spec, level);
    let serial = SweepRunner::serial().run(&set, f, &SweepProgress::default());

    let progress = SweepProgress::new(true);
    let streamed = SweepRunner::parallel(4).run(&set, f, &progress);

    // Every point was counted exactly once before the sweep returned.
    assert_eq!(progress.completed(), 8);
    assert_eq!(progress.telemetry().points(), 8);
    assert_eq!(failed_points(&streamed), 0, "no faults injected here");
    // The final reports are in point order and byte-identical to serial.
    assert_eq!(
        sweep_to_json(&streamed),
        sweep_to_json(&serial),
        "streaming must not change the final JSON"
    );
}

/// Sweep edge shapes: more worker threads than points, an empty set, and
/// a single-point set — all byte-identical to the serial runner.
#[test]
fn edge_shaped_sweeps_match_serial_json() {
    let f = |&(spec, level): &(DisciplineSpec, usize)| run_point(spec, level);

    // More workers (16) than points (3).
    let three = ScenarioSet::over("discipline", [DisciplineSpec::Wfq]).by("level", [1usize, 2, 3]);
    assert_eq!(three.len(), 3);
    let serial = SweepRunner::serial().run(&three, f, &SweepProgress::default());
    let wide = SweepRunner::parallel(16).run(&three, f, &SweepProgress::default());
    assert_eq!(sweep_to_json(&serial), sweep_to_json(&wide));

    // An empty set: no points, no panic, an empty JSON array — from both
    // runners.
    let empty = ScenarioSet::over("level", Vec::<usize>::new());
    assert!(empty.is_empty());
    let g = |&(level,): &(usize,)| run_point(DisciplineSpec::Fifo, level);
    let serial_empty = SweepRunner::serial().run(&empty, g, &SweepProgress::default());
    let parallel_empty = SweepRunner::parallel(8).run(&empty, g, &SweepProgress::default());
    assert_eq!(sweep_to_json(&serial_empty), "[]");
    assert_eq!(sweep_to_json(&parallel_empty), "[]");

    // A single-point set through the same machinery.
    let single = ScenarioSet::over("discipline", [DisciplineSpec::Wfq]).by("level", [1usize]);
    let serial_single = SweepRunner::serial().run(&single, f, &SweepProgress::default());
    let parallel_single = SweepRunner::parallel(8).run(&single, f, &SweepProgress::default());
    assert_eq!(serial_single.len(), 1);
    assert_eq!(
        sweep_to_json(&serial_single),
        sweep_to_json(&parallel_single)
    );
}

/// The discipline axes tag their points with the labels the tables print.
#[test]
fn discipline_kind_axis_labels_match_experiment_output() {
    use ispn_scenario::AxisValue;
    assert_eq!(DisciplineSpec::Wfq.axis_label(), "WFQ");
    assert_eq!(
        DisciplineSpec::FifoPlus(Averaging::RunningMean).axis_label(),
        "FIFO+"
    );
    let set = fx::table1().set();
    assert_eq!(set.len(), 2);
    assert_eq!(set.points()[0].tags[0].1, "WFQ");
    assert_eq!(set.points()[1].tags[0].1, "FIFO");
}
