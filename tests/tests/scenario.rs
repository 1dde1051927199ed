//! Scenario-API integration tests.
//!
//! Two families:
//!
//! 1. **Bit-identity goldens.**  The experiment modules were migrated from
//!    hand-wired `Network` setup onto `ispn-scenario`'s declarative
//!    builder; the golden values below were captured from the
//!    pre-migration code at the fast configuration (same seeds) and must
//!    reproduce *exactly* — the scenario API is a redescription, not a
//!    re-simulation.  The churn experiment's accept/reject sequence is
//!    pinned the same way (its utilization floats moved by < 0.1 % when
//!    the facade started attaching admitted sources at their exact accept
//!    instants instead of the old 10 ms polling slices — that timing fix
//!    is the point, and the decision log proves the physics survived).
//!
//! 2. **Event-order regressions.**  The `Sim` facade must deliver
//!    control-plane and data-plane events in global event-time order, and
//!    outcomes must be independent of how coarsely the driver steps
//!    `run_until` — the property the old manual interleave violated.

use ispn_experiments::{churn, fig1, rows, table1, table2, table3, PaperConfig};
use ispn_net::{FlowConfig, FlowReport};
use ispn_scenario::{AdmissionSpec, DisciplineSpec, ScenarioBuilder, Sim};
use ispn_sched::Averaging;
use ispn_signal::SignalEvent;
use ispn_sim::SimTime;

// ---------------------------------------------------------------------------
// 1. Bit-identity goldens (captured pre-migration, PaperConfig::fast()).
// ---------------------------------------------------------------------------

// `all_flows_mean` sums every flow's report, flow 0's for the second time:
// a flow's mean is its record-order fold, the same bits at every report.

#[test]
fn table1_reproduces_pre_migration_outputs_bit_identically() {
    let t = rows(&table1::Sweep {
        cfg: PaperConfig::fast(),
    });
    // (scheduler, mean, p999, all_flows_mean, worst_p999, utilization)
    let golden = [
        (
            "WFQ",
            3.3355440597150543,
            47.47733819399906,
            3.2938106047793725,
            85.96171830199998,
            0.824838748725185,
        ),
        (
            "FIFO",
            3.463461610488011,
            33.67439565799994,
            3.291794575860542,
            35.35185521000003,
            0.824838748725185,
        ),
    ];
    assert_eq!(t.len(), golden.len());
    for (row, g) in t.iter().zip(golden) {
        assert_eq!(row.scheduler, g.0);
        assert_eq!(row.mean, g.1, "{} mean", g.0);
        assert_eq!(row.p999, g.2, "{} p999", g.0);
        assert_eq!(row.all_flows_mean, g.3, "{} all-flows mean", g.0);
        assert_eq!(row.all_flows_worst_p999, g.4, "{} worst p999", g.0);
        assert_eq!(row.utilization, g.5, "{} utilization", g.0);
    }
}

#[test]
fn table2_reproduces_pre_migration_outputs_bit_identically() {
    let points = rows(&table2::Sweep {
        cfg: PaperConfig::fast(),
    });
    // (scheduler, path, mean, p999)
    let golden = [
        ("WFQ", 1, 3.0057837605462834, 35.6406106580001),
        ("WFQ", 2, 4.606674167312848, 47.91391325600015),
        ("WFQ", 3, 7.117294106713581, 68.90921641000027),
        ("WFQ", 4, 8.989058547741752, 63.05348119399974),
        ("FIFO", 1, 3.086512136874048, 27.941521218000116),
        ("FIFO", 2, 4.943311991348443, 37.285791158999714),
        ("FIFO", 3, 7.226810473175021, 57.35817955000014),
        ("FIFO", 4, 9.739795615641112, 60.04022941799985),
        ("FIFO+", 1, 3.086512136874048, 27.941521218000116),
        ("FIFO+", 2, 4.855304831443902, 33.75570668999967),
        ("FIFO+", 3, 6.998426910023445, 41.585382132999925),
        ("FIFO+", 4, 9.7269636483783, 46.323052805999794),
    ];
    let cells: Vec<_> = points.iter().flat_map(|p| &p.cells).collect();
    assert_eq!(cells.len(), golden.len());
    for (c, (scheduler, path, mean, p999)) in cells.into_iter().zip(golden) {
        assert_eq!((c.scheduler, c.path_length), (scheduler, path));
        assert_eq!(c.mean, mean, "{scheduler}/{path} mean");
        assert_eq!(c.p999, p999, "{scheduler}/{path} p999");
    }
    let golden_util = [
        ("WFQ", 0.8297932212273876),
        ("FIFO", 0.8297943850492079),
        ("FIFO+", 0.8297943850492079),
    ];
    for (p, (gname, gutil)) in points.iter().zip(golden_util) {
        assert_eq!(p.scheduler, gname);
        assert_eq!(p.utilization, gutil, "{gname} utilization");
    }
}

#[test]
fn table3_reproduces_pre_migration_outputs_bit_identically() {
    use fig1::FlowKind::*;
    let t = table3::run(&PaperConfig::fast());
    // (kind, path, mean, p999, max)
    let golden = [
        (
            GuaranteedPeak,
            4,
            12.128604819587656,
            16.102953207999995,
            16.521425999999998,
        ),
        (
            GuaranteedPeak,
            2,
            5.98437728839846,
            8.543608400000004,
            8.812675,
        ),
        (
            GuaranteedAverage,
            3,
            60.93809094426528,
            229.54825702400026,
            240.173198,
        ),
        (
            GuaranteedAverage,
            1,
            30.41427521532407,
            191.47930649400027,
            195.37718900000002,
        ),
        (PredictedHigh, 4, 3.195745239634141, 7.332719756, 8.1641),
        (
            PredictedHigh,
            2,
            1.5602691327543443,
            5.566761754000004,
            7.071768,
        ),
        (
            PredictedLow,
            3,
            18.073950812388794,
            95.95861688199977,
            122.827635,
        ),
        (
            PredictedLow,
            1,
            6.72494887969231,
            56.72035609700011,
            61.057106999999995,
        ),
    ];
    assert_eq!(t.rows.len(), golden.len());
    for (kind, path, mean, p999, max) in golden {
        let r = t.row(kind, path).expect("row exists");
        assert_eq!(r.mean, mean, "{kind:?}/{path} mean");
        assert_eq!(r.p999, p999, "{kind:?}/{path} p999");
        assert_eq!(r.max, max, "{kind:?}/{path} max");
    }
    assert_eq!(t.datagram_drop_rate, 0.0);
    assert_eq!(t.mean_utilization, 0.98811779774631);
    assert_eq!(t.realtime_utilization, 0.8296959565471256);
    assert_eq!(t.tcp_goodput_pps, vec![160.7, 155.4]);
}

#[test]
fn extension_studies_reproduce_their_outputs_bit_identically() {
    use ispn_experiments::extensions::{admission, hops, playback, utilization};
    let cfg = PaperConfig::fast();
    let got: Vec<_> = hops::run_sweep(&cfg, &[1, 2, 3])
        .into_iter()
        .map(|p| (p.scheduler, p.hops, p.mean, p.p999))
        .collect();
    // (scheduler, hops, mean, p999)
    let golden = [
        ("WFQ", 1, 3.3355440597150543, 47.47733819399906),
        ("FIFO", 1, 3.463461610488011, 33.67439565799994),
        ("FIFO+", 1, 3.463461610488011, 33.67439565799994),
        ("WFQ", 2, 6.005904627462867, 47.709204543999235),
        ("FIFO", 2, 6.5458719245225865, 38.10820494199992),
        ("FIFO+", 2, 6.989642764170959, 34.292553749999854),
        ("WFQ", 3, 8.789060590661013, 61.63173429599999),
        ("FIFO", 3, 9.573833696877838, 56.84585658199992),
        ("FIFO+", 3, 10.350405122461382, 45.63573230399993),
    ];
    assert_eq!(got, golden);

    let pb = playback::run(&cfg);
    let got = (pb.rigid_loss, pb.rigid_latency, pb.adaptive_loss);
    assert_eq!(got, (0.0, 60.0, 0.002121855107608366));
    assert_eq!((pb.adaptive_latency, pb.samples), (24.47804491633824, 3299));

    // Re-pinned when the study moved onto `Sim::submit`: a source now starts
    // when its confirmation lands, one 1 ms control-packet time after the
    // offer, so one 1000-bit packet (2.5e-5 of 40 s) per run falls past the
    // horizon; every other field reproduces the hand-built study exactly.
    let (c, u) = admission::run_comparison(&cfg, 20);
    let row = |o: &admission::AdmissionOutcome| {
        let delays = (o.worst_high_delay, o.worst_low_delay);
        (o.accepted, o.rejected, o.utilization, delays, o.violations)
    };
    assert_eq!(row(&c), (10, 10, 0.6229617072742383, (0.0, 22.042125), 0));
    assert_eq!(
        row(&u),
        (20, 0, 0.8577816584193552, (4.177521, 482.279943), 10)
    );

    let got: Vec<_> = utilization::run_sweep(&cfg, &[6, 10])
        .into_iter()
        .map(|p| (p.scheduler, p.flows, p.utilization, p.mean, p.p999))
        .collect();
    // (scheduler, flows, utilization, mean, p999)
    #[rustfmt::skip]
    let golden = [
        ("FIFO", 6, 0.5009480748565484, 0.3213904637988486, 2.4970953999999974),
        ("WFQ", 6, 0.5009480748565484, 0.3213904637988486, 2.4970953999999974),
        ("FIFO", 10, 0.824838748725185, 3.463461610488011, 33.67439565799994),
        ("WFQ", 10, 0.824838748725185, 3.3355440597150543, 47.47733819399906),
    ];
    assert_eq!(got, golden);
}

#[test]
fn churn_reproduces_the_pre_migration_decision_sequence() {
    let out = churn::run(&churn::ChurnConfig::new(PaperConfig::fast(), 1.0, 15.0));
    // Captured from the pre-migration slice-stepped driver: same seed,
    // same 40 offered setups, same accept/reject sequence — the exact
    // event-time facade changes *when* admitted sources come alive (by up
    // to one old polling slice), not what the controllers decide.
    let golden: String = "AAAAAAAAAAARRARRAAAARAAAARARAARARAARARAA".into();
    let got: String = out
        .decisions
        .iter()
        .map(|&a| if a { 'A' } else { 'R' })
        .collect();
    assert_eq!(got, golden);
    assert_eq!(out.offered, 40);
    assert_eq!(out.accepted, 29);
    assert_eq!(out.rejected, 11);
    assert_eq!(out.violations, 0);
    assert_eq!(out.residual_reserved_bps, 0.0);
}

/// Two guaranteed setups a second for a mean of four: ~180 requests in
/// 90 s, a handful of them holding at any one time.
fn slow_churn_sim() -> Sim {
    use ispn_scenario::{
        ChurnSourceSpec, ChurnWorkload, DisciplineMatrix, TopologySpec, WorkloadSpec,
    };
    let pt = SimTime::MILLISECOND;
    let forward: Vec<ispn_net::LinkId> = (0..4).map(ispn_net::LinkId).collect();
    let workload = ChurnWorkload {
        arrivals_per_sec: 2.0,
        mean_holding_secs: 4.0,
        seed: 0xB10C,
        guaranteed_fraction: 1.0,
        guaranteed_rate_bps: 150_000.0,
        classes: Vec::new(),
        source: ChurnSourceSpec {
            avg_rate_pps: 85.0,
            seed_base: 0x1992,
        },
    };
    ScenarioBuilder::new(TopologySpec::chain_duplex(5))
        .disciplines(DisciplineMatrix::default().with_links(
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
        .expect("valid churn scenario")
}

/// The flow-slot reclamation regression: under sustained churn the flow
/// table (slots × per-flow state, scheduler lane state included) must track
/// the **concurrent** population, not the total number of requests ever
/// made — departed and rejected flows hand their id slots back through
/// `take_drained_flows`/`recycle_flow_slot`, and the driver reuses them.
#[test]
fn churn_flow_table_is_bounded_by_concurrent_flows_not_total_requests() {
    let mut sim = slow_churn_sim();
    let mut peak_concurrent = 0usize;
    for s in 1..=90u64 {
        sim.run_until(SimTime::from_secs(s));
        peak_concurrent = peak_concurrent.max(sim.churn_admitted().len());
    }
    let decisions = sim.signaling().decisions().len();
    let accepted = sim.signaling().decisions().filter(|&(_, a)| a).count();
    let slots = sim.network().num_flows();
    assert!(
        decisions >= 100,
        "90 s at 2/s must offer plenty: {decisions}"
    );
    assert!(peak_concurrent >= 2, "{peak_concurrent}");
    // Reclamation is what keeps slots << requests: without it, every one
    // of the ~180 requests would hold a slot forever.
    assert!(
        slots < decisions / 2,
        "flow table grew with total requests: {slots} slots for {decisions} requests"
    );
    assert!(
        slots <= 4 * peak_concurrent + 8,
        "slots ({slots}) not bounded by the concurrent population ({peak_concurrent})"
    );
    // The admission history survives reclamation: one measurement record
    // per accepted request, even though ids were reused.
    let reports = sim.churn_flow_reports();
    assert_eq!(reports.len(), accepted);
    assert!(reports.iter().all(|r| r.hops >= 1 && r.hops <= 4));
}

/// 64-bit FNV-1a, folded over one field's little-endian bytes at a time.
fn fnv1a64(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A churn run's `churn_flow_reports` at the end of its configured
/// duration: how many rows there are, the reports of the reclaimed flows'
/// snapshots among them (a live flow is the last admission under its id;
/// every other row was reclaimed), and an FNV-1a digest over every field's
/// bits in admission order.
fn churn_rows(cfg: &churn::ChurnConfig) -> (usize, Vec<FlowReport>, u64) {
    let mut sim = churn::build_sim(cfg);
    sim.run_until(cfg.paper.duration);
    let live: Vec<_> = sim.churn_admitted().iter().map(|r| r.flow).collect();
    let rows = sim.churn_flow_reports();
    let reclaimed = rows.iter().enumerate().filter(|(i, row)| {
        rows[i + 1..].iter().any(|r| r.flow == row.flow) || !live.contains(&row.flow)
    });
    let reclaimed = reclaimed.map(|(_, row)| row.report.clone()).collect();

    let mut h = 0xcbf2_9ce4_8422_2325;
    for row in &rows {
        let (r, priority) = (&row.report, row.priority.map_or(0, |p| u16::from(p) + 1));
        h = fnv1a64(h, &row.flow.0.to_le_bytes());
        h = fnv1a64(h, &priority.to_le_bytes());
        h = fnv1a64(h, &(row.hops as u64).to_le_bytes());
        h = fnv1a64(h, &r.flow.0.to_le_bytes());
        for x in [r.mean_delay, r.p999_delay, r.max_delay] {
            h = fnv1a64(h, &x.to_bits().to_le_bytes());
        }
        for n in [
            r.generated,
            r.delivered,
            r.dropped_at_edge,
            r.dropped_buffer,
            r.dropped_inactive,
        ] {
            h = fnv1a64(h, &n.to_le_bytes());
        }
    }
    (rows.len(), reclaimed, h)
}

/// `churn_flow_reports` pinned whole on the `churn-signal` shape (200
/// setups/s, 75 ms mean holding) at a 20-s horizon, where flow id slots
/// recycle hundreds of times: the row count, and an FNV-1a digest over
/// every field's bits in admission order.  Of the 2 455 rows, 2 442 are
/// reclaimed flows' snapshots and 13 are live; 735 of the reclaimed
/// delivered nothing (a flow departed before its first packet arrived),
/// so the snapshots of silent and of measured flows are both covered.
/// Nothing is dropped in this run and no flow lives past 1 001 packets, so
/// every drop counter is zero and every 99.9th percentile reads the top
/// two samples; the long-holding pin below covers both.
#[test]
fn churn_flow_reports_are_pinned_across_slot_recycling() {
    let paper = PaperConfig {
        duration: SimTime::from_secs(20),
        ..PaperConfig::paper()
    };
    let (rows, reclaimed, h) = churn_rows(&churn::ChurnConfig::new(paper, 200.0, 0.075));
    let silent = reclaimed.iter().filter(|r| r.delivered == 0).count();
    assert_eq!(
        (rows, reclaimed.len(), silent, h),
        (2455, 2442, 735, 0xaf65_86bf_7c84_6688)
    );
}

/// `churn_flow_reports` pinned on the `churn` bin's shape (1 setup/s,
/// 15-s mean holding) over `PaperConfig::fast()`'s 40 s: 29 rows, 9 of
/// them live.  Of the 20 reclaimed flows, 5 lived long enough to deliver
/// more than 1 001 packets, so their 99.9th percentile interpolates below
/// the top two samples, and 4 lost packets to edge policing, so their
/// drop counters are not zero.  (No flow of this shape overflows a buffer,
/// even over 200 s; `ispn-scenario`'s codec tests cover that counter.)
#[test]
fn churn_flow_reports_are_pinned_with_long_holding() {
    let cfg = churn::ChurnConfig::new(PaperConfig::fast(), 1.0, 15.0);
    let (rows, reclaimed, h) = churn_rows(&cfg);
    let long = reclaimed.iter().filter(|r| r.delivered > 1001).count();
    let policed = reclaimed.iter().filter(|r| r.dropped_at_edge > 0).count();
    assert_eq!(
        (rows, reclaimed.len(), long, policed, h),
        (29, 20, 5, 4, 0x59bd_3289_38aa_483a)
    );
}

/// The signalling decision log on the same 20-s `churn-signal` shape: the
/// compact log reads back as the `Vec` the benchmark's traced pass takes,
/// and stays near one byte a request while flow ids recycle.
#[test]
fn churn_decision_log_keeps_about_one_byte_a_request() {
    let paper = PaperConfig {
        duration: SimTime::from_secs(20),
        ..PaperConfig::paper()
    };
    let mut sim = churn::build_sim(&churn::ChurnConfig::new(paper.clone(), 200.0, 0.075));
    sim.run_until(paper.duration);
    let sig = sim.signaling();
    let (decisions, bytes) = (sig.decisions().len(), sig.decision_log_bytes());
    assert_eq!(sig.decision_log(), sig.decisions().collect::<Vec<_>>());
    assert!(decisions > 3_000, "20 s at 200/s: {decisions}");
    assert!(
        bytes as f64 <= 1.25 * decisions as f64,
        "{bytes} B for {decisions} decisions"
    );
}

/// The agent-slot counterpart: every admitted flow gets a source agent,
/// and a departed source's slot is reused once its last timer has fired —
/// the agent table tracks the **concurrent** population, not the number of
/// admissions ever made (it used to grow by one boxed source per admission
/// until exit).
#[test]
fn churn_agent_table_is_bounded_by_concurrent_sources_not_total_admissions() {
    let mut sim = slow_churn_sim();
    let mut peak_concurrent = 0usize;
    for s in 1..=90u64 {
        sim.run_until(SimTime::from_secs(s));
        peak_concurrent = peak_concurrent.max(sim.churn_admitted().len());
    }
    let accepted = sim.signaling().decisions().filter(|&(_, a)| a).count();
    let slots = sim.network().num_agents();
    assert!(accepted >= 30, "90 s at 2/s must admit plenty: {accepted}");
    // `churn_admitted` also counts departed flows whose teardown is still
    // in flight, so it bounds the sources alive at any instant; a retired
    // slot waits at most one source timer before it is free again.
    assert!(
        slots <= peak_concurrent + 4,
        "agent table ({slots} slots) not bounded by the concurrent population \
         ({peak_concurrent}) after {accepted} admissions"
    );
    // The drain retires the rest: a second later nothing is left running.
    sim.drain_churn();
    let events = sim.network().events_processed();
    sim.run_until(SimTime::from_secs(95));
    let settled = sim.network().events_processed();
    sim.run_until(SimTime::from_secs(100));
    // Only the four admission samplers still tick (one event a second
    // each): no source survived the drain.
    assert!(settled > events);
    assert_eq!(sim.network().events_processed() - settled, 4 * 5);
}

#[test]
fn fig1_topology_built_by_the_preset_matches_the_hand_wired_shape() {
    let cfg = PaperConfig::paper();
    let net = fig1::Fig1Network::build(&cfg);
    assert_eq!(net.nodes.len(), 5);
    assert_eq!(net.links.len(), 4);
    assert_eq!(net.reverse_links.len(), 4);
    for i in 0..4 {
        let f = net.topology.link(net.links[i]);
        assert_eq!((f.from, f.to), (net.nodes[i], net.nodes[i + 1]));
        assert_eq!(f.rate_bps, cfg.link_rate_bps);
        assert_eq!(f.buffer_packets, cfg.buffer_packets);
        let r = net.topology.link(net.reverse_links[i]);
        assert_eq!((r.from, r.to), (net.nodes[i + 1], net.nodes[i]));
    }
}

// ---------------------------------------------------------------------------
// 2. Event-order regressions for the Sim facade.
// ---------------------------------------------------------------------------

/// A miniature churn driver over the facade: three staggered setups racing
/// for one link's quota, teardown of the winner, then a retry — enough to
/// interleave control messages, data traffic and scheduled actions.
fn mini_churn(step: Option<SimTime>) -> (Vec<(SimTime, bool)>, String, u64, f64) {
    let mut sim = ScenarioBuilder::chain(3)
        .discipline(DisciplineSpec::Unified {
            priority_classes: 2,
            averaging: Averaging::RunningMean,
        })
        .admission(AdmissionSpec::paper(vec![
            SimTime::from_millis(30),
            SimTime::from_millis(300),
        ]))
        .build()
        .expect("valid scenario");
    let links = sim.built().forward.clone();

    let log: std::rc::Rc<std::cell::RefCell<Vec<(SimTime, bool)>>> = Default::default();
    let log2 = log.clone();
    sim.on_signal(move |event, sim| match event {
        SignalEvent::Accepted { flow, at, .. } => {
            log2.borrow_mut().push((*at, true));
            // An admitted flow starts sending the instant it is confirmed.
            let source = ispn_traffic::CbrSource::new(*flow, 200.0, 1000);
            sim.network_mut().add_agent(Box::new(source));
        }
        SignalEvent::Rejected { at, .. } => log2.borrow_mut().push((*at, false)),
        _ => {}
    });

    for (t, rate) in [(5u64, 500_000.0), (8, 300_000.0), (11, 400_000.0)] {
        let route = links.clone();
        sim.schedule_at(SimTime::from_millis(t), move |sim: &mut Sim| {
            sim.submit(FlowConfig::guaranteed(route, rate));
        });
    }
    // Tear the first winner down at 50 ms, retry the refused rate at 60 ms.
    sim.schedule_at(SimTime::from_millis(50), |sim: &mut Sim| {
        sim.teardown(ispn_core::FlowId(0));
    });
    let route = links.clone();
    sim.schedule_at(SimTime::from_millis(60), move |sim: &mut Sim| {
        sim.submit(FlowConfig::guaranteed(route, 400_000.0));
    });

    let end = SimTime::from_millis(200);
    match step {
        None => {
            sim.run_until(end);
        }
        Some(dt) => {
            let mut t = SimTime::ZERO;
            while t < end {
                t = (t + dt).min(end);
                sim.run_until(t);
            }
        }
    }
    let decisions: String = sim
        .signaling()
        .decisions()
        .map(|(_, a)| if a { 'A' } else { 'R' })
        .collect();
    // The second admitted flow's traffic: delivered count and mean delay
    // must also be step-width independent.
    let r = sim
        .network_mut()
        .monitor_mut()
        .flow_report(ispn_core::FlowId(1));
    let log = log.borrow().clone();
    (log, decisions, r.delivered, r.mean_delay)
}

#[test]
fn facade_delivers_control_events_in_global_event_time_order() {
    let (log, decisions, delivered, _) = mini_churn(None);
    assert!(delivered > 20, "the admitted CBR flow moved traffic");
    assert_eq!(log.len(), 4, "{log:?}");
    // Completions arrive in nondecreasing event time.
    for w in log.windows(2) {
        assert!(w[0].0 <= w[1].0, "out of order: {log:?}");
    }
    // The quota (900 kbit/s) admits 500 k and 300 k, refuses the 400 k
    // while both are up, and admits the 60 ms retry after the teardown.
    assert_eq!(decisions, "AARA");
    // Each setup crosses two 1 Mbit/s links: confirmation exactly 2 ms
    // after submission; the refusal happens at the first hop, instantly.
    assert_eq!(log[0], (SimTime::from_millis(7), true));
    assert_eq!(log[1], (SimTime::from_millis(10), true));
    assert_eq!(log[2], (SimTime::from_millis(11), false));
    assert_eq!(log[3], (SimTime::from_millis(62), true));
}

#[test]
fn outcomes_are_independent_of_stepping_granularity() {
    // The regression the old manual interleave fails: stepping the same
    // same-seed churn run with different slice widths must change nothing,
    // because events are processed at their own times, not at slice
    // boundaries.
    let whole = mini_churn(None);
    let fine = mini_churn(Some(SimTime::from_micros(700)));
    let coarse = mini_churn(Some(SimTime::from_millis(13)));
    assert_eq!(whole, fine);
    assert_eq!(whole, coarse);
}

#[test]
fn full_churn_run_is_deterministic_through_the_facade() {
    // Same-seed churn through the migrated driver: byte-for-byte equal
    // outcomes, including the utilization floats.
    let cfg = churn::ChurnConfig::new(PaperConfig::fast(), 0.8, 15.0);
    let a = churn::run(&cfg);
    let b = churn::run(&cfg);
    assert_eq!(a.decisions, b.decisions);
    assert_eq!(a.mean_utilization, b.mean_utilization);
    assert_eq!(a.worst_bound_fraction, b.worst_bound_fraction);
}
