//! Integration: end-to-end run telemetry.  The counters are deterministic
//! across same-seed runs, and switching telemetry on changes nothing in a
//! report except the one appended `telemetry` key — the golden tables
//! cannot move.

use ispn_core::FlowId;
use ispn_experiments::churn::{self, ChurnConfig};
use ispn_experiments::config::PaperConfig;
use ispn_experiments::table3;
use ispn_scenario::{
    FlowDef, LinkProfile, MeasurementPlan, RunTelemetry, ScenarioBuilder, Sim, SourceSpec,
};
use ispn_sim::SimTime;

fn assert_deterministic_counters_match(a: &RunTelemetry, b: &RunTelemetry) {
    // Everything except `wall_s` / `events_per_sec`, which are wall-clock.
    assert_eq!(a.events_processed, b.events_processed);
    assert_eq!(a.event_queue_high_water, b.event_queue_high_water);
    assert_eq!(a.peak_queue_depth, b.peak_queue_depth);
    assert_eq!(a.admission_accepted, b.admission_accepted);
    assert_eq!(a.admission_rejected, b.admission_rejected);
    assert_eq!(a.flow_table_bytes, b.flow_table_bytes);
    assert_eq!(a.reservation_state_bytes, b.reservation_state_bytes);
    assert_eq!(a.delay_sample_bytes, b.delay_sample_bytes);
}

fn small_sim() -> Sim {
    ScenarioBuilder::chain(2)
        .link_profile(LinkProfile {
            rate_bps: 1_000_000.0,
            propagation: SimTime::ZERO,
            buffer_packets: 20,
        })
        .flows((0..4).map(|i| {
            FlowDef::best_effort_realtime(0, 1).source(SourceSpec::onoff_paper(29.4, 7 + i))
        }))
        .build()
        .expect("the scenario is valid")
}

/// Run `sim` to `horizon` and return the engine's counters.
fn telemetry_of(mut sim: Sim, horizon: SimTime) -> RunTelemetry {
    sim.run_until(horizon);
    sim.report(&MeasurementPlan::default().with_run_telemetry())
        .telemetry
        .expect("run telemetry was requested")
}

#[test]
fn same_seed_runs_report_identical_counters() {
    let horizon = PaperConfig::fast().duration;
    let a = telemetry_of(small_sim(), horizon);
    let b = telemetry_of(small_sim(), horizon);
    assert_deterministic_counters_match(&a, &b);
    assert!(a.events_processed > 0);
    assert!(a.peak_queue_depth > 0);
    assert!(a.flow_table_bytes > 0);
}

#[test]
fn table3_probe_counts_the_full_unified_scenario() {
    let cfg = PaperConfig::fast();
    let a = telemetry_of(table3::build(&cfg).sim, cfg.duration);
    let b = telemetry_of(table3::build(&cfg).sim, cfg.duration);
    assert_deterministic_counters_match(&a, &b);
    // 22 classed flows plus TCP: a busier event loop than the single link.
    assert!(a.events_processed > telemetry_of(small_sim(), cfg.duration).events_processed);
}

/// Table 3's fast run stores its delays in a byte count pinned here: the
/// packed blocks and raw tails of every flow as the run left them, a
/// deterministic function of the delays and their order (a `Vec<u32>` a
/// flow took four bytes a sample).  A change to the store's layout moves
/// it, and must say so.
#[test]
fn table3_fast_run_stores_its_delays_in_a_pinned_byte_count() {
    let cfg = PaperConfig::fast();
    let mut sim = table3::build(&cfg).sim;
    sim.run_until(cfg.duration);
    let net = sim.network();
    let samples: u64 = (0..net.num_flows())
        .map(|i| net.monitor().flow_counters(FlowId(i as u32)).delivered)
        .sum();
    let t = sim
        .report(&MeasurementPlan::default().with_run_telemetry())
        .telemetry
        .expect("run telemetry was requested");
    // 2.88 bytes a sample.
    assert_eq!((t.delay_sample_bytes, samples), (282_969, 98_120));
}

#[test]
fn churn_probe_sees_admission_verdicts_and_reservation_state() {
    let paper = PaperConfig::fast();
    let churn_sim = || churn::build_sim(&ChurnConfig::new(paper.clone(), 1.0, 15.0));
    let t = telemetry_of(churn_sim(), paper.duration);
    // Churn is the one experiment with live signaling: the admission
    // counters and the reservation footprint must be visible.
    assert!(t.admission_accepted > 0, "{t:?}");
    assert_deterministic_counters_match(&t, &telemetry_of(churn_sim(), paper.duration));
}

#[test]
fn telemetry_on_appends_one_key_and_changes_nothing_else() {
    let mut off_sim = small_sim();
    off_sim.run_until(SimTime::from_secs(10));
    let off = off_sim.report(&MeasurementPlan::default()).to_json();

    let mut on_sim = small_sim();
    on_sim.run_until(SimTime::from_secs(10));
    let on = on_sim
        .report(&MeasurementPlan::default().with_run_telemetry())
        .to_json();

    // The telemetry-off JSON carries no telemetry key at all…
    assert!(!off.contains("\"telemetry\""));
    // …and the telemetry-on JSON is byte-identical up to the single
    // appended key before the closing brace.
    let prefix = off.strip_suffix('}').expect("a JSON object");
    assert!(on.starts_with(prefix), "non-telemetry fields moved");
    assert!(on[prefix.len()..].starts_with(",\"telemetry\":{"));
    assert!(on.ends_with("}}"));
}
