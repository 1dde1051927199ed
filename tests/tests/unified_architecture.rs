//! Integration: the complete architecture on the Figure-1 network — the
//! Table-3 scenario built through `ispn-experiments`, checked for the
//! paper's qualitative claims, plus determinism and seed-sensitivity of the
//! whole stack.

use ispn_experiments::config::PaperConfig;
use ispn_experiments::fig1::FlowKind;
use ispn_experiments::{table1, table3};
use ispn_scenario::DisciplineSpec;
use ispn_sim::SimTime;

fn fast() -> PaperConfig {
    PaperConfig {
        duration: SimTime::from_secs(30),
        ..PaperConfig::paper()
    }
}

#[test]
fn unified_scheduler_honours_every_guaranteed_bound_on_figure_1() {
    let t = table3::run(&fast());
    for row in &t.rows {
        if let Some(bound) = row.pg_bound {
            assert!(
                row.max <= bound,
                "{} over {} hops: max {:.2} exceeds bound {:.2}",
                row.kind.label(),
                row.path_length,
                row.max,
                bound
            );
        }
    }
}

#[test]
fn predicted_high_beats_predicted_low_and_peak_beats_average() {
    let t = table3::run(&fast());
    let mean = |k, h| t.row(k, h).unwrap().mean;
    // Guaranteed-Peak (clocked at the peak rate) sees far less queueing than
    // Guaranteed-Average (clocked at the average rate).
    assert!(mean(FlowKind::GuaranteedPeak, 4) < mean(FlowKind::GuaranteedAverage, 3));
    assert!(mean(FlowKind::GuaranteedPeak, 2) < mean(FlowKind::GuaranteedAverage, 1));
    // High-priority predicted service sees less queueing than low-priority.
    assert!(mean(FlowKind::PredictedHigh, 2) < mean(FlowKind::PredictedLow, 1) + 5.0);
    assert!(
        t.row(FlowKind::PredictedHigh, 4).unwrap().p999
            < t.row(FlowKind::PredictedLow, 3).unwrap().p999
    );
}

#[test]
fn datagram_tcp_fills_the_leftover_capacity_with_small_loss() {
    let t = table3::run(&fast());
    // Real-time traffic alone is ~83.5%; with the TCP connections the links
    // run well above that.
    assert!(t.realtime_utilization > 0.77 && t.realtime_utilization < 0.90);
    assert!(
        t.mean_utilization > t.realtime_utilization + 0.08,
        "TCP should add at least 8% utilization: {} vs {}",
        t.mean_utilization,
        t.realtime_utilization
    );
    assert!(
        t.datagram_drop_rate < 0.05,
        "drop rate {}",
        t.datagram_drop_rate
    );
    assert_eq!(t.tcp_goodput_pps.len(), 2);
    for g in &t.tcp_goodput_pps {
        assert!(*g > 20.0, "TCP goodput {g}");
    }
}

#[test]
fn whole_stack_is_deterministic_for_a_fixed_seed() {
    let a = table3::run(&fast());
    let b = table3::run(&fast());
    for (ra, rb) in a.rows.iter().zip(b.rows.iter()) {
        assert_eq!(ra.mean, rb.mean);
        assert_eq!(ra.p999, rb.p999);
        assert_eq!(ra.max, rb.max);
    }
    assert_eq!(a.datagram_drop_rate, b.datagram_drop_rate);
    assert_eq!(a.mean_utilization, b.mean_utilization);
}

#[test]
fn different_seeds_change_the_numbers_but_not_the_shape() {
    let cfg_a = fast();
    let cfg_b = PaperConfig { seed: 7, ..fast() };
    let a = table1::run_single_link(&cfg_a, DisciplineSpec::Fifo);
    let b = table1::run_single_link(&cfg_b, DisciplineSpec::Fifo);
    assert_ne!(a.mean, b.mean, "different seeds give different samples");
    // But both land in the same regime (83.5% load FIFO queueing).
    for r in [&a, &b] {
        assert!(r.mean > 0.5 && r.mean < 15.0, "{r:?}");
        assert!(r.p999 > r.mean);
    }
}
