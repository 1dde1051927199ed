//! Measurement-based admission control (Section 9).
//!
//! First walks the Section-9 criterion through a hand-made sequence of
//! reservation requests against a single 1 Mbit/s link, printing each
//! decision and the measurements it was based on; then runs the dynamic
//! experiment from `ispn-experiments` comparing the criterion against an
//! accept-everything policy.
//!
//! Run with: `cargo run --release -p ispn-examples --bin admission_control`
//! (`ISPN_FAST=1` shortens the dynamic experiment).

use ispn_core::admission::{AdmissionConfig, AdmissionController};
use ispn_core::TokenBucketSpec;
use ispn_experiments::cli;
use ispn_experiments::config::PaperConfig;
use ispn_experiments::extensions::admission;
use ispn_experiments::report;
use ispn_sim::SimTime;

fn main() {
    println!("== Static walk-through of the Section-9 criterion ==\n");
    let link = 1_000_000.0;
    let targets = vec![SimTime::from_millis(30), SimTime::from_millis(300)];
    let mut controller = AdmissionController::new(AdmissionConfig::new(link, 0.9, targets), 30.0);

    // Guaranteed reservations first: they are a pure worst-case rate check.
    for rate in [170_000.0, 170_000.0, 85_000.0] {
        let d = controller.request_guaranteed(rate);
        println!("guaranteed request for {:>7.0} bit/s -> {:?}", rate, d);
    }

    // Predicted requests arrive while the link is already measured as busy.
    let bucket = TokenBucketSpec::per_packets(85.0, 50.0, 1000);
    let mut now = SimTime::from_secs(1);
    for step in 0..6 {
        // Simulated measurement feed: utilization creeping up, low class
        // delay approaching its target.
        controller.observe_utilization(now, 400_000.0 + 80_000.0 * step as f64);
        controller.observe_class_delay(now, 1, SimTime::from_millis(40 * step));
        let d = controller.request_predicted(now, bucket, 1);
        let m = controller.measurement(now);
        println!(
            "t={:>2}s  ν̂={:>7.0} bit/s  d̂_low={:>6.1} ms  predicted (A,50) request -> {:?}",
            now.as_secs_f64(),
            m.realtime_util_bps,
            m.class_delay[1].as_millis_f64(),
            d
        );
        now += SimTime::from_secs(1);
    }
    println!(
        "\naccepted {} requests, rejected {}\n",
        controller.accepted(),
        controller.rejected()
    );

    println!("== Dynamic experiment: Section-9 criterion vs accept-everything ==\n");
    let cfg = if cli::fast() {
        PaperConfig::fast()
    } else {
        PaperConfig::medium()
    };
    let (controlled, uncontrolled) = admission::run_comparison(&cfg, 20);
    println!("{}", report::render_admission(&controlled, &uncontrolled));
}
