//! Run the extension experiments (hop sweep, playback, admission control,
//! utilization sweep).
//!
//! Usage: `cargo run --release -p ispn-experiments --bin extensions`;
//! `ISPN_FAST=1` runs the short configuration.

use ispn_experiments::cli;
use ispn_experiments::config::PaperConfig;
use ispn_experiments::extensions::{admission, hops, playback, utilization};
use ispn_experiments::report;

fn main() {
    let cfg = if cli::fast() {
        PaperConfig::fast()
    } else {
        PaperConfig::medium()
    };
    eprintln!(
        "running extension experiments ({} simulated seconds per run)...",
        cfg.duration.as_secs_f64()
    );

    let points = hops::run_sweep(&cfg, &[1, 2, 3, 4, 5, 6]);
    println!("{}", report::render_hops(&points));

    let pb = playback::run(&cfg);
    println!("{}", report::render_playback(&pb));

    let (controlled, uncontrolled) = admission::run_comparison(&cfg, 20);
    println!("{}", report::render_admission(&controlled, &uncontrolled));

    let util = utilization::run_sweep(&cfg, &[6, 8, 9, 10, 11]);
    println!("{}", report::render_utilization(&util));
}
