//! Regenerate Table 3 of CSZ'92 (the unified scheduler carrying guaranteed,
//! predicted and datagram traffic on the Figure-1 chain).
//!
//! Usage: `cargo run --release -p ispn-experiments --bin table3 [--seeds N]`
//! plus the sweep flags every sweep bin shares (see `ispn_experiments::cli`);
//! `ISPN_FAST=1` runs the short configuration.
//!
//! `--seeds N` replicates the table across `N` derived seeds — a seed-axis
//! sweep, one printed table per seed: the paper reports one random run;
//! the sweep shows how much the sample rows move.  Without it the run is
//! the paper's single table, in-process (the sweep flags have nothing to
//! fan out).  A `--serve` listener needs the same `--seeds N` as its
//! parent so both build the same axis.

use ispn_experiments::{cli, report, table3, PaperConfig};

/// The most seeds `--seeds N` may ask for.  Each is a whole Table-3 run,
/// and the axis is built before the first point runs, so a larger count
/// is a typo, not a sweep.
const MAX_SEEDS: usize = 100_000;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let cfg = if cli::fast() {
        PaperConfig::fast()
    } else {
        PaperConfig::paper()
    };
    let seeds = cli::parse_count(&args, "--seeds").unwrap_or(1);
    if seeds > MAX_SEEDS {
        eprintln!("--seeds takes at most {MAX_SEEDS} seeds, got {seeds}");
        std::process::exit(2);
    }
    let serving = cli::is_sweep_worker(&args) || cli::parse_serve(&args).is_some();
    if seeds == 1 && !serving {
        if cli::parse_count(&args, "--workers").is_some() {
            eprintln!("--workers applies to the seed sweep; a single-seed run stays in-process");
        }
        if cli::parse_telemetry(&args).is_some() {
            eprintln!("--telemetry applies to the seed sweep; pass `--seeds N` with N > 1");
        }
        eprintln!(
            "running Table 3 ({} simulated seconds)...",
            cfg.duration.as_secs_f64()
        );
        println!("{}", report::render_table3(&table3::run(&cfg)));
        return;
    }
    let seeds = (0..seeds as u64)
        .map(|i| cfg.seed.wrapping_add(i))
        .collect();
    cli::main(&table3::Sweep { cfg, seeds }, &args);
}
