//! Record one point of the repo's performance trajectory.
//!
//! Usage (from the workspace root, the single documented command):
//!
//! ```text
//! ISPN_BENCH_FAST=1 cargo run --release -p ispn-bench --bin snapshot
//! ```
//!
//! Measures the per-packet scheduling, engine and per-request signaling
//! micro-workloads (ns/op), runs one representative scenario per
//! experiment with run telemetry enabled (events/sec, peak queue depth,
//! memory footprint), and writes the structured snapshot to
//! `BENCH_16.json` — override with `--out FILE`.  `--check FILE` validates an existing snapshot against
//! the schema instead (the CI smoke job), and `--diff OLD [NEW]`
//! prints the per-workload ns/op movement between two recorded
//! snapshots (`NEW` defaults to the current default output file).
//! The diff always exits 0: wall-clock deltas are machine-dependent
//! and must never gate a build.

use ispn_bench::{bench_config, micro, snapshot};

const DEFAULT_OUT: &str = "BENCH_16.json";

/// Packets per call for the scheduling workloads.
const SCHED_OPS: u64 = 10_000;
/// Events per call for the event-queue workload, draws for the RNG.
const ENGINE_OPS: u64 = 10_000;
/// Setup requests per call for the churn workload (20 simulated seconds).
const SIGNAL_OPS: u64 = 4_000;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--check") {
        let Some(path) = args.get(i + 1) else {
            eprintln!("--check needs a file, e.g. `snapshot --check BENCH_7.json`");
            std::process::exit(2);
        };
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        });
        match snapshot::validate(&text) {
            Ok(()) => println!("{path}: snapshot schema OK"),
            Err(msg) => {
                eprintln!("{path}: {msg}");
                std::process::exit(1);
            }
        }
        return;
    }
    if let Some(i) = args.iter().position(|a| a == "--diff") {
        let Some(old_path) = args.get(i + 1) else {
            eprintln!("--diff needs a file, e.g. `snapshot --diff BENCH_7.json [BENCH_9.json]`");
            std::process::exit(2);
        };
        let new_path = args
            .get(i + 2)
            .filter(|a| !a.starts_with("--"))
            .map(String::as_str)
            .unwrap_or(DEFAULT_OUT);
        let read = |path: &str| {
            std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(1);
            })
        };
        let (old_text, new_text) = (read(old_path), read(new_path));
        match snapshot::diff_report(&old_text, &new_text) {
            Ok(report) => println!("{old_path} -> {new_path}\n{report}"),
            // Still exit 0: an unreadable old snapshot (schema drift across
            // PRs) downgrades the diff to a note, it never fails the job.
            Err(msg) => println!("snapshot diff unavailable: {msg}"),
        }
        return;
    }
    let out = match args.iter().position(|a| a == "--out") {
        None => DEFAULT_OUT.to_string(),
        Some(i) => args.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("--out needs a file, e.g. `snapshot --out BENCH_7.json`");
            std::process::exit(2);
        }),
    };

    let fast = std::env::var("ISPN_BENCH_FAST")
        .map(|v| v == "1")
        .unwrap_or(false);
    let cfg = bench_config();
    let label = if fast { "fast" } else { "paper" };

    let mut micro_results = Vec::new();
    for (name, work) in micro::sched_workloads() {
        eprintln!("measuring {name} …");
        micro_results.push(snapshot::measure_micro(name, work, SCHED_OPS, fast));
    }
    for (name, work) in micro::engine_workloads() {
        eprintln!("measuring {name} …");
        micro_results.push(snapshot::measure_micro(name, work, ENGINE_OPS, fast));
    }
    for (name, work) in micro::signal_workloads() {
        eprintln!("measuring {name} …");
        micro_results.push(snapshot::measure_micro(name, work, SIGNAL_OPS, fast));
    }

    type Probe = fn(&ispn_experiments::config::PaperConfig) -> ispn_scenario::RunTelemetry;
    let probes: [(&str, Probe); 6] = [
        ("table1", ispn_experiments::table1::telemetry_probe),
        ("table2", ispn_experiments::table2::telemetry_probe),
        ("table3", ispn_experiments::table3::telemetry_probe),
        ("hetmix", ispn_experiments::hetmix::telemetry_probe),
        ("mesh", ispn_experiments::mesh::telemetry_probe),
        ("churn", ispn_experiments::churn::telemetry_probe),
    ];
    let mut experiments = Vec::new();
    for (name, probe) in probes {
        eprintln!(
            "probing {name} ({} simulated seconds) …",
            cfg.duration.as_secs_f64()
        );
        let telemetry = probe(&cfg);
        eprintln!(
            "  {} events, {:.0} events/s, peak queue depth {}, \
             flow table {} B, pool {} grows / {} segs peak",
            telemetry.events_processed,
            telemetry.events_per_sec,
            telemetry.peak_queue_depth,
            telemetry.flow_table_bytes,
            telemetry.sched_pool_grow_events,
            telemetry.sched_pool_segments_high_water
        );
        experiments.push(snapshot::ExperimentResult { name, telemetry });
    }

    let text = snapshot::render(
        label,
        &micro_results,
        &experiments,
        snapshot::peak_rss_bytes(),
    );
    snapshot::validate(&text).expect("a freshly rendered snapshot matches the schema");
    if let Err(e) = std::fs::write(&out, &text) {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {out} ({label} config)");
}
