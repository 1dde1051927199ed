//! The recorded performance trajectory: measure the micro-benchmark
//! workloads and the six experiments' engine counters, and serialize the
//! lot as a structured `BENCH_<pr>.json` snapshot committed at the repo
//! root.
//!
//! Unlike the Criterion benches (interactive, statistical), this harness
//! produces one machine-readable file per PR so the sequence of
//! `BENCH_*.json` files records how per-packet cost, events-per-second
//! throughput and memory footprint move as the codebase grows.  Wall-clock
//! numbers never feed back into simulation output — determinism is
//! untouched.

use std::hint::black_box;
use std::time::{Duration, Instant};

use ispn_scenario::{json_escape, JsonValue, RunTelemetry, WireResult};

/// One measured micro-benchmark workload.
#[derive(Debug, Clone)]
pub struct MicroResult {
    /// Workload label (`sched/…` or `engine/…`).
    pub name: &'static str,
    /// Mean wall-clock nanoseconds per operation (packet, event or draw).
    pub ns_per_op: f64,
    /// Total operations executed inside the measurement window.
    pub ops: u64,
}

/// One experiment's engine-counter snapshot (from its `telemetry_probe`).
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Experiment name (`table1` … `churn`).
    pub name: &'static str,
    /// The probe's run telemetry: events processed, events/sec, peak
    /// queue depth, memory footprint.
    pub telemetry: RunTelemetry,
}

/// Measure one workload: one warm-up call, then repeated calls of
/// `ops_per_call` operations across the measurement window, reporting
/// the fastest of eight sub-window repetitions (robust to transient
/// load on shared hardware).  The fast window (50 ms) is for CI smoke
/// runs; the full window is 500 ms.
pub fn measure_micro(
    name: &'static str,
    work: fn(u64) -> u64,
    ops_per_call: u64,
    fast: bool,
) -> MicroResult {
    let window = if fast {
        Duration::from_millis(50)
    } else {
        Duration::from_millis(500)
    };
    // Split the window into repetitions and record the *fastest* one: a
    // mean over the whole window absorbs every scheduler stall and
    // noisy-neighbour transient on shared hardware, while the minimum
    // estimates the undisturbed cost — which is what a point-to-point
    // trajectory diff needs to be meaningful.
    const REPS: u32 = 8;
    let rep_window = window / REPS;
    black_box(work(ops_per_call));
    let mut best_ns_per_op = f64::INFINITY;
    let mut ops = 0u64;
    for _ in 0..REPS {
        // The snapshot harness measures wall time by design (clippy.toml
        // disallows Instant::now for sim-visible code only).
        #[allow(clippy::disallowed_methods)]
        let started = Instant::now();
        let mut calls = 0u64;
        while calls == 0 || started.elapsed() < rep_window {
            black_box(work(ops_per_call));
            calls += 1;
        }
        let rep_ops = calls * ops_per_call;
        let ns_per_op = started.elapsed().as_nanos() as f64 / rep_ops as f64;
        ops += rep_ops;
        if ns_per_op < best_ns_per_op {
            best_ns_per_op = ns_per_op;
        }
    }
    MicroResult {
        name,
        ns_per_op: best_ns_per_op,
        ops,
    }
}

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`), or `None` where procfs is unavailable.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

/// Serialize a full snapshot as the `BENCH_*.json` document.
pub fn render(
    config_label: &str,
    micro: &[MicroResult],
    experiments: &[ExperimentResult],
    peak_rss: Option<u64>,
) -> String {
    let micro_json: Vec<String> = micro
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\":\"{}\",\"ns_per_op\":{},\"ops\":{}}}",
                json_escape(m.name),
                m.ns_per_op.to_wire_json(),
                m.ops
            )
        })
        .collect();
    let exp_json: Vec<String> = experiments
        .iter()
        .map(|e| {
            format!(
                "    {{\"name\":\"{}\",\"telemetry\":{}}}",
                json_escape(e.name),
                e.telemetry.to_wire_json()
            )
        })
        .collect();
    let rss = match peak_rss {
        Some(b) => b.to_string(),
        None => "null".to_string(),
    };
    format!(
        "{{\n  \"schema\": \"ispn-bench-snapshot/1\",\n  \"config\": \"{}\",\n  \
         \"micro\": [\n{}\n  ],\n  \"experiments\": [\n{}\n  ],\n  \
         \"peak_rss_bytes\": {}\n}}\n",
        json_escape(config_label),
        micro_json.join(",\n"),
        exp_json.join(",\n"),
        rss
    )
}

/// The experiment names a snapshot must cover, in rendering order.
pub const EXPERIMENTS: [&str; 6] = ["table1", "table2", "table3", "hetmix", "mesh", "churn"];

/// Validate a `BENCH_*.json` document against the snapshot schema: the
/// schema tag, at least one `sched/` and one `engine/` micro entry with a
/// positive ns/op, and a telemetry block (events/sec + peak queue depth)
/// for every one of the six experiments.
pub fn validate(text: &str) -> Result<(), String> {
    let v = JsonValue::parse(text).map_err(|e| format!("not valid JSON: {e:?}"))?;
    let err = |m: String| -> Result<(), String> { Err(m) };
    let schema = v
        .field("schema")
        .and_then(|s| s.as_str())
        .map_err(|e| format!("schema tag: {e:?}"))?;
    if schema != "ispn-bench-snapshot/1" {
        return err(format!("unknown schema tag {schema:?}"));
    }
    v.field("config")
        .and_then(|s| s.as_str())
        .map_err(|e| format!("config label: {e:?}"))?;
    let micro = v
        .field("micro")
        .and_then(|m| m.as_array())
        .map_err(|e| format!("micro list: {e:?}"))?;
    let mut has_sched = false;
    let mut has_engine = false;
    for m in micro {
        let name = m
            .field("name")
            .and_then(|n| n.as_str())
            .map_err(|e| format!("micro entry name: {e:?}"))?;
        let ns = m
            .field("ns_per_op")
            .and_then(f64::from_wire_json)
            .map_err(|e| format!("micro {name:?} ns_per_op: {e:?}"))?;
        if ns.is_nan() || ns <= 0.0 {
            return err(format!("micro {name:?} has non-positive ns_per_op {ns}"));
        }
        has_sched |= name.starts_with("sched/");
        has_engine |= name.starts_with("engine/");
    }
    if !has_sched || !has_engine {
        return err("micro list must cover both sched/ and engine/ workloads".to_string());
    }
    let experiments = v
        .field("experiments")
        .and_then(|m| m.as_array())
        .map_err(|e| format!("experiments list: {e:?}"))?;
    for wanted in EXPERIMENTS {
        let entry = experiments
            .iter()
            .find(|e| {
                e.field("name")
                    .and_then(|n| n.as_str())
                    .map(|n| n == wanted)
                    .unwrap_or(false)
            })
            .ok_or_else(|| format!("experiment {wanted:?} missing from snapshot"))?;
        let t = entry
            .field("telemetry")
            .map_err(|e| format!("experiment {wanted:?} telemetry: {e:?}"))?;
        for key in ["events_processed", "events_per_sec", "peak_queue_depth"] {
            t.field(key)
                .map_err(|e| format!("experiment {wanted:?} telemetry {key}: {e:?}"))?;
        }
    }
    match v.field("peak_rss_bytes") {
        Ok(_) => Ok(()),
        Err(e) => err(format!("peak_rss_bytes: {e:?}")),
    }
}

/// Pull `(name, ns_per_op)` for every micro workload out of a parsed
/// snapshot.
fn micro_costs(v: &JsonValue) -> Result<Vec<(String, f64)>, String> {
    let micro = v
        .field("micro")
        .and_then(|m| m.as_array())
        .map_err(|e| format!("micro list: {e:?}"))?;
    let mut out = Vec::new();
    for m in micro {
        let name = m
            .field("name")
            .and_then(|n| n.as_str())
            .map_err(|e| format!("micro entry name: {e:?}"))?;
        let ns = m
            .field("ns_per_op")
            .and_then(f64::from_wire_json)
            .map_err(|e| format!("micro {name:?} ns_per_op: {e:?}"))?;
        out.push((name.to_string(), ns));
    }
    Ok(out)
}

/// Render a human-readable per-workload ns/op comparison of two
/// snapshots (`old` → `new`).  Workloads present in only one snapshot
/// are listed as added/removed rather than failing: the trajectory
/// gains and loses workloads as the codebase grows.  Purely
/// informational — wall-clock deltas depend on the machine, so callers
/// (the CI bench job) must not gate on the output.
pub fn diff_report(old_text: &str, new_text: &str) -> Result<String, String> {
    let old = JsonValue::parse(old_text).map_err(|e| format!("old snapshot: {e:?}"))?;
    let new = JsonValue::parse(new_text).map_err(|e| format!("new snapshot: {e:?}"))?;
    let old_label = old
        .field("config")
        .and_then(|s| s.as_str())
        .unwrap_or("?")
        .to_string();
    let new_label = new
        .field("config")
        .and_then(|s| s.as_str())
        .unwrap_or("?")
        .to_string();
    let old_micro = micro_costs(&old)?;
    let new_micro = micro_costs(&new)?;
    let mut lines = vec![format!(
        "micro ns/op: old ({old_label} config) -> new ({new_label} config)"
    )];
    for (name, new_ns) in &new_micro {
        match old_micro.iter().find(|(n, _)| n == name) {
            Some((_, old_ns)) if *old_ns > 0.0 => {
                let pct = (new_ns - old_ns) / old_ns * 100.0;
                lines.push(format!(
                    "  {name:<40} {old_ns:>10.1} -> {new_ns:>10.1}  ({pct:+.1}%)"
                ));
            }
            _ => lines.push(format!("  {name:<40} {:>10} -> {new_ns:>10.1}", "new")),
        }
    }
    for (name, old_ns) in &old_micro {
        if !new_micro.iter().any(|(n, _)| n == name) {
            lines.push(format!("  {name:<40} {old_ns:>10.1} -> {:>10}", "gone"));
        }
    }
    Ok(lines.join("\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_telemetry() -> RunTelemetry {
        RunTelemetry {
            events_processed: 1000,
            event_queue_high_water: 20,
            peak_queue_depth: 9,
            admission_accepted: 3,
            admission_rejected: 1,
            flow_table_bytes: 2048,
            reservation_state_bytes: 512,
            sched_pool_grow_events: 7,
            sched_pool_segments_high_water: 5,
            wall_s: 0.5,
            events_per_sec: 2000.0,
        }
    }

    #[test]
    fn rendered_snapshot_validates() {
        let micro: Vec<MicroResult> = [("sched/fifo", 12.5), ("engine/event_queue_push_pop", 3.0)]
            .iter()
            .map(|&(name, ns_per_op)| MicroResult {
                name,
                ns_per_op,
                ops: 10_000,
            })
            .collect();
        let experiments: Vec<ExperimentResult> = EXPERIMENTS
            .iter()
            .map(|&name| ExperimentResult {
                name,
                telemetry: sample_telemetry(),
            })
            .collect();
        let text = render("fast", &micro, &experiments, Some(1 << 24));
        validate(&text).expect("a rendered snapshot matches its own schema");
        // And the RSS-unavailable shape is valid too.
        validate(&render("paper", &micro, &experiments, None)).unwrap();
    }

    #[test]
    fn validation_rejects_incomplete_snapshots() {
        assert!(validate("{}").is_err());
        assert!(validate("not json at all").is_err());
        let micro = [MicroResult {
            name: "sched/fifo",
            ns_per_op: 12.5,
            ops: 10_000,
        }];
        // Engine workload missing.
        let text = render("fast", &micro, &[], None);
        assert!(validate(&text).is_err());
        // One experiment missing.
        let micro2 = [
            MicroResult {
                name: "sched/fifo",
                ns_per_op: 12.5,
                ops: 10_000,
            },
            MicroResult {
                name: "engine/pcg64_exponential",
                ns_per_op: 3.0,
                ops: 10_000,
            },
        ];
        let five: Vec<ExperimentResult> = EXPERIMENTS[..5]
            .iter()
            .map(|&name| ExperimentResult {
                name,
                telemetry: sample_telemetry(),
            })
            .collect();
        let text = render("fast", &micro2, &five, None);
        let msg = validate(&text).unwrap_err();
        assert!(msg.contains("churn"), "{msg}");
    }

    #[test]
    fn measure_reports_positive_cost() {
        let m = measure_micro("engine/sum", |n| (0..n).sum(), 1_000, true);
        assert!(m.ns_per_op > 0.0);
        assert!(m.ops >= 1_000);
    }

    #[test]
    fn diff_report_compares_shared_and_flags_changed_workloads() {
        let mk = |pairs: &[(&'static str, f64)]| {
            let micro: Vec<MicroResult> = pairs
                .iter()
                .map(|&(name, ns_per_op)| MicroResult {
                    name,
                    ns_per_op,
                    ops: 1_000,
                })
                .collect();
            render("fast", &micro, &[], None)
        };
        let old = mk(&[("sched/fifo", 10.0), ("engine/old_only", 5.0)]);
        let new = mk(&[("sched/fifo", 8.0), ("engine/new_only", 3.0)]);
        let report = diff_report(&old, &new).unwrap();
        assert!(report.contains("sched/fifo"), "{report}");
        assert!(report.contains("-20.0%"), "{report}");
        assert!(report.contains("engine/new_only"), "{report}");
        assert!(report.contains("engine/old_only"), "{report}");
        assert!(report.contains("gone"), "{report}");
        assert!(diff_report("not json", &new).is_err());
    }

    #[test]
    fn peak_rss_parses_on_linux() {
        // On Linux procfs is present and the value is sane (> 1 MiB for a
        // test binary); elsewhere the probe degrades to None.
        if let Some(b) = peak_rss_bytes() {
            assert!(b > 1 << 20, "implausible VmHWM {b}");
        }
    }
}
