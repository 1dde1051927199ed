//! `ispn-benchmark` — the repo's repeatable benchmark.
//!
//! ```text
//! ispn-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!                [--check-repeat] [--bless]
//! ```
//!
//! Run from the repository root (or from `benchmark/`).  Without
//! `--workload` every workload runs; without `--trace` both passes run
//! (end to end first, then traced).  Each pass prints its metrics by name
//! with their units and ends with one JSON result line.  See `README.md`
//! beside this package for the definitions.

use std::path::PathBuf;
use std::process::ExitCode;

use ispn_benchmark::golden::Goldens;
use ispn_benchmark::harness::{Harness, Outcome};
use ispn_benchmark::json::{int, num, obj, render, text};
use ispn_benchmark::layers::{self, TraceRequest};
use ispn_benchmark::metrics::{is_exact, END_TO_END, PER_LAYER};
use ispn_benchmark::rep;
use ispn_benchmark::workloads::{RunSpec, Workload, GOLDEN_SEED, PAPER_HORIZON_S};
use ispn_scenario::JsonValue;

/// Seconds one pass measures for unless `--seconds` says otherwise
/// (`run_seconds` in `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 25.0;

const USAGE: &str = "usage: ispn-benchmark [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1] [--check-repeat] [--bless]";

/// The value following `flag`, if the flag is present.
fn value_of<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(v) => Ok(Some(v)),
            None => Err(format!("{flag} needs a value")),
        },
    }
}

fn parsed<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    value_of(args, flag)?
        .map(|v| v.parse().map_err(|_| format!("{flag}: cannot read {v:?}")))
        .transpose()
}

fn workload_of(args: &[String]) -> Result<Option<Workload>, String> {
    value_of(args, "--workload")?
        .map(|name| {
            Workload::from_name(name).ok_or_else(|| {
                let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!("unknown workload {name:?}; known: {}", known.join(", "))
            })
        })
        .transpose()
}

/// The child side: `ispn-benchmark rep …`, one simulation rep.
fn rep_main(args: &[String]) -> Result<(), String> {
    let workload = workload_of(args)?.ok_or("rep needs --workload")?;
    let spec = RunSpec {
        seed: parsed(args, "--seed")?.ok_or("rep needs --seed")?,
        horizon_s: parsed(args, "--horizon-s")?.ok_or("rep needs --horizon-s")?,
    };
    let result = match value_of(args, "--trace-out")? {
        None => rep::run(workload, spec),
        Some(out) => layers::run_traced(
            workload,
            spec,
            &TraceRequest {
                out: PathBuf::from(out),
                budget_s: parsed(args, "--budget-s")?.ok_or("a traced rep needs --budget-s")?,
                untraced_run_s: parsed(args, "--untraced-run-s")?
                    .ok_or("a traced rep needs --untraced-run-s")?,
            },
        ),
    };
    result.map_err(|e| format!("rep failed: {e}"))
}

/// One pass's result line: exactly the keys the benchmark contract names.
fn result_line(outcome: &Outcome, catalogue: &[(&str, &str)]) -> String {
    let metrics = catalogue.iter().map(|&(name, unit)| {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        (name, obj([("value", num(value)), ("unit", text(unit))]))
    });
    render(&obj([
        ("correct", JsonValue::Bool(outcome.ops.failed == 0)),
        ("attempted", int(outcome.ops.attempted)),
        ("failed", int(outcome.ops.failed)),
        ("metrics", obj(metrics)),
    ]))
}

fn print_pass(title: &str, outcome: &Outcome, catalogue: &[(&str, &str)]) {
    println!("== {title} ==");
    for &(name, unit) in catalogue {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        println!("  {name:<38} {value:>16.6} {unit}");
    }
    for note in &outcome.notes {
        println!("  {note}");
    }
    for failure in &outcome.ops.failures {
        println!("  FAILED {failure}");
    }
    println!(
        "  operations: {} attempted, {} failed",
        outcome.ops.attempted, outcome.ops.failed
    );
    println!("{}", result_line(outcome, catalogue));
}

/// What the command line selected.
struct Selection {
    workloads: Vec<Workload>,
    /// `Some(false)`: end to end only; `Some(true)`: traced only.
    trace: Option<bool>,
    seed: u64,
    seconds: f64,
}

/// One full set: the selected passes over the selected workloads.  Returns
/// the outcomes in order, and whether every operation passed.
fn run_set(harness: &Harness, sel: &Selection) -> std::io::Result<(Vec<(String, Outcome)>, bool)> {
    let end_to_end: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    let mut outcomes = Vec::new();
    let mut correct = true;
    for &workload in &sel.workloads {
        let label = format!(
            "{} seed {:#x}, {} s",
            workload.name(),
            sel.seed,
            sel.seconds
        );
        if sel.trace != Some(true) {
            let outcome = harness.end_to_end(workload, sel.seed, sel.seconds)?;
            print_pass(&format!("{label}, end to end"), &outcome, &end_to_end);
            correct &= outcome.ops.failed == 0;
            outcomes.push((format!("{} end to end", workload.name()), outcome));
        }
        if sel.trace != Some(false) {
            let outcome = harness.traced(workload, sel.seed, sel.seconds)?;
            print_pass(&format!("{label}, traced"), &outcome, &PER_LAYER);
            correct &= outcome.ops.failed == 0;
            outcomes.push((format!("{} traced", workload.name()), outcome));
        }
    }
    Ok((outcomes, correct))
}

/// Compare two sets of the same selection: every end-to-end median within
/// its bound, every exact count identical.  Returns the disagreements.
fn disagreements(first: &[(String, Outcome)], second: &[(String, Outcome)]) -> Vec<String> {
    let mut found = Vec::new();
    for ((pass, a), (_, b)) in first.iter().zip(second) {
        for (name, &x) in &a.metrics {
            let y = b.metrics.get(name).copied().unwrap_or(f64::NAN);
            if let Some(metric) = END_TO_END.iter().find(|m| m.name == name) {
                let moved = (y - x).abs() / x.abs();
                println!(
                    "  {pass:<28} {name:<16} {x:>14.6} {y:>14.6}  {:>6.2} % (bound {} %)",
                    100.0 * moved,
                    100.0 * metric.bound
                );
                if moved.is_nan() || moved > metric.bound {
                    found.push(format!("{pass}: {name} moved {:.2} %", 100.0 * moved));
                }
            } else if is_exact(name) && x != y {
                found.push(format!("{pass}: exact metric {name} read {x} then {y}"));
            }
        }
    }
    found
}

fn bench_main(args: &[String]) -> Result<ExitCode, String> {
    let bench_dir = ["benchmark", "."]
        .into_iter()
        .map(PathBuf::from)
        .find(|dir| dir.join("golden").is_dir() && dir.join("Cargo.toml").is_file())
        .ok_or("run from the repository root: no benchmark/golden here")?;
    let harness = Harness {
        exe: std::env::current_exe().map_err(|e| e.to_string())?,
        goldens: Goldens::new(bench_dir.join("golden")),
        out_dir: bench_dir.join("out"),
        bench_dir,
        horizon_s: PAPER_HORIZON_S,
    };
    let sel = Selection {
        workloads: workload_of(args)?.map_or(Workload::ALL.to_vec(), |w| vec![w]),
        trace: match value_of(args, "--trace")? {
            None => None,
            Some("0") => Some(false),
            Some("1") => Some(true),
            Some(other) => return Err(format!("--trace takes 0 or 1, not {other:?}")),
        },
        seed: parsed(args, "--seed")?.unwrap_or(GOLDEN_SEED),
        seconds: parsed(args, "--seconds")?.unwrap_or(DEFAULT_SECONDS),
    };
    let io = |e: std::io::Error| format!("benchmark failed: {e}");

    if args.iter().any(|a| a == "--bless") {
        for &workload in &sel.workloads {
            harness.bless(workload).map_err(io)?;
            println!("blessed the golden of {}", workload.name());
        }
        return Ok(ExitCode::SUCCESS);
    }

    let (first, mut correct) = run_set(&harness, &sel).map_err(io)?;
    if args.iter().any(|a| a == "--check-repeat") {
        let (second, second_correct) = run_set(&harness, &sel).map_err(io)?;
        correct &= second_correct;
        println!("== repeatability: first set against second ==");
        let found = disagreements(&first, &second);
        for line in &found {
            println!("  DISAGREES {line}");
        }
        println!(
            "  {}",
            if found.is_empty() {
                "the two sets agree: every end-to-end median within its bound, every exact \
                 count identical"
            } else {
                "the two sets disagree"
            }
        );
        correct &= found.is_empty();
    }
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().is_some_and(|a| a == "rep") {
        rep_main(&args).map(|()| ExitCode::SUCCESS)
    } else if args.first().is_some_and(|a| a == "reference") {
        print!("{}", ispn_benchmark::reference::checksum());
        Ok(ExitCode::SUCCESS)
    } else if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        Ok(ExitCode::SUCCESS)
    } else {
        bench_main(&args)
    };
    result.unwrap_or_else(|why| {
        eprintln!("ispn-benchmark: {why}\n{USAGE}");
        ExitCode::from(2)
    })
}
