//! The benchmark's self-tests: the real harness and the real rep binary at
//! a five-simulated-second horizon, with goldens and output in a scratch
//! directory per test.

use std::path::{Path, PathBuf};

use ispn_benchmark::golden::Goldens;
use ispn_benchmark::harness::Harness;
use ispn_benchmark::metrics::{is_exact, END_TO_END, PER_LAYER};
use ispn_benchmark::workloads::{Workload, GOLDEN_SEED};
use ispn_scenario::JsonValue;

const SIMULATION: [Workload; 3] = [
    Workload::LinkWfq,
    Workload::ChainUnified,
    Workload::ChurnSignal,
];

/// A harness over the built binary with its own scratch goldens and output.
fn harness(tag: &str) -> Harness {
    let scratch = std::env::temp_dir().join(format!("ispn-benchmark-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    Harness {
        exe: PathBuf::from(env!("CARGO_BIN_EXE_ispn-benchmark")),
        bench_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")),
        goldens: Goldens::new(scratch.join("golden")),
        out_dir: scratch.join("out"),
        horizon_s: 5,
    }
}

fn number(doc: &JsonValue, key: &str) -> f64 {
    doc.field(key).and_then(JsonValue::as_f64).unwrap()
}

#[test]
fn traced_runs_keep_the_digest_close_the_ledger_and_repeat_every_exact_metric() {
    for workload in SIMULATION {
        let h = harness(&format!("traced-{}", workload.name()));
        h.bless(workload).unwrap();
        // A non-golden seed: the untraced reps must agree on one digest
        // and the traced rep must reproduce it, recorders and all.
        let first = h.traced(workload, 7, 0.0).unwrap();
        assert_eq!(first.ops.failures, Vec::<String>::new(), "{workload:?}");
        assert!(
            first.ops.attempted >= 13,
            "set-up, 5 reps, a reference child beside each, the traced rep"
        );

        let trace = std::fs::read_to_string(h.out_path(&format!("trace-{}.json", workload.name())))
            .unwrap();
        let doc = JsonValue::parse(trace.trim()).unwrap();
        let ledger = doc.field("ledger").unwrap();
        let explained: f64 = (ledger.field("rows").unwrap().as_array().unwrap().iter())
            .map(|row| number(row, "share"))
            .sum();
        let residue = number(ledger, "residue_share");
        assert!(
            (explained + residue - 1.0).abs() < 1e-9,
            "{workload:?}: shares {explained} + residue {residue}"
        );
        assert_eq!(first.metrics["net.residue_share"], residue);
        assert!(doc.field("spans").unwrap().as_array().unwrap().len() > 10);

        let second = h.traced(workload, 7, 0.0).unwrap();
        assert_eq!(second.ops.failed, 0);
        for (name, _) in PER_LAYER {
            if is_exact(name) {
                assert_eq!(
                    first.metrics.get(name),
                    second.metrics.get(name),
                    "{workload:?}: exact metric {name}"
                );
            }
        }
        assert!(first.metrics["sim.events"] > 0.0 && first.metrics["sched.pkts"] > 0.0);
    }
}

#[test]
fn the_golden_seed_passes_against_a_fresh_golden_and_reports_every_end_to_end_metric() {
    let h = harness("e2e");
    h.bless(Workload::ChurnSignal).unwrap();
    let out = h
        .end_to_end(Workload::ChurnSignal, GOLDEN_SEED, 0.0)
        .unwrap();
    assert_eq!(out.ops.failures, Vec::<String>::new());
    assert_eq!(
        out.ops.attempted, 12,
        "set-up and five timed reps, a reference child before each"
    );
    for metric in END_TO_END {
        assert!(out.metrics[metric.name] > 0.0, "{}", metric.name);
    }
}

#[test]
fn a_corrupted_or_missing_golden_is_a_failed_operation_not_a_panic() {
    let h = harness("corrupt");
    // Six reps meet the golden (set-up and five timed ones); the six
    // reference children beside them pass.
    let missing = h.end_to_end(Workload::LinkWfq, GOLDEN_SEED, 0.0).unwrap();
    assert_eq!((missing.ops.failed, missing.ops.attempted), (6, 12));
    assert!(missing.ops.failures[0].contains("no readable golden"));

    h.bless(Workload::LinkWfq).unwrap();
    let path = h.out_dir.parent().unwrap().join("golden/link-wfq.golden");
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[40] ^= 1;
    std::fs::write(&path, bytes).unwrap();
    let corrupted = h.end_to_end(Workload::LinkWfq, GOLDEN_SEED, 0.0).unwrap();
    assert_eq!((corrupted.ops.failed, corrupted.ops.attempted), (6, 12));
    assert!(corrupted.ops.failures[0].contains("differs from its golden at byte 40"));
    // At another seed only the set-up rep meets the golden.
    let other = h.end_to_end(Workload::LinkWfq, 7, 0.0).unwrap();
    assert_eq!((other.ops.failed, other.ops.attempted), (1, 12));
}

#[test]
fn the_sweep_workload_passes_end_to_end_against_its_golden() {
    let h = harness("sweep");
    h.bless(Workload::SweepPipes).unwrap();
    let out = h
        .end_to_end(Workload::SweepPipes, GOLDEN_SEED, 0.0)
        .unwrap();
    assert_eq!(out.ops.failures, Vec::<String>::new());
    for metric in END_TO_END {
        assert!(out.metrics[metric.name] > 0.0, "{}", metric.name);
    }
}

#[test]
fn benchmark_json_names_the_catalogue() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = JsonValue::parse(std::fs::read_to_string(path).unwrap().trim()).unwrap();
    let names = |key: &str, fields: &[&str]| -> Vec<Vec<String>> {
        (doc.field(key).unwrap().as_array().unwrap().iter())
            .map(|entry| {
                fields
                    .iter()
                    .map(|f| match entry.field(f).unwrap() {
                        JsonValue::Str(s) => s.clone(),
                        other => other.as_f64().unwrap().to_string(),
                    })
                    .collect()
            })
            .collect()
    };
    let workloads: Vec<Vec<String>> = Workload::ALL
        .iter()
        .map(|w| vec![w.name().to_string(), w.why().to_string()])
        .collect();
    assert_eq!(names("workloads", &["name", "why"]), workloads);
    let end_to_end: Vec<Vec<String>> = END_TO_END
        .iter()
        .map(|m| {
            vec![
                m.name.to_string(),
                m.unit.to_string(),
                "lower".to_string(),
                m.bound.to_string(),
            ]
        })
        .collect();
    assert_eq!(
        names("end_to_end", &["name", "unit", "better", "bound"]),
        end_to_end
    );
    let per_layer: Vec<Vec<String>> = PER_LAYER
        .iter()
        .map(|(name, unit)| vec![name.to_string(), unit.to_string()])
        .collect();
    assert_eq!(names("per_layer", &["name", "unit"]), per_layer);
}
