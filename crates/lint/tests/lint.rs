//! End-to-end tests for `ispn-lint`: the fixture corpus (one known-bad and
//! one known-good source per rule), the workspace-wide `unreached-pub` rule
//! over small in-memory workspaces, waiver round-trips, the baseline drift
//! guard, a seeded-violation run over a temp workspace tree, and a
//! self-check that the real workspace is clean under the committed baseline.

use std::path::{Path, PathBuf};

use ispn_lint::rules::Finding;
use ispn_lint::waiver::BaselineEntry;
use ispn_lint::{run_files, run_sources, run_workspace, Report};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path:?}: {e}"))
}

/// Lint a workspace of `(path, source)` files against an empty baseline.
fn lint(files: &[(&str, &str)]) -> Report {
    let files: Vec<_> = files
        .iter()
        .map(|&(path, src)| (path.to_string(), src.to_string()))
        .collect();
    run_sources(&files, &[])
}

/// Lint one source as if it lived at workspace-relative `path` (rule
/// scoping is path-based).
fn analyze_source(path: &str, src: &str) -> Report {
    lint(&[(path, src)])
}

/// Lint fixture `name` as if it lived at workspace-relative `path` and
/// return the unwaived findings.
fn lint_fixture(name: &str, path: &str) -> Vec<Finding> {
    analyze_source(path, &fixture(name)).findings
}

fn rules_hit(findings: &[Finding]) -> Vec<&'static str> {
    let mut ids: Vec<&'static str> = findings.iter().map(|f| f.rule).collect();
    ids.dedup();
    ids
}

// ---------------------------------------------------------------- fixtures

#[test]
fn wall_clock_fixture_pair() {
    let bad = lint_fixture("wall_clock_bad.rs", "crates/sim/src/fixture.rs");
    assert_eq!(rules_hit(&bad), ["wall-clock"]);
    assert_eq!(bad.len(), 3, "Instant::now x2 + SystemTime::now: {bad:?}");
    assert!(bad.iter().all(|f| f.line > 0 && f.col > 0));

    let good = lint_fixture("wall_clock_good.rs", "crates/sim/src/fixture.rs");
    assert!(good.is_empty(), "{good:?}");

    // The same bad source is clean inside the scope-exempt shims.
    let shim = lint_fixture("wall_clock_bad.rs", "crates/shims/proptest/src/fixture.rs");
    assert!(shim.is_empty(), "{shim:?}");
}

#[test]
fn hash_order_fixture_pair() {
    let bad = lint_fixture("hash_order_bad.rs", "crates/net/src/fixture.rs");
    assert_eq!(rules_hit(&bad), ["hash-order"]);
    assert!(bad.len() >= 3, "use lines + field + ctor: {bad:?}");

    let good = lint_fixture("hash_order_good.rs", "crates/net/src/fixture.rs");
    assert!(good.is_empty(), "{good:?}");

    // Outside sim-visible crates the rule does not apply at all.
    let tool = lint_fixture("hash_order_bad.rs", "crates/lint/src/fixture.rs");
    assert!(tool.is_empty(), "{tool:?}");
}

#[test]
fn float_wire_fixture_pair() {
    let wire = "crates/scenario/src/sweep/fixture.rs";
    let bad = lint_fixture("float_wire_bad.rs", wire);
    assert_eq!(rules_hit(&bad), ["float-wire"]);
    assert_eq!(bad.len(), 2, "{{:.6}} and {{:e}}: {bad:?}");

    let good = lint_fixture("float_wire_good.rs", wire);
    assert!(good.is_empty(), "{good:?}");

    // The rule is scoped to the protocol directory only.
    let elsewhere = lint_fixture("float_wire_bad.rs", "crates/stats/src/fixture.rs");
    assert!(elsewhere.is_empty(), "{elsewhere:?}");
}

#[test]
fn unsafe_safety_fixture_pair() {
    let bad = lint_fixture("unsafe_safety_bad.rs", "crates/core/src/fixture.rs");
    assert_eq!(rules_hit(&bad), ["unsafe-safety"]);

    let good = lint_fixture("unsafe_safety_good.rs", "crates/core/src/fixture.rs");
    assert!(good.is_empty(), "{good:?}");
}

#[test]
fn allow_justify_fixture_pair() {
    let bad = lint_fixture("allow_justify_bad.rs", "crates/core/src/fixture.rs");
    assert_eq!(rules_hit(&bad), ["allow-justify"]);
    assert_eq!(bad.len(), 2, "{bad:?}");

    let good = lint_fixture("allow_justify_good.rs", "crates/core/src/fixture.rs");
    assert!(good.is_empty(), "{good:?}");
}

#[test]
fn panic_path_fixture_pair() {
    let worker = "crates/scenario/src/sweep/worker.rs";
    let bad = lint_fixture("panic_path_bad.rs", worker);
    assert_eq!(rules_hit(&bad), ["panic-path"]);
    assert_eq!(bad.len(), 3, "unwrap + expect + indexing: {bad:?}");

    let good = lint_fixture("panic_path_good.rs", worker);
    assert!(good.is_empty(), "{good:?}");

    // Request-path hygiene is scoped to the three protocol files.
    let elsewhere = lint_fixture("panic_path_bad.rs", "crates/scenario/src/sweep/fixture.rs");
    assert!(elsewhere.is_empty(), "{elsewhere:?}");
}

/// The slot-table idiom the hot-path refactor introduced (dense
/// `slot_of` index vectors into lane tables): direct indexing with wire
/// data must still be flagged inside worker request paths, and the
/// `get`-plus-sentinel form must pass clean.
#[test]
fn panic_path_slot_table_fixture_pair() {
    let worker = "crates/scenario/src/sweep/worker.rs";
    let bad = lint_fixture("panic_path_slot_bad.rs", worker);
    assert_eq!(rules_hit(&bad), ["panic-path"]);
    assert_eq!(bad.len(), 2, "slot_of[…] + lanes[…]: {bad:?}");

    let good = lint_fixture("panic_path_slot_good.rs", worker);
    assert!(good.is_empty(), "{good:?}");

    // Engine crates may keep the direct-indexed hot path.
    let engine = lint_fixture("panic_path_slot_bad.rs", "crates/sched/src/fixture.rs");
    assert!(engine.is_empty(), "{engine:?}");
}

// ----------------------------------------------------------- unreached-pub

/// The `(name, path)` of every `unreached-pub` finding.
fn unreached(report: &Report) -> Vec<(String, &str)> {
    let name = |f: &Finding| f.message.split('`').nth(1).unwrap_or("").to_string();
    report
        .findings
        .iter()
        .filter(|f| f.rule == "unreached-pub")
        .map(|f| (name(f), f.path.as_str()))
        .collect()
}

const LIB: &str = "crates/core/src/lib.rs";

#[test]
fn items_only_tests_name_are_unreached() {
    let lib = "\
pub fn tested_only() {}
pub struct Fixture;
pub(crate) const unsafe fn qualified() {}
pub(crate) const LIMIT: u32 = 3;
pub fn called() {}
pub(crate) fn helper() -> u32 { LIMIT }
fn private_is_never_reported() {}
#[cfg(test)]
mod tests {
    pub fn test_helper() {}
    #[test]
    fn t() { super::tested_only(); test_helper(); }
}
";
    let report = lint(&[
        (LIB, lib),
        (
            "crates/core/tests/it.rs",
            "fn t() { let _ = ispn_core::Fixture; }",
        ),
        (
            "tests/tests/flows.rs",
            "fn t() { ispn_core::tested_only(); }",
        ),
        (
            "crates/net/src/lib.rs",
            "// called() in a comment is no call\nfn f() { called(); helper(); }",
        ),
    ]);
    assert_eq!(
        unreached(&report),
        [
            ("pub fn tested_only".to_string(), LIB),
            ("pub struct Fixture".to_string(), LIB),
            ("pub fn qualified".to_string(), LIB),
        ]
    );
    assert_eq!(report.findings[0].line, 1);
}

#[test]
fn examples_and_the_benchmark_are_callers() {
    let lib = "pub fn for_examples() {}\npub fn for_the_benchmark() {}\npub fn for_nobody() {}\n";
    let report = lint(&[
        (LIB, lib),
        (
            "examples/quickstart.rs",
            "fn main() { ispn_core::for_examples(); }",
        ),
        (
            "benchmark/src/main.rs",
            "fn main() { ispn_core::for_the_benchmark(); }",
        ),
    ]);
    assert_eq!(unreached(&report), [("pub fn for_nobody".to_string(), LIB)]);
    // Out of scope: the shims and the two test-harness modules declare
    // nothing the rule reports.
    let harness = "pub fn check_discipline() {}\n";
    for path in [
        "crates/shims/proptest/src/lib.rs",
        "crates/sched/src/conformance.rs",
        "crates/scenario/src/sweep/testing.rs",
    ] {
        assert!(unreached(&lint(&[(path, harness)])).is_empty(), "{path}");
    }
}

#[test]
fn a_re_export_is_not_a_caller() {
    let module = "pub struct Exported;\npub fn also_exported() {}\n";
    let lib = "pub mod m;\npub use m::{also_exported, Exported};\n";
    let report = lint(&[("crates/core/src/m.rs", module), (LIB, lib)]);
    assert_eq!(unreached(&report).len(), 2, "{:?}", report.findings);
    // A plain `use` is an import some code acts on, so it counts.
    let user = "use ispn_core::Exported;\nfn f() { ispn_core::also_exported(); }\n";
    let report = lint(&[
        ("crates/core/src/m.rs", module),
        (LIB, lib),
        ("crates/net/src/lib.rs", user),
    ]);
    assert!(unreached(&report).is_empty(), "{:?}", report.findings);
}

#[test]
fn an_unreached_baseline_entry_goes_stale_once_called_or_deleted() {
    let baseline = [BaselineEntry {
        rule: "unreached-pub".to_string(),
        path: LIB.to_string(),
        line: 2,
        reason: "test oracle for the drift test".to_string(),
        src_line: 7,
    }];
    let lib = "pub fn called() {}\npub fn oracle() -> u32 { 0 }\n";
    let caller = "fn f() { ispn_core::called(); }";
    let run = |files: &[(&str, &str)]| {
        let files: Vec<_> = files
            .iter()
            .map(|&(p, s)| (p.to_string(), s.to_string()))
            .collect();
        run_sources(&files, &baseline)
    };
    let report = run(&[(LIB, lib), ("crates/net/src/lib.rs", caller)]);
    assert!(report.is_clean(), "{:?}", report.findings);
    assert_eq!(report.baselined, 1);

    // The oracle gains a production caller: the entry goes stale.
    let called = "fn f() { ispn_core::called(); ispn_core::oracle(); }";
    let report = run(&[(LIB, lib), ("crates/net/src/lib.rs", called)]);
    assert_eq!(rules_hit(&report.findings), ["stale-baseline"]);
    assert_eq!(report.findings[0].line, 7);

    // The oracle is deleted: stale again.
    let report = run(&[
        (LIB, "pub fn called() {}\n"),
        ("crates/net/src/lib.rs", caller),
    ]);
    assert_eq!(rules_hit(&report.findings), ["stale-baseline"]);
}

// ----------------------------------------------------------------- waivers

#[test]
fn waiver_suppresses_only_named_rule_on_target_line() {
    let src = "\
// ispn-lint: allow(wall-clock) -- telemetry fixture\n\
let t = std::time::Instant::now();\n\
let u = std::time::Instant::now();\n";
    let out = analyze_source("crates/sim/src/fixture.rs", src);
    assert_eq!(out.waived, 1);
    assert_eq!(out.findings.len(), 1, "{:?}", out.findings);
    assert_eq!(out.findings[0].line, 3, "second read is not covered");
}

#[test]
fn malformed_and_stale_waivers_are_findings() {
    let missing_reason = "// ispn-lint: allow(wall-clock)\nlet x = 1;\n";
    let out = analyze_source("crates/sim/src/fixture.rs", missing_reason);
    assert_eq!(rules_hit(&out.findings), ["bad-waiver"]);

    let stale = "// ispn-lint: allow(wall-clock) -- excuses nothing\nlet x = 1;\n";
    let out = analyze_source("crates/sim/src/fixture.rs", stale);
    assert_eq!(rules_hit(&out.findings), ["stale-waiver"]);
    assert!(out.findings[0].message.contains("suppresses nothing"));
}

#[test]
fn waiver_round_trips_through_render_text() {
    // A waiver written in the documented syntax parses back to the same
    // rule set and reason, and survives target resolution through an
    // attribute.
    let src = "\
// ispn-lint: allow(wall-clock, hash-order) -- dual-purpose telemetry cache\n\
#[allow(dead_code)] // justified: fixture\n\
let m: std::collections::HashMap<u8, std::time::Instant> = Default::default();\n";
    let out = analyze_source("crates/sim/src/fixture.rs", src);
    assert!(
        out.findings.is_empty(),
        "waiver failed to round-trip: {:?}",
        out.findings
    );
    assert_eq!(out.waived, 1, "HashMap type mention waived via hash-order");
}

// ---------------------------------------------------------- baseline drift

#[test]
fn baseline_entry_suppresses_exact_site_and_goes_stale_on_drift() {
    let root = tempdir("ispn-lint-drift");
    let file = root.join("crates/net/src/table.rs");
    std::fs::create_dir_all(file.parent().unwrap()).unwrap();
    std::fs::write(
        &file,
        "use std::collections::HashMap;\ntype T = HashMap<u8, u8>;\n",
    )
    .unwrap();
    let files = vec![PathBuf::from("crates/net/src/table.rs")];

    let entry = |line: u32| BaselineEntry {
        rule: "hash-order".to_string(),
        path: "crates/net/src/table.rs".to_string(),
        line,
        reason: "grandfathered for the drift test".to_string(),
        src_line: 5,
    };

    // Exact match on both findings' lines: clean, both baselined.
    let baseline = vec![entry(1), entry(2)];
    let report = run_files(&root, &files, &baseline).unwrap();
    assert!(report.is_clean(), "{:?}", report.findings);
    assert_eq!(report.baselined, 2);

    // Drift: the entry's line no longer matches → the original finding
    // comes back AND the stale entry is itself a finding.
    let baseline = vec![entry(1), entry(99)];
    let report = run_files(&root, &files, &baseline).unwrap();
    let ids = rules_hit(&report.findings);
    assert!(ids.contains(&"hash-order"), "{ids:?}");
    assert!(ids.contains(&"stale-baseline"), "{ids:?}");
    let stale = report
        .findings
        .iter()
        .find(|f| f.rule == "stale-baseline")
        .unwrap();
    assert_eq!(stale.path, "lint-allow.toml");
    assert_eq!(stale.line, 5, "diagnostic points at the baseline entry");

    std::fs::remove_dir_all(&root).ok();
}

// ------------------------------------------------------- seeded violation

#[test]
fn seeded_violation_fails_with_rule_file_and_line() {
    let root = tempdir("ispn-lint-seeded");
    let file = root.join("crates/sched/src/seeded.rs");
    std::fs::create_dir_all(file.parent().unwrap()).unwrap();
    std::fs::write(
        &file,
        "fn tick() -> std::time::Instant {\n    std::time::Instant::now()\n}\n",
    )
    .unwrap();

    let report = run_workspace(&root).unwrap();
    assert!(!report.is_clean());
    assert_eq!(report.findings.len(), 1);
    let f = &report.findings[0];
    assert_eq!(f.rule, "wall-clock");
    assert_eq!(f.path, "crates/sched/src/seeded.rs");
    assert_eq!(f.line, 2);
    assert_eq!(f.snippet, "std::time::Instant::now()");

    // The rendered diagnostic carries all three coordinates.
    let text = ispn_lint::render_text(&report);
    assert!(text.contains("crates/sched/src/seeded.rs:2:"), "{text}");
    assert!(text.contains("[wall-clock]"), "{text}");

    // And the JSON form is machine-readable with the same fields.
    let json = ispn_lint::render_json(&report);
    assert!(json.contains("\"rule\":\"wall-clock\""), "{json}");
    assert!(json.contains("\"line\":2"), "{json}");

    std::fs::remove_dir_all(&root).ok();
}

// ------------------------------------------------------ workspace self-test

/// The real workspace root (two levels above this crate's manifest).
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap()
}

#[test]
fn real_workspace_is_clean_under_committed_baseline() {
    let report = run_workspace(&workspace_root()).unwrap();
    assert!(
        report.is_clean(),
        "the committed tree must lint clean:\n{}",
        ispn_lint::render_text(&report)
    );
    assert!(
        report.files > 50,
        "walk found the workspace: {}",
        report.files
    );
    assert!(
        report.waived > 0,
        "the telemetry waivers exist and still anchor"
    );
}

#[test]
fn lint_output_is_deterministic() {
    let root = workspace_root();
    let a = ispn_lint::render_json(&run_workspace(&root).unwrap());
    let b = ispn_lint::render_json(&run_workspace(&root).unwrap());
    assert_eq!(a, b);
}

// ------------------------------------------------------------------- util

fn tempdir(tag: &str) -> PathBuf {
    // Keyed by PID only — no wall-clock — so reruns reuse and overwrite.
    let dir = std::env::temp_dir().join(format!("{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}
