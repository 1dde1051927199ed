//! End-to-end tests for `ispn-lint`: the `float-wire` fixture pair, the
//! workspace-wide `unreached-pub` rule over small in-memory workspaces,
//! waiver round-trips, the item-keyed baseline, a seeded-violation run over
//! a temp workspace tree, and a self-check that the real workspace is clean
//! under the committed baseline.  The rules clippy carries are pinned by
//! CI's planted-violation step instead.

use std::path::{Path, PathBuf};

use ispn_lint::rules::Finding;
use ispn_lint::waiver::BaselineEntry;
use ispn_lint::{run_sources, run_workspace, Report};

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
fn float_wire_fixture_pair() {
    let wire = "crates/scenario/src/sweep/fixture.rs";
    let bad = lint_fixture("float_wire_bad.rs", wire);
    assert_eq!(rules_hit(&bad), ["float-wire"]);
    assert_eq!(bad.len(), 7, "one per line of the fixture: {bad:?}");

    let good = lint_fixture("float_wire_good.rs", wire);
    assert!(good.is_empty(), "{good:?}");

    // The rule is scoped to the protocol directory only.
    let elsewhere = lint_fixture("float_wire_bad.rs", "crates/stats/src/fixture.rs");
    assert!(elsewhere.is_empty(), "{elsewhere:?}");
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

/// Lint a workspace of `(path, source)` files against one baseline entry
/// sanctioning `oracle` in [`LIB`].
fn lint_with_oracle_entry(files: &[(&str, &str)]) -> Report {
    let baseline = [BaselineEntry {
        rule: "unreached-pub".to_string(),
        path: LIB.to_string(),
        item: "oracle".to_string(),
        reason: "test oracle for the drift test".to_string(),
        src_line: 7,
    }];
    let files: Vec<_> = files
        .iter()
        .map(|&(p, s)| (p.to_string(), s.to_string()))
        .collect();
    run_sources(&files, &baseline)
}

#[test]
fn an_unreached_baseline_entry_goes_stale_once_called_or_deleted() {
    let lib = "pub fn called() {}\npub fn oracle() -> u32 { 0 }\n";
    let caller = "fn f() { ispn_core::called(); }";
    let run = lint_with_oracle_entry;
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

#[test]
fn an_item_keyed_entry_survives_lines_inserted_above_the_item() {
    let caller = ("crates/net/src/lib.rs", "fn f() { ispn_core::called(); }");
    let lib = "pub fn called() {}\npub fn oracle() -> u32 { 0 }\n";
    let moved =
        "// A new header.\n\nuse std::fmt;\n\npub fn called() {}\n\npub fn oracle() -> u32 { 0 }\n";
    for src in [lib, moved] {
        let report = lint_with_oracle_entry(&[(LIB, src), caller]);
        assert!(report.is_clean(), "{:?}", report.findings);
        assert_eq!(report.baselined, 1);
    }
}

// ----------------------------------------------------------------- waivers

/// Where `float-wire` applies.
const WIRE: &str = "crates/scenario/src/sweep/fixture.rs";

#[test]
fn waiver_suppresses_only_named_rule_on_target_line() {
    let src = "\
// ispn-lint: allow(float-wire) -- human-facing fixture\n\
let a = format!(\"{:.3}\", x);\n\
let b = format!(\"{:.3}\", x);\n";
    let out = analyze_source(WIRE, src);
    assert_eq!(out.waived, 1);
    assert_eq!(out.findings.len(), 1, "{:?}", out.findings);
    assert_eq!(out.findings[0].line, 3, "second format is not covered");
}

#[test]
fn malformed_and_stale_waivers_are_findings() {
    let missing_reason = "// ispn-lint: allow(float-wire)\nlet x = 1;\n";
    let out = analyze_source(WIRE, missing_reason);
    assert_eq!(rules_hit(&out.findings), ["bad-waiver"]);

    let stale = "// ispn-lint: allow(float-wire) -- excuses nothing\nlet x = 1;\n";
    let out = analyze_source(WIRE, stale);
    assert_eq!(rules_hit(&out.findings), ["stale-waiver"]);
    assert!(out.findings[0].message.contains("suppresses nothing"));
}

#[test]
fn waiver_round_trips_through_render_text() {
    // A waiver written in the documented syntax parses back to the same
    // rule set and reason, and survives target resolution through an
    // attribute: one comment waives both rules' findings on its target.
    let src = "\
// ispn-lint: allow(float-wire, unreached-pub) -- dual-purpose fixture\n\
#[expect(dead_code, reason = \"fixture\")]\n\
pub const FORMAT: &str = \"{:.3}\";\n";
    let out = analyze_source(WIRE, src);
    assert!(
        out.findings.is_empty(),
        "waiver failed to round-trip: {}",
        ispn_lint::render_text(&out)
    );
    assert_eq!(out.waived, 2, "the format string and the unreached const");
}

// ---------------------------------------------------------- baseline drift

/// Write `text` to `rel` under `root`, creating directories.
fn write(root: &Path, rel: &str, text: &str) {
    let path = root.join(rel);
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(path, text).unwrap();
}

#[test]
fn baseline_entry_suppresses_exact_site_and_goes_stale_on_drift() {
    let root = tempdir("ispn-lint-drift");
    write(
        &root,
        "lint-allow.toml",
        "# baseline\n\n[[allow]]\nrule = \"unreached-pub\"\npath = \"crates/core/src/lib.rs\"\n\
         item = \"oracle\"\nreason = \"test oracle for the drift test\"\n",
    );

    // The named item is unreached: clean, baselined.
    write(&root, LIB, "pub fn oracle() -> u32 { 0 }\n");
    let report = run_workspace(&root).unwrap();
    assert!(report.is_clean(), "{:?}", report.findings);
    assert_eq!(report.baselined, 1);

    // Drift: the item is renamed → its finding comes back AND the stale
    // entry is itself a finding.
    write(&root, LIB, "pub fn renamed_oracle() -> u32 { 0 }\n");
    let report = run_workspace(&root).unwrap();
    let ids = rules_hit(&report.findings);
    assert!(ids.contains(&"unreached-pub"), "{ids:?}");
    assert!(ids.contains(&"stale-baseline"), "{ids:?}");
    let stale = report
        .findings
        .iter()
        .find(|f| f.rule == "stale-baseline")
        .unwrap();
    assert_eq!(stale.path, "lint-allow.toml");
    assert_eq!(stale.line, 3, "diagnostic points at the baseline entry");

    std::fs::remove_dir_all(&root).ok();
}

// ------------------------------------------------------- seeded violation

#[test]
fn seeded_violation_fails_with_rule_file_and_line() {
    let root = tempdir("ispn-lint-seeded");
    write(
        &root,
        "crates/scenario/src/sweep/seeded.rs",
        "fn encode(v: f64) -> String {\n    format!(\"{v:.3}\")\n}\n",
    );
    // Outside `crates/` waivers are not read: a comment naming a rule that
    // no longer exists is no `bad-waiver` there.
    let retired = "// ispn-lint: allow(wall-clock) -- measures the host\nfn main() {}\n";
    write(&root, "benchmark/src/clock.rs", retired);
    write(&root, "examples/quickstart.rs", retired);

    let report = run_workspace(&root).unwrap();
    assert_eq!(report.files, 3);
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    let f = &report.findings[0];
    assert_eq!(f.rule, "float-wire");
    assert_eq!(f.path, "crates/scenario/src/sweep/seeded.rs");
    assert_eq!(f.line, 2);
    assert_eq!(f.snippet, "format!(\"{v:.3}\")");

    // The rendered diagnostic carries all three coordinates.
    let text = ispn_lint::render_text(&report);
    assert!(
        text.contains("crates/scenario/src/sweep/seeded.rs:2:"),
        "{text}"
    );
    assert!(text.contains("[float-wire]"), "{text}");

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
        "the float-wire waivers exist and still anchor"
    );
}

#[test]
fn lint_output_is_deterministic() {
    let root = workspace_root();
    let a = ispn_lint::render_text(&run_workspace(&root).unwrap());
    let b = ispn_lint::render_text(&run_workspace(&root).unwrap());
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
