//! `ispn-lint` — the workspace determinism & safety analyzer.
//!
//! This reproduction's guarantees — tables 1–3 bit-identity, the churn
//! decision-sequence golden, serial vs `--workers` vs `--hosts`
//! byte-identity — rest on coding conventions that no compiler checks: no
//! sim-visible wall-clock reads, no iteration over randomized-hasher maps,
//! floats crossing the wire only through the exact `{:?}` codec, panics in
//! worker paths staying per-point poisons.  `ispn-lint` turns those
//! conventions into a compile-time gate: a dependency-free static analyzer
//! (hand-rolled lexer, no `syn` — the workspace builds offline) that walks
//! every workspace `.rs` file, enforces the rule set in
//! [`rules::RULES`], and fails CI on any unwaived finding.
//!
//! Sanctioned exceptions are machine-checkable waivers (see [`waiver`]):
//! inline comments in the form `ispn-lint: allow(<rule>) -- <reason>` right
//! above (or trailing) the excused line, plus the committed
//! `lint-allow.toml` baseline for grandfathered sites.  Waivers without
//! reasons, waivers that no longer match a finding, and stale baseline
//! entries are themselves findings, so the gate only ever ratchets.
//!
//! Run it from the workspace root:
//!
//! ```text
//! cargo run -p ispn-lint                     # report findings
//! cargo run -p ispn-lint -- --deny           # CI gate: exit 1 on findings
//! cargo run -p ispn-lint -- --json           # machine-readable output
//! cargo run -p ispn-lint -- --rules          # print the rule catalog
//! cargo run -p ispn-lint -- --update-baseline
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod lexer;
pub mod rules;
pub mod waiver;

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use rules::Finding;
use waiver::BaselineEntry;

/// Directory names never descended into during the workspace walk.
const SKIP_DIRS: &[&str] = &["target", ".git", ".github"];

/// Path prefixes excluded from the walk: the lint's own fixture corpus is
/// deliberately full of violations.
const SKIP_PREFIXES: &[&str] = &["crates/lint/tests/fixtures"];

/// The outcome of linting a workspace.
#[derive(Debug, Default)]
pub struct Report {
    /// Unwaived findings (including `bad-waiver`/`stale-waiver`/
    /// `stale-baseline` meta-findings), sorted by path, line, column.
    pub findings: Vec<Finding>,
    /// Findings suppressed by inline waivers.
    pub waived: usize,
    /// Findings suppressed by `lint-allow.toml` entries.
    pub baselined: usize,
    /// Number of `.rs` files scanned.
    pub files: usize,
}

impl Report {
    /// True when the workspace is clean under `--deny` semantics.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Analysis of a single file: findings after inline-waiver filtering, plus
/// the bookkeeping the engine needs for baseline matching.
#[derive(Debug, Default)]
struct FileAnalysis {
    /// Findings not suppressed by an inline waiver (baseline not yet
    /// applied), plus `bad-waiver`/`stale-waiver` meta-findings.
    findings: Vec<Finding>,
    /// Findings suppressed by inline waivers.
    waived: usize,
}

/// Lint one lexed file as if it lived at workspace-relative `path`: the
/// per-file rules' hits plus `hits` from the workspace-wide ones, filtered
/// through the file's inline waivers.
fn analyze(path: &str, src: &str, lex: &lexer::LexFile, mut hits: Vec<rules::Hit>) -> FileAnalysis {
    hits.extend(rules::check_file(path, lex));
    let waivers = waiver::collect(lex);
    let lines: Vec<&str> = src.lines().collect();
    let snippet = |line: u32| {
        lines
            .get(line.saturating_sub(1) as usize)
            .map_or(String::new(), |l| l.trim().to_string())
    };

    let mut out = FileAnalysis::default();
    let mut used = vec![false; waivers.len()];
    for (rule, line, col, message) in hits {
        let covered = waivers.iter().enumerate().find(|(_, w)| {
            w.malformed.is_none() && w.target == line && w.rules.iter().any(|r| r == rule)
        });
        if let Some((i, _)) = covered {
            used[i] = true;
            out.waived += 1;
        } else {
            out.findings.push(Finding {
                rule,
                path: path.to_string(),
                line,
                col,
                message,
                snippet: snippet(line),
            });
        }
    }
    for (w, used) in waivers.iter().zip(&used) {
        if let Some(why) = &w.malformed {
            out.findings.push(Finding {
                rule: "bad-waiver",
                path: path.to_string(),
                line: w.line,
                col: w.col,
                message: format!("malformed waiver: {why}"),
                snippet: snippet(w.line),
            });
        } else if !used {
            out.findings.push(Finding {
                rule: "stale-waiver",
                path: path.to_string(),
                line: w.line,
                col: w.col,
                message: format!(
                    "waiver for `{}` suppresses nothing (target line {}): the code it \
                     excused moved or was fixed — delete or re-anchor it",
                    w.rules.join(", "),
                    w.target
                ),
                snippet: snippet(w.line),
            });
        }
    }
    out.findings
        .sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    out
}

/// Collect every workspace `.rs` file under `root`, workspace-relative and
/// sorted (the lint's own output must be deterministic).
pub fn workspace_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    walk(root, root, &mut files)?;
    files.sort();
    Ok(files)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            let rel = rel_str(root, &path);
            if SKIP_PREFIXES.iter().any(|p| rel.starts_with(p)) {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path.strip_prefix(root).unwrap_or(&path).to_path_buf());
        }
    }
    Ok(())
}

fn rel_str(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Load and parse `lint-allow.toml` at the workspace root.  A missing file
/// is an empty baseline; a malformed one is an error (the baseline is part
/// of the gate, it must always parse).
pub fn load_baseline(root: &Path) -> Result<Vec<BaselineEntry>, String> {
    let path = root.join("lint-allow.toml");
    if !path.exists() {
        return Ok(Vec::new());
    }
    let text = fs::read_to_string(&path).map_err(|e| format!("reading {path:?}: {e}"))?;
    waiver::parse_baseline(&text)
}

/// Lint the whole workspace rooted at `root`.
pub fn run_workspace(root: &Path) -> Result<Report, String> {
    let baseline = load_baseline(root)?;
    let files = workspace_files(root).map_err(|e| format!("walking {root:?}: {e}"))?;
    run_files(root, &files, &baseline)
}

/// Lint the given workspace-relative files against a baseline.
pub fn run_files(
    root: &Path,
    files: &[PathBuf],
    baseline: &[BaselineEntry],
) -> Result<Report, String> {
    let mut sources = Vec::with_capacity(files.len());
    for file in files {
        let src =
            fs::read_to_string(root.join(file)).map_err(|e| format!("reading {file:?}: {e}"))?;
        sources.push((rel_str(Path::new(""), file), src));
    }
    Ok(run_sources(&sources, baseline))
}

/// Lint a workspace given as `(workspace-relative path, source)` pairs —
/// the in-memory core of [`run_files`], which the workspace-wide
/// `unreached-pub` rule needs whole.  Tests feed it known-bad sources
/// under pretend paths (rule scoping is path-based).
pub fn run_sources(sources: &[(String, String)], baseline: &[BaselineEntry]) -> Report {
    let lexed: Vec<_> = sources.iter().map(|(_, s)| lexer::tokenize(s)).collect();
    let files: Vec<_> = sources
        .iter()
        .map(|(p, _)| p.as_str())
        .zip(&lexed)
        .collect();
    let cross = rules::check_unreached(&files);

    // Index baseline entries by (path, rule, line) for exact matching.  A
    // site with several findings of one rule on one line (say, indexing and
    // an `expect` in one expression) is one entry; it covers them all.
    let mut by_site: BTreeMap<(&str, &str, u32), Vec<usize>> = BTreeMap::new();
    for (i, e) in baseline.iter().enumerate() {
        by_site
            .entry((e.path.as_str(), e.rule.as_str(), e.line))
            .or_default()
            .push(i);
    }
    let mut entry_used = vec![false; baseline.len()];

    let mut report = Report::default();
    for (((path, src), lex), hits) in sources.iter().zip(&lexed).zip(cross) {
        let analysis = analyze(path, src, lex, hits);
        report.files += 1;
        report.waived += analysis.waived;
        for f in analysis.findings {
            if let Some(indices) = by_site.get(&(f.path.as_str(), f.rule, f.line)) {
                for &i in indices {
                    entry_used[i] = true;
                }
                report.baselined += 1;
            } else {
                report.findings.push(f);
            }
        }
    }
    for (e, used) in baseline.iter().zip(&entry_used) {
        if !used {
            report.findings.push(Finding {
                rule: "stale-baseline",
                path: "lint-allow.toml".to_string(),
                line: e.src_line,
                col: 1,
                message: format!(
                    "baseline entry `{}` at {}:{} matches no current finding: the site \
                     moved or was fixed — run `--update-baseline` and re-justify",
                    e.rule, e.path, e.line
                ),
                snippet: format!(
                    "rule = \"{}\", path = \"{}\", line = {}",
                    e.rule, e.path, e.line
                ),
            });
        }
    }
    report
        .findings
        .sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));
    report
}

/// Render findings as `path:line:col: [rule] message` diagnostics.
pub fn render_text(report: &Report) -> String {
    let mut out = String::new();
    for f in &report.findings {
        out.push_str(&format!(
            "{}:{}:{}: [{}] {}\n",
            f.path, f.line, f.col, f.rule, f.message
        ));
        if !f.snippet.is_empty() {
            out.push_str(&format!("    |  {}\n", f.snippet));
        }
    }
    out.push_str(&format!(
        "ispn-lint: {} files scanned, {} finding{} ({} waived inline, {} baselined)\n",
        report.files,
        report.findings.len(),
        if report.findings.len() == 1 { "" } else { "s" },
        report.waived,
        report.baselined,
    ));
    out
}

/// Render the report as a single JSON document (`--json`).
pub fn render_json(report: &Report) -> String {
    let mut out = String::from("{");
    out.push_str(&format!(
        "\"files\":{},\"waived\":{},\"baselined\":{},\"findings\":[",
        report.files, report.waived, report.baselined
    ));
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"rule\":\"{}\",\"path\":\"{}\",\"line\":{},\"col\":{},\
             \"message\":\"{}\",\"snippet\":\"{}\"}}",
            json_escape(f.rule),
            json_escape(&f.path),
            f.line,
            f.col,
            json_escape(&f.message),
            json_escape(&f.snippet),
        ));
    }
    out.push_str("]}");
    out
}

/// Render the rule catalog (`--rules`).
pub fn render_rules() -> String {
    let mut out = String::from("ispn-lint rule catalog\n");
    for r in rules::RULES {
        out.push_str(&format!("\n[{}] {}\n", r.id, r.summary));
        out.push_str(&format!("    {}\n", r.doc));
        if !r.scope.include.is_empty() {
            out.push_str(&format!("    scope: {}\n", r.scope.include.join(", ")));
        }
        if !r.scope.exclude.is_empty() {
            out.push_str(&format!("    exempt: {}\n", r.scope.exclude.join(", ")));
        }
    }
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
