//! The rule registry: stable IDs, per-rule documentation, path scoping and
//! the token-level checkers.
//!
//! Every rule exists to protect one concrete invariant of this workspace's
//! byte-identity discipline (tables 1–3 goldens, the churn decision
//! sequence, serial vs `--workers` vs `--hosts` identity).  Rules are
//! heuristic token scans, not type-checked analyses — they over-approximate
//! on purpose and rely on the waiver mechanism
//! (see [`waiver`](crate::waiver)) for the sanctioned exceptions.

use crate::lexer::{LexFile, TokKind, Token};

/// A diagnostic produced by a rule (or by the waiver machinery itself).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule ID (see [`RULES`]).
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// What is wrong and what to do instead.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

/// Where a rule applies.
#[derive(Debug, Clone, Copy)]
pub struct Scope {
    /// Workspace-relative path prefixes the rule applies to; empty = all
    /// files.  An entry ending in `.rs` matches that exact file.
    pub include: &'static [&'static str],
    /// Path prefixes exempt from the rule (checked after `include`).
    pub exclude: &'static [&'static str],
    /// Skip `#[cfg(test)]`-gated items: test-only code cannot reach
    /// sim-visible output.
    pub skip_tests: bool,
}

/// One lint rule: a stable ID plus its rationale and scope.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable ID, used in waivers (`// ispn-lint: allow(<id>) -- reason`)
    /// and in `lint-allow.toml` entries.
    pub id: &'static str,
    /// One-line summary for diagnostics and `--rules`.
    pub summary: &'static str,
    /// Full rationale: the invariant the rule protects and the sanctioned
    /// alternatives.
    pub doc: &'static str,
    /// Where the rule applies.
    pub scope: Scope,
}

const ALL: Scope = Scope {
    include: &[],
    exclude: &[],
    skip_tests: false,
};

/// Sim-visible crates: anything here can feed scheduling order or report
/// bytes, so hasher-order nondeterminism is golden-breaking.
const SIM_VISIBLE: &[&str] = &[
    "crates/core/",
    "crates/sched/",
    "crates/net/",
    "crates/signal/",
    "crates/sim/",
    "crates/scenario/",
    "crates/traffic/",
    "crates/transport/",
    "crates/experiments/",
];

/// The rule registry.  IDs are stable: waivers and baseline entries refer
/// to them, so renaming one is a breaking change to every waiver.
pub const RULES: &[Rule] = &[
    Rule {
        id: "wall-clock",
        summary: "wall-clock read (`Instant::now`/`SystemTime::now`) outside a telemetry site",
        doc: "Simulation results must be a function of the scenario and its seeds alone. A \
              wall-clock read anywhere sim-visible makes output depend on host load and breaks \
              byte-identity across runs, workers and hosts. Simulated time comes from \
              `ispn_sim::SimTime`; wall-clock reads are legitimate only in telemetry (events/sec \
              measurement, progress pacing, round-trip overhead), and every such site carries an \
              inline waiver naming why its value never reaches a report body. The offline \
              stand-ins for third-party crates (`crates/shims`) are never sim-visible and are \
              exempt by scope.",
        scope: Scope {
            include: &[],
            exclude: &["crates/shims/"],
            skip_tests: true,
        },
    },
    Rule {
        id: "hash-order",
        summary: "std `HashMap`/`HashSet` in a sim-visible crate",
        doc: "`std::collections::HashMap`/`HashSet` iterate in `RandomState` order: different \
              every process, so any iteration that reaches scheduling decisions or report bytes \
              silently breaks replayability and serial-vs-distributed identity. In sim-visible \
              crates use `BTreeMap`/`BTreeSet`, or collect-and-sort (a sorted drain) before the \
              order can matter. Lookup-only maps are still flagged — the next edit may iterate; \
              convert or waive with the invariant that keeps iteration unreachable.",
        scope: Scope {
            include: SIM_VISIBLE,
            exclude: &[],
            skip_tests: true,
        },
    },
    Rule {
        id: "float-wire",
        summary: "lossy float formatting (`{:e}`, `{:.N}`) in wire-adjacent code",
        doc: "Distributed byte-identity hinges on `f64` crossing the worker protocol exactly: \
              values are encoded with `{:?}` (shortest round-trip representation) and decoded \
              with `str::parse::<f64>`. A `{:e}` or precision spec in wire-adjacent code is \
              either a lossy value encoding (a real bug) or a human-facing message (waive it, \
              naming which). Scope: `crates/scenario/src/sweep/` — the protocol files.",
        scope: Scope {
            include: &["crates/scenario/src/sweep/"],
            exclude: &[],
            skip_tests: true,
        },
    },
    Rule {
        id: "unsafe-safety",
        summary: "`unsafe` without an adjacent `// SAFETY:` comment",
        doc: "Every `unsafe` block, fn or impl must carry a `// SAFETY:` comment immediately \
              above (or trailing on the same line) stating the invariant that makes it sound. \
              Most crates forbid `unsafe_code` outright (enforced via the workspace lints \
              table); this rule polices the few places that genuinely need it.",
        scope: ALL,
    },
    Rule {
        id: "allow-justify",
        summary: "`#[allow(…)]` without a justification comment",
        doc: "Silencing a compiler or clippy lint is a determinism-relevant decision in this \
              workspace (the clippy `disallowed_methods`/`disallowed_types` backstop is how \
              wall-clock and hasher rules reach CI). Every `#[allow(…)]`/`#![allow(…)]` must \
              have a comment on the same line or directly above saying why the lint does not \
              apply.",
        scope: ALL,
    },
    Rule {
        id: "panic-path",
        summary: "bare `unwrap()`/`expect()`/indexing in a worker request path",
        doc: "A panic while serving or supervising sweep points must stay a per-point poison \
              (`SweepError` with the point's tags) and never abort the supervisor or the serve \
              loop. In `sweep::{worker,net,dist}` request-handling code, bare `unwrap()`, \
              `expect(…)` and `[…]` indexing are flagged: convert to per-point error frames, or \
              waive/baseline with the invariant that makes the panic unreachable. Scope: the \
              three protocol files; `catch_unwind` already fences the per-point closures.",
        scope: Scope {
            include: &[
                "crates/scenario/src/sweep/worker.rs",
                "crates/scenario/src/sweep/net.rs",
                "crates/scenario/src/sweep/dist.rs",
            ],
            exclude: &[],
            skip_tests: true,
        },
    },
    Rule {
        id: "unreached-pub",
        summary: "`pub` item that no experiment, example or benchmark workload names",
        doc: "Aim 2 scores fewer public entry points: an item only tests call is an interface \
              nothing acts on. Workspace-wide and by name: a `pub`/`pub(crate)` fn, type, trait, \
              const or static declared outside test code in `crates/*/src` is flagged when its \
              name appears as an identifier in no other non-test code of `crates/*/src`, \
              `examples/` or `benchmark/src` (comments, `#[cfg(test)]` regions and `pub use` \
              lists do not count). Delete it with the tests that exercise only it, or baseline \
              it as a test oracle for an invariant production maintains, or with the ROADMAP \
              item that will call it. A name match is not a call, so this is a lower bound \
              with two blind spots: a method counts as used wherever any identifier of its \
              name appears (another type's method, a field or a local: a `render`, `stats` or \
              `star` hides behind a namesake), and a type counts as used by its own `impl` \
              blocks and signatures. A by-hand pass — rename one declaration and check that \
              every non-test target still compiles — finds those.",
        scope: Scope {
            include: &["crates/"],
            exclude: &[
                "crates/shims/",
                "crates/sched/src/conformance.rs",
                "crates/scenario/src/sweep/testing.rs",
            ],
            skip_tests: true,
        },
    },
    Rule {
        id: "bad-waiver",
        summary: "malformed waiver comment (missing rule list or `-- reason`)",
        doc: "A waiver must read `// ispn-lint: allow(<rule>[, <rule>…]) -- <reason>`. The \
              reason is not optional: an unexplained waiver is indistinguishable from a \
              rubber stamp. Emitted by the waiver parser; not itself waivable.",
        scope: ALL,
    },
    Rule {
        id: "stale-waiver",
        summary: "waiver that no longer suppresses any finding",
        doc: "An inline waiver whose target line has no finding for the named rule is dead \
              weight and hides drift (the code it excused moved or was fixed). Delete it. \
              Emitted by the waiver matcher; not itself waivable.",
        scope: ALL,
    },
    Rule {
        id: "stale-baseline",
        summary: "`lint-allow.toml` entry that matches no current finding",
        doc: "Baseline entries grandfather pre-lint sites by exact rule+file+line. When the \
              site moves or is fixed the entry goes stale and must be updated or removed \
              (`--update-baseline` rewrites the file from current findings). This is the \
              drift guard: a stale baseline fails `--deny` runs. Not itself waivable.",
        scope: ALL,
    },
];

/// IDs of the meta-rules emitted by the engine rather than a checker.
pub const META_RULES: &[&str] = &["bad-waiver", "stale-waiver", "stale-baseline"];

/// Look up a rule by ID.
pub fn rule(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

/// Does `rule` apply to the file at workspace-relative `path`?
pub fn applies(rule: &Rule, path: &str) -> bool {
    if rule.scope.exclude.iter().any(|p| path.starts_with(p)) {
        return false;
    }
    rule.scope.include.is_empty() || rule.scope.include.iter().any(|p| path.starts_with(p))
}

/// Line ranges of `#[cfg(test)]`-gated items (inclusive).
///
/// Token-level heuristic: after a `#[cfg(test)]` attribute (and any further
/// attributes), the gated item runs to the `}` matching its first `{`, or to
/// a `;` if one comes first.
pub fn test_regions(lex: &LexFile) -> Vec<(u32, u32)> {
    let toks = &lex.tokens;
    let mut regions = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !(toks[i].is_punct('#') && matches!(toks.get(i + 1), Some(t) if t.is_punct('['))) {
            i += 1;
            continue;
        }
        let (attr_end, is_cfg_test) = scan_attr(toks, i);
        if !is_cfg_test {
            i = attr_end;
            continue;
        }
        let start_line = toks[i].line;
        let mut j = attr_end;
        // Skip any further attributes on the same item.
        while j < toks.len() && toks[j].is_punct('#') {
            let (e, _) = scan_attr(toks, j);
            j = e;
        }
        // Find the item's body (or its terminating `;`).
        let mut depth = 0usize;
        let mut end_line = start_line;
        while j < toks.len() {
            let t = &toks[j];
            if depth == 0 && t.is_punct(';') {
                end_line = t.line;
                break;
            }
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    end_line = t.line;
                    break;
                }
            }
            j += 1;
        }
        regions.push((start_line, end_line));
        i = j + 1;
    }
    regions
}

/// Scan the attribute starting at token `i` (which is `#`).  Returns the
/// index one past the closing `]` and whether the attribute is
/// `cfg(test)`-shaped (contains both `cfg` and `test`).
fn scan_attr(toks: &[Token], i: usize) -> (usize, bool) {
    let mut j = i + 1;
    if j < toks.len() && toks[j].is_punct('!') {
        j += 1;
    }
    if !(j < toks.len() && toks[j].is_punct('[')) {
        return (i + 1, false);
    }
    let mut depth = 0usize;
    let mut saw_cfg = false;
    let mut saw_test = false;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return (j + 1, saw_cfg && saw_test);
            }
        } else if t.is_ident("cfg") {
            saw_cfg = true;
        } else if t.is_ident("test") {
            saw_test = true;
        }
        j += 1;
    }
    (toks.len(), false)
}

fn in_regions(regions: &[(u32, u32)], line: u32) -> bool {
    regions.iter().any(|&(s, e)| line >= s && line <= e)
}

/// A raw hit before waiver/baseline filtering: `(rule, line, col, message)`.
pub type Hit = (&'static str, u32, u32, String);

/// Run every applicable rule over one lexed file.
pub fn check_file(path: &str, lex: &LexFile) -> Vec<Hit> {
    let regions = test_regions(lex);
    let mut hits = Vec::new();
    for r in RULES {
        if META_RULES.contains(&r.id) || !applies(r, path) {
            continue;
        }
        let mut rule_hits = match r.id {
            "wall-clock" => check_wall_clock(lex),
            "hash-order" => check_hash_order(lex),
            "float-wire" => check_float_wire(lex),
            "unsafe-safety" => check_unsafe_safety(lex),
            "allow-justify" => check_allow_justify(lex),
            "panic-path" => check_panic_path(lex),
            _ => Vec::new(),
        };
        if r.scope.skip_tests {
            rule_hits.retain(|h| !in_regions(&regions, h.1));
        }
        hits.extend(rule_hits);
    }
    hits.sort_by_key(|h| (h.1, h.2, h.0));
    hits
}

/// Item keywords whose next identifier is a declaration, not a use.
const ITEM_KEYWORDS: &[&str] = &[
    "fn", "struct", "enum", "union", "trait", "type", "const", "static", "mod",
];

/// Does `unreached-pub` read `path` — as a declaring file (`crates/*/src`)
/// and, with `examples/` and `benchmark/src`, as a caller?
fn unreached_scope(path: &str) -> (bool, bool) {
    let rule = rule("unreached-pub").expect("registered");
    let in_src = path.split('/').nth(2) == Some("src") && applies(rule, path);
    let caller = in_src || path.starts_with("examples/") || path.starts_with("benchmark/src/");
    (in_src, caller)
}

/// The workspace-wide `unreached-pub` check over every lexed file of the
/// workspace (workspace-relative paths); returns each file's hits, in the
/// order given.
pub fn check_unreached(files: &[(&str, &LexFile)]) -> Vec<Vec<Hit>> {
    let mut used = std::collections::BTreeSet::new();
    let mut decls = Vec::new();
    for (k, &(path, lex)) in files.iter().enumerate() {
        let (declares, calls) = unreached_scope(path);
        if !calls {
            continue;
        }
        let regions = test_regions(lex);
        let toks = &lex.tokens;
        let mut i = 0;
        while i < toks.len() {
            let t = &toks[i];
            if in_regions(&regions, t.line) {
                i += 1;
                continue;
            }
            if t.is_ident("pub") {
                let (kind, at) = item_after_pub(toks, i + 1);
                if kind == "use" {
                    // A re-export list names items without calling them.
                    while i < toks.len() && !toks[i].is_punct(';') {
                        i += 1;
                    }
                    continue;
                }
                if declares && kind != "mod" {
                    if let Some(name) = toks.get(at).filter(|n| n.kind == TokKind::Ident) {
                        decls.push((k, kind, name));
                    }
                }
            } else if t.kind == TokKind::Ident {
                let declared = i > 0 && ITEM_KEYWORDS.iter().any(|kw| toks[i - 1].is_ident(kw));
                if !declared {
                    used.insert(t.text.as_str());
                }
            }
            i += 1;
        }
    }
    let mut hits = vec![Vec::new(); files.len()];
    for (k, kind, name) in decls {
        if !used.contains(name.text.as_str()) {
            hits[k].push((
                "unreached-pub",
                name.line,
                name.col,
                format!(
                    "`pub {kind} {}` is named by no non-test code in crates/*/src, examples/ \
                     or benchmark/src: delete it with the tests that exercise only it, or \
                     baseline it as a test oracle or with the ROADMAP item that will call it",
                    name.text
                ),
            ));
        }
    }
    hits
}

/// After `pub` at token `i`: skip a `(crate)`-style restriction and the
/// `const`/`async`/`unsafe`/`extern "C"` qualifiers of a fn (and the `mut`
/// of a static), and return the item keyword (`""` for a field) with the
/// index of the token after it.
fn item_after_pub(toks: &[Token], mut i: usize) -> (&'static str, usize) {
    if toks.get(i).is_some_and(|t| t.is_punct('(')) {
        while i < toks.len() && !toks[i].is_punct(')') {
            i += 1;
        }
        i += 1;
    }
    let any_of = |t: &Token, words: &[&str]| words.iter().any(|w| t.is_ident(w));
    while let Some(t) = toks.get(i) {
        // `pub const fn` is a qualified fn, `pub const N` a const item.
        let const_fn = t.is_ident("const")
            && toks
                .get(i + 1)
                .is_some_and(|n| any_of(n, &["fn", "async", "unsafe", "extern"]));
        if !(const_fn || t.kind == TokKind::Str || any_of(t, &["async", "unsafe", "extern", "mut"]))
        {
            let kind = ITEM_KEYWORDS
                .iter()
                .chain(&["use"])
                .find(|kw| t.is_ident(kw));
            return (kind.copied().unwrap_or(""), i + 1);
        }
        i += 1;
    }
    ("", i)
}

fn check_wall_clock(lex: &LexFile) -> Vec<Hit> {
    let toks = &lex.tokens;
    let mut hits = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if !(t.is_ident("Instant") || t.is_ident("SystemTime")) {
            continue;
        }
        let path_now = matches!(toks.get(i + 1), Some(a) if a.is_punct(':'))
            && matches!(toks.get(i + 2), Some(b) if b.is_punct(':'))
            && matches!(toks.get(i + 3), Some(c) if c.is_ident("now"));
        if path_now {
            hits.push((
                "wall-clock",
                t.line,
                t.col,
                format!(
                    "`{}::now()` is a wall-clock read: sim-visible code must use simulated \
                     time (`SimTime`); waive only telemetry sites whose value never reaches \
                     a report body",
                    t.text
                ),
            ));
        }
    }
    hits
}

fn check_hash_order(lex: &LexFile) -> Vec<Hit> {
    let mut hits = Vec::new();
    for t in &lex.tokens {
        if t.kind != TokKind::Ident {
            continue;
        }
        let (name, fix) = match t.text.as_str() {
            "HashMap" => ("HashMap", "BTreeMap"),
            "HashSet" => ("HashSet", "BTreeSet"),
            _ => continue,
        };
        hits.push((
            "hash-order",
            t.line,
            t.col,
            format!(
                "std `{name}` iterates in per-process `RandomState` order — in a sim-visible \
                 crate that silently breaks byte-identity; use `{fix}` or a sorted drain"
            ),
        ));
    }
    hits
}

fn check_float_wire(lex: &LexFile) -> Vec<Hit> {
    let mut hits = Vec::new();
    for t in &lex.tokens {
        if t.kind != TokKind::Str {
            continue;
        }
        let lossy = ["{:e}", "{:E}", "{:."]
            .iter()
            .find(|pat| t.text.contains(**pat));
        if let Some(pat) = lossy {
            hits.push((
                "float-wire",
                t.line,
                t.col,
                format!(
                    "`{pat}` formatting in wire-adjacent code: floats cross the worker \
                     protocol only through the exact `{{:?}}` round-trip codec; waive \
                     human-facing supervision messages explicitly"
                ),
            ));
        }
    }
    hits
}

fn check_unsafe_safety(lex: &LexFile) -> Vec<Hit> {
    let mut hits = Vec::new();
    for t in &lex.tokens {
        if !t.is_ident("unsafe") {
            continue;
        }
        let documented = lex.comments.iter().any(|c| {
            c.text.contains("SAFETY:") && c.end_line <= t.line && t.line - c.end_line <= 1
        });
        if !documented {
            hits.push((
                "unsafe-safety",
                t.line,
                t.col,
                "`unsafe` without an adjacent `// SAFETY:` comment stating the invariant \
                 that makes it sound"
                    .to_string(),
            ));
        }
    }
    hits
}

fn check_allow_justify(lex: &LexFile) -> Vec<Hit> {
    let toks = &lex.tokens;
    let mut hits = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].is_punct('#') {
            continue;
        }
        let mut j = i + 1;
        if j < toks.len() && toks[j].is_punct('!') {
            j += 1;
        }
        let is_allow = matches!(toks.get(j), Some(b) if b.is_punct('['))
            && matches!(toks.get(j + 1), Some(a) if a.is_ident("allow"));
        if !is_allow {
            continue;
        }
        let line = toks[i].line;
        let justified = lex
            .comments
            .iter()
            .any(|c| c.end_line == line || c.end_line + 1 == line);
        if !justified {
            hits.push((
                "allow-justify",
                line,
                toks[i].col,
                "`#[allow(…)]` without a justification comment on the same line or \
                 directly above"
                    .to_string(),
            ));
        }
    }
    hits
}

fn check_panic_path(lex: &LexFile) -> Vec<Hit> {
    let toks = &lex.tokens;
    let mut hits = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        // `.unwrap(` / `.expect(`
        if t.is_punct('.') {
            if let (Some(name), Some(paren)) = (toks.get(i + 1), toks.get(i + 2)) {
                if (name.is_ident("unwrap") || name.is_ident("expect")) && paren.is_punct('(') {
                    hits.push((
                        "panic-path",
                        name.line,
                        name.col,
                        format!(
                            "bare `{}()` in a worker request path: a panic here must stay a \
                             per-point poison, never a supervisor abort — return a per-point \
                             error, or waive with the invariant that makes it unreachable",
                            name.text
                        ),
                    ));
                }
            }
            continue;
        }
        // `ident[` indexing (attribute brackets never follow an identifier).
        if t.kind == TokKind::Ident {
            if let Some(br) = toks.get(i + 1) {
                if br.is_punct('[') {
                    hits.push((
                        "panic-path",
                        br.line,
                        br.col,
                        format!(
                            "`{}[…]` indexing in a worker request path can panic: use `get` \
                             with a per-point error, or waive with the bound that holds",
                            t.text
                        ),
                    ));
                }
            }
        }
    }
    hits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    #[test]
    fn registry_ids_are_unique_and_documented() {
        for (i, a) in RULES.iter().enumerate() {
            assert!(
                !a.doc.is_empty() && !a.summary.is_empty(),
                "{} undocumented",
                a.id
            );
            for b in &RULES[i + 1..] {
                assert_ne!(a.id, b.id);
            }
        }
    }

    #[test]
    fn cfg_test_regions_cover_the_module_body() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n  fn f() { x.unwrap(); }\n}\n";
        let lex = tokenize(src);
        assert_eq!(test_regions(&lex), vec![(2, 5)]);
    }

    #[test]
    fn cfg_attributes_without_test_are_not_regions() {
        let lex = tokenize("#[cfg(unix)]\nfn f() { a.unwrap(); }\n");
        assert!(test_regions(&lex).is_empty());
    }

    #[test]
    fn scope_prefix_and_exact_file_matching() {
        let wall = rule("wall-clock").unwrap();
        assert!(applies(wall, "crates/net/src/network.rs"));
        assert!(!applies(wall, "crates/shims/proptest/src/lib.rs"));
        let panic = rule("panic-path").unwrap();
        assert!(applies(panic, "crates/scenario/src/sweep/dist.rs"));
        assert!(!applies(panic, "crates/scenario/src/sweep/wire.rs"));
        let fw = rule("float-wire").unwrap();
        assert!(applies(fw, "crates/scenario/src/sweep/wire.rs"));
        assert!(!applies(fw, "crates/scenario/src/sweep.rs"));
    }
}
