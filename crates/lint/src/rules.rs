//! The rule registry: stable IDs, per-rule documentation, path scoping and
//! the token-level checkers.
//!
//! Each rule protects one concrete invariant clippy cannot express:
//! `float-wire` the serial vs `--workers` vs `--hosts` byte-identity of
//! floats on the wire, `unreached-pub` a public surface that something
//! other than a test acts on.  Rules are heuristic token scans, not
//! type-checked analyses — they over-approximate on purpose and rely on the
//! waiver mechanism (see [`waiver`](crate::waiver)) for the sanctioned
//! exceptions.

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
    /// The declared name an `unreached-pub` finding reports (what a
    /// `lint-allow.toml` entry is keyed by); empty for other rules.
    pub item: String,
    /// What is wrong and what to do instead.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

/// Where a rule applies.  Both checkers skip `#[cfg(test)]`-gated items:
/// test-only code reaches neither the wire nor a production caller.
#[derive(Debug, Clone, Copy)]
pub struct Scope {
    /// Workspace-relative path prefixes the rule applies to; empty = all
    /// files.  An entry ending in `.rs` matches that exact file.
    pub include: &'static [&'static str],
    /// Path prefixes exempt from the rule (checked after `include`).
    pub exclude: &'static [&'static str],
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
};

/// The rule registry.  IDs are stable: waivers and baseline entries refer
/// to them, so renaming one is a breaking change to every waiver.  The
/// determinism and panic-path rules clippy can express (wall-clock reads,
/// hash-ordered collections, lint attributes without a reason, panics in
/// the worker request path) live in `clippy.toml`, the workspace lints
/// table and the `#![deny]` heads of `sweep::{worker,net,dist}`.
pub const RULES: &[Rule] = &[
    Rule {
        id: "float-wire",
        summary: "lossy float formatting (a precision or `e`/`E` spec) in wire-adjacent code",
        doc: "Distributed byte-identity hinges on `f64` crossing the worker protocol exactly: \
              values are encoded with `{:?}` (shortest round-trip representation) and decoded \
              with `str::parse::<f64>`. A format spec with a precision (`{:.3}`, `{x:10.3}`, \
              `{:.*}`) or an `e`/`E` type (`{:e}`, `{0:+E}`) in wire-adjacent code is either a \
              lossy value encoding (a real bug) or a human-facing message (waive it, naming \
              which). `{{` is literal text, not a spec. Scope: `crates/scenario/src/sweep/` — \
              the protocol files.",
        scope: Scope {
            include: &["crates/scenario/src/sweep/"],
            exclude: &[],
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
        doc: "Baseline entries sanction `unreached-pub` sites by rule, file and item name, so \
              moving code within a file never touches them. When the item gains a caller, is \
              renamed or is deleted, the entry goes stale and must be removed: a stale \
              baseline fails `--deny` runs. Not itself waivable.",
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

/// A raw hit before waiver/baseline filtering.
#[derive(Debug, Clone)]
pub struct Hit {
    /// Rule ID.
    pub rule: &'static str,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// The declared name the hit reports (see [`Finding::item`]).
    pub item: String,
    /// What is wrong and what to do instead.
    pub message: String,
}

/// Run the per-file rules (`float-wire`) over one lexed file.
pub fn check_file(path: &str, lex: &LexFile) -> Vec<Hit> {
    let float_wire = rule("float-wire").expect("registered");
    if !applies(float_wire, path) {
        return Vec::new();
    }
    let regions = test_regions(lex);
    let mut hits = check_float_wire(lex);
    hits.retain(|h| !in_regions(&regions, h.line));
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
            hits[k].push(Hit {
                rule: "unreached-pub",
                line: name.line,
                col: name.col,
                item: name.text.clone(),
                message: format!(
                    "`pub {kind} {}` is named by no non-test code in crates/*/src, examples/ \
                     or benchmark/src: delete it with the tests that exercise only it, or \
                     baseline it as a test oracle or with the ROADMAP item that will call it",
                    name.text
                ),
            });
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

fn check_float_wire(lex: &LexFile) -> Vec<Hit> {
    let mut hits = Vec::new();
    for t in &lex.tokens {
        if t.kind != TokKind::Str {
            continue;
        }
        if let Some(spec) = lossy_spec(&t.text) {
            hits.push(Hit {
                rule: "float-wire",
                line: t.line,
                col: t.col,
                item: String::new(),
                message: format!(
                    "`{{{spec}}}` formatting in wire-adjacent code: floats cross the worker \
                     protocol only through the exact `{{:?}}` round-trip codec; waive \
                     human-facing supervision messages explicitly"
                ),
            });
        }
    }
    hits
}

/// The first `{arg:spec}` placeholder of a format string whose spec carries
/// a precision or an `e`/`E` type, returned as written between the braces.
/// `{{` and `}}` are literal text, and a brace pair whose argument is not
/// empty, an index or an identifier (JSON in a plain string) is no
/// placeholder.
fn lossy_spec(text: &str) -> Option<&str> {
    let mut rest = text;
    while let Some(open) = rest.find('{') {
        let after = &rest[open + 1..];
        if let Some(escaped) = after.strip_prefix('{') {
            rest = escaped;
            continue;
        }
        let close = after.find('}')?;
        let inner = &after[..close];
        rest = &after[close + 1..];
        let Some((arg, spec)) = inner.split_once(':') else {
            continue;
        };
        if !arg.chars().all(|c| c.is_alphanumeric() || c == '_') {
            continue;
        }
        // `[[fill]align]` first: a fill character may itself be `.` or `e`.
        let mut chars = spec.chars();
        let body = match (chars.next(), chars.next()) {
            (Some(_), Some('<' | '^' | '>')) => chars.as_str(),
            (Some('<' | '^' | '>'), _) => &spec[1..],
            _ => spec,
        };
        if body.contains('.') || body.ends_with(['e', 'E']) {
            return Some(inner);
        }
    }
    None
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
        let fw = rule("float-wire").unwrap();
        assert!(applies(fw, "crates/scenario/src/sweep/wire.rs"));
        assert!(!applies(fw, "crates/scenario/src/sweep.rs"));
        let pubs = rule("unreached-pub").unwrap();
        assert!(applies(pubs, "crates/net/src/network.rs"));
        assert!(!applies(pubs, "crates/shims/proptest/src/lib.rs"));
        assert!(!applies(pubs, "crates/sched/src/conformance.rs"));
    }

    #[test]
    fn lossy_specs_are_parsed_not_matched() {
        for lossy in [
            "{:.3}",
            "{x:.3}",
            "{0:e}",
            "{:E}",
            "{:+e}",
            "{:10.3}",
            "{:.*}",
            "{:.<8.2}",
            "a {} b {:e}",
        ] {
            assert!(lossy_spec(lossy).is_some(), "{lossy}");
        }
        for exact in [
            "{:?}",
            "{x:?}",
            "{{:.3}}",
            "{{:e}}",
            "{:.>8}",
            "{:e<8}",
            "{:width$}",
            "{\\\"a\\\":1.5}",
            "{}",
        ] {
            assert_eq!(lossy_spec(exact), None, "{exact}");
        }
    }
}
