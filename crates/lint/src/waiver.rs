//! Machine-checkable waivers: inline `// ispn-lint: allow(…) -- reason`
//! comments and the committed `lint-allow.toml` baseline.
//!
//! Both mechanisms are ratchets, not escape hatches: every waiver names the
//! rule it silences **and** carries a reason, and a waiver that stops
//! matching a finding becomes a finding itself (`stale-waiver` /
//! `stale-baseline`).  Inline waivers excuse a line; baseline entries
//! excuse an `unreached-pub` item by name, so they survive code moving
//! around them.

use crate::lexer::{Comment, LexFile};

/// The comment marker that introduces an inline waiver.
pub const MARKER: &str = "ispn-lint:";

/// One parsed inline waiver.
#[derive(Debug, Clone)]
pub struct Waiver {
    /// Rule IDs this waiver silences.
    pub rules: Vec<String>,
    /// The stated reason (always non-empty for a well-formed waiver).
    pub reason: String,
    /// Line of the waiver comment itself.
    pub line: u32,
    /// Column of the waiver comment.
    pub col: u32,
    /// The code line the waiver applies to (0 when nothing follows).
    pub target: u32,
    /// Parse error, when the comment carries the marker but not the syntax.
    pub malformed: Option<String>,
}

/// Extract waivers from a lexed file and resolve each to its target line.
///
/// A trailing waiver (code before it on the same line) targets that line;
/// a standalone waiver targets the next code line, looking **through**
/// attributes — so one comment can sit above a `#[allow(…)]` + statement
/// pair and waive a finding on the statement.
pub fn collect(lex: &LexFile) -> Vec<Waiver> {
    let mut waivers = Vec::new();
    for c in &lex.comments {
        // The marker must open the comment: prose *mentioning* the syntax
        // (like this sentence, or rustdoc examples) is not a waiver.
        let Some(body) = c.text.strip_prefix(MARKER) else {
            continue;
        };
        let mut w = parse_waiver(body, c);
        w.target = resolve_target(lex, c);
        waivers.push(w);
    }
    waivers
}

fn parse_waiver(body: &str, c: &Comment) -> Waiver {
    let mut w = Waiver {
        rules: Vec::new(),
        reason: String::new(),
        line: c.line,
        col: c.col,
        target: 0,
        malformed: None,
    };
    let body = body.trim();
    let Some(rest) = body.strip_prefix("allow(") else {
        w.malformed = Some("expected `allow(<rule>[, <rule>…]) -- <reason>`".to_string());
        return w;
    };
    let Some(close) = rest.find(')') else {
        w.malformed = Some("unterminated rule list: missing `)`".to_string());
        return w;
    };
    for id in rest[..close].split(',') {
        let id = id.trim();
        if id.is_empty() {
            continue;
        }
        if crate::rules::rule(id).is_none() {
            w.malformed = Some(format!("unknown rule `{id}`"));
            return w;
        }
        if crate::rules::META_RULES.contains(&id) {
            w.malformed = Some(format!("meta-rule `{id}` cannot be waived"));
            return w;
        }
        w.rules.push(id.to_string());
    }
    if w.rules.is_empty() {
        w.malformed = Some("empty rule list".to_string());
        return w;
    }
    let tail = rest[close + 1..].trim();
    let Some(reason) = tail.strip_prefix("--") else {
        w.malformed = Some("missing `-- <reason>`: every waiver carries a reason".to_string());
        return w;
    };
    let reason = reason.trim();
    if reason.is_empty() {
        w.malformed = Some("empty reason after `--`: every waiver carries a reason".to_string());
        return w;
    }
    w.reason = reason.to_string();
    w
}

/// The code line a waiver comment applies to.
fn resolve_target(lex: &LexFile, c: &Comment) -> u32 {
    // Trailing form: code earlier on the same line.
    if lex.tokens.iter().any(|t| t.line == c.line && t.col < c.col) {
        return c.line;
    }
    // Standalone form: the next code line, skipping whole attributes.
    let toks = &lex.tokens;
    let mut i = match toks.iter().position(|t| t.line > c.end_line) {
        Some(i) => i,
        None => return 0,
    };
    while i < toks.len() && toks[i].is_punct('#') {
        // Skip `#[…]` / `#![…]` to the matching `]`.
        let mut j = i + 1;
        if j < toks.len() && toks[j].is_punct('!') {
            j += 1;
        }
        let mut depth = 0usize;
        while j < toks.len() {
            if toks[j].is_punct('[') {
                depth += 1;
            } else if toks[j].is_punct(']') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        i = j + 1;
    }
    toks.get(i).map_or(0, |t| t.line)
}

/// One `[[allow]]` entry from `lint-allow.toml`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineEntry {
    /// Rule ID being baselined.
    pub rule: String,
    /// Workspace-relative path of the sanctioned item.
    pub path: String,
    /// The item's declared name (see [`Finding::item`](crate::rules::Finding::item)).
    pub item: String,
    /// Why the site is sanctioned.
    pub reason: String,
    /// Line of the entry inside `lint-allow.toml`, for diagnostics.
    pub src_line: u32,
}

/// Parse the `lint-allow.toml` baseline (a strict subset of TOML:
/// `[[allow]]` tables with `rule`/`path`/`item`/`reason` keys).
pub fn parse_baseline(text: &str) -> Result<Vec<BaselineEntry>, String> {
    let mut entries: Vec<BaselineEntry> = Vec::new();
    let mut current: Option<BaselineEntry> = None;
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx as u32 + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[allow]]" {
            if let Some(e) = current.take() {
                entries.push(validated(e)?);
            }
            current = Some(BaselineEntry {
                rule: String::new(),
                path: String::new(),
                item: String::new(),
                reason: String::new(),
                src_line: lineno,
            });
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!("lint-allow.toml:{lineno}: expected `key = value`"));
        };
        let Some(e) = current.as_mut() else {
            return Err(format!(
                "lint-allow.toml:{lineno}: `{}` outside an [[allow]] table",
                key.trim()
            ));
        };
        let value = value.trim();
        match key.trim() {
            "rule" => e.rule = unquote(value, lineno)?,
            "path" => e.path = unquote(value, lineno)?,
            "item" => e.item = unquote(value, lineno)?,
            "reason" => e.reason = unquote(value, lineno)?,
            other => {
                return Err(format!("lint-allow.toml:{lineno}: unknown key `{other}`"));
            }
        }
    }
    if let Some(e) = current.take() {
        entries.push(validated(e)?);
    }
    Ok(entries)
}

fn validated(e: BaselineEntry) -> Result<BaselineEntry, String> {
    let at = |what: &str| format!("lint-allow.toml:{}: [[allow]] entry {what}", e.src_line);
    if crate::rules::rule(&e.rule).is_none() {
        return Err(at(&format!("names unknown rule `{}`", e.rule)));
    }
    if crate::rules::META_RULES.contains(&e.rule.as_str()) {
        return Err(at(&format!("cannot baseline meta-rule `{}`", e.rule)));
    }
    if e.path.is_empty() || e.item.is_empty() {
        return Err(at("needs `path` and `item`"));
    }
    if e.reason.trim().is_empty() {
        return Err(at("has no `reason`: every waiver carries a reason"));
    }
    Ok(e)
}

fn unquote(v: &str, lineno: u32) -> Result<String, String> {
    let inner = v
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .ok_or_else(|| format!("lint-allow.toml:{lineno}: expected a quoted string"))?;
    Ok(inner.replace("\\\"", "\"").replace("\\\\", "\\"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    #[test]
    fn trailing_and_standalone_waivers_resolve_targets() {
        let src = "\
let a = 1; // ispn-lint: allow(float-wire) -- trailing form\n\
// ispn-lint: allow(float-wire) -- standalone form\n\
#[expect(dead_code, reason = \"fixture\")]\n\
let b = 2;\n";
        let ws = collect(&tokenize(src));
        assert_eq!(ws.len(), 2);
        assert_eq!(ws[0].target, 1);
        assert_eq!(
            ws[1].target, 4,
            "standalone waiver looks through the attribute"
        );
        assert!(ws.iter().all(|w| w.malformed.is_none()));
    }

    #[test]
    fn waivers_without_reasons_are_malformed() {
        for bad in [
            "// ispn-lint: allow(float-wire)",
            "// ispn-lint: allow(float-wire) --",
            "// ispn-lint: allow(float-wire) --   ",
            "// ispn-lint: allow() -- reason",
            "// ispn-lint: allow(no-such-rule) -- reason",
            "// ispn-lint: allow(wall-clock) -- a rule clippy carries now",
            "// ispn-lint: allow(stale-waiver) -- meta",
            "// ispn-lint: deny(float-wire) -- reason",
        ] {
            let ws = collect(&tokenize(bad));
            assert_eq!(ws.len(), 1, "{bad}");
            assert!(ws[0].malformed.is_some(), "{bad}");
        }
    }

    #[test]
    fn multi_rule_waivers_parse() {
        let ws = collect(&tokenize(
            "// ispn-lint: allow(float-wire, unreached-pub) -- both excused here\nlet x = 1;\n",
        ));
        assert_eq!(ws[0].rules, ["float-wire", "unreached-pub"]);
        assert_eq!(ws[0].reason, "both excused here");
    }

    #[test]
    fn baseline_parses_item_keyed_entries() {
        let text = "# header\n\n[[allow]]\nrule = \"unreached-pub\"\n\
                    path = \"crates/core/src/lib.rs\"\nitem = \"oracle\"\n\
                    reason = \"invariant: \\\"test oracle\\\" for the drift test\"\n";
        let back = parse_baseline(text).unwrap();
        assert_eq!(
            back,
            [BaselineEntry {
                rule: "unreached-pub".to_string(),
                path: "crates/core/src/lib.rs".to_string(),
                item: "oracle".to_string(),
                reason: "invariant: \"test oracle\" for the drift test".to_string(),
                src_line: 3,
            }]
        );
    }

    #[test]
    fn baseline_rejects_missing_reasons_and_unknown_rules() {
        let no_reason = "[[allow]]\nrule = \"unreached-pub\"\npath = \"a.rs\"\nitem = \"f\"\n";
        assert!(parse_baseline(no_reason).is_err());
        let unknown = "[[allow]]\nrule = \"nope\"\npath = \"a.rs\"\nitem = \"f\"\nreason = \"r\"\n";
        assert!(parse_baseline(unknown).is_err());
        let line_keyed =
            "[[allow]]\nrule = \"unreached-pub\"\npath = \"a.rs\"\nline = 1\nreason = \"r\"\n";
        assert!(parse_baseline(line_keyed).is_err());
        let loose_key = "rule = \"unreached-pub\"\n";
        assert!(parse_baseline(loose_key).is_err());
    }
}
