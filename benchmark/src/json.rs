//! Building and rendering small JSON documents on the repo's own
//! [`JsonValue`] (the sweep wire parser reads them back).

use ispn_scenario::{json_escape, JsonValue};

/// A float as a JSON number (`null` when not finite, like the reports).
pub fn num(x: f64) -> JsonValue {
    if x.is_finite() {
        JsonValue::Number(format!("{x:?}"))
    } else {
        JsonValue::Null
    }
}

/// A count as a JSON number.
pub fn int(n: u64) -> JsonValue {
    JsonValue::Number(n.to_string())
}

/// A JSON string.
pub fn text(s: &str) -> JsonValue {
    JsonValue::Str(s.to_string())
}

/// A JSON object with the members in the order given.
pub fn obj<'a>(members: impl IntoIterator<Item = (&'a str, JsonValue)>) -> JsonValue {
    JsonValue::Object(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Serialize a document on one line.
pub fn render(value: &JsonValue) -> String {
    let mut out = String::new();
    write(value, &mut out);
    out
}

fn write(value: &JsonValue, out: &mut String) {
    match value {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonValue::Number(raw) => out.push_str(raw),
        JsonValue::Str(s) => {
            out.push('"');
            out.push_str(&json_escape(s));
            out.push('"');
        }
        JsonValue::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write(item, out);
            }
            out.push(']');
        }
        JsonValue::Object(members) => {
            out.push('{');
            for (i, (key, member)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                out.push_str(&json_escape(key));
                out.push_str("\":");
                write(member, out);
            }
            out.push('}');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendered_documents_parse_back_to_the_same_value() {
        let doc = obj([
            ("name", text("a \"quoted\"\nname")),
            ("n", int(u64::MAX)),
            ("x", num(0.1 + 0.2)),
            ("bad", num(f64::NAN)),
            (
                "list",
                JsonValue::Array(vec![JsonValue::Bool(true), num(-1.5e-9)]),
            ),
        ]);
        let line = render(&doc);
        assert!(!line.contains('\n'));
        assert_eq!(JsonValue::parse(&line).unwrap(), doc);
    }
}
