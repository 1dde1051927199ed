// Fixture: the exact round-trip codec, plus a waived human-facing message.

fn encode(v: f64) -> String {
    format!("{:?}", v)
}

fn encode_named(x: f64) -> String {
    format!("{x:?}")
}

fn escaped_braces() -> String {
    format!("{{:.3}}")
}

fn decode(s: &str) -> f64 {
    s.parse::<f64>().unwrap_or(0.0)
}

fn poison_message(v: f64) -> String {
    format!(
        // ispn-lint: allow(float-wire) -- human-facing message, not a round-tripped value
        "point failed near load {:.3}",
        v
    )
}
