// Fixture: lossy float formatting in wire-adjacent code, one line a form.

fn encode(v: f64) -> String {
    format!("{:.6}", v)
}

fn scientific(v: f64) -> String {
    format!("{:e}", v)
}

fn other_forms(x: f64, p: usize) -> [String; 5] {
    [
        format!("{x:.3}"),
        format!("{0:e}", x),
        format!("{:+e}", x),
        format!("{:10.3}", x),
        format!("{:.*}", p, x),
    ]
}
