//! Relink this package's binaries, and everything that depends on it (the
//! benchmark harness too), when the text order changes: every optimised
//! link reads `tools/text-order.txt` through `tools/order-text.sh`, which
//! cargo does not otherwise track.

fn main() {
    println!("cargo:rerun-if-changed=../../tools/text-order.txt");
    println!("cargo:rerun-if-changed=../../tools/order-text.sh");
}
