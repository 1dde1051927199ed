//! Regenerate Table 1 of CSZ'92 (WFQ vs FIFO on a single shared link).
//!
//! Usage: `cargo run --release -p ispn-experiments --bin table1`
//! plus the sweep flags every sweep bin shares (see `ispn_experiments::cli`);
//! `ISPN_FAST=1` runs the short configuration.

use ispn_experiments::{cli, table1, PaperConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let cfg = if cli::fast() {
        PaperConfig::fast()
    } else {
        PaperConfig::paper()
    };
    cli::main(&table1::Sweep { cfg }, &args);
}
