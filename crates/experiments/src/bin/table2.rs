//! Regenerate Table 2 of CSZ'92 (WFQ vs FIFO vs FIFO+ on the Figure-1 chain).
//!
//! Usage: `cargo run --release -p ispn-experiments --bin table2`
//! plus the sweep flags every sweep bin shares (see `ispn_experiments::cli`);
//! `ISPN_FAST=1` runs the short configuration.

use ispn_experiments::{cli, table2, PaperConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let cfg = if cli::fast() {
        PaperConfig::fast()
    } else {
        PaperConfig::paper()
    };
    cli::main(&table2::Sweep { cfg }, &args);
}
