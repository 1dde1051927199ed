//! Regenerates the flow-churn experiment: dynamic signaling with Poisson
//! arrivals and exponential holding times on the Figure-1 topology, swept
//! over offered load.  `ISPN_FAST=1` runs a shortened sweep (workers
//! inherit it, a `--serve` listener needs it set like its parent); the
//! sweep flags are the ones every sweep bin shares (see
//! `ispn_experiments::cli`).  Stdout is byte-identical in every mode —
//! including the accept/reject decision sequence behind the table.

use ispn_experiments::{churn, cli, PaperConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let paper = if cli::fast() {
        PaperConfig::fast()
    } else {
        PaperConfig::medium()
    };
    let sweep = churn::Sweep {
        paper,
        rates: vec![0.2, 0.5, 1.0, 2.0, 4.0],
        holding: 15.0,
    };
    cli::main(&sweep, &args);
}
