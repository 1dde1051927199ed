//! Run the mesh cross-traffic study: guaranteed + predicted + datagram
//! flows competing on the shared interior links of a 3×3 grid, swept over
//! the Predicted-Low cross-traffic level.  `ISPN_FAST=1` runs a shortened
//! sweep (the CI smoke configuration; workers inherit it, a `--serve`
//! listener needs it set like its parent); the sweep flags are the ones
//! every sweep bin shares (see `ispn_experiments::cli`).

use ispn_experiments::{cli, mesh, PaperConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let (cfg, levels) = if cli::fast() {
        let duration = ispn_sim::SimTime::from_secs(20);
        let paper = PaperConfig::paper();
        (PaperConfig { duration, ..paper }, vec![1, 4])
    } else {
        (PaperConfig::medium(), vec![1, 3, 6])
    };
    cli::main(&mesh::Sweep { cfg, levels }, &args);
}
