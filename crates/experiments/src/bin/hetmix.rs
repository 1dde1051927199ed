//! Run the heterogeneous-mix sweep: per-class delay and jitter versus
//! offered load for a CBR + on/off + Poisson mix under FIFO, FIFO+, WFQ
//! and the unified scheduler.  `ISPN_FAST=1` runs a shortened sweep (the
//! CI smoke configuration; workers inherit it, a `--serve` listener needs
//! it set like its parent); the sweep flags are the ones every sweep bin
//! shares (see `ispn_experiments::cli`).

use ispn_experiments::{cli, hetmix, PaperConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let (cfg, levels) = if cli::fast() {
        let duration = ispn_sim::SimTime::from_secs(20);
        let paper = PaperConfig::paper();
        (PaperConfig { duration, ..paper }, vec![1, 3])
    } else {
        (PaperConfig::medium(), vec![1, 2, 3])
    };
    cli::main(&hetmix::Sweep { cfg, levels }, &args);
}
