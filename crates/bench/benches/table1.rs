//! Regenerates Table 1 of CSZ'92 at full length (harness = false).
//!
//! Takes the sweep bins' flags after `--` (see `ispn_experiments::cli`):
//! `cargo bench -p ispn-bench --bench table1 -- --workers 2` fans the
//! regeneration across two worker subprocesses, byte-identically, and
//! `--telemetry` prints the per-point wall-time summary.

use ispn_bench::bench_config;
use ispn_experiments::{cli, table1};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    cli::main(
        &table1::Sweep {
            cfg: bench_config(),
        },
        &args,
    );
}
