//! The worker binary behind the distributed-sweep integration tests:
//! serves the sweep suite named by its first argument over stdin/stdout,
//! or — with `--serve ADDR` — over a TCP listener bound to `ADDR` (see
//! `ispn_integration_tests::dist_fixtures`).  The tests locate this
//! binary through `CARGO_BIN_EXE_dist_worker` and point a `DistRunner`'s
//! `WorkerCommand` (stdio) or `HostSpec` list (TCP) at it.

use ispn_experiments::Serve;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let suite = args
        .get(1)
        .expect("usage: dist_worker <suite> [--serve ADDR]");
    let transport = match args.iter().position(|a| a == "--serve") {
        Some(i) => Serve::Listen(
            args.get(i + 1)
                .expect("usage: dist_worker <suite> --serve ADDR"),
        ),
        None => Serve::Stdio,
    };
    ispn_integration_tests::dist_fixtures::serve_suite(suite, transport).expect("sweep worker I/O");
}
