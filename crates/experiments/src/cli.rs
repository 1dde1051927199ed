//! The one command line every sweep bin shares: [`main`] turns an
//! [`Experiment`] plus `std::env::args()` into a whole run.
//!
//! Execution flags (pick at most one of `--workers` / `--hosts`):
//!
//! * *(none)* — fan sweep points across one in-process thread per core
//!   ([`SweepRunner::parallel`]);
//! * `--workers N` — fan sweep points across `N` supervised worker
//!   subprocesses ([`DistRunner`]), each the same binary re-invoked with
//!   `--sweep-worker` plus every argument of the parent run except the
//!   parent-only ones (`--workers N`, `--hosts LIST`, `--stream`,
//!   `--telemetry[=FILE]`), so a bin's own configuration flags reach its
//!   workers without the bin listing them;
//! * `--hosts LIST` — fan sweep points across already-listening worker
//!   hosts over TCP ([`DistRunner::over_hosts`]); `LIST` is
//!   comma-separated `host:port[=limit]` entries ([`HostSpec`]).
//!
//! Either distributed level sends one point request per round trip.
//!
//! Worker-side flags:
//!
//! * `--sweep-worker` — serve sweep points over stdin/stdout for a
//!   distributed parent; nothing else is written to stdout, which belongs
//!   to the frame stream in this mode;
//! * `--serve ADDR` — bind a TCP listener on `ADDR` and serve sweep
//!   points over accepted connections until killed, for a parent run
//!   elsewhere with `--hosts`; stdout carries only the listener's
//!   discovery banner.
//!
//! Reporting flags, parent side only and never forwarded to workers:
//!
//! * `--stream` — one stderr progress line per completed point (a
//!   streaming [`SweepProgress`]; without the flag it stays quiet);
//! * `--telemetry[=FILE]` — render the [`SweepTelemetry`] summary the
//!   sweep's [`SweepProgress`] folded from the points' wall times
//!   (worker-measured in distributed runs) to stderr, or write its JSON to
//!   `FILE`.
//!
//! Stdout is the rendered table — byte-identical in every mode — followed
//! by the experiment's check line, if it has one.  Exit status: 0, 1 when
//! a point failed (the table still prints, with the failure in place), 2
//! on a malformed flag.

use std::path::PathBuf;

use ispn_scenario::{
    failed_points, DistRunner, HostSpec, RunTelemetry, SweepExec, SweepProgress, SweepRunner,
    SweepTelemetry, WorkerCommand, WORKER_FLAG,
};

use crate::experiment::{run, serve, Experiment, Serve};

/// Run `e` as the command line `args` (the whole of `std::env::args()`)
/// asks: serve it as a worker or listener, or sweep it on the selected
/// execution level and print its table.  See the [module docs](self) for
/// the flags, the output contract and the exit codes.
pub fn main<E: Experiment>(e: &E, args: &[String]) {
    // Worker and listener modes come first: stdout is theirs.
    if is_sweep_worker(args) {
        serve(e, Serve::Stdio).expect("sweep worker I/O");
        return;
    }
    if let Some(addr) = parse_serve(args) {
        serve(e, Serve::Listen(&addr)).expect("sweep listener I/O");
        return;
    }
    let telemetry = parse_telemetry(args);
    let exec = sweep_exec(args);
    let points = e.set().len();
    eprintln!("running {points} sweep points on {} …", exec.description());
    let progress = SweepProgress::new(args.iter().any(|a| a == "--stream"));
    let reports = run(e, &exec, &progress);
    println!("{}", e.render(&reports));
    if let Some(sink) = &telemetry {
        emit_telemetry(sink, &progress.telemetry(), e.footprint().as_ref());
    }
    let failures = failed_points(&reports);
    if failures > 0 {
        eprintln!("{failures} sweep point(s) failed - see the report above");
        std::process::exit(1);
    }
    let rows: Vec<&E::Row> = reports
        .iter()
        .filter_map(|r| r.result.as_ref().ok())
        .collect();
    if let Some(line) = e.check(&rows) {
        println!("{line}");
    }
}

/// Whether `ISPN_FAST=1` asks for the short configuration — the one fast
/// switch of every bin and example (workers inherit the environment).
pub fn fast() -> bool {
    std::env::var("ISPN_FAST").is_ok_and(|v| v == "1")
}

/// Whether this invocation is a `--sweep-worker` child.
pub fn is_sweep_worker(args: &[String]) -> bool {
    args.iter().any(|a| a == WORKER_FLAG)
}

/// The `--serve ADDR` flag, if present: run this bin as a TCP sweep
/// listener bound to `ADDR` instead of printing a table.
///
/// Exits with status 2 on a missing address — the same convention the
/// bins' other flags use.
pub fn parse_serve(args: &[String]) -> Option<String> {
    let i = args.iter().position(|a| a == "--serve")?;
    match args.get(i + 1) {
        Some(addr) if !addr.is_empty() && !addr.starts_with("--") => Some(addr.clone()),
        _ => {
            eprintln!("--serve needs a bind address, e.g. `--serve 127.0.0.1:7600`");
            std::process::exit(2);
        }
    }
}

/// The value of a positive-integer flag (`--workers N`, a bin's own
/// `--seeds N`), if present.
///
/// Exits with status 2 on a malformed value — the same convention the
/// bins' other flags use.
pub fn parse_count(args: &[String], flag: &str) -> Option<usize> {
    let i = args.iter().position(|a| a == flag)?;
    match args.get(i + 1).map(|n| n.parse::<usize>()) {
        Some(Ok(n)) if n >= 1 => Some(n),
        _ => {
            eprintln!("{flag} needs a positive integer, e.g. `{flag} 4`");
            std::process::exit(2);
        }
    }
}

/// The `--hosts LIST` flag, if present: comma-separated
/// `host:port[=limit]` entries naming already-listening TCP workers.
///
/// Exits with status 2 on a malformed list — the same convention the
/// bins' other flags use.
fn parse_hosts(args: &[String]) -> Option<Vec<HostSpec>> {
    let i = args.iter().position(|a| a == "--hosts")?;
    let Some(list) = args.get(i + 1) else {
        eprintln!("--hosts needs a host list, e.g. `--hosts hostA:7600=4,hostB:7600=8`");
        std::process::exit(2);
    };
    match HostSpec::parse_list(list) {
        Ok(hosts) => Some(hosts),
        Err(e) => {
            eprintln!("bad --hosts list: {e}");
            std::process::exit(2);
        }
    }
}

/// The arguments a `--workers` parent hands its worker subprocesses:
/// everything it was given itself except the flags that only concern the
/// parent — how to dispatch (`--workers N`, `--hosts LIST`) and what to
/// report (`--stream`, `--telemetry[=FILE]`).
fn worker_args(args: &[String]) -> Vec<String> {
    let mut forwarded = Vec::new();
    let mut rest = args.iter().skip(1);
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--workers" | "--hosts" => {
                rest.next();
            }
            "--stream" | "--telemetry" => {}
            flag if flag.starts_with("--telemetry=") => {}
            _ => forwarded.push(arg.clone()),
        }
    }
    forwarded
}

/// Choose the sweep execution level from the command line: `--workers N`
/// selects a distributed run whose workers re-invoke the current
/// executable with `--sweep-worker` plus `worker_args` (so both sides
/// build the same sweep); `--hosts LIST` connects to already-listening
/// `--serve` workers over TCP instead; otherwise points fan across
/// in-process threads.
///
/// `--workers` and `--hosts` are mutually exclusive (exit 2): one names
/// subprocesses to spawn, the other machines that already run.
fn sweep_exec(args: &[String]) -> SweepExec {
    let workers = parse_count(args, "--workers");
    let hosts = parse_hosts(args);
    if workers.is_some() && hosts.is_some() {
        eprintln!("--workers and --hosts are mutually exclusive: pick subprocesses or sockets");
        std::process::exit(2);
    }
    if let Some(hosts) = hosts {
        return SweepExec::Distributed(DistRunner::over_hosts(&hosts));
    }
    match workers {
        Some(n) => {
            let command = WorkerCommand::current_exe()
                .arg(WORKER_FLAG)
                .args(worker_args(args));
            SweepExec::Distributed(DistRunner::new(n, command))
        }
        None => {
            let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
            SweepExec::InProcess(SweepRunner::parallel(cores))
        }
    }
}

/// Where `--telemetry[=FILE]` sends the sweep telemetry summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TelemetrySink {
    /// `--telemetry`: render the summary to stderr after the sweep.
    Stderr,
    /// `--telemetry=FILE`: write the summary JSON to the file.
    File(PathBuf),
}

/// The `--telemetry[=FILE]` flag, if present.
///
/// Exits with status 2 on an empty file path — the same convention the
/// bins' other flags use.
pub fn parse_telemetry(args: &[String]) -> Option<TelemetrySink> {
    for arg in args {
        if arg == "--telemetry" {
            return Some(TelemetrySink::Stderr);
        }
        if let Some(path) = arg.strip_prefix("--telemetry=") {
            if path.is_empty() {
                eprintln!("--telemetry= needs a file path, e.g. `--telemetry=sweep.json`");
                std::process::exit(2);
            }
            return Some(TelemetrySink::File(PathBuf::from(path)));
        }
    }
    None
}

/// Deliver a finished sweep's telemetry summary to its sink, with a
/// representative run's [`RunTelemetry`] block (engine counters and memory
/// footprint) appended when the experiment supplies one: the JSON gains a
/// `"run"` key next to the summary's fields, the stderr rendering one
/// extra line.  Writes only to stderr or the named file — never stdout,
/// which belongs to the byte-identical table.
fn emit_telemetry(sink: &TelemetrySink, summary: &SweepTelemetry, run: Option<&RunTelemetry>) {
    match sink {
        TelemetrySink::Stderr => {
            eprintln!("{}", summary.render());
            if let Some(run) = run {
                eprintln!(
                    "run telemetry: flow table {} B, reservations {} B, \
                     queue pools {} grows / {} segs peak, delay samples {} B",
                    run.flow_table_bytes,
                    run.reservation_state_bytes,
                    run.sched_pool_grow_events,
                    run.sched_pool_segments_high_water,
                    run.delay_sample_bytes
                );
            }
        }
        TelemetrySink::File(path) => {
            if let Err(e) = std::fs::write(path, format!("{}\n", summary.to_json(run))) {
                eprintln!("could not write telemetry to {}: {e}", path.display());
                std::process::exit(1);
            }
            eprintln!("sweep telemetry written to {}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn worker_flag_is_detected() {
        assert!(is_sweep_worker(&args("bin --sweep-worker")));
        assert!(!is_sweep_worker(&args("bin --stream")));
    }

    #[test]
    fn workers_flag_parses() {
        assert_eq!(parse_count(&args("bin"), "--workers"), None);
        assert_eq!(parse_count(&args("bin --workers 3"), "--workers"), Some(3));
    }

    #[test]
    fn telemetry_flag_parses_both_shapes() {
        assert_eq!(parse_telemetry(&args("bin")), None);
        assert_eq!(
            parse_telemetry(&args("bin --telemetry")),
            Some(TelemetrySink::Stderr)
        );
        assert_eq!(
            parse_telemetry(&args("bin --telemetry=sweep.json")),
            Some(TelemetrySink::File(PathBuf::from("sweep.json")))
        );
    }

    #[test]
    fn workers_are_forwarded_everything_but_the_parent_only_flags() {
        let parent = "bin --workers 2 --seeds 3 --stream --telemetry=x";
        assert_eq!(worker_args(&args(parent)), args("--seeds 3"));
        assert!(worker_args(&args("bin --telemetry --hosts a:1")).is_empty());
    }

    #[test]
    fn exec_levels_follow_the_flags() {
        match sweep_exec(&args("bin")) {
            SweepExec::InProcess(_) => {}
            other => panic!("expected in-process exec, got {other:?}"),
        }
        match sweep_exec(&args("bin --workers 2")) {
            SweepExec::Distributed(d) => assert_eq!(d.workers(), 2),
            other => panic!("expected distributed exec, got {other:?}"),
        }
        match sweep_exec(&args("bin --hosts a:1=2,b:1")) {
            SweepExec::Distributed(d) => assert_eq!(d.workers(), 3, "one slot per host connection"),
            other => panic!("expected socket exec, got {other:?}"),
        }
    }

    #[test]
    fn serve_and_hosts_flags_parse() {
        assert_eq!(parse_serve(&args("bin")), None);
        assert_eq!(
            parse_serve(&args("bin --serve 127.0.0.1:0")),
            Some("127.0.0.1:0".to_string())
        );
        assert_eq!(parse_hosts(&args("bin")), None);
        assert_eq!(
            parse_hosts(&args("bin --hosts a:1=2")),
            Some(vec![HostSpec::new("a:1", 2)])
        );
    }
}
