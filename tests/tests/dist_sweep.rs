//! Distributed-sweep acceptance harness: byte identity and fault
//! injection for `ispn-scenario::sweep::dist`.
//!
//! The contract under test has two halves:
//!
//! * **Byte identity** — a sweep fanned across worker subprocesses must
//!   produce results byte-identical to the serial run in this process:
//!   same point order, same tags, same wire JSON for every result, same
//!   rendered tables (`fx::assert_exec_matches_serial`) — for all six
//!   experiments, for worker counts 1..=4, including the churn
//!   accept/reject decision sequence.
//! * **Supervision** — a worker that panics, exits, emits garbage or
//!   hangs poisons exactly its in-flight point (a structured `SweepError`
//!   naming the point's tags) while every sibling point completes on the
//!   surviving workers; only `SweepReport::expect_ok` turns the failure
//!   into a panic, and each point's final outcome is observed exactly once.
//!
//! Both halves are exercised over **both transports**: stdio subprocess
//! workers (`--sweep-worker`) and loopback-TCP listeners (`--serve`,
//! driven through `DistRunner::over_hosts`).  The TCP tests share the
//! `tcp_` name prefix so CI can select them as a group; the socket fault
//! tests add the socket-only failure modes (mid-point disconnect,
//! pre-hello hang, stream garbage), each poisoning exactly one point
//! while its siblings survive on a reconnected session.
//!
//! The workers are the `dist_worker` bin of this package; the suites it
//! serves are pinned in `ispn_integration_tests::dist_fixtures`, which
//! the parent side of every test reuses so both processes build the same
//! `ScenarioSet`.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use ispn_integration_tests::dist_fixtures as fx;
use ispn_scenario::{
    failed_points, sweep_to_json, DistRunner, FaultPlan, HostSpec, NullObserver, PointResult,
    ProgressObserver, SweepExec, SweepReport, SweepRunner, TelemetryCollector, WorkerCommand,
    LISTENING_BANNER,
};

/// The worker command serving one fixture suite.
fn worker(suite: &str) -> WorkerCommand {
    WorkerCommand::new(env!("CARGO_BIN_EXE_dist_worker")).arg(suite)
}

/// A live `dist_worker --serve` listener on an ephemeral loopback port,
/// killed on drop.  The bound address is learned from the discovery
/// banner the listener prints on startup.
struct Listener {
    child: Child,
    addr: String,
}

impl Listener {
    fn spawn(suite: &str) -> Listener {
        Listener::spawn_inner(suite, None)
    }

    /// A listener whose sessions run under an injected fault plan.
    fn spawn_with_fault(suite: &str, fault: FaultPlan) -> Listener {
        Listener::spawn_inner(suite, Some(fault.env_value()))
    }

    fn spawn_inner(suite: &str, fault: Option<String>) -> Listener {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_dist_worker"));
        cmd.arg(suite)
            .arg("--serve")
            .arg("127.0.0.1:0")
            .stdout(Stdio::piped());
        if let Some(value) = fault {
            cmd.env(FaultPlan::ENV, value);
        }
        let mut child = cmd.spawn().expect("spawn sweep listener");
        let stdout = child.stdout.take().expect("listener stdout");
        let mut banner = String::new();
        BufReader::new(stdout)
            .read_line(&mut banner)
            .expect("read listener banner");
        let addr = banner
            .trim()
            .strip_prefix(LISTENING_BANNER)
            .unwrap_or_else(|| panic!("unexpected listener banner: {banner:?}"))
            .to_string();
        Listener { child, addr }
    }

    /// This listener as a one-host `--hosts` list contributing `limit`
    /// concurrent connections.
    fn hosts(&self, limit: usize) -> Vec<HostSpec> {
        vec![HostSpec::new(self.addr.clone(), limit)]
    }

    /// A socket `SweepExec` opening `limit` connections to this listener.
    fn exec(&self, limit: usize) -> SweepExec {
        SweepExec::Distributed(DistRunner::over_hosts(&self.hosts(limit)))
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A distributed runner over one fixture suite.
fn dist(suite: &str, workers: usize) -> DistRunner {
    DistRunner::new(workers, worker(suite))
}

/// A distributed `SweepExec` over one fixture suite.
fn dist_exec(suite: &str, workers: usize) -> SweepExec {
    SweepExec::Distributed(dist(suite, workers))
}

#[test]
fn table1_distributed_is_byte_identical_to_in_process() {
    fx::assert_exec_matches_serial(&fx::table1(), &dist_exec("table1", 2));
}

#[test]
fn table2_distributed_is_byte_identical_to_in_process() {
    fx::assert_exec_matches_serial(&fx::table2(), &dist_exec("table2", 3));
}

#[test]
fn table3_seed_replication_distributed_is_byte_identical() {
    fx::assert_exec_matches_serial(&fx::table3(), &dist_exec("table3", 2));
}

#[test]
fn hetmix_distributed_is_byte_identical_to_in_process() {
    fx::assert_exec_matches_serial(&fx::hetmix(), &dist_exec("hetmix", 4));
}

#[test]
fn mesh_distributed_is_byte_identical_to_in_process() {
    fx::assert_exec_matches_serial(&fx::mesh(), &dist_exec("mesh", 2));
}

#[test]
fn churn_distributed_reproduces_the_decision_sequence() {
    fx::assert_churn_matches_serial(&dist_exec("churn", 2));
}

/// The generic `ScenarioReport` sweep is byte-identical to the serial
/// runner's JSON for every worker count 1..=4 — the full report schema
/// (flows, links, classes, quantiles, disciplines, signaling)
/// crosses the pipe losslessly.
#[test]
fn scenario_json_is_byte_identical_for_one_through_four_workers() {
    let set = fx::scenario_set();
    let serial = SweepRunner::serial().run(&set, fx::scenario_point, &NullObserver);
    let serial_json = sweep_to_json(&serial);
    for workers in 1..=4 {
        let reports = dist("scenario", workers).run(&set, &NullObserver);
        assert_eq!(
            sweep_to_json(&reports),
            serial_json,
            "{workers} workers diverged from serial"
        );
    }
}

/// A worker panic inside the point's closure is the graceful path: the
/// worker survives, the point carries a structured error naming its tags,
/// and every sibling completes.
#[test]
fn panicking_point_is_isolated_and_named() {
    let set = fx::square_set(fx::SQUARE_POINTS);
    let runner = DistRunner::new(
        2,
        worker("square").env(FaultPlan::ENV, FaultPlan::panic_at(3).env_value()),
    );
    let reports: Vec<SweepReport<PointResult<u64>>> = runner.run(&set, &NullObserver);
    assert_eq!(failed_points(&reports), 1);
    let err = reports[3].result.as_ref().unwrap_err();
    assert_eq!(err.index, 3);
    assert_eq!(err.tags, vec![("i".to_string(), "3".to_string())]);
    assert!(err.payload.contains("injected fault"), "{err}");
    for (i, r) in reports.iter().enumerate() {
        if i != 3 {
            assert_eq!(r.result, Ok((i * i) as u64), "sibling {i} must survive");
        }
    }
}

/// A worker killed mid-point (abrupt exit) poisons exactly that point;
/// its remaining points are redistributed and complete.
#[test]
fn killed_worker_poisons_only_its_in_flight_point() {
    let set = fx::square_set(fx::SQUARE_POINTS);
    let runner = DistRunner::new(
        2,
        worker("square").env(FaultPlan::ENV, FaultPlan::exit_at(2).env_value()),
    );
    let reports: Vec<SweepReport<PointResult<u64>>> = runner.run(&set, &NullObserver);
    assert_eq!(failed_points(&reports), 1);
    let err = reports[2].result.as_ref().unwrap_err();
    assert_eq!(err.tags, vec![("i".to_string(), "2".to_string())]);
    assert!(err.payload.contains("exited"), "{err}");
    for (i, r) in reports.iter().enumerate() {
        if i != 2 {
            assert_eq!(r.result, Ok((i * i) as u64), "sibling {i} must survive");
        }
    }
}

/// A truncated/garbage frame poisons the point and discards the worker;
/// siblings complete on a replacement.
#[test]
fn garbage_frame_poisons_the_point_and_names_it() {
    let set = fx::square_set(fx::SQUARE_POINTS);
    let runner = DistRunner::new(
        2,
        worker("square").env(FaultPlan::ENV, FaultPlan::garbage_at(4).env_value()),
    );
    let reports: Vec<SweepReport<PointResult<u64>>> = runner.run(&set, &NullObserver);
    assert_eq!(failed_points(&reports), 1);
    let err = reports[4].result.as_ref().unwrap_err();
    assert_eq!(err.tags, vec![("i".to_string(), "4".to_string())]);
    assert!(err.payload.contains("malformed frame"), "{err}");
    for (i, r) in reports.iter().enumerate() {
        if i != 4 {
            assert_eq!(r.result, Ok((i * i) as u64), "sibling {i} must survive");
        }
    }
}

/// A wedged worker trips the per-point deadline: killed, point poisoned,
/// siblings complete.
#[test]
fn hanging_worker_trips_the_deadline() {
    let set = fx::square_set(fx::SQUARE_POINTS);
    let runner = DistRunner::new(
        2,
        worker("square").env(FaultPlan::ENV, FaultPlan::hang_at(1).env_value()),
    )
    .deadline(Duration::from_secs(5));
    let reports: Vec<SweepReport<PointResult<u64>>> = runner.run(&set, &NullObserver);
    assert_eq!(failed_points(&reports), 1);
    let err = reports[1].result.as_ref().unwrap_err();
    assert_eq!(err.tags, vec![("i".to_string(), "1".to_string())]);
    assert!(err.payload.contains("deadline"), "{err}");
    for (i, r) in reports.iter().enumerate() {
        if i != 1 {
            assert_eq!(r.result, Ok((i * i) as u64), "sibling {i} must survive");
        }
    }
}

/// `expect_ok` is the only surface that panics on a fault — and it names
/// the poisoned point's tags when it does.
#[test]
fn infallible_run_panics_naming_the_faulted_point() {
    let set = fx::square_set(fx::SQUARE_POINTS);
    let runner = DistRunner::new(
        2,
        worker("square").env(FaultPlan::ENV, FaultPlan::exit_at(5).env_value()),
    );
    let reports: Vec<SweepReport<PointResult<u64>>> = runner.run(&set, &NullObserver);
    assert_eq!(failed_points(&reports), 1);
    let outcome = std::panic::catch_unwind(|| {
        reports
            .into_iter()
            .map(SweepReport::expect_ok)
            .collect::<Vec<_>>()
    });
    let payload = outcome.expect_err("a faulted sweep must fail the infallible surface");
    let text = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(text.contains("i=5"), "panic must name the tags: {text}");
}

/// Regression (PR-5 satellite): the streamed completion count equals the
/// point count even when a worker death forces redistribution — each
/// point's final outcome is observed exactly once, and `ProgressObserver`
/// resets correctly when reused for a second sweep.
#[test]
fn progress_observer_counts_each_point_exactly_once_under_redistribution() {
    let set = fx::square_set(fx::SQUARE_POINTS);
    let runner = DistRunner::new(
        2,
        worker("square").env(FaultPlan::ENV, FaultPlan::exit_at(1).env_value()),
    );
    let progress = ProgressObserver::new();
    let reports: Vec<SweepReport<PointResult<u64>>> = runner.run(&set, &progress);
    assert_eq!(reports.len(), fx::SQUARE_POINTS);
    assert_eq!(
        progress.completed(),
        fx::SQUARE_POINTS,
        "every point's final outcome is observed exactly once"
    );
    assert_eq!(failed_points(&reports), 1);
    // Reusing the observer for a fresh sweep must not double-count.
    let clean = DistRunner::new(2, worker("square"));
    let reports: Vec<SweepReport<PointResult<u64>>> = clean.run(&set, &progress);
    assert_eq!(progress.completed(), fx::SQUARE_POINTS);
    assert_eq!(failed_points(&reports), 0);
}

/// A parent/worker configuration skew (the worker built a different
/// sweep) is refused at the handshake: every point carries a structured
/// mismatch error instead of silently computing the wrong scenarios.
#[test]
fn configuration_mismatch_is_refused_at_the_handshake() {
    let set = fx::square_set(fx::SQUARE_POINTS);
    let runner = DistRunner::new(2, worker("square5"));
    let reports: Vec<SweepReport<PointResult<u64>>> = runner.run(&set, &NullObserver);
    assert_eq!(failed_points(&reports), fx::SQUARE_POINTS);
    for r in &reports {
        let err = r.result.as_ref().unwrap_err();
        assert!(err.payload.contains("configuration mismatch"), "{err}");
    }
}

/// Regression (handshake-deadline satellite): a stdio worker wedged
/// *before* its hello no longer stalls its supervisor slot forever — the
/// always-on handshake deadline cuts it loose, and after three strikes
/// the slot goes fatal with a memoized payload instead of respawning
/// forever.
#[test]
fn pre_hello_hang_trips_the_handshake_deadline() {
    let set = fx::square_set(4);
    let runner =
        DistRunner::new(1, worker("hang-hello")).hello_deadline(Duration::from_millis(300));
    let reports: Vec<SweepReport<PointResult<u64>>> = runner.run(&set, &NullObserver);
    assert_eq!(failed_points(&reports), 4);
    let first = reports[0].result.as_ref().unwrap_err();
    assert!(first.payload.contains("handshake"), "{first}");
    let last = reports[3].result.as_ref().unwrap_err();
    assert!(last.payload.contains("giving up"), "{last}");
}

// ---------------------------------------------------------------------------
// Loopback-TCP golden suite: the `tcp_` prefix is how CI selects this group.
// ---------------------------------------------------------------------------

#[test]
fn tcp_table1_is_byte_identical_to_in_process() {
    fx::assert_exec_matches_serial(&fx::table1(), &Listener::spawn("table1").exec(2));
}

#[test]
fn tcp_table2_is_byte_identical_to_in_process() {
    fx::assert_exec_matches_serial(&fx::table2(), &Listener::spawn("table2").exec(3));
}

#[test]
fn tcp_table3_seed_replication_is_byte_identical() {
    fx::assert_exec_matches_serial(&fx::table3(), &Listener::spawn("table3").exec(2));
}

#[test]
fn tcp_hetmix_is_byte_identical_to_in_process() {
    fx::assert_exec_matches_serial(&fx::hetmix(), &Listener::spawn("hetmix").exec(4));
}

#[test]
fn tcp_mesh_is_byte_identical_to_in_process() {
    fx::assert_exec_matches_serial(&fx::mesh(), &Listener::spawn("mesh").exec(2));
}

#[test]
fn tcp_churn_reproduces_the_decision_sequence() {
    fx::assert_churn_matches_serial(&Listener::spawn("churn").exec(2));
}

/// The full `ScenarioReport` schema crosses TCP losslessly too, and the
/// parent measures a round trip for every point (the socket run's
/// telemetry exposes per-point round-trip overhead; an in-process run has
/// none to report).
#[test]
fn tcp_scenario_json_is_byte_identical_and_measures_round_trips() {
    let set = fx::scenario_set();
    let serial = SweepRunner::serial().run(&set, fx::scenario_point, &NullObserver);
    let serial_json = sweep_to_json(&serial);
    let listener = Listener::spawn("scenario");
    let runner = DistRunner::over_hosts(&listener.hosts(2));
    let base = NullObserver;
    let collector = TelemetryCollector::new(&base);
    let reports = runner.run(&set, &collector);
    assert_eq!(failed_points(&reports), 0);
    assert_eq!(sweep_to_json(&reports), serial_json);
    let summary = collector.summary();
    let json = summary.to_json(None);
    assert!(
        json.contains(&format!("\"rtt_points\":{}", set.len())),
        "every socket point measures a round trip: {json}"
    );
    assert!(summary.total_overhead_s() >= 0.0);
    assert!(
        summary.render().contains("round-trip overhead"),
        "{}",
        summary.render()
    );
}

// ---------------------------------------------------------------------------
// Socket fault injection: the failure modes only a network transport has.
// ---------------------------------------------------------------------------

/// A connection dropped mid-point poisons exactly that point; the slot
/// reconnects (a fresh session on the same listener) and the remaining
/// points complete there.
#[test]
fn tcp_disconnect_poisons_only_the_in_flight_point() {
    let set = fx::square_set(fx::SQUARE_POINTS);
    let listener = Listener::spawn_with_fault("square", FaultPlan::disconnect_at(2));
    let runner = DistRunner::over_hosts(&listener.hosts(2));
    let reports: Vec<SweepReport<PointResult<u64>>> = runner.run(&set, &NullObserver);
    assert_eq!(failed_points(&reports), 1);
    let err = reports[2].result.as_ref().unwrap_err();
    assert_eq!(err.tags, vec![("i".to_string(), "2".to_string())]);
    assert!(err.payload.contains("closed by peer"), "{err}");
    for (i, r) in reports.iter().enumerate() {
        if i != 2 {
            assert_eq!(r.result, Ok((i * i) as u64), "sibling {i} must survive");
        }
    }
}

/// A session wedged before its hello trips the handshake deadline: the
/// slot's first claimed point is poisoned with a handshake error, and the
/// reconnected session (the listener's next accept) serves the rest.
#[test]
fn tcp_pre_hello_hang_poisons_one_point_then_reconnects() {
    let set = fx::square_set(fx::SQUARE_POINTS);
    let listener = Listener::spawn_with_fault("square", FaultPlan::hello_hang_at(0));
    let runner =
        DistRunner::over_hosts(&listener.hosts(1)).hello_deadline(Duration::from_millis(500));
    let reports: Vec<SweepReport<PointResult<u64>>> = runner.run(&set, &NullObserver);
    assert_eq!(failed_points(&reports), 1);
    let err = reports[0].result.as_ref().unwrap_err();
    assert_eq!(err.tags, vec![("i".to_string(), "0".to_string())]);
    assert!(err.payload.contains("handshake"), "{err}");
    for (i, r) in reports.iter().enumerate().skip(1) {
        assert_eq!(r.result, Ok((i * i) as u64), "sibling {i} must survive");
    }
}

/// Garbage on the stream poisons the point, the poisoned session is
/// dropped, and siblings survive on a reconnected one.
#[test]
fn tcp_garbage_frame_poisons_the_point_and_reconnects() {
    let set = fx::square_set(fx::SQUARE_POINTS);
    let listener = Listener::spawn_with_fault("square", FaultPlan::garbage_at(5));
    let runner = DistRunner::over_hosts(&listener.hosts(2));
    let reports: Vec<SweepReport<PointResult<u64>>> = runner.run(&set, &NullObserver);
    assert_eq!(failed_points(&reports), 1);
    let err = reports[5].result.as_ref().unwrap_err();
    assert_eq!(err.tags, vec![("i".to_string(), "5".to_string())]);
    assert!(err.payload.contains("malformed frame"), "{err}");
    for (i, r) in reports.iter().enumerate() {
        if i != 5 {
            assert_eq!(r.result, Ok((i * i) as u64), "sibling {i} must survive");
        }
    }
}

/// A TCP configuration skew is refused exactly like the stdio one: the
/// listener's hello names a different point count, so every point carries
/// the structured mismatch error.
#[test]
fn tcp_configuration_mismatch_is_refused_at_the_handshake() {
    let set = fx::square_set(fx::SQUARE_POINTS);
    let listener = Listener::spawn("square5");
    let runner = DistRunner::over_hosts(&listener.hosts(2));
    let reports: Vec<SweepReport<PointResult<u64>>> = runner.run(&set, &NullObserver);
    assert_eq!(failed_points(&reports), fx::SQUARE_POINTS);
    for r in &reports {
        let err = r.result.as_ref().unwrap_err();
        assert!(err.payload.contains("configuration mismatch"), "{err}");
    }
}
