//! The process-level sweep runner: fan scenario points across supervised
//! workers — subprocesses or TCP-connected hosts — byte-identical to the
//! in-thread runners.
//!
//! [`DistRunner`] implements the same contract as
//! [`SweepRunner`](super::SweepRunner) — results in point order, each
//! point's slot carrying `Ok(result)` or a structured
//! [`SweepError`](super::SweepError), every completion reported to the
//! [`SweepProgress`](super::SweepProgress) the moment it happens — but
//! runs each point in a **worker process** speaking the line-framed
//! JSON protocol of [`wire`](super::wire).  The worker is the same
//! experiment binary re-invoked with `--sweep-worker` (see
//! [`worker::serve_worker`](super::worker::serve_worker)) or listening on
//! a socket behind `--serve ADDR` (see [`net`](super::net)); it rebuilds
//! the identical [`ScenarioSet`](super::ScenarioSet) from its own command
//! line, so requests carry only point indices plus the axis tags both
//! sides verify against each other.
//!
//! # Transports
//!
//! Each supervisor slot drives its worker through the `WorkerTransport`
//! seam: send a request line, await a frame line (with an optional
//! deadline), tear the worker down, describe how it ended.  Two
//! transports exist — the subprocess pipes this module owns, and the TCP
//! client in [`net`](super::net) — and supervision is identical across
//! them: a lost connection is handled exactly like a dead subprocess
//! (poison the in-flight point, reconnect for the slot's next claim), and
//! a host that keeps refusing connections trips the same
//! [`FATAL_SPAWN_FAILURES`] 3-strike rule as an unspawnable command.
//!
//! # Supervision
//!
//! Workers are expendable.  Each of the `N` supervisor threads owns one
//! worker at a time and claims one point at a time off a shared
//! work-stealing counter, so a dead worker's **remaining** points are
//! automatically redistributed to whichever workers survive.  Whatever goes wrong while
//! a point is in flight — the worker exits or is killed, the connection
//! drops, it emits a malformed frame, overruns the per-point
//! [`deadline`](DistRunner::deadline), or cannot even be spawned —
//! becomes that point's `SweepError` (index, tags, a payload describing
//! the fault); the misbehaving worker is torn down, a replacement is
//! spawned (or the host reconnected) for the supervisor's next point, and
//! every sibling point still completes.  A panic *inside* the point's
//! closure is caught by the worker itself and travels back as an error
//! frame, exactly like the in-process runner's `catch_unwind` — the
//! worker keeps serving.
//!
//! The hello handshake is **always** bounded by
//! [`hello_deadline`](DistRunner::hello_deadline) (default
//! [`DEFAULT_HELLO_DEADLINE`]), even when no per-point deadline is set: a
//! worker that hangs before saying hello — under TCP, a half-open accept —
//! would otherwise stall its supervisor slot forever, and unlike a long
//! scenario point there is no legitimate reason for a handshake to take
//! minutes.
//!
//! Because each fault consumes exactly one point and poisoned points are
//! never re-dispatched, supervision terminates even when every spawn
//! fails: the sweep degrades to one structured error per point rather
//! than hanging or aborting.
//!
//! # Byte identity
//!
//! A scenario point is a pure function of its parameters, so running it
//! in another process changes nothing *if* the result survives the pipe
//! losslessly — which is what [`WireResult`](super::wire::WireResult)
//! guarantees (exact float and integer round-trips).  The
//! `tests/tests/dist_sweep.rs` harness pins this: distributed output is
//! byte-identical to [`SweepRunner::run`](super::SweepRunner::run) for
//! all six experiments, under worker counts 1..=4, over subprocess pipes
//! and loopback TCP alike.

#![deny(
    clippy::indexing_slicing,
    clippy::expect_used,
    clippy::unwrap_used,
    clippy::panic,
    clippy::string_slice,
    clippy::unreachable
)]

use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use super::net::{self, HostSpec};
use super::wire::{self, WireResult, WorkerFrame};
use super::worker::WORKER_ID_ENV;
use super::{
    PointResult, PointTelemetry, ScenarioSet, SweepError, SweepProgress, SweepReport, SweepRunner,
};

/// How a [`DistRunner`] launches one worker subprocess: program, fixed
/// arguments and extra environment variables.
///
/// The typical command is the experiment binary itself re-invoked with
/// `--sweep-worker` plus whatever configuration flags the parent run
/// received (so both sides build the same sweep):
///
/// ```no_run
/// use ispn_scenario::WorkerCommand;
/// let cmd = WorkerCommand::current_exe().arg("--sweep-worker").arg("--seeds").arg("2");
/// ```
#[derive(Debug, Clone)]
pub struct WorkerCommand {
    program: PathBuf,
    args: Vec<String>,
    envs: Vec<(String, String)>,
}

impl WorkerCommand {
    /// A command running `program`.
    pub fn new(program: impl Into<PathBuf>) -> Self {
        WorkerCommand {
            program: program.into(),
            args: Vec::new(),
            envs: Vec::new(),
        }
    }

    /// A command re-invoking the current executable (the standard shape:
    /// every experiment bin doubles as its own worker).
    ///
    /// # Panics
    /// Panics if the current executable's path cannot be determined.
    #[expect(
        clippy::expect_used,
        reason = "worker-command construction, before any point is claimed: a current_exe \
                  failure is a spawn-time config error, not a point poison"
    )]
    pub fn current_exe() -> Self {
        WorkerCommand::new(std::env::current_exe().expect("current executable path"))
    }

    /// Append one argument.
    pub fn arg(mut self, arg: impl Into<String>) -> Self {
        self.args.push(arg.into());
        self
    }

    /// Append several arguments.
    pub fn args<I: IntoIterator<Item = S>, S: Into<String>>(mut self, args: I) -> Self {
        self.args.extend(args.into_iter().map(Into::into));
        self
    }

    /// Set one environment variable for the worker (on top of the parent's
    /// inherited environment).
    pub fn env(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.envs.push((key.into(), value.into()));
        self
    }

    fn spawn(&self, worker_id: usize) -> std::io::Result<Child> {
        let mut cmd = Command::new(&self.program);
        cmd.args(&self.args)
            .env(WORKER_ID_ENV, worker_id.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        for (k, v) in &self.envs {
            cmd.env(k, v);
        }
        cmd.spawn()
    }
}

/// What awaiting one worker frame line produced.
#[derive(Debug)]
pub(crate) enum Await {
    /// A frame line arrived.
    Line(String),
    /// The stream ended: the process exited / the peer closed the
    /// connection.
    Eof,
    /// The deadline elapsed without a line.
    TimedOut,
}

/// The transport seam under one supervisor slot: whatever carries the
/// line-framed worker protocol — a spawned subprocess's stdin/stdout
/// pipes here, a connected TCP socket in
/// [`net::SocketTransport`](super::net) — presents the same operations,
/// so [`DistRunner`] supervision (respawn/reconnect, teardown, deadline
/// awaits, per-point poisoning) is transport-agnostic.
pub(crate) trait WorkerTransport: Send {
    /// Send one request line (the implementation appends the terminator)
    /// and flush it to the worker.
    fn send_line(&mut self, line: &str) -> std::io::Result<()>;

    /// Await the worker's next frame line, honoring `deadline` when set.
    fn recv_line(&mut self, deadline: Option<Duration>) -> Await;

    /// Forcibly tear the worker down — kill the process, drop the
    /// connection — returning a human-readable description of how it
    /// ended (for fault payloads).
    fn terminate(&mut self) -> String;

    /// Describe a worker whose stream already reached EOF (reap the
    /// process / name the closed connection) without escalating further.
    fn finish(&mut self) -> String;

    /// Graceful end-of-sweep shutdown: close the request stream so the
    /// serve loop exits cleanly, escalating to a kill only if the worker
    /// ignores EOF past a grace period.
    fn shutdown(&mut self);
}

/// Await a line from a reader-thread channel, honoring an optional
/// deadline — the shared receive path of both transports (each feeds a
/// detached reader thread into an [`mpsc`] channel so awaits can time
/// out).
pub(crate) fn recv_channel_line(
    lines: &mpsc::Receiver<String>,
    deadline: Option<Duration>,
) -> Await {
    match deadline {
        Some(deadline) => match lines.recv_timeout(deadline) {
            Ok(line) => Await::Line(line),
            Err(mpsc::RecvTimeoutError::Timeout) => Await::TimedOut,
            Err(mpsc::RecvTimeoutError::Disconnected) => Await::Eof,
        },
        None => match lines.recv() {
            Ok(line) => Await::Line(line),
            Err(_) => Await::Eof,
        },
    }
}

/// Spawn the detached reader thread both transports use: forwards
/// `\n`/`\r\n`-stripped lines from `reader` into a channel until EOF.  It
/// holds only the stream and the sender, so it dies with the worker.
pub(crate) fn spawn_line_reader<R: std::io::Read + Send + 'static>(
    reader: R,
) -> mpsc::Receiver<String> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let mut reader = BufReader::new(reader);
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {
                    let trimmed = line.trim_end_matches(['\n', '\r']).to_string();
                    if tx.send(trimmed).is_err() {
                        break;
                    }
                }
            }
        }
    });
    rx
}

/// The subprocess transport: a piped child, its stdin, and the reader
/// channel over its stdout.
struct ChildTransport {
    child: Child,
    stdin: Option<ChildStdin>,
    lines: mpsc::Receiver<String>,
}

impl ChildTransport {
    fn spawn(command: &WorkerCommand, worker_id: usize) -> Result<ChildTransport, String> {
        let mut child = command
            .spawn(worker_id)
            .map_err(|e| format!("could not spawn worker {:?}: {e}", command.program))?;
        #[expect(clippy::expect_used, reason = "spawn() pipes stdin")]
        let stdin = child.stdin.take().expect("stdin was piped");
        #[expect(clippy::expect_used, reason = "spawn() pipes stdout")]
        let stdout = child.stdout.take().expect("stdout was piped");
        Ok(ChildTransport {
            child,
            stdin: Some(stdin),
            lines: spawn_line_reader(stdout),
        })
    }
}

impl WorkerTransport for ChildTransport {
    fn send_line(&mut self, line: &str) -> std::io::Result<()> {
        #[expect(
            clippy::expect_used,
            reason = "the stdin slot is Some until shutdown() by the transport contract; a \
                      violation is a harness bug worth a loud abort"
        )]
        let stdin = self
            .stdin
            .as_mut()
            .expect("worker stdin held until shutdown");
        stdin.write_all(line.as_bytes())?;
        stdin.write_all(b"\n")?;
        stdin.flush()
    }

    fn recv_line(&mut self, deadline: Option<Duration>) -> Await {
        recv_channel_line(&self.lines, deadline)
    }

    fn terminate(&mut self) -> String {
        let _ = self.child.kill();
        match self.child.wait() {
            Ok(status) => status.to_string(),
            Err(e) => format!("unwaitable ({e})"),
        }
    }

    fn finish(&mut self) -> String {
        match self.child.wait() {
            Ok(status) => status.to_string(),
            Err(e) => format!("unwaitable ({e})"),
        }
    }

    fn shutdown(&mut self) {
        drop(self.stdin.take());
        #[expect(
            clippy::disallowed_methods,
            reason = "shutdown grace timer, after the last point's result was recorded"
        )]
        let started = Instant::now();
        let left = || SHUTDOWN_GRACE.saturating_sub(started.elapsed());
        // A worker that honours EOF closes its stdout on the way out, which
        // the reader thread turns into a disconnected channel: block on
        // that instead of polling, so a clean shutdown costs the worker's
        // own exit time rather than a sleep tick.  Late frame lines are
        // discarded.
        let stdout_closed = loop {
            match self.lines.recv_timeout(left()) {
                Ok(_) => continue,
                Err(mpsc::RecvTimeoutError::Disconnected) => break true,
                Err(mpsc::RecvTimeoutError::Timeout) => break false,
            }
        };
        // Stdout closes an instant before the process is reapable; back
        // off from 100 µs so that window is not rounded up to a tick.
        let mut pause = Duration::from_micros(100);
        while stdout_closed && !left().is_zero() {
            match self.child.try_wait() {
                Ok(Some(_)) => return,
                Ok(None) => std::thread::sleep(pause),
                Err(_) => break,
            }
            pause = (pause * 2).min(Duration::from_millis(20));
        }
        // Ignored EOF, or closed stdout and lingered: escalate.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// How long [`ChildTransport::shutdown`] lets a worker take to exit after
/// its stdin closed before killing it.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(2);

/// Consecutive spawn/connect/handshake failures after which a supervisor
/// stops retrying and fails its remaining claims with the memoized
/// payload.
const FATAL_SPAWN_FAILURES: u32 = 3;

/// The always-on bound on the hello handshake (see
/// [`DistRunner::hello_deadline`]).
pub const DEFAULT_HELLO_DEADLINE: Duration = Duration::from_secs(30);

/// One supervisor thread's state: which slot it is, the sweep's point
/// count its workers must hello with, its current worker, and the
/// bookkeeping that turns a *deterministic* spawn/handshake failure into a
/// fast structured failure instead of one spawn cycle per remaining point.
struct Supervisor {
    id: usize,
    points: usize,
    live: Option<Box<dyn WorkerTransport>>,
    consecutive_spawn_failures: u32,
    fatal: Option<String>,
}

/// How a [`DistRunner`] obtains workers: spawn subprocesses, or connect
/// to listening hosts (one precomputed address per supervisor slot).
#[derive(Debug, Clone)]
enum Launch {
    Spawn(WorkerCommand),
    Connect(Vec<String>),
}

/// Fans the points of a [`ScenarioSet`](super::ScenarioSet) across
/// supervised workers — subprocesses ([`DistRunner::new`]) or TCP hosts
/// ([`DistRunner::over_hosts`]).  See the [module docs](self) for the
/// protocol and supervision semantics.
#[derive(Debug, Clone)]
pub struct DistRunner {
    workers: usize,
    launch: Launch,
    deadline: Option<Duration>,
    hello_deadline: Duration,
}

impl DistRunner {
    /// Fan points across `workers` subprocesses (at least one) launched
    /// with `command`.
    pub fn new(workers: usize, command: WorkerCommand) -> Self {
        DistRunner {
            workers: workers.max(1),
            launch: Launch::Spawn(command),
            deadline: None,
            hello_deadline: DEFAULT_HELLO_DEADLINE,
        }
    }

    /// Fan points across TCP workers listening on `hosts` (each started
    /// with `--serve ADDR`, see [`net::serve_listener`](super::net::serve_listener)).
    /// One supervisor slot is opened per connection the host list allows
    /// — `host:port=4` contributes four slots — and slots are spread
    /// round-robin across hosts.  Connection loss is handled exactly like
    /// a dead subprocess: the in-flight point is poisoned and the slot
    /// reconnects to the same host for its next claim.
    ///
    /// # Panics
    /// Panics on an empty host list — there is nowhere to run the sweep.
    pub fn over_hosts(hosts: &[HostSpec]) -> Self {
        let slots = net::slot_addrs(hosts);
        assert!(!slots.is_empty(), "host list must name at least one host");
        DistRunner {
            workers: slots.len(),
            launch: Launch::Connect(slots),
            deadline: None,
            hello_deadline: DEFAULT_HELLO_DEADLINE,
        }
    }

    /// Set the per-point deadline: a worker that takes longer than this to
    /// answer one request is declared wedged, torn down, and the in-flight
    /// point poisoned.  Off by default — an undistributed sweep has no
    /// timeout either, and a healthy long point must not be mistaken for a
    /// hang.  (The hello handshake is bounded separately and always: see
    /// [`hello_deadline`](DistRunner::hello_deadline).)
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Set the hello-handshake deadline (default
    /// [`DEFAULT_HELLO_DEADLINE`]).  Unlike the per-point
    /// [`deadline`](DistRunner::deadline) this is never off: a worker that
    /// hangs *before* hello — a half-open TCP accept, a wedged startup —
    /// would otherwise stall its supervisor slot forever, and a handshake
    /// has no legitimate reason to be slow.  When a per-point deadline is
    /// also set, the handshake honors the tighter of the two.
    pub fn hello_deadline(mut self, deadline: Duration) -> Self {
        self.hello_deadline = deadline;
        self
    }

    /// The configured worker count (subprocesses or socket connections).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// A human-readable description of the execution level for progress
    /// banners.
    pub fn description(&self) -> String {
        match &self.launch {
            Launch::Spawn(_) => format!("{} worker processes", self.workers),
            Launch::Connect(slots) => {
                let hosts: std::collections::BTreeSet<&str> =
                    slots.iter().map(String::as_str).collect();
                format!(
                    "{} socket workers across {} host{}",
                    self.workers,
                    hosts.len(),
                    if hosts.len() == 1 { "" } else { "s" }
                )
            }
        }
    }

    /// Distributed [`SweepRunner::run`]: run every point on a worker,
    /// reporting each completed point to `progress` the moment its final
    /// frame arrives (completion order, from the supervising thread), then
    /// return the full checked report list in sweep order.  Every point's
    /// slot carries `Ok(result)` or the [`SweepError`] describing its
    /// fault, and each point's final outcome is reported **exactly once**,
    /// even when worker deaths force redistribution.
    pub fn run<P, R>(
        &self,
        set: &ScenarioSet<P>,
        progress: &SweepProgress,
    ) -> Vec<SweepReport<PointResult<R>>>
    where
        P: Sync,
        R: WireResult + Send,
    {
        let n = set.points().len();
        progress.start(n);
        if n == 0 {
            return Vec::new();
        }
        let workers = self.workers.min(n);
        let slots: Vec<Mutex<Option<SweepReport<PointResult<R>>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        // Supervisors that have not yet bowed out as fatal: a fatal slot
        // stops claiming points while healthy siblings remain (so it
        // cannot race them to the queue and starve the sweep into
        // errors), and only the last active supervisor drains the
        // remaining queue with its memoized error so every slot is still
        // filled.
        let active = AtomicUsize::new(workers);
        std::thread::scope(|scope| {
            for id in 0..workers {
                let slots = &slots;
                let next = &next;
                let active = &active;
                scope.spawn(move || {
                    let mut sup = Supervisor {
                        id,
                        points: n,
                        live: None,
                        consecutive_spawn_failures: 0,
                        fatal: None,
                    };
                    let mut counted_out = false;
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(point) = set.points().get(index) else {
                            break;
                        };
                        // A claimed point always gets a report: the fatal
                        // fast path fills it with the memoized error.
                        self.run_point(&mut sup, index, &point.tags, progress, slots);
                        if sup.fatal.is_some() && !counted_out {
                            counted_out = true;
                            if active.fetch_sub(1, Ordering::SeqCst) > 1 {
                                // Healthy siblings remain: leave the rest
                                // of the queue to them.
                                break;
                            }
                            // Last active supervisor: keep claiming so the
                            // remaining slots are filled (with the memoized
                            // error) instead of hanging the collect below.
                        }
                    }
                    if let Some(mut worker) = sup.live.take() {
                        worker.shutdown();
                    }
                });
            }
        });
        #[expect(
            clippy::expect_used,
            reason = "faults were already caught per point, so an empty slot here is a harness \
                      bug worth a loud abort"
        )]
        let reports = slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("every point produced a report (faults are caught per point)")
            })
            .collect();
        reports
    }

    /// Run point `index` on the supervisor's worker, fill its result slot
    /// and report its completion.  A fault poisons only this point; the
    /// worker is torn down and the slot launches a replacement for its
    /// next claim.
    fn run_point<R: WireResult + Send>(
        &self,
        sup: &mut Supervisor,
        index: usize,
        tags: &[(String, String)],
        progress: &SweepProgress,
        slots: &[Mutex<Option<SweepReport<PointResult<R>>>>],
    ) {
        let mut wall_s = None;
        #[expect(
            clippy::disallowed_methods,
            reason = "round-trip-overhead telemetry (rtt_s); aggregated behind --telemetry, \
                      never in report bytes"
        )]
        let started = Instant::now();
        let result: Result<R, String> = self
            .dispatch(sup, &wire::encode_request(index, tags))
            .and_then(|()| self.await_point(sup, index, &mut wall_s));
        let rtt_s = started.elapsed().as_secs_f64();
        let report = SweepReport {
            index,
            tags: tags.to_vec(),
            result: result.map_err(|payload| SweepError {
                index,
                tags: tags.to_vec(),
                payload,
            }),
        };
        // The worker's out-of-band stats frame, when one arrived (a
        // worker lost mid-point reports none).  The round-trip time is
        // measured on this side of the wire, so the overhead over the
        // worker's own wall time shows in the sweep's telemetry.
        let telemetry = wall_s.map(|wall_s| PointTelemetry {
            index,
            wall_s,
            rtt_s: Some(rtt_s),
        });
        progress.point_done(&report, telemetry);
        #[expect(
            clippy::indexing_slicing,
            clippy::expect_used,
            reason = "index < point count (one slot a point), and the slot mutex is poisoned \
                      only if a sibling already panicked"
        )]
        let slot = &mut *slots[index].lock().expect("result slot poisoned");
        *slot = Some(report);
    }

    /// The supervisor's live, handshaken worker, launching one if needed
    /// and applying the 3-strike fatal rule to deterministic launch
    /// failures.
    fn ensure_worker<'s>(
        &self,
        sup: &'s mut Supervisor,
    ) -> Result<&'s mut dyn WorkerTransport, String> {
        let worker = match sup.live.take() {
            Some(worker) => worker,
            None => match self.launch_worker(sup.id, sup.points) {
                Ok(worker) => {
                    sup.consecutive_spawn_failures = 0;
                    worker
                }
                Err(payload) => {
                    // A spawn, connect or handshake failure is usually
                    // deterministic (bad command, dead host, configuration
                    // skew); after a few consecutive ones, stop burning a
                    // launch cycle per remaining point and fail the
                    // supervisor's future claims with the memoized payload.
                    sup.consecutive_spawn_failures += 1;
                    if sup.consecutive_spawn_failures >= FATAL_SPAWN_FAILURES {
                        sup.fatal = Some(format!(
                            "{payload} (giving up on this worker slot after \
                             {FATAL_SPAWN_FAILURES} consecutive spawn/handshake failures)"
                        ));
                    }
                    return Err(payload);
                }
            },
        };
        Ok(sup.live.insert(worker).as_mut())
    }

    /// Send one point's request line to a live worker, launching or
    /// replacing it as needed.
    ///
    /// A worker found dead at *request* time (the write fails before the
    /// point was accepted) is replaced and the send retried once: points
    /// are pure, and a point that never started cannot have side effects,
    /// so the retry cannot double-run anything — it only stops an
    /// idle-worker death from poisoning a point that no process touched.
    fn dispatch(&self, sup: &mut Supervisor, request: &str) -> Result<(), String> {
        if self.send(sup, request)?.is_ok() {
            return Ok(());
        }
        // Died between points: the retry goes to a replacement.
        self.send(sup, request)?
            .map_err(|status| format!("worker exited ({status}) before accepting the point"))
    }

    /// One send of `request`.  `Err` is the payload of a launch failure or
    /// of the slot's memoized fatal one; `Ok(Err(status))` is a worker
    /// whose stream refused the write, torn down and cleared from the slot.
    fn send(&self, sup: &mut Supervisor, request: &str) -> Result<Result<(), String>, String> {
        if let Some(payload) = &sup.fatal {
            return Err(payload.clone());
        }
        let worker = self.ensure_worker(sup)?;
        if worker.send_line(request).is_ok() {
            return Ok(Ok(()));
        }
        let status = worker.terminate();
        sup.live = None;
        Ok(Err(status))
    }

    /// Await the frames that end `index`: any number of telemetry frames
    /// for it, then a single report or error frame.  `Err` carries the
    /// fault payload; the worker slot is `None` afterwards iff the worker
    /// was lost.
    fn await_point<R: WireResult>(
        &self,
        sup: &mut Supervisor,
        index: usize,
        telemetry: &mut Option<f64>,
    ) -> Result<R, String> {
        // An arm that loses the worker empties the slot as it reaps it.
        let live = &mut sup.live;
        loop {
            #[expect(
                clippy::expect_used,
                reason = "dispatch() installed the live worker the request went to"
            )]
            let worker = live.as_mut().expect("request was accepted");
            match worker.recv_line(self.deadline) {
                Await::TimedOut => {
                    #[expect(clippy::expect_used, reason = "TimedOut implies Some(deadline)")]
                    let deadline = self.deadline.expect("timeout implies a deadline");
                    let status = worker.terminate();
                    *live = None;
                    return Err(format!(
                        // ispn-lint: allow(float-wire) -- human-facing poison payload, not a round-tripped value
                        "worker exceeded the {:.3}s point deadline (killed: {status})",
                        deadline.as_secs_f64()
                    ));
                }
                Await::Eof => {
                    let status = worker.finish();
                    *live = None;
                    return Err(format!("worker exited ({status}) while running the point"));
                }
                Await::Line(line) => match wire::parse_worker_frame(&line) {
                    Err(e) => {
                        let status = worker.terminate();
                        *live = None;
                        return Err(format!(
                            "malformed frame from worker ({e}; killed: {status}): {}",
                            truncate_for_log(&line)
                        ));
                    }
                    Ok(WorkerFrame::Telemetry { index: j, wall_s }) if j == index => {
                        *telemetry = Some(wall_s);
                    }
                    Ok(WorkerFrame::Error { index: j, payload }) if j == index => {
                        return Err(payload)
                    }
                    Ok(WorkerFrame::Report { index: j, body }) if j == index => {
                        return match R::from_wire_json(&body) {
                            Ok(result) => Ok(result),
                            Err(e) => {
                                let status = worker.terminate();
                                *live = None;
                                Err(format!(
                                    "undecodable report body from worker ({e}; killed: {status})"
                                ))
                            }
                        };
                    }
                    Ok(frame) => {
                        let status = worker.terminate();
                        *live = None;
                        return Err(format!(
                            "protocol violation: worker answered {frame:?} while point {index} \
                             was in flight (killed: {status})"
                        ));
                    }
                },
            }
        }
    }

    /// Launch one worker over the configured transport and complete the
    /// hello handshake — always bounded by the handshake deadline.
    fn launch_worker(
        &self,
        worker_id: usize,
        total_points: usize,
    ) -> Result<Box<dyn WorkerTransport>, String> {
        let hello_wait = self.hello_wait();
        let mut transport: Box<dyn WorkerTransport> = match &self.launch {
            Launch::Spawn(command) => Box::new(ChildTransport::spawn(command, worker_id)?),
            Launch::Connect(slots) => {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "slots is non-empty by HostSpec::parse_list contract and modulo \
                              bounds the index"
                )]
                let addr = &slots[worker_id % slots.len()];
                Box::new(net::SocketTransport::connect(addr, hello_wait)?)
            }
        };
        match transport.recv_line(Some(hello_wait)) {
            Await::TimedOut => {
                let status = transport.terminate();
                Err(format!(
                    // ispn-lint: allow(float-wire) -- human-facing handshake failure message, not a round-tripped value
                    "worker did not complete the handshake within {:.3}s (killed: {status})",
                    hello_wait.as_secs_f64()
                ))
            }
            Await::Eof => {
                let status = transport.finish();
                Err(format!("worker exited ({status}) before the handshake"))
            }
            Await::Line(line) => match wire::parse_worker_frame(&line) {
                Ok(WorkerFrame::Hello { protocol, points }) => {
                    match check_hello(protocol, points, total_points) {
                        Ok(()) => Ok(transport),
                        Err(mismatch) => {
                            let status = transport.terminate();
                            Err(format!("{mismatch}; killed: {status}"))
                        }
                    }
                }
                Ok(frame) => {
                    let _ = transport.terminate();
                    Err(format!("worker sent {frame:?} instead of a hello frame"))
                }
                Err(e) => {
                    let _ = transport.terminate();
                    Err(format!(
                        "malformed hello frame ({e}): {}",
                        truncate_for_log(&line)
                    ))
                }
            },
        }
    }

    /// The handshake wait: the always-on hello deadline, tightened by the
    /// per-point deadline when one is set (a sweep that bounds every point
    /// to 2s should not wait 30s for a hello).
    fn hello_wait(&self) -> Duration {
        match self.deadline {
            Some(deadline) => deadline.min(self.hello_deadline),
            None => self.hello_deadline,
        }
    }
}

/// Validate a hello frame against the parent's expectations: the parent's
/// own protocol revision (both sides are the same build) and a matching
/// point count.
fn check_hello(protocol: u64, points: usize, total_points: usize) -> Result<(), String> {
    if protocol == wire::PROTOCOL_VERSION && points == total_points {
        Ok(())
    } else {
        Err(format!(
            "worker handshake mismatch: worker speaks protocol {protocol} with \
             {points} points, parent expects protocol {} with {total_points} points \
             (parent/worker configuration mismatch)",
            wire::PROTOCOL_VERSION
        ))
    }
}

/// Clip a hostile line for inclusion in an error payload.
fn truncate_for_log(line: &str) -> String {
    const MAX: usize = 120;
    match line.get(..line.floor_char_boundary(MAX)) {
        Some(head) if head.len() < line.len() => format!("{head}… ({} bytes)", line.len()),
        _ => line.to_string(),
    }
}

/// One sweep-execution strategy: in-process threads or worker
/// subprocesses.  Experiment entry points take a `SweepExec` so their
/// callers — bins with `--workers N` / `--hosts LIST` flags, tests,
/// benches — choose the execution level without the experiment code
/// caring.
#[derive(Debug, Clone)]
pub enum SweepExec {
    /// Fan points across OS threads in this process.
    InProcess(SweepRunner),
    /// Fan points across supervised worker processes (spawned or
    /// TCP-connected).
    Distributed(DistRunner),
}

impl SweepExec {
    /// A human-readable description for progress banners
    /// (`"4 threads"` / `"2 worker processes"` /
    /// `"4 socket workers across 2 hosts"`).
    pub fn description(&self) -> String {
        match self {
            SweepExec::InProcess(runner) => format!("{} threads", runner.threads()),
            SweepExec::Distributed(runner) => runner.description(),
        }
    }

    /// Run the sweep, reporting completions to `progress`; results come
    /// back checked, in point order, byte-identical across execution
    /// strategies (see [`SweepRunner::run`] and [`DistRunner::run`]).  In the distributed case `run_point` is **not called in
    /// this process** — the workers run their own copy of it — but taking
    /// it here keeps the two strategies interchangeable at every call
    /// site.
    pub fn run<P, R, F>(
        &self,
        set: &ScenarioSet<P>,
        run_point: F,
        progress: &SweepProgress,
    ) -> Vec<SweepReport<PointResult<R>>>
    where
        P: Sync,
        R: WireResult + Send,
        F: Fn(&P) -> R + Sync,
    {
        match self {
            SweepExec::InProcess(runner) => runner.run(set, run_point, progress),
            SweepExec::Distributed(runner) => runner.run(set, progress),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_counts_clamp_to_one() {
        let cmd = WorkerCommand::new("/bin/false");
        assert_eq!(DistRunner::new(0, cmd.clone()).workers(), 1);
        assert_eq!(DistRunner::new(5, cmd).workers(), 5);
    }

    #[test]
    fn exec_descriptions_name_the_level() {
        let threads = SweepExec::InProcess(SweepRunner::parallel(4));
        assert_eq!(threads.description(), "4 threads");
        let procs = SweepExec::Distributed(DistRunner::new(2, WorkerCommand::new("w")));
        assert_eq!(procs.description(), "2 worker processes");
        let hosts = [HostSpec::new("a:7600", 2), HostSpec::new("b:7600", 1)];
        let sockets = SweepExec::Distributed(DistRunner::over_hosts(&hosts));
        assert_eq!(sockets.description(), "3 socket workers across 2 hosts");
        let single = SweepExec::Distributed(DistRunner::over_hosts(&[HostSpec::new("a:1", 1)]));
        assert_eq!(single.description(), "1 socket workers across 1 host");
    }

    /// The supported revisions are exactly one: the build's own.
    #[test]
    fn hello_acceptance_spans_the_supported_revisions() {
        assert!(check_hello(wire::PROTOCOL_VERSION, 8, 8).is_ok());
        // The neighbouring revisions are refused, naming both sides…
        for skewed in [wire::PROTOCOL_VERSION - 1, wire::PROTOCOL_VERSION + 1] {
            let err = check_hello(skewed, 8, 8).unwrap_err();
            assert!(err.contains("handshake mismatch"), "{err}");
            assert!(err.contains(&format!("speaks protocol {skewed} ")), "{err}");
            assert!(
                err.contains(&format!("expects protocol {} ", wire::PROTOCOL_VERSION)),
                "{err}"
            );
        }
        // …as is a point-count skew at the right revision.
        let err = check_hello(wire::PROTOCOL_VERSION, 5, 8).unwrap_err();
        assert!(err.contains("handshake mismatch"), "{err}");
        assert!(err.contains("5 points"), "{err}");
    }

    #[test]
    fn hostile_lines_are_clipped_on_char_boundaries() {
        let long = "é".repeat(200);
        let clipped = truncate_for_log(&long);
        assert!(clipped.contains("… (400 bytes)"));
        assert!(clipped.len() < long.len());
        assert_eq!(truncate_for_log("short"), "short");
    }

    /// A worker that exits at stdin's end of file is reaped with its own
    /// (successful) status, without waiting out a poll tick or the grace.
    #[cfg(unix)]
    #[test]
    fn shutdown_reaps_a_worker_that_exits_on_eof() {
        let mut t = ChildTransport::spawn(&WorkerCommand::new("cat"), 0).expect("cat spawns");
        t.send_line("late frame").expect("cat reads stdin");
        #[expect(
            clippy::disallowed_methods,
            reason = "times the harness's own shutdown path, nothing simulated"
        )]
        let started = Instant::now();
        t.shutdown();
        assert!(started.elapsed() < SHUTDOWN_GRACE, "waited out the grace");
        // `shutdown` already reaped the child: this reads the cached status.
        let status = t.child.try_wait().expect("waitable").expect("reaped");
        assert!(status.success(), "cat was killed, not reaped: {status}");
    }

    /// A worker that ignores EOF is killed once the grace runs out.
    #[cfg(unix)]
    #[test]
    fn shutdown_kills_a_worker_that_ignores_eof() {
        use std::os::unix::process::ExitStatusExt;
        let command = WorkerCommand::new("sleep").arg("30");
        let mut t = ChildTransport::spawn(&command, 0).expect("sleep spawns");
        #[expect(
            clippy::disallowed_methods,
            reason = "times the harness's own shutdown path, nothing simulated"
        )]
        let started = Instant::now();
        t.shutdown();
        assert!(
            started.elapsed() >= SHUTDOWN_GRACE,
            "killed before the grace"
        );
        let status = t.child.try_wait().expect("waitable").expect("reaped");
        assert_eq!(status.signal(), Some(9), "{status}");
    }

    /// An unspawnable worker command degrades to one structured error per
    /// point — never a hang, never an abort.
    #[test]
    fn unspawnable_workers_poison_every_point_structurally() {
        let set = ScenarioSet::over("i", [1usize, 2, 3]);
        let runner = DistRunner::new(2, WorkerCommand::new("/nonexistent/ispn-worker"));
        let reports: Vec<SweepReport<PointResult<u64>>> =
            runner.run(&set, &SweepProgress::default());
        assert_eq!(reports.len(), 3);
        for (i, report) in reports.iter().enumerate() {
            assert_eq!(report.index, i);
            let err = report.result.as_ref().expect_err("spawn must fail");
            assert_eq!(err.index, i);
            assert_eq!(err.tags, set.points()[i].tags);
            assert!(err.payload.contains("could not spawn worker"), "{err}");
        }
        assert_eq!(super::super::failed_points(&reports), 3);
    }

    /// An unreachable host degrades the same way: structured per-point
    /// errors, 3-strike memoization, no hang — reusing the subprocess
    /// supervision for refused connections.
    #[test]
    fn unreachable_hosts_poison_every_point_structurally() {
        let set = ScenarioSet::over("i", [1usize, 2, 3, 4]);
        // A port from the TEST-NET-1 documentation range: connects are
        // refused or fail fast, never served.
        let runner = DistRunner::over_hosts(&[HostSpec::new("127.0.0.1:1", 1)])
            .hello_deadline(Duration::from_millis(500));
        let reports: Vec<SweepReport<PointResult<u64>>> =
            runner.run(&set, &SweepProgress::default());
        assert_eq!(reports.len(), 4);
        assert_eq!(super::super::failed_points(&reports), 4);
        for report in &reports {
            let err = report.result.as_ref().expect_err("connect must fail");
            assert!(
                err.payload.contains("could not connect"),
                "unexpected payload: {}",
                err.payload
            );
        }
        // The 3-strike rule memoized the failure for the tail points.
        let last = reports[3].result.as_ref().unwrap_err();
        assert!(last.payload.contains("giving up"), "{}", last.payload);
    }
}
