//! The worker side of a distributed sweep: a serve loop compiled into
//! every experiment binary behind its `--sweep-worker` (stdin/stdout) and
//! `--serve ADDR` (TCP listener, see [`net`](super::net)) flags.
//!
//! A worker process rebuilds the **same** [`ScenarioSet`] as its parent
//! (both run the same binary with the same configuration flags), then
//! answers line-framed requests: the parent names a point by index, the
//! worker runs that point's closure and streams the encoded result back.
//! The worker never chooses points itself — scheduling, redistribution and
//! supervision all live in the parent's
//! [`DistRunner`](super::dist::DistRunner).
//!
//! The loop itself is transport-agnostic: [`serve_connection`] speaks the
//! protocol over any buffered reader/writer pair.  [`serve_worker`] is the
//! stdio binding the `--sweep-worker` flag uses; the socket listener in
//! [`net`](super::net) runs the same function once per accepted
//! connection.  The parent may batch several requests into one line; the
//! worker answers them in order, frame by frame, exactly as if they had
//! arrived separately.
//!
//! Safety properties mirror the in-process runner:
//!
//! * every point runs under `catch_unwind`, so a panicking scenario
//!   becomes a structured error frame (and the worker keeps serving its
//!   siblings) exactly like [`SweepRunner::try_run`](super::SweepRunner)
//!   would record it;
//! * each request's axis tags are checked against the worker's own sweep
//!   before anything runs — a parent/worker configuration skew yields a
//!   per-point error naming both tag lists instead of silently computing
//!   the wrong scenario;
//! * results are flushed frame by frame, so the parent observes each
//!   completion the moment it happens.
//!
//! The loop exits cleanly when the parent closes its end of the stream.
//! [`FaultPlan`](super::testing::FaultPlan) hooks (consulted per point,
//! plus once per session before the hello) let the test harness make a
//! worker panic, exit, emit garbage, hang, drop the connection or wedge
//! its handshake on demand; production runs simply have no
//! `ISPN_SWEEP_FAULT` in their environment.

use std::io::{self, BufRead, Write};
use std::panic::AssertUnwindSafe;

use super::testing::{FaultMode, FaultPlan, FAULT_EXIT_CODE, HANG_NAP};
use super::wire::{self, WireResult};
use super::{panic_payload_text, ScenarioSet};

/// The command-line flag that switches an experiment binary into worker
/// mode (checked by each bin's `main` before anything prints to stdout —
/// stdout belongs to the frame stream).
pub const WORKER_FLAG: &str = "--sweep-worker";

/// The environment variable carrying the worker's id (assigned by the
/// parent; used for fault-plan filtering and diagnostics).
pub const WORKER_ID_ENV: &str = "ISPN_SWEEP_WORKER_ID";

/// This process's worker id, if the parent assigned one.
pub fn worker_id() -> Option<usize> {
    std::env::var(WORKER_ID_ENV).ok()?.parse().ok()
}

/// One serve session's identity, for fault-plan filtering and
/// diagnostics: which worker this process is (parent-assigned over stdio,
/// self-reported otherwise) and which session of that worker the
/// connection is (a stdio worker serves exactly one session, number 0; a
/// socket listener numbers accepted connections from 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionInfo {
    /// The worker id ([`worker_id`], defaulting to 0).
    pub worker: usize,
    /// The session ordinal within this worker process.
    pub session: usize,
}

/// Serve sweep points over stdin/stdout until the parent closes stdin —
/// the `--sweep-worker` binding of [`serve_connection`].
///
/// `run_point` is the same closure an in-process
/// [`SweepRunner`](super::SweepRunner) would receive; it is called at most
/// once per requested point, and its panics are caught into error frames.
/// Returns when stdin reaches EOF; I/O errors on the pipes (a vanished
/// parent) surface as `Err`.
pub fn serve_worker<P, R, F>(set: &ScenarioSet<P>, run_point: F) -> io::Result<()>
where
    R: WireResult,
    F: Fn(&P) -> R,
{
    let session = SessionInfo {
        worker: worker_id().unwrap_or(0),
        session: 0,
    };
    let stdin = io::stdin().lock();
    let stdout = io::stdout().lock();
    serve_connection(set, &run_point, stdin, stdout, session)
}

/// The transport-agnostic serve loop: hello handshake, then answer
/// line-framed point requests from `input` with telemetry + report/error
/// frames on `output` until `input` reaches EOF.
///
/// This is the single protocol implementation every transport shares —
/// [`serve_worker`] binds it to stdin/stdout, the TCP listener in
/// [`net`](super::net) runs it once per accepted connection.  Requests
/// may be batched; the points of a batch are answered in order, each
/// with its own frames, flushed as they complete.
pub fn serve_connection<P, R, F, In, Out>(
    set: &ScenarioSet<P>,
    run_point: &F,
    input: In,
    mut output: Out,
    session: SessionInfo,
) -> io::Result<()>
where
    R: WireResult,
    F: Fn(&P) -> R,
    In: BufRead,
    Out: Write,
{
    let fault = FaultPlan::from_env();
    let me = session.worker;
    if fault
        .filter(|f| f.applies_hello(me, session.session))
        .is_some()
    {
        // Injected half-open session: never say hello.  The parent's
        // handshake deadline is what must rescue its supervisor slot.
        loop {
            std::thread::sleep(HANG_NAP);
        }
    }

    writeln!(output, "{}", wire::encode_hello(set.len()))?;
    output.flush()?;

    for line in input.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let requests = match wire::parse_requests(&line) {
            Ok(requests) => requests,
            Err(e) => {
                // A parent that cannot frame a request cannot be trusted
                // with anything else either; bail out loudly.
                eprintln!("sweep worker {me}: unreadable request: {e}");
                return Err(io::Error::new(io::ErrorKind::InvalidData, e));
            }
        };
        for request in requests {
            let index = request.index;
            let frame = if index >= set.len() {
                wire::encode_error_frame(
                    index,
                    &format!(
                        "point {index} out of range: this worker's sweep has {} points \
                         (parent/worker configuration mismatch)",
                        set.len()
                    ),
                )
            } else if request.tags != set.points()[index].tags {
                wire::encode_error_frame(
                    index,
                    &format!(
                        "axis tags mismatch at point {index}: parent sent {:?}, worker built {:?} \
                         (parent/worker configuration mismatch)",
                        request.tags,
                        set.points()[index].tags
                    ),
                )
            } else {
                if let Some(fault) = fault.filter(|f| f.applies(me, index)) {
                    match fault.mode {
                        // Panic is injected *inside* the catch_unwind below, so
                        // it exercises the same path a real scenario panic takes.
                        FaultMode::Panic => {}
                        FaultMode::Exit => {
                            output.flush()?;
                            std::process::exit(FAULT_EXIT_CODE);
                        }
                        FaultMode::Garbage => {
                            // A truncated frame: cut mid-key, no closing brace.
                            write!(output, "{{\"point\":{index},\"repo")?;
                            writeln!(output)?;
                            output.flush()?;
                            continue;
                        }
                        FaultMode::Hang => loop {
                            std::thread::sleep(HANG_NAP);
                        },
                        FaultMode::Disconnect => {
                            // End the serve loop mid-point: the transport
                            // closes (connection drop / clean process
                            // exit) and the parent sees EOF.
                            output.flush()?;
                            return Ok(());
                        }
                        // Session faults fired before the hello; `applies`
                        // never selects them per point.
                        FaultMode::HelloHang => {}
                    }
                }
                let point = &set.points()[index];
                // ispn-lint: allow(wall-clock) -- per-point wall-time
                // telemetry frame; out-of-band, never in the result stream.
                #[allow(clippy::disallowed_methods)]
                let started = std::time::Instant::now();
                let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    if let Some(fault) = fault.filter(|f| f.applies(me, index)) {
                        if fault.mode == FaultMode::Panic {
                            panic!("injected fault: worker {me} panicked at point {index}");
                        }
                    }
                    run_point(&point.params)
                }));
                // Out-of-band stats precede the result so the parent can
                // attribute them before the point completes; panicked points
                // report their wall time too.
                writeln!(
                    output,
                    "{}",
                    wire::encode_telemetry_frame(index, started.elapsed().as_secs_f64())
                )?;
                match result {
                    Ok(r) => wire::encode_report_frame(index, &r),
                    Err(payload) => {
                        wire::encode_error_frame(index, &panic_payload_text(payload.as_ref()))
                    }
                }
            };
            writeln!(output, "{frame}")?;
            output.flush()?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_flag_and_env_names_are_stable() {
        // Bins and the CI recipes hard-code these strings; a silent rename
        // would strand every caller.
        assert_eq!(WORKER_FLAG, "--sweep-worker");
        assert_eq!(WORKER_ID_ENV, "ISPN_SWEEP_WORKER_ID");
    }

    fn serve_lines(input: &str) -> Vec<String> {
        let set = ScenarioSet::over("i", [10u64, 20, 30]);
        let mut out: Vec<u8> = Vec::new();
        serve_connection(
            &set,
            &|&(i,)| i * i,
            input.as_bytes(),
            &mut out,
            SessionInfo {
                worker: 0,
                session: 0,
            },
        )
        .expect("in-memory serve loop");
        String::from_utf8(out)
            .expect("frames are UTF-8")
            .lines()
            .map(str::to_string)
            .collect()
    }

    /// The serve loop over in-memory streams: hello, then telemetry +
    /// report per point — and a batched request answers its points in
    /// order, exactly like separate lines would.
    #[test]
    fn serve_connection_answers_batches_in_order() {
        let set = ScenarioSet::over("i", [10u64, 20, 30]);
        let separate = serve_lines(&format!(
            "{}\n{}\n",
            wire::encode_request(2, &set.points()[2].tags),
            wire::encode_request(0, &set.points()[0].tags),
        ));
        let batched = serve_lines(&format!(
            "{}\n",
            wire::encode_batch_request(&[
                (2, set.points()[2].tags.as_slice()),
                (0, set.points()[0].tags.as_slice()),
            ])
        ));
        assert_eq!(separate.len(), 5, "hello + 2×(telemetry, result)");
        assert_eq!(batched.len(), 5);
        // Frames match pairwise except the wall-clock fields.
        assert_eq!(batched[0], separate[0], "hello frames match");
        assert_eq!(batched[2], separate[2], "report for point 2");
        assert_eq!(batched[4], separate[4], "report for point 0");
        assert!(batched[2].contains("\"report\":900"), "{}", batched[2]);
        assert!(batched[4].contains("\"report\":100"), "{}", batched[4]);
    }

    /// The framing contract: CRLF-terminated request lines parse cleanly
    /// (`BufRead::lines` strips the `\r\n`, and a stray `\r` inside the
    /// line is insignificant whitespace to the JSON parser).
    #[test]
    fn serve_connection_tolerates_crlf_requests() {
        let set = ScenarioSet::over("i", [10u64, 20, 30]);
        let lines = serve_lines(&format!(
            "{}\r\n",
            wire::encode_request(1, &set.points()[1].tags)
        ));
        assert_eq!(lines.len(), 3, "hello + telemetry + report");
        assert!(lines[2].contains("\"report\":400"), "{}", lines[2]);
    }
}
