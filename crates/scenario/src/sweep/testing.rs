//! Fault injection for distributed-sweep tests: make a worker process
//! misbehave at a chosen point, on purpose.
//!
//! A [`FaultPlan`] describes one injected fault — *which point* triggers
//! it, *how* the worker misbehaves ([`FaultMode`]), and optionally *which
//! worker* is susceptible.  The plan travels to the worker process through
//! the [`FaultPlan::ENV`] environment variable (set it on the
//! [`WorkerCommand`](super::dist::WorkerCommand) under test), and the
//! worker's serve loop consults [`FaultPlan::from_env`] before running
//! each point:
//!
//! * [`FaultMode::Panic`] — the point's closure panics inside the worker.
//!   This is the *graceful* failure path: the worker catches it, reports a
//!   structured error frame, and keeps serving.
//! * [`FaultMode::Exit`] — the worker process exits abruptly
//!   (status [`FAULT_EXIT_CODE`]) mid-point, as a crash or an external
//!   `kill` would.  The parent sees EOF and poisons the in-flight point.
//! * [`FaultMode::Garbage`] — the worker emits a truncated, non-JSON frame
//!   for the point.  The parent poisons the point and discards the worker
//!   (its stream can no longer be trusted).
//! * [`FaultMode::Hang`] — the worker wedges forever at the point.  The
//!   parent's per-point deadline fires, the worker is killed, and the
//!   point is poisoned.
//! * [`FaultMode::Disconnect`] — the serve loop ends cleanly at the point,
//!   before answering it: a socket session closes its connection
//!   mid-point, a stdio worker exits.  The parent sees EOF, poisons the
//!   in-flight point, and reconnects/respawns for its next claim.
//! * [`FaultMode::HelloHang`] — a **session** fault: the serve loop wedges
//!   *before* sending its hello frame, like a half-open TCP accept.  The
//!   plan's `point` field selects the session ordinal instead of a point
//!   index (a stdio worker process is always session 0; a socket listener
//!   numbers accepted connections), so exactly one connection hangs and
//!   the parent's handshake deadline is what must save the sweep.
//!
//! Because the trigger is keyed on the point index (or, for
//! [`FaultMode::HelloHang`], the session ordinal) and a poisoned point is
//! never re-dispatched, a respawned replacement worker does not re-trigger
//! the fault — each plan fires at most once per matching worker.

use std::time::Duration;

use super::wire::{JsonValue, WireResult};

/// How a designated worker misbehaves at the chosen point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Panic inside the point's closure (caught, reported as an error
    /// frame; the worker survives).
    Panic,
    /// Exit the worker process abruptly, mid-point.
    Exit,
    /// Emit a truncated/garbage frame instead of the point's result.
    Garbage,
    /// Hang forever while the point is in flight.
    Hang,
    /// End the serve loop cleanly at the point, before answering it
    /// (socket session: drop the connection mid-point; stdio worker:
    /// exit 0 mid-point).
    Disconnect,
    /// Wedge the session forever **before** the hello frame.  The plan's
    /// `point` field names the session ordinal, not a point index.
    HelloHang,
}

impl FaultMode {
    fn name(self) -> &'static str {
        match self {
            FaultMode::Panic => "panic",
            FaultMode::Exit => "exit",
            FaultMode::Garbage => "garbage",
            FaultMode::Hang => "hang",
            FaultMode::Disconnect => "disconnect",
            FaultMode::HelloHang => "hello-hang",
        }
    }

    fn parse(s: &str) -> Option<FaultMode> {
        match s {
            "panic" => Some(FaultMode::Panic),
            "exit" => Some(FaultMode::Exit),
            "garbage" => Some(FaultMode::Garbage),
            "hang" => Some(FaultMode::Hang),
            "disconnect" => Some(FaultMode::Disconnect),
            "hello-hang" => Some(FaultMode::HelloHang),
            _ => None,
        }
    }
}

/// The exit status a [`FaultMode::Exit`] worker dies with.
pub const FAULT_EXIT_CODE: i32 = 3;

/// How long a [`FaultMode::Hang`] worker sleeps per wedge iteration (it
/// loops forever; the parent's deadline is expected to kill it).
pub const HANG_NAP: Duration = Duration::from_secs(60);

/// One injected worker fault: mode, trigger point, optional worker filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// The sweep-order index of the point that triggers the fault.
    pub point: usize,
    /// What the worker does when it reaches that point.
    pub mode: FaultMode,
    /// Restrict the fault to the worker with this id (the
    /// [`DistRunner`](super::dist::DistRunner) numbers its workers from 0
    /// and exports the id as `ISPN_SWEEP_WORKER_ID`); `None` makes any
    /// worker that claims the point susceptible.
    pub worker: Option<usize>,
}

impl FaultPlan {
    /// The environment variable the plan travels through.
    pub const ENV: &'static str = "ISPN_SWEEP_FAULT";

    /// Panic at `point`.
    pub fn panic_at(point: usize) -> Self {
        FaultPlan {
            point,
            mode: FaultMode::Panic,
            worker: None,
        }
    }

    /// Exit abruptly at `point`.
    pub fn exit_at(point: usize) -> Self {
        FaultPlan {
            point,
            mode: FaultMode::Exit,
            worker: None,
        }
    }

    /// Emit a garbage frame at `point`.
    pub fn garbage_at(point: usize) -> Self {
        FaultPlan {
            point,
            mode: FaultMode::Garbage,
            worker: None,
        }
    }

    /// Hang at `point`.
    pub fn hang_at(point: usize) -> Self {
        FaultPlan {
            point,
            mode: FaultMode::Hang,
            worker: None,
        }
    }

    /// End the serve loop (drop the connection / exit) at `point`.
    pub fn disconnect_at(point: usize) -> Self {
        FaultPlan {
            point,
            mode: FaultMode::Disconnect,
            worker: None,
        }
    }

    /// Wedge session number `session` before its hello frame.
    pub fn hello_hang_at(session: usize) -> Self {
        FaultPlan {
            point: session,
            mode: FaultMode::HelloHang,
            worker: None,
        }
    }

    /// Restrict the fault to worker `id`.
    pub fn on_worker(mut self, id: usize) -> Self {
        self.worker = Some(id);
        self
    }

    /// The `ISPN_SWEEP_FAULT` value describing this plan
    /// (`point=3;mode=exit` or `point=3;mode=exit;worker=1`).
    pub fn env_value(&self) -> String {
        match self.worker {
            Some(w) => format!("point={};mode={};worker={w}", self.point, self.mode.name()),
            None => format!("point={};mode={}", self.point, self.mode.name()),
        }
    }

    /// Parse an `ISPN_SWEEP_FAULT` value.
    pub fn parse(s: &str) -> Result<FaultPlan, String> {
        let mut point = None;
        let mut mode = None;
        let mut worker = None;
        for part in s.split(';').filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault plan field {part:?} is not key=value"))?;
            match key {
                "point" => {
                    point = Some(
                        value
                            .parse::<usize>()
                            .map_err(|e| format!("bad fault point {value:?}: {e}"))?,
                    )
                }
                "mode" => {
                    mode = Some(
                        FaultMode::parse(value)
                            .ok_or_else(|| format!("unknown fault mode {value:?}"))?,
                    )
                }
                "worker" => {
                    worker = Some(
                        value
                            .parse::<usize>()
                            .map_err(|e| format!("bad fault worker {value:?}: {e}"))?,
                    )
                }
                other => return Err(format!("unknown fault plan field {other:?}")),
            }
        }
        Ok(FaultPlan {
            point: point.ok_or("fault plan needs point=N")?,
            mode: mode
                .ok_or("fault plan needs mode=panic|exit|garbage|hang|disconnect|hello-hang")?,
            worker,
        })
    }

    /// The plan in this process's environment, if any.
    ///
    /// # Panics
    /// Panics on an unparsable `ISPN_SWEEP_FAULT` value — a fault-injection
    /// test with a typoed plan must fail loudly, not silently run clean.
    pub fn from_env() -> Option<FaultPlan> {
        let value = std::env::var(Self::ENV).ok()?;
        Some(Self::parse(&value).unwrap_or_else(|e| panic!("bad {}: {e}", Self::ENV)))
    }

    /// Whether the fault fires for `worker` running `point`.  Session
    /// faults ([`FaultMode::HelloHang`]) never fire per point — consult
    /// [`applies_hello`](FaultPlan::applies_hello) for those.
    pub fn applies(&self, worker: usize, point: usize) -> bool {
        self.mode != FaultMode::HelloHang
            && self.point == point
            && self.worker.map(|w| w == worker).unwrap_or(true)
    }

    /// Whether the fault fires for `worker`'s serve session number
    /// `session`, before the hello (only [`FaultMode::HelloHang`] does).
    pub fn applies_hello(&self, worker: usize, session: usize) -> bool {
        self.mode == FaultMode::HelloHang
            && self.point == session
            && self.worker.map(|w| w == worker).unwrap_or(true)
    }
}

/// The contract every [`WireResult`] record's tests hold it to: `value`
/// encodes to exactly `expected` (a NaN field shows there as `null`),
/// that decodes, the decoded value re-encodes to the same bytes, and each
/// document in `rejected` — `expected` with a label no pool knows, say —
/// fails to decode instead of panicking.
///
/// # Panics
/// Panics when the record breaks the contract.
pub fn assert_wire_codec<T: WireResult>(value: &T, expected: &str, rejected: &[&str]) {
    let json = value.to_wire_json();
    assert_eq!(json, expected);
    let parsed = JsonValue::parse(&json).expect("a record's own encoding parses");
    let back = T::from_wire_json(&parsed).expect("a record's own encoding decodes");
    assert_eq!(back.to_wire_json(), json, "decode → encode moved bytes");
    for doc in rejected {
        let parsed = JsonValue::parse(doc).expect("a rejected document is still JSON");
        assert!(T::from_wire_json(&parsed).is_err(), "{doc} decoded");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_round_trip_through_the_env_value() {
        for plan in [
            FaultPlan::panic_at(0),
            FaultPlan::exit_at(3),
            FaultPlan::garbage_at(7).on_worker(2),
            FaultPlan::hang_at(12),
            FaultPlan::disconnect_at(5),
            FaultPlan::hello_hang_at(1).on_worker(0),
        ] {
            assert_eq!(FaultPlan::parse(&plan.env_value()).unwrap(), plan);
        }
    }

    #[test]
    fn bad_plans_are_rejected() {
        assert!(FaultPlan::parse("").is_err());
        assert!(FaultPlan::parse("point=1").is_err());
        assert!(FaultPlan::parse("mode=exit").is_err());
        assert!(FaultPlan::parse("point=x;mode=exit").is_err());
        assert!(FaultPlan::parse("point=1;mode=sulk").is_err());
        assert!(FaultPlan::parse("point=1;mode=exit;color=red").is_err());
    }

    #[test]
    fn worker_filter_gates_the_trigger() {
        let any = FaultPlan::exit_at(4);
        assert!(any.applies(0, 4));
        assert!(any.applies(9, 4));
        assert!(!any.applies(0, 5));
        let one = FaultPlan::exit_at(4).on_worker(1);
        assert!(one.applies(1, 4));
        assert!(!one.applies(0, 4));
    }

    #[test]
    fn hello_faults_key_on_the_session_not_the_point() {
        let hello = FaultPlan::hello_hang_at(2);
        // Never a per-point trigger, whatever index comes up…
        assert!(!hello.applies(0, 2));
        // …only the matching session ordinal, pre-hello.
        assert!(hello.applies_hello(0, 2));
        assert!(hello.applies_hello(7, 2));
        assert!(!hello.applies_hello(0, 1));
        // And point faults never fire at hello time.
        assert!(!FaultPlan::exit_at(2).applies_hello(0, 2));
        let filtered = FaultPlan::hello_hang_at(0).on_worker(1);
        assert!(filtered.applies_hello(1, 0));
        assert!(!filtered.applies_hello(0, 0));
    }
}
