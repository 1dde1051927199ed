//! # ispn-benchmark — the repo's repeatable benchmark
//!
//! Four workloads measured end to end — every rep a fresh process running
//! one user-level command, closed loop, timed from spawn to exit and
//! checked against a pinned golden — plus a separate traced pass that
//! measures every layer from outside through its public functions and
//! reconciles Σ(count × ns/op) against the run phase.  `README.md` beside
//! this package defines the workloads and every metric.
//!
//! * [`workloads`] — the four workloads and the scenarios behind three of
//!   them;
//! * [`harness`] — the parent: rep loops, operations, end-to-end metrics,
//!   the orchestration of the traced pass; [`sweep`] is its `hetmix` half;
//! * [`rep`] — the child: one simulation rep; [`reference`] — the frozen
//!   yardstick child run before every rep;
//! * [`layers`], [`recorder`] — the traced child: record, harvest, replay,
//!   ledger;
//! * [`golden`], [`digest`] — expected outputs;
//! * [`metrics`] — the catalogue `BENCHMARK.json` repeats;
//! * [`clock`], [`proc`], [`stats`], [`json`] — the one wall-clock read,
//!   process control and `/proc`, order statistics, JSON rendering.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod clock;
pub mod digest;
pub mod golden;
pub mod harness;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod proc;
pub mod recorder;
pub mod reference;
pub mod rep;
pub mod stats;
pub mod sweep;
pub mod workloads;
