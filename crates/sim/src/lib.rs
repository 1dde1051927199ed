//! # ispn-sim — deterministic discrete-event simulation engine
//!
//! This crate is the lowest substrate of the ISPN reproduction of
//! Clark, Shenker and Zhang, *"Supporting Real-Time Applications in an
//! Integrated Services Packet Network: Architecture and Mechanism"*
//! (SIGCOMM 1992).  The paper's evaluation is driven by a discrete-event
//! packet-network simulator; this crate provides the pieces of that
//! simulator that are independent of networking:
//!
//! * [`SimTime`] — integer-nanosecond simulated time (no floating point in
//!   event ordering, so runs are exactly reproducible),
//! * [`EventQueue`] — the deterministic pending-event set: one binary heap
//!   on `(time, seq)` with FIFO tie-breaking for simultaneous events, and a
//!   shared-sequence `push_with_seq` / `peek_key` pair so two queues can be
//!   popped as one `(time, seq)` order,
//! * [`rng`] — a small, self-contained PCG-64 random number generator plus
//!   the inverse-CDF samplers (exponential, geometric, …) needed by the
//!   paper's two-state Markov traffic sources,
//! * [`varint`] — the LEB128 codec of the byte logs that grow with a run's
//!   length.
//!
//! Everything is single-threaded and allocation-light by design: the
//! evaluation scenarios of the paper involve a handful of switches and a few
//! million events, and determinism is far more valuable than parallelism for
//! reproducing tables.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// The lib, not its unit tests, denies raw integer arithmetic: `SimTime`'s
// `+` saturates by type, and each operation left carries an `#[expect]`
// saying why it cannot overflow or must panic.
#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]

pub mod event;
pub mod rng;
pub mod time;
pub mod varint;

pub use event::EventQueue;
pub use rng::{Pcg64, SplitMix64};
pub use time::SimTime;
