//! # ispn-sched — the CSZ'92 packet scheduling mechanisms
//!
//! The paper's mechanism is built from two distinct principles:
//!
//! * **isolation** — protecting flows from each other, which is mandatory
//!   for any commitment ("the network cannot make any commitments if it
//!   cannot prevent the unexpected behavior of one source from disrupting
//!   others"); WFQ provides it by giving every flow its own share,
//! * **sharing** — mixing traffic of a class so bursts are multiplexed and
//!   everyone's post-facto jitter shrinks; FIFO provides it at a single hop
//!   and FIFO+ extends it across hops.
//!
//! This crate implements every discipline the paper discusses plus the
//! unified scheduler of Section 7 that nests sharing inside isolation:
//!
//! | Type | Paper role |
//! |---|---|
//! | [`Fifo`] | the sharing discipline of Section 5 |
//! | [`Wfq`] | weighted fair queueing / PGPS (Section 4, guaranteed service) |
//! | [`VirtualClock`] | the closely related baseline of Zhang (Section 4 related work; ablations) |
//! | [`FifoPlus`] | FIFO+ multi-hop sharing (Section 6) |
//! | [`StrictPriority`] | jitter shifting between predicted classes (Sections 5, 7) |
//! | [`Unified`] | the full Section-7 scheduler: WFQ isolation around priority + FIFO+ sharing with datagram traffic underneath |
//!
//! [`Wfq`], [`VirtualClock`] and [`Unified`] are the paper's time-stamp
//! schemes — one FIFO of stamped packets per flow, smallest head stamp
//! first — and share that structure as one crate-private lane table
//! (`lanes`).  The table owns the lanes (each a `VecDeque` that keeps its
//! capacity when it drains and when its slot is recycled), the flow → slot
//! map and the list of backlogged lanes; it frees a lane when its flow's
//! registration goes (at once if empty, else when the backlog has been
//! served), and because its choice does not depend on the order lanes are
//! met in, every discipline's dequeue looks at backlogged lanes only.  A
//! discipline adds how it stamps a packet and its own per-flow state.
//!
//! All disciplines implement [`QueueDiscipline`], are work-conserving, and
//! are exercised by a shared conformance test-suite
//! ([`conformance`](crate::conformance) — also usable by downstream crates
//! that implement their own disciplines).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod conformance;
pub mod disc;
pub mod dispatch;
pub mod fifo;
pub mod fifo_plus;
pub mod gps;
mod lanes;
pub mod priority;
pub mod probe;
pub mod unified;
pub mod virtual_clock;
pub mod wfq;

pub use disc::{Dequeued, GuaranteedInstall, QueueDiscipline, SchedContext};
pub use dispatch::Discipline;
pub use fifo::Fifo;
pub use fifo_plus::{Averaging, FifoPlus};
pub use gps::GpsClock;
pub use priority::StrictPriority;
pub use probe::{class_bucket, ProbeStats};
pub use unified::Unified;
pub use virtual_clock::VirtualClock;
pub use wfq::Wfq;
