//! # ispn-core — the CSZ'92 Integrated Services architecture
//!
//! This crate holds the paper's *architecture*: the concepts that exist
//! independently of any particular switch scheduling mechanism.
//!
//! * [`packet`] — the packet format, including the jitter-offset header
//!   field that FIFO+ relies on (Section 6: the offset "be defined as part
//!   of the packet header"),
//! * [`flow`] — service classes (guaranteed / predicted / datagram), flow
//!   identities and the service interface of Section 8 ([`flow::FlowSpec`]),
//! * [`token_bucket`] — the `(r, b)` token-bucket traffic filter of
//!   Section 4, used both as a conformance checker and as an edge policer,
//! * [`bounds`] — Parekh–Gallager worst-case queueing-delay bounds for
//!   guaranteed flows,
//! * [`admission`] — the measurement-based admission-control criterion of
//!   Section 9 together with the 10 % datagram quota,
//! * [`playback`] — rigid and adaptive play-back point applications
//!   (Section 2), the client side of the architecture.
//!
//! The scheduling *mechanisms* (WFQ, FIFO+, the unified scheduler) live in
//! `ispn-sched`; the packet network that carries the traffic lives in
//! `ispn-net`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod admission;
pub mod bounds;
pub mod flow;
pub mod packet;
pub mod playback;
pub mod token_bucket;

pub use admission::{AdmissionController, AdmissionDecision, LinkMeasurement, RejectReason};
pub use flow::{FlowSpec, ServiceClass};
pub use packet::{Conformance, FlowId, Packet, PacketKind};
pub use token_bucket::{TokenBucket, TokenBucketSpec};
