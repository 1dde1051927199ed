//! # ispn-net — the discrete-event packet network
//!
//! This crate is the simulator substrate the paper's evaluation runs on: a
//! network of output-queued switches joined by finite-speed links, carrying
//! flows whose per-switch scheduling behaviour is supplied by `ispn-sched`
//! disciplines and whose traffic is produced by `ispn-traffic` /
//! `ispn-transport` agents.
//!
//! The model follows the Appendix of CSZ'92:
//!
//! * hosts are attached to switches by infinitely fast links, so traffic is
//!   injected directly at its first switch and delivered as soon as it has
//!   fully arrived at its last switch;
//! * every inter-switch link has a configurable rate (1 Mbit/s in the
//!   paper), an output buffer with a packet-count limit (200 packets), and
//!   one pluggable queueing discipline;
//! * predicted and datagram flows may be policed at the network edge by a
//!   token bucket (drop or tag), and sources themselves may carry their own
//!   policer (the Appendix's `(A, 50)` source filter lives in
//!   `ispn-traffic`);
//! * the monitor records, per flow, the end-to-end *queueing* delay of every
//!   delivered packet — total delay minus the fixed transmission and
//!   propagation components — which is exactly the quantity the paper's
//!   tables report in units of the packet transmission time.
//!
//! Files: `agent.rs` (the [`Agent`] trait and its command buffer),
//! `topology.rs`, `monitor.rs` (per-flow and per-link measurement),
//! `telemetry.rs`, and [`Network`] itself, one file per kind of state it
//! owns — `network.rs` (the struct, its two timelines and the event loop),
//! `network/port.rs` (ports, wires, forwarding and transmission),
//! `network/flows.rs` (flow slots and their phases, injection and
//! delivery),
//! `network/agents.rs` (agent and timer slots, callback dispatch) and
//! `network/admission.rs` (admission sampling and the per-hop reservation
//! ledger: the rate each flow holds on each link, which setup,
//! renegotiation and release change there alone — for declared and
//! signalled flows alike, since a scheduler takes rates only through
//! `install_guaranteed` / `remove_flow`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod agent;
pub mod monitor;
pub mod network;
pub mod telemetry;
pub mod topology;

pub use agent::{Agent, AgentApi, AgentId, Delivery};
pub use monitor::{FlowCounters, FlowReport, LinkReport, Monitor};
pub use network::{FlowConfig, FlowPhase, Network, PoliceAction, RequestId, SinkError};
pub use telemetry::NetTelemetry;
pub use topology::{LinkId, LinkParams, NodeId, Topology};
