//! # ispn-signal — dynamic flow signaling for the CSZ'92 architecture
//!
//! Sections 8 and 9 of the paper describe a *service interface*: a source
//! asks the network for guaranteed or predicted service, every switch along
//! the path runs (measurement-based) admission control, and flows come and
//! go — "the source first negotiates with the network over the quality of
//! service".  The data plane for that interface lives in `ispn-net`; this
//! crate adds the control plane:
//!
//! * [`Signaling`] — the hop-by-hop setup engine.  A [`Signaling::submit`]
//!   walks a `SetupRequest`'s route as a simulated control packet (one
//!   1000-bit control-packet transmission plus propagation per hop); each
//!   switch consults the link's
//!   [`AdmissionController`](ispn_core::AdmissionController) — fed live by
//!   the network's measurement plumbing — and installs reservation state on
//!   acceptance.  A rejection travels back *upstream*, rolling back every
//!   partially installed reservation, so a refused setup leaves no residue.
//! * **Teardown** — [`Signaling::teardown`] silences the source at once and
//!   releases each hop's reservation as the release message reaches it.
//! * **Renegotiation** — adaptive applications (Section 2's adaptive
//!   play-back clients) may change their service mid-flow:
//!   [`Signaling::renegotiate_bucket`] re-runs the Section-9 criterion for a
//!   new `(r, b)` on every hop, and
//!   [`Signaling::renegotiate_clock_rate`] grows or shrinks a guaranteed
//!   reservation (increases are admitted hop by hop and rolled back on
//!   failure; decreases commit only once the whole path has agreed, so a
//!   failed renegotiation always leaves the old reservation intact).  Only
//!   an admitted, idle flow may renegotiate; any other request is a typed
//!   [`Refusal`] at once.
//!
//! This is the only way a reservation is set up at run time, renegotiated
//! or torn down (a flow declared to `ScenarioBuilder` is reserved at build
//! time by the same ledger call a setup's messages make), but the engine
//! keeps only messages, delays and outcomes: a flow's
//! transaction is its slot's [`FlowPhase`](ispn_net::FlowPhase), and what
//! a link reserves for a flow — controller quota, scheduler rate and the
//! rate held there — is `ispn-net`'s reservation ledger's decision alone,
//! made by the per-link operations each message calls (`admit_flow_on_link`,
//! `renegotiate_on_link`, `undo_renegotiation_on_link`,
//! `release_flow_on_link`, and `commit_renegotiation` once a renegotiation
//! has cleared every hop).  A torn-down flow's source is ended by its
//! driver with `Network::retire_agent`, which drops the agent and recycles
//! its slot.
//!
//! Everything is deterministic: outcomes are a pure function of the
//! simulation seed, which the churn experiments rely on.
//!
//! ```
//! use ispn_core::admission::{AdmissionConfig, AdmissionController};
//! use ispn_net::{FlowConfig, Network, Topology};
//! use ispn_signal::{SignalEvent, Signaling};
//! use ispn_sim::SimTime;
//!
//! let (topo, _nodes, links) = Topology::chain(3, 1e6, SimTime::from_millis(1), 200);
//! let mut net = Network::new(topo);
//! for &l in &links {
//!     let ctl = AdmissionController::new(
//!         AdmissionConfig::new(1e6, 0.9, vec![SimTime::from_millis(100)]),
//!         10.0,
//!     );
//!     net.enable_admission(l, ctl, SimTime::SECOND);
//! }
//! let mut signaling = Signaling::default();
//! let (req, _flow) = signaling.submit(&mut net, FlowConfig::guaranteed(links, 300_000.0));
//! let events = signaling.process_until(&mut net, SimTime::from_secs(1));
//! assert!(matches!(events[0], SignalEvent::Accepted { request, .. } if request == req));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// The lib, not its unit tests, denies raw integer arithmetic, as ispn-sim's
// does: each operation left carries an `#[expect]` saying why it cannot
// overflow.
#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]

pub mod engine;
pub mod messages;

pub use engine::Signaling;
pub use messages::{Refusal, RequestId, SignalEvent};
