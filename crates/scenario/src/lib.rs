//! # ispn-scenario — the declarative scenario API
//!
//! Every result in CSZ'92 is an instance of one shape: a *topology*, a
//! *discipline assignment*, a *workload mix* and a *measurement window*.
//! This crate turns that shape into a first-class, declarative API so that
//! experiments stop hand-wiring networks and — crucially — stop manually
//! interleaving the control plane ([`Signaling`](ispn_signal::Signaling))
//! with the data plane ([`Network`](ispn_net::Network)):
//!
//! * [`TopologySpec`] — topology presets: a [`chain`](TopologySpec::chain)
//!   (optionally duplex) and a [`mesh`](TopologySpec::mesh),
//! * [`DisciplineMatrix`] — assign FIFO / FIFO+ / WFQ / Unified (and the
//!   ablation disciplines) per link or globally,
//! * [`FlowDef`] / [`SourceSpec`] / [`ServiceSpec`] — declarative
//!   workloads: CBR, on/off, Poisson or trace sources over datagram,
//!   predicted or guaranteed service,
//! * [`AdmissionSpec`] — put links under the Section-9 measurement-based
//!   admission controller,
//! * [`WorkloadSpec`] — dynamic workloads on top of the declared flows:
//!   [`WorkloadSpec::Churn`] runs Poisson arrivals with exponential
//!   holding times entirely inside the facade (sources attached at the
//!   exact accept instants; on departure the source's agent slot is
//!   retired and the flow torn down, both slots recycling once drained;
//!   [`Sim::drain_churn`] at the end withdraws what is left, setups still
//!   in flight included),
//! * [`ScenarioReport`] — the run's structured, serializable report:
//!   per-flow and per-link summaries, per-service-class pooled delay
//!   distributions, per-discipline link groups and the signaling record,
//!   plus engine telemetry when a [`MeasurementPlan`] opts in,
//! * [`ScenarioSet`] / [`SweepRunner`] — parameterize any scenario over
//!   one or two named axes ([`over`](ScenarioSet::over), cartesian
//!   [`by`](ScenarioSet::by)) and fan the points across a thread pool;
//!   results come back axis-tagged **in point order**, byte-identical to a
//!   serial run whatever the thread count.  [`SweepRunner::run`] streams
//!   every point's report to a [`SweepObserver`] the moment it completes,
//!   and per-point `catch_unwind` turns a panicking point into a
//!   structured [`SweepError`] instead of aborting its siblings.  [`DistRunner`]
//!   scales the same contract past one process: points fan across
//!   supervised `--sweep-worker` subprocesses — or, via
//!   [`sweep::net`] ([`HostSpec`] lists, [`serve_listener`]), across
//!   TCP-connected worker hosts on other machines — over the line-framed
//!   JSON protocol of [`sweep::wire`], byte-identical to the in-thread
//!   runners, with crashed / wedged / disconnected workers becoming
//!   per-point `SweepError`s while their remaining points are
//!   redistributed ([`SweepExec`] lets callers pick the level per run),
//! * [`SweepTable`] — axis-aware report rendering: tables whose leading
//!   columns come straight from the sweep's axis tags (plus the matching
//!   JSON in [`sweep_to_json`]), replacing per-experiment formatting glue,
//! * [`ScenarioBuilder`] — assembles all of the above and returns a
//! * [`Sim`] — a facade owning both `Network` and `Signaling` that steps
//!   data-plane events, control messages and user-scheduled actions in
//!   **global event-time order** (ties resolve data ≺ control ≺ action),
//!   eliminating the coarse `process_until`/`run_until` interleave every
//!   dynamic caller used to reimplement.  Completed transactions go to the
//!   [`Sim::on_signal`] handler at their instants; nothing else keeps them.
//!
//! ```
//! use ispn_scenario::{DisciplineSpec, FlowDef, ScenarioBuilder, SourceSpec};
//! use ispn_sim::SimTime;
//!
//! let mut sim = ScenarioBuilder::chain(2)
//!     .discipline(DisciplineSpec::Wfq)
//!     .flow(FlowDef::best_effort_realtime(0, 1).source(SourceSpec::cbr(100.0, 1000)))
//!     .build()
//!     .expect("valid scenario");
//! sim.run_until(SimTime::from_secs(10));
//! let report = sim.report(&Default::default());
//! assert!(report.flows[0].delivered > 900);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod builder;
pub mod discipline;
pub mod error;
pub mod render;
pub mod report;
pub mod sim;
pub mod sweep;
pub mod topology;
pub mod workload;

pub use builder::ScenarioBuilder;
pub use discipline::{DisciplineMatrix, DisciplineSpec};
pub use error::BuildError;
pub use render::{axis_names, SweepTable};
pub use report::{
    ClassSummary, DisciplineSummary, FlowSummary, LinkSummary, MeasurementPlan, RunTelemetry,
    ScenarioReport, SignalingSummary,
};
pub use sim::{ChurnFlowRecord, ChurnFlowReport, Sim};
pub use sweep::dist::{DistRunner, SweepExec, WorkerCommand};
pub use sweep::net::{serve_listener, HostSpec, LISTENING_BANNER};
pub use sweep::testing::{assert_wire_codec, FaultMode, FaultPlan};
pub use sweep::wire::{json_escape, JsonValue, WireError, WireResult};
pub use sweep::worker::{serve_worker, WORKER_FLAG};
pub use sweep::{
    failed_points, sweep_to_json, AxisValue, NullObserver, PointResult, PointTelemetry,
    ProgressObserver, ScenarioSet, SweepError, SweepObserver, SweepPoint, SweepReport, SweepRunner,
    SweepTelemetry, TelemetryCollector,
};
pub use topology::{BuiltTopology, LinkProfile, TopologySpec};
pub use workload::{
    AdmissionSpec, ChurnClass, ChurnSourceSpec, ChurnWorkload, FlowDef, RouteSpec, ServiceSpec,
    SourceSpec, TcpDef, WorkloadSpec,
};
