//! # ispn-experiments — reproducing the CSZ'92 evaluation
//!
//! One module per table or figure of the paper, plus the extension
//! experiments ([`extensions`]) and the scenario-API studies:
//!
//! * [`config`] — the Appendix constants (1 Mbit/s links, 1000-bit packets,
//!   200-packet buffers, 600-second runs, A = 85 pkt/s on/off sources),
//! * [`fig1`] — the Figure-1 five-switch chain and the verified placement of
//!   its 22 flows (and the Table-3 class assignment and TCP connections),
//! * [`table1`] — WFQ vs FIFO on a single shared link (Table 1),
//! * [`table2`] — WFQ vs FIFO vs FIFO+ across path lengths (Table 2),
//! * [`table3`] — the unified scheduler carrying guaranteed, predicted and
//!   datagram traffic together (Table 3),
//! * [`extensions`] — hop-count sweeps, adaptive-vs-rigid playback,
//!   measurement-based admission control, and utilization sweeps,
//! * [`churn`] — dynamic flow signaling under Poisson arrivals and
//!   exponential holding times (`ispn-signal` exercised end to end through
//!   the `ispn-scenario` facade): blocking probability and bound
//!   compliance versus offered load,
//! * [`mesh`] — guaranteed + predicted + datagram cross-traffic on the
//!   shared interior links of a 3×3 grid (scenario-API study),
//! * [`hetmix`] — per-class delay/jitter versus offered load for a
//!   heterogeneous CBR / on-off / Poisson mix across all four disciplines
//!   (scenario-API study),
//! * [`report`] — text rendering next to the paper's published numbers,
//! * [`support`] — shared plumbing (the Table-2 discipline set, label
//!   interning),
//! * [`experiment`] — the [`Experiment`] descriptor the six sweep-shaped
//!   studies implement (`table1::Sweep`, `table2::Sweep`, `table3::Sweep`,
//!   `hetmix::Sweep`, `mesh::Sweep`, `churn::Sweep`) and the one driver
//!   that executes it: [`rows`] serially, [`run`] on threads, worker
//!   subprocesses or TCP hosts, [`serve`] as the worker side,
//! * [`cli`] — [`cli::main`], the whole command line of a sweep bin
//!   (`--workers N` / `--hosts LIST` / `--serve ADDR` / `--stream` /
//!   `--telemetry[=FILE]` …) over any [`Experiment`].
//!
//! Every experiment takes a [`config::PaperConfig`] so tests can run
//! shortened versions while the bench harness runs the full ten simulated
//! minutes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod churn;
pub mod cli;
pub mod config;
pub mod experiment;
pub mod extensions;
pub mod fig1;
pub mod hetmix;
pub mod mesh;
pub mod report;
pub mod support;
pub mod table1;
pub mod table2;
pub mod table3;

pub use config::PaperConfig;
pub use experiment::{rows, run, serve, Experiment, Serve};
pub use fig1::{Fig1Network, FlowKind, FlowPlacement};
