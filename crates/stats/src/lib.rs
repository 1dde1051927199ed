//! # ispn-stats — measurement statistics for the ISPN reproduction
//!
//! Every table in CSZ'92 reports a handful of summary statistics of measured
//! per-packet queueing delays: the mean, the 99.9th percentile, and (for
//! Table 3) the maximum.  The admission-control proposal of Section 9 also
//! relies on *measured* quantities — the post-facto bound on utilization ν̂
//! and the measured maximal delay d̂ⱼ of each class — which must be
//! "consistently conservative estimates" taken over recent history.
//!
//! This crate collects those building blocks:
//!
//! * [`StreamingStats`] — count / mean / variance / min / max without
//!   storing samples (Welford's algorithm),
//! * [`NanoSamples`] — a flow's stored delays in integer nanoseconds, four
//!   bytes each, with exact percentiles in seconds (used for the
//!   99.9th-percentile columns; [`quantile_between`] re-reads one from
//!   the two samples it interpolates between), and [`merge_runs`], a
//!   tournament merge over several sorted stores that takes their pooled
//!   mean and quantiles without pooling them and folds a Welford spread in
//!   the same loop,
//! * [`SampleSet`] — stored `f64` samples with exact percentiles, the
//!   oracle the integer store is tested against,
//! * [`WindowedMax`] / [`WindowedMean`] — sliding-time-window estimators
//!   that yield the conservative measurements the admission controller uses,
//! * [`TextTable`] — plain-text table rendering for the experiment binaries
//!   and bench harness so their output looks like the paper's tables.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod percentile;
pub mod summary;
pub mod table;
pub mod window;

pub use percentile::{merge_runs, quantile_between, NanoSamples, SampleSet};
pub use summary::StreamingStats;
pub use table::TextTable;
pub use window::{WindowedMax, WindowedMean};
