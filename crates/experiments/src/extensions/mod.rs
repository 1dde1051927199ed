//! Extension experiments beyond the paper's three tables.
//!
//! These exercise claims the paper argues but does not tabulate:
//!
//! * [`hops`] — how the 99.9th-percentile jitter grows with path length
//!   under FIFO, FIFO+ and WFQ (the Section-6 motivation for FIFO+),
//! * [`playback`] — adaptive versus rigid play-back points over predicted
//!   service (the Section 2/12 conjecture that adaptation buys lower
//!   latency at equal loss),
//! * [`admission`] — the Section-9 measurement-based admission control
//!   criterion in a dynamic setting, compared against accepting everything,
//! * [`utilization`] — delay versus offered load on a single shared link
//!   (the sharing-versus-isolation trade-off as the link saturates).
//!
//! Every run is a `ScenarioBuilder` declaration on the Figure-1 link
//! profile; `playback` and `utilization` reuse Table 1's single-link
//! scenario, and `admission` submits its requests to the network's own
//! controller.  The studies are not `Experiment` sweeps (that needs a wire
//! codec per row); the `extensions` bin runs them serially.

pub mod admission;
pub mod hops;
pub mod playback;
pub mod utilization;
