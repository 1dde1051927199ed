//! The child side of a simulation rep: one fresh process that builds the
//! workload's scenario, runs it, collects the report, prints its JSON to
//! stdout — the user-level command the end-to-end metrics time — and
//! leaves one line of phase spans and counters on stderr for the parent.

use std::io::Write;
use std::time::Duration;

use ispn_scenario::MeasurementPlan;

use crate::clock::now;
use crate::proc::vm_hwm_bytes;
use crate::workloads::{self, RunSpec, Workload};

/// First word of the statistics line a rep leaves on stderr.
const STATS_TAG: &str = "ispn-benchmark-rep";

/// What a rep child measured about itself.
#[derive(Debug, Clone, PartialEq)]
pub struct RepStats {
    /// Wall-clock reading right after `ScenarioBuilder::build()` returned:
    /// the first instant a simulated event could be dispatched.
    pub built_at: Duration,
    /// Scenario construction, seconds.
    pub build_s: f64,
    /// `run_until` (and the churn drain), seconds.
    pub run_s: f64,
    /// `Sim::report`, seconds.
    pub report_s: f64,
    /// `ScenarioReport::to_json`, seconds.
    pub json_s: f64,
    /// Peak resident set size just before exit, bytes.
    pub vm_hwm_bytes: u64,
    /// Events the network dispatched.
    pub events: u64,
    /// Length of the report JSON, bytes.
    pub report_bytes: u64,
}

impl RepStats {
    fn to_line(&self) -> String {
        format!(
            "{STATS_TAG} built_at_ns={} build_s={:?} run_s={:?} report_s={:?} json_s={:?} \
             vm_hwm_bytes={} events={} report_bytes={}",
            self.built_at.as_nanos(),
            self.build_s,
            self.run_s,
            self.report_s,
            self.json_s,
            self.vm_hwm_bytes,
            self.events,
            self.report_bytes,
        )
    }

    /// Find and parse the statistics line in a rep's stderr.
    pub fn parse(stderr: &str) -> Option<RepStats> {
        let line = stderr.lines().rev().find(|l| l.starts_with(STATS_TAG))?;
        let field = |key: &str| {
            line.split_whitespace()
                .find_map(|word| word.strip_prefix(key)?.strip_prefix('='))
        };
        Some(RepStats {
            built_at: Duration::from_nanos(field("built_at_ns")?.parse().ok()?),
            build_s: field("build_s")?.parse().ok()?,
            run_s: field("run_s")?.parse().ok()?,
            report_s: field("report_s")?.parse().ok()?,
            json_s: field("json_s")?.parse().ok()?,
            vm_hwm_bytes: field("vm_hwm_bytes")?.parse().ok()?,
            events: field("events")?.parse().ok()?,
            report_bytes: field("report_bytes")?.parse().ok()?,
        })
    }
}

/// One rep's phases as wall-clock readings at their boundaries, with the
/// finished simulation and its report JSON.
pub struct Phases {
    /// Before scenario construction.
    pub start: Duration,
    /// After `ScenarioBuilder::build()` returned.
    pub built: Duration,
    /// After `instrument` ran (equal to `built` for a plain rep): the run
    /// span starts here so installing recorders is not billed to it.
    pub run_start: Duration,
    /// After `run_until` (and the churn drain).
    pub ran: Duration,
    /// After `Sim::report`.
    pub reported: Duration,
    /// After `ScenarioReport::to_json`.
    pub rendered: Duration,
    /// The finished simulation (counters are harvested from it).
    pub sim: ispn_scenario::Sim,
    /// The report JSON.
    pub json: String,
}

/// Build, run and report one simulation workload, calling `instrument` on
/// the freshly built simulation before anything runs (the traced run
/// installs its recorders there; the plain rep passes a no-op).
pub fn run_phases(
    workload: Workload,
    spec: RunSpec,
    instrument: impl FnOnce(&mut ispn_scenario::Sim),
) -> Phases {
    let cfg = spec.paper_config();
    let start = now();
    let mut sim = workloads::build(workload, &cfg);
    let built = now();
    instrument(&mut sim);
    let run_start = now();
    workloads::run(workload, &mut sim, &cfg);
    let ran = now();
    let report = sim.report(&MeasurementPlan::default());
    let reported = now();
    let json = report.to_json();
    let rendered = now();
    Phases {
        start,
        built,
        run_start,
        ran,
        reported,
        rendered,
        sim,
        json,
    }
}

impl Phases {
    /// The statistics line for these phases.
    pub fn stats(&self) -> std::io::Result<RepStats> {
        let secs = |a: Duration, b: Duration| b.saturating_sub(a).as_secs_f64();
        Ok(RepStats {
            built_at: self.built,
            build_s: secs(self.start, self.built),
            run_s: secs(self.run_start, self.ran),
            report_s: secs(self.ran, self.reported),
            json_s: secs(self.reported, self.rendered),
            vm_hwm_bytes: vm_hwm_bytes("self")?,
            events: self.sim.network().events_processed(),
            report_bytes: self.json.len() as u64,
        })
    }
}

/// Write a rep's report to stdout and its statistics line to stderr.
pub fn emit(json: &str, stats: &RepStats) -> std::io::Result<()> {
    let mut out = std::io::stdout().lock();
    out.write_all(json.as_bytes())?;
    out.write_all(b"\n")?;
    out.flush()?;
    eprintln!("{}", stats.to_line());
    Ok(())
}

/// Run one untraced rep in this process.
pub fn run(workload: Workload, spec: RunSpec) -> std::io::Result<()> {
    let phases = run_phases(workload, spec, |_| {});
    let stats = phases.stats()?;
    emit(&phases.json, &stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_line_round_trips() {
        let stats = RepStats {
            built_at: Duration::from_nanos(1_759_000_000_123_456_789),
            build_s: 8.5e-5,
            run_s: 0.25,
            report_s: 0.037,
            json_s: 3.1e-5,
            vm_hwm_bytes: 11_650_000,
            events: 1_007_712,
            report_bytes: 3113,
        };
        let stderr = format!("some warning\n{}\n", stats.to_line());
        assert_eq!(RepStats::parse(&stderr), Some(stats));
        assert_eq!(RepStats::parse("no stats here\n"), None);
    }
}
