//! Flow churn under dynamic signaling: the Sections 8–9 service interface
//! exercised end to end.
//!
//! Flows arrive as a Poisson process and hold their reservation for an
//! exponentially distributed time, on the Appendix's five-switch chain
//! (Figure 1).  Every inter-switch link runs the unified scheduler of
//! Section 7 under a measurement-based admission controller (Section 9)
//! that `ispn-net` feeds live; each setup traverses its route hop by hop
//! through `ispn-signal`, so a refusal anywhere rolls partial reservations
//! back.  The experiment reports the classic connection-admission-control
//! quantities: blocking probability versus offered load, carried
//! utilization, and whether any admitted predicted flow ever exceeded the
//! a-priori bound (the sum of its per-hop class targets Dᵢ) it was sold.
//!
//! The churn *process* itself is no longer driven here: it is the
//! first-class [`WorkloadSpec::Churn`] workload of `ispn-scenario`, so this
//! module only declares the scenario (topology, disciplines, admission,
//! churn parameters), runs it, and summarizes — and the offered-load sweep
//! is the [`Sweep`] experiment.  The promoted driver reproduces the
//! pre-promotion decision sequence bit-exactly (pinned in
//! `tests/tests/scenario.rs`).

use ispn_net::{LinkId, PoliceAction};
use ispn_scenario::{
    wire_record, AdmissionSpec, ChurnClass, ChurnSourceSpec, ChurnWorkload, DisciplineMatrix,
    DisciplineSpec, MeasurementPlan, PointResult, RunTelemetry, ScenarioBuilder, ScenarioSet, Sim,
    SweepReport, TopologySpec, WorkloadSpec,
};
use ispn_sched::Averaging;
use ispn_sim::SimTime;

use crate::config::PaperConfig;
use crate::experiment::Experiment;
use crate::extensions::admission::{HIGH_TARGET_PKT, LOW_TARGET_PKT};
use crate::fig1::{Fig1Network, NUM_LINKS};

/// Parameters of one churn run.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// The Appendix constants (link speed, packet size, source model, seed).
    pub paper: PaperConfig,
    /// Poisson flow-arrival rate λ (new setup requests per second).
    pub arrivals_per_sec: f64,
    /// Mean exponential holding time 1/μ of an admitted flow, seconds.
    pub mean_holding_secs: f64,
    /// Fraction of requests asking for guaranteed service (clock rate = the
    /// source's peak rate, the paper's Guaranteed-Peak configuration); the
    /// rest ask for predicted service, split evenly between the two
    /// priority classes.
    pub guaranteed_fraction: f64,
}

impl ChurnConfig {
    /// A churn configuration with the given offered dynamics.
    pub fn new(paper: PaperConfig, arrivals_per_sec: f64, mean_holding_secs: f64) -> Self {
        assert!(arrivals_per_sec > 0.0);
        assert!(mean_holding_secs > 0.0);
        ChurnConfig {
            paper,
            arrivals_per_sec,
            mean_holding_secs,
            guaranteed_fraction: 0.25,
        }
    }

    /// Offered load in erlangs: the mean number of flows that would be in
    /// the system if none were blocked (λ/μ).
    pub fn offered_erlangs(&self) -> f64 {
        self.arrivals_per_sec * self.mean_holding_secs
    }

    /// The declarative churn workload this configuration describes.
    pub fn workload(&self) -> ChurnWorkload {
        let paper = &self.paper;
        let pt = paper.packet_time();
        ChurnWorkload {
            arrivals_per_sec: self.arrivals_per_sec,
            mean_holding_secs: self.mean_holding_secs,
            // The driver's stream is derived from the base seed exactly as
            // the pre-promotion experiment derived it.
            seed: paper.seed ^ 0xC4E2_2024,
            guaranteed_fraction: self.guaranteed_fraction,
            guaranteed_rate_bps: 2.0 * paper.avg_rate_pps * paper.packet_bits as f64,
            classes: vec![
                // A client asking for the tight class must declare a burst
                // that fits inside the headroom the Section-9 criterion
                // checks; low-priority clients declare the Appendix's
                // `(A, 50)`.
                ChurnClass {
                    priority: 0,
                    bucket: bucket_for(paper, 0),
                    per_hop_target: pt.mul_f64(HIGH_TARGET_PKT),
                    loss_rate: 0.001,
                    police: PoliceAction::Drop,
                },
                ChurnClass {
                    priority: 1,
                    bucket: bucket_for(paper, 1),
                    per_hop_target: pt.mul_f64(LOW_TARGET_PKT),
                    loss_rate: 0.001,
                    police: PoliceAction::Drop,
                },
            ],
            source: ChurnSourceSpec {
                avg_rate_pps: paper.avg_rate_pps,
                seed_base: paper.seed,
            },
        }
    }
}

/// What one churn run produced.
#[derive(Debug, Clone)]
pub struct ChurnOutcome {
    /// Offered load in erlangs (λ/μ).
    pub offered_erlangs: f64,
    /// Setup requests that completed (accepted + rejected).
    pub offered: usize,
    /// Setups admitted on every hop.
    pub accepted: usize,
    /// Setups refused by some hop.
    pub rejected: usize,
    /// Chronological accept/reject sequence (for determinism checks).
    pub decisions: Vec<bool>,
    /// Mean utilization over the four inter-switch links.
    pub mean_utilization: f64,
    /// Utilization of the busiest link.
    pub worst_utilization: f64,
    /// Admitted predicted flows whose measured maximum queueing delay
    /// exceeded the advertised bound (Σ per-hop Dᵢ along their path).
    pub violations: usize,
    /// The largest fraction of its advertised bound any admitted predicted
    /// flow consumed (1.0 = exactly at the bound).
    pub worst_bound_fraction: f64,
    /// Guaranteed bandwidth still reserved on any link after every flow was
    /// torn down and the control plane drained — must be zero if rejected
    /// and released setups leave no residue.
    pub residual_reserved_bps: f64,
}

wire_record! { ChurnOutcome {
    offered_erlangs, offered, accepted, rejected, decisions, mean_utilization, worst_utilization,
    violations, worst_bound_fraction, residual_reserved_bps,
} }

impl ChurnOutcome {
    /// Fraction of setup requests refused.
    pub fn blocking_probability(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.rejected as f64 / self.offered as f64
        }
    }
}

/// The per-hop delay target of a predicted priority class, in packet times.
fn class_target_pkt(priority: u8) -> f64 {
    if priority == 0 {
        HIGH_TARGET_PKT
    } else {
        LOW_TARGET_PKT
    }
}

/// The declared token bucket of a predicted churn request: a client asking
/// for the tight class must declare a burst that fits inside the headroom
/// the Section-9 criterion checks; low-priority clients declare the
/// Appendix's `(A, 50)`.
fn bucket_for(paper: &PaperConfig, priority: u8) -> ispn_core::TokenBucketSpec {
    let depth_pkts = if priority == 0 { 20.0 } else { 50.0 };
    ispn_core::TokenBucketSpec::per_packets(paper.avg_rate_pps, depth_pkts, paper.packet_bits)
}

/// Build the churn scenario: the Figure-1 duplex chain with the unified
/// scheduler and a stiffened Section-9 admission controller on every
/// forward link, carrying the declarative churn workload.
pub fn build_sim(cfg: &ChurnConfig) -> Sim {
    let paper = &cfg.paper;
    let pt = paper.packet_time();
    let forward: Vec<LinkId> = (0..NUM_LINKS).map(LinkId).collect();
    // Under churn many flows can be admitted within one measurement window,
    // before any of them shows up in ν̂; a stiffer safety factor keeps the
    // "consistently conservative estimate" property (Section 9) honest in
    // that regime so admitted flows stay within bound.
    let admission = AdmissionSpec {
        realtime_quota: 0.9,
        class_targets: vec![pt.mul_f64(HIGH_TARGET_PKT), pt.mul_f64(LOW_TARGET_PKT)],
        measurement_window_secs: 10.0,
        util_safety_factor: Some(1.6),
        sample_interval: SimTime::SECOND,
    };
    ScenarioBuilder::new(TopologySpec::chain_duplex(5))
        .link_profile(Fig1Network::link_profile(paper))
        .disciplines(DisciplineMatrix::default().with_links(
            &forward,
            DisciplineSpec::Unified {
                priority_classes: 2,
                averaging: Averaging::RunningMean,
            },
        ))
        .admission_on(forward, admission)
        .workload(WorkloadSpec::Churn(cfg.workload()))
        .build()
        .expect("the churn scenario is valid")
}

/// Run one churn scenario.
pub fn run(cfg: &ChurnConfig) -> ChurnOutcome {
    let paper = cfg.paper.clone();
    let mut sim = build_sim(cfg);

    // The facade owns the whole dynamic workload: arrivals, departures,
    // control messages and the data plane interleave in global event-time
    // order inside this one call.
    sim.run_until(paper.duration);

    // Measure bound compliance over the flows' lifetimes before draining.
    // `churn_flow_reports` covers every admission: flows whose id slot was
    // reclaimed mid-run report the snapshot taken before the recycle reset
    // their monitor row, flows still holding are queried live.
    let pt_secs = paper.packet_time().as_secs_f64();
    let mut violations = 0;
    let mut worst_bound_fraction: f64 = 0.0;
    for record in sim.churn_flow_reports() {
        let Some(priority) = record.priority else {
            continue;
        };
        if record.report.delivered == 0 {
            continue;
        }
        let bound_secs = class_target_pkt(priority) * record.hops as f64 * pt_secs;
        let fraction = record.report.max_delay / bound_secs;
        worst_bound_fraction = worst_bound_fraction.max(fraction);
        if fraction > 1.0 {
            violations += 1;
        }
    }

    let forward: Vec<LinkId> = (0..NUM_LINKS).map(LinkId).collect();
    let mut mean_utilization = 0.0;
    let mut worst_utilization: f64 = 0.0;
    for &link in &forward {
        let u = sim
            .network()
            .monitor()
            .link_report(link.index())
            .utilization;
        mean_utilization += u / NUM_LINKS as f64;
        worst_utilization = worst_utilization.max(u);
    }

    // Drain: stop the arrival process, tear every remaining flow down, let
    // the control plane finish, and verify no reservation survives.
    sim.drain_churn();
    sim.run_until(paper.duration + SimTime::from_secs(1));
    let residual_reserved_bps = forward
        .iter()
        .map(|&l| {
            sim.network()
                .admission(l)
                .expect("admission enabled")
                .reserved_guaranteed_bps()
        })
        .sum();

    let decisions: Vec<bool> = sim.signaling().decisions().map(|(_, a)| a).collect();
    let accepted = decisions.iter().filter(|&&a| a).count();
    let rejected = decisions.len() - accepted;
    ChurnOutcome {
        offered_erlangs: cfg.offered_erlangs(),
        offered: decisions.len(),
        accepted,
        rejected,
        decisions,
        mean_utilization,
        worst_utilization,
        violations,
        worst_bound_fraction,
        residual_reserved_bps,
    }
}

/// The offered-load sweep: the same holding time at a rising arrival
/// rate, each load point a self-contained scenario — byte-identical at
/// every execution level, down to the accept/reject decision sequence.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// The Appendix constants and the run length.
    pub paper: PaperConfig,
    /// Poisson arrival rates λ (setups per second), one load point each.
    pub rates: Vec<f64>,
    /// Mean exponential holding time 1/μ of an admitted flow, seconds.
    pub holding: f64,
}

impl Experiment for Sweep {
    type Params = (f64,);
    type Row = ChurnOutcome;

    fn set(&self) -> ScenarioSet<(f64,)> {
        ScenarioSet::over("load", self.rates.clone())
    }

    fn point(&self, &(lambda,): &(f64,)) -> ChurnOutcome {
        run(&ChurnConfig::new(self.paper.clone(), lambda, self.holding))
    }

    fn render(&self, reports: &[SweepReport<PointResult<ChurnOutcome>>]) -> String {
        crate::report::render_churn(reports)
    }

    fn check(&self, rows: &[&ChurnOutcome]) -> Option<String> {
        for o in rows {
            assert_eq!(
                o.residual_reserved_bps, 0.0,
                "a finished run must leave no reservation state behind"
            );
        }
        Some("residual reservations after drain: 0 bps on every link (checked)".to_string())
    }

    /// Bounded flow-table growth under slot reclamation is the interesting
    /// part of a churn run: the engine's counters after a representative
    /// point (one arrival per second, 15-second mean holding time).
    fn footprint(&self) -> Option<RunTelemetry> {
        let cfg = ChurnConfig::new(self.paper.clone(), 1.0, 15.0);
        let mut sim = build_sim(&cfg);
        sim.run_until(self.paper.duration);
        sim.report(&MeasurementPlan::default().with_run_telemetry())
            .telemetry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ispn_scenario::assert_wire_codec;

    fn fast(arrivals_per_sec: f64) -> ChurnConfig {
        ChurnConfig::new(PaperConfig::fast(), arrivals_per_sec, 15.0)
    }

    #[test]
    fn churn_offers_accepts_and_rejects() {
        let out = run(&fast(1.0));
        assert!(out.offered > 10, "{out:?}");
        assert_eq!(out.offered, out.accepted + out.rejected);
        assert!(out.accepted > 0, "{out:?}");
        // 15 erlangs of mixed flows against 4 links × 0.9 Mbit/s must turn
        // some requests away.
        assert!(out.rejected > 0, "{out:?}");
        assert_eq!(out.decisions.len(), out.offered);
    }

    #[test]
    fn no_residual_reservations_after_drain() {
        let out = run(&fast(0.8));
        assert_eq!(out.residual_reserved_bps, 0.0, "{out:?}");
        // 200 setups/s, 75 ms holds, drained at 5 s: at each of these seeds a
        // guaranteed setup has installed hops by then and not yet confirmed.
        for seed in [28, 30, 36, 37, 38] {
            let mut paper = PaperConfig::paper();
            (paper.seed, paper.duration) = (seed, SimTime::from_secs(5));
            let out = run(&ChurnConfig::new(paper, 200.0, 0.075));
            assert_eq!(out.residual_reserved_bps, 0.0, "seed {seed}");
        }
    }

    #[test]
    fn admitted_predicted_flows_meet_their_bounds() {
        let out = run(&fast(0.6));
        assert_eq!(out.violations, 0, "{out:?}");
        assert!(out.worst_bound_fraction < 1.0, "{out:?}");
    }

    #[test]
    fn same_seed_same_decision_sequence() {
        let a = run(&fast(1.0));
        let b = run(&fast(1.0));
        assert_eq!(a.decisions, b.decisions);
        assert_eq!(a.accepted, b.accepted);
        assert!((a.mean_utilization - b.mean_utilization).abs() < 1e-12);
    }

    #[test]
    fn blocking_rises_with_offered_load() {
        let low = run(&fast(0.3));
        let high = run(&fast(2.0));
        assert!(
            low.blocking_probability() <= high.blocking_probability(),
            "low {low:?} vs high {high:?}"
        );
        assert!(high.blocking_probability() > 0.0);
    }

    #[test]
    fn parallel_sweep_equals_serial_sweep() {
        use crate::experiment::{rows, run};
        use ispn_scenario::{SweepExec, SweepProgress, SweepRunner};
        let sweep = Sweep {
            paper: PaperConfig {
                duration: SimTime::from_secs(20),
                ..PaperConfig::fast()
            },
            rates: vec![0.5, 1.0],
            holding: 15.0,
        };
        let serial = rows(&sweep);
        let threads = SweepExec::InProcess(SweepRunner::parallel(2));
        let parallel = run(&sweep, &threads, &SweepProgress::default());
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            let p = p.result.as_ref().expect("no point panicked");
            assert_eq!(s.decisions, p.decisions);
            assert_eq!(s.mean_utilization, p.mean_utilization);
            assert_eq!(s.worst_bound_fraction, p.worst_bound_fraction);
        }
    }

    #[test]
    fn outcomes_round_trip_the_wire() {
        let outcome = ChurnOutcome {
            offered_erlangs: 3.0,
            offered: 4,
            accepted: 3,
            rejected: 1,
            decisions: vec![true, true, false, true],
            mean_utilization: 0.5,
            worst_utilization: 0.75,
            violations: 0,
            worst_bound_fraction: f64::NAN,
            residual_reserved_bps: 0.0,
        };
        let json = "{\"offered_erlangs\":3.0,\"offered\":4,\"accepted\":3,\"rejected\":1,\
            \"decisions\":[true,true,false,true],\"mean_utilization\":0.5,\
            \"worst_utilization\":0.75,\"violations\":0,\"worst_bound_fraction\":null,\
            \"residual_reserved_bps\":0.0}";
        assert_wire_codec(
            &outcome,
            json,
            &[&json.replace("\"offered\":4", "\"offered\":4.5")],
        );
    }
}
