//! The four workloads: names, reasons, and the scenario definitions of the
//! three simulation workloads.
//!
//! The scenarios are owned here (not borrowed from the experiment bins) so
//! that an experiment can be reshaped without silently changing what the
//! benchmark measures; they are built only through the `ispn-scenario`
//! facade and the two experiment entry points the README pins
//! (`table3::build`, `ChurnConfig::workload`).

use ispn_experiments::churn::ChurnConfig;
use ispn_experiments::config::PaperConfig;
use ispn_experiments::extensions::admission::{HIGH_TARGET_PKT, LOW_TARGET_PKT};
use ispn_experiments::fig1::{Fig1Network, NUM_LINKS};
use ispn_experiments::table3;
use ispn_net::LinkId;
use ispn_scenario::{
    AdmissionSpec, DisciplineMatrix, DisciplineSpec, FlowDef, LinkProfile, ScenarioBuilder, Sim,
    SourceSpec, TopologySpec, WorkloadSpec,
};
use ispn_sched::Averaging;
use ispn_sim::SimTime;

/// The seed the committed goldens were generated with (`PaperConfig`'s
/// default).
pub const GOLDEN_SEED: u64 = 0x1992_5160;

/// Simulated seconds of one full-size rep (the paper's ten minutes).
pub const PAPER_HORIZON_S: u64 = 600;

/// Flows sharing the `link-wfq` link.
pub const LINK_WFQ_FLOWS: usize = 10;

/// Churn arrival rate λ, requests per second.
pub const CHURN_ARRIVALS_PER_SEC: f64 = 200.0;
/// Churn mean holding time 1/μ, seconds (λ/μ = 15 erlangs).
pub const CHURN_MEAN_HOLDING_SECS: f64 = 0.075;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table-1 shape under WFQ.
    LinkWfq,
    /// Table-3 shape under the unified scheduler.
    ChainUnified,
    /// Fig-1 chain under heavy signalling churn.
    ChurnSignal,
    /// The `hetmix` sweep over a worker subprocess.
    SweepPipes,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::LinkWfq,
        Workload::ChainUnified,
        Workload::ChurnSignal,
        Workload::SweepPipes,
    ];

    /// The name used on the command line, in `BENCHMARK.json` and in
    /// `golden/`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LinkWfq => "link-wfq",
            Workload::ChainUnified => "chain-unified",
            Workload::ChurnSignal => "churn-signal",
            Workload::SweepPipes => "sweep-pipes",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists: which layer it stresses that the others
    /// do not.
    pub fn why(self) -> &'static str {
        match self {
            Workload::LinkWfq => {
                "one WFQ link, 10 on/off flows: the scheduler does the most work, the event \
                 queue is shallow, no control plane, no sweep layer"
            }
            Workload::ChainUnified => {
                "the paper's Table-3 run: multi-hop Unified forwarding, a deep event queue, \
                 edge policing, TCP and the largest report"
            }
            Workload::ChurnSignal => {
                "200 setups/s on the Fig-1 chain: signalling, admission and lane install/free \
                 write the tables the other workloads only read"
            }
            Workload::SweepPipes => {
                "ISPN_FAST hetmix over a worker process: dispatch, wire framing, JSON and worker \
                 start/stop dominate 7 ms points"
            }
        }
    }
}

/// What a simulation rep runs: the seed and the simulated horizon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSpec {
    /// `PaperConfig::seed`.
    pub seed: u64,
    /// Simulated seconds to run.
    pub horizon_s: u64,
}

impl RunSpec {
    /// The Appendix constants with this run's seed and horizon.
    pub fn paper_config(&self) -> PaperConfig {
        PaperConfig {
            seed: self.seed,
            duration: SimTime::from_secs(self.horizon_s),
            ..PaperConfig::paper()
        }
    }
}

/// The discipline every forward link of the two chain workloads runs.
pub const UNIFIED: DisciplineSpec = DisciplineSpec::Unified {
    priority_classes: 2,
    averaging: Averaging::RunningMean,
};

/// The discipline the workload's measured links run.
pub fn discipline(workload: Workload) -> DisciplineSpec {
    match workload {
        Workload::LinkWfq => DisciplineSpec::Wfq,
        _ => UNIFIED,
    }
}

/// Build a simulation workload's scenario, ready to run.
///
/// # Panics
/// Panics for [`Workload::SweepPipes`], whose scenarios are defined inside
/// the `hetmix` bin.
pub fn build(workload: Workload, cfg: &PaperConfig) -> Sim {
    match workload {
        Workload::LinkWfq => ScenarioBuilder::chain(2)
            .link_profile(LinkProfile {
                rate_bps: cfg.link_rate_bps,
                propagation: SimTime::ZERO,
                buffer_packets: cfg.buffer_packets,
            })
            .discipline(discipline(workload))
            .flows((0..LINK_WFQ_FLOWS).map(|i| {
                FlowDef::best_effort_realtime(0, 1).source(SourceSpec::onoff_paper(
                    cfg.avg_rate_pps,
                    cfg.flow_seed(i as u32),
                ))
            }))
            .build()
            .expect("the link-wfq scenario is valid"),
        Workload::ChainUnified => table3::build(cfg).sim,
        Workload::ChurnSignal => {
            let churn =
                ChurnConfig::new(cfg.clone(), CHURN_ARRIVALS_PER_SEC, CHURN_MEAN_HOLDING_SECS);
            churn_chain(cfg)
                .workload(WorkloadSpec::Churn(churn.workload()))
                .build()
                .expect("the churn-signal scenario is valid")
        }
        Workload::SweepPipes => panic!("sweep-pipes scenarios are defined inside the hetmix bin"),
    }
}

/// The `churn-signal` network without its arrival process: the Fig-1
/// duplex chain with the unified scheduler and a stiffened Section-9
/// admission controller on every forward link (the shape of the repo's
/// churn experiment).
pub fn churn_chain(cfg: &PaperConfig) -> ScenarioBuilder {
    let pt = cfg.packet_time();
    let forward: Vec<LinkId> = (0..NUM_LINKS).map(LinkId).collect();
    ScenarioBuilder::new(TopologySpec::chain_duplex(5))
        .link_profile(Fig1Network::link_profile(cfg))
        .disciplines(DisciplineMatrix::default().with_links(&forward, UNIFIED))
        .admission_on(
            forward,
            AdmissionSpec {
                realtime_quota: 0.9,
                class_targets: vec![pt.mul_f64(HIGH_TARGET_PKT), pt.mul_f64(LOW_TARGET_PKT)],
                measurement_window_secs: 10.0,
                util_safety_factor: Some(1.6),
                sample_interval: SimTime::SECOND,
            },
        )
}

/// Run a built scenario to its horizon: the data plane to `cfg.duration`,
/// and for the churn workload the drain that follows (stop arrivals, tear
/// every flow down, one more simulated second for the release waves).
pub fn run(workload: Workload, sim: &mut Sim, cfg: &PaperConfig) {
    sim.run_until(cfg.duration);
    if workload == Workload::ChurnSignal {
        sim.drain_churn();
        sim.run_until(cfg.duration + SimTime::SECOND);
    }
}
