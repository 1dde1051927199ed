//! Metamorphic relations: pairs of runs whose flow reports must agree bit
//! for bit, checked with no golden and no closed form.
//!
//! - **R1, scale.**  Multiplying every quantity measured in bits — link
//!   rates, guaranteed clock rates, token-bucket rates and depths, packet
//!   sizes — by the same power of two leaves every transmission time and
//!   every token count's ratio to a packet unchanged, so no delay, drop or
//!   count may move.
//! - **R2, shift.**  Delaying every source's first burst and the horizon
//!   by the same amount shifts every event by it, so again nothing that a
//!   flow report carries may move.
//!
//! Both run over two shapes — Table 1's single link with ten on/off flows,
//! and a 3-hop chain carrying two guaranteed end-to-end flows over eight
//! one-hop flows per link — under FIFO, FIFO+, WFQ, VirtualClock and
//! Unified, with the sources' token-bucket policers on and off.

use ispn_core::TokenBucketSpec;
use ispn_scenario::{
    DisciplineSpec, FlowDef, FlowSummary, LinkProfile, MeasurementPlan, ScenarioBuilder, SourceSpec,
};
use ispn_sched::Averaging;
use ispn_sim::SimTime;
use ispn_traffic::OnOffConfig;

/// Long enough for every flow to queue behind bursts of the others, short
/// enough that this file's 124 runs stay within a few seconds in debug.
const HORIZON: SimTime = SimTime::from_secs(5);
/// The paper's average source rate, packets per second (85 % load on a
/// link with ten flows).
const AVG_RATE_PPS: f64 = 85.0;
/// The policer's depth in packets: shallow enough that bursts are dropped.
const POLICER_DEPTH_PKTS: f64 = 10.0;

#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Table 1: ten flows on one link.
    SingleLink,
    /// Two guaranteed flows over three hops, eight one-hop flows per hop.
    GuaranteedChain,
}

/// What a relation changes about a run: every bit quantity multiplied by
/// `scale`, every source start and the horizon pushed back by `delay`.
#[derive(Debug, Clone, Copy)]
struct Transform {
    scale: u64,
    delay: SimTime,
}

const IDENTITY: Transform = Transform {
    scale: 1,
    delay: SimTime::ZERO,
};

const DISCIPLINES: [DisciplineSpec; 5] = [
    DisciplineSpec::Fifo,
    DisciplineSpec::FifoPlus(Averaging::RunningMean),
    DisciplineSpec::Wfq,
    DisciplineSpec::VirtualClock,
    DisciplineSpec::Unified {
        priority_classes: 2,
        averaging: Averaging::RunningMean,
    },
];

/// The paper's on/off source with seed `seed`, transformed by `t`.
fn onoff(seed: u64, policed: bool, t: Transform) -> SourceSpec {
    let mut config = OnOffConfig::paper(AVG_RATE_PPS, seed);
    config.packet_bits *= t.scale;
    config.policer = policed.then(|| {
        TokenBucketSpec::per_packets(AVG_RATE_PPS, POLICER_DEPTH_PKTS, config.packet_bits)
    });
    config.start_offset += t.delay;
    SourceSpec::OnOff(config)
}

/// Build `shape` under `discipline`, transformed by `t`, run it to the
/// (shifted) horizon and return its declared flows' reports.
fn flow_reports(
    shape: Shape,
    discipline: DisciplineSpec,
    policed: bool,
    t: Transform,
) -> Vec<FlowSummary> {
    let k = t.scale as f64;
    let builder = match shape {
        Shape::SingleLink => ScenarioBuilder::chain(2).flows(
            (0..10).map(|i| FlowDef::best_effort_realtime(0, 1).source(onoff(i, policed, t))),
        ),
        Shape::GuaranteedChain => ScenarioBuilder::chain(4)
            .flows((0..2).map(|i| {
                FlowDef::guaranteed(0, 3, 2.0 * AVG_RATE_PPS * 1000.0 * k)
                    .source(onoff(i, policed, t))
            }))
            .flows((0..3).flat_map(|link| {
                (0..8).map(move |j| {
                    FlowDef::best_effort_realtime(link, 1).source(onoff(
                        2 + 8 * link as u64 + j,
                        policed,
                        t,
                    ))
                })
            })),
    };
    let mut sim = builder
        .link_profile(LinkProfile {
            rate_bps: 1_000_000.0 * k,
            ..LinkProfile::default()
        })
        .discipline(discipline)
        .build()
        .expect("the scenario is valid");
    sim.run_until(HORIZON + t.delay);
    sim.report(&MeasurementPlan::default()).flows
}

/// Every field of a flow report, floats as their bit patterns.
fn bits(f: &FlowSummary) -> [u64; 10] {
    [
        u64::from(f.flow),
        f.generated,
        f.delivered,
        f.dropped_buffer,
        f.dropped_at_edge,
        f.dropped_inactive,
        f.mean_delay_s.to_bits(),
        f.p999_delay_s.to_bits(),
        f.max_delay_s.to_bits(),
        f.jitter_s.to_bits(),
    ]
}

/// Run every shape, discipline and policing choice untransformed and under
/// each of `variants`, and assert that every flow report is bit-identical.
fn holds_for(variants: &[Transform]) {
    let mut broken = Vec::new();
    for shape in [Shape::SingleLink, Shape::GuaranteedChain] {
        for discipline in DISCIPLINES {
            for policed in [false, true] {
                let base = flow_reports(shape, discipline, policed, IDENTITY);
                // The relation says nothing about flows that never queued.
                assert!(
                    base.iter().all(|f| f.delivered > 0 && f.max_delay_s > 0.0),
                    "{shape:?} under {}: a flow never queued",
                    discipline.label()
                );
                let base: Vec<_> = base.iter().map(bits).collect();
                for &t in variants {
                    let moved: Vec<_> = flow_reports(shape, discipline, policed, t)
                        .iter()
                        .map(bits)
                        .collect();
                    if moved != base {
                        broken.push(format!(
                            "{shape:?} under {}, policed {policed}, {t:?}",
                            discipline.label()
                        ));
                    }
                }
            }
        }
    }
    assert!(broken.is_empty(), "flow reports moved: {broken:#?}");
}

#[test]
fn r1_scaling_every_bit_quantity_by_a_power_of_two_moves_no_flow_report() {
    holds_for(&[2, 1024].map(|scale| Transform {
        scale,
        delay: SimTime::ZERO,
    }));
}

#[test]
fn r2_delaying_every_source_and_the_horizon_moves_no_flow_report() {
    holds_for(
        &[SimTime::from_micros(1), SimTime::SECOND].map(|delay| Transform { scale: 1, delay }),
    );
}

#[test]
fn the_policer_drops_bursts_in_both_shapes() {
    for shape in [Shape::SingleLink, Shape::GuaranteedChain] {
        let generated = |policed| -> u64 {
            flow_reports(shape, DisciplineSpec::Fifo, policed, IDENTITY)
                .iter()
                .map(|f| f.generated)
                .sum()
        };
        assert!(generated(true) < generated(false), "{shape:?}");
    }
}
