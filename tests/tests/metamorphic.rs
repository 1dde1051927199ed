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
//!
//! Three more relations pair two disciplines that must send every packet
//! at the same instant, policers on and off:
//!
//! - **R4, FIFO+ on one hop.**  A packet enters its first hop with a zero
//!   FIFO+ offset, so FIFO+ serves Table 1's single link in arrival order,
//!   as FIFO does.
//! - **R5, Unified without guarantees.**  With no guaranteed flow, the
//!   unified scheduler's pseudo-flow 0 holds the whole link, and with one
//!   predicted class it is one FIFO+ queue: FIFO+ on the single link and
//!   on a 3-hop chain of real-time flows alike.
//! - **R6, WFQ with one sender.**  A work-conserving scheduler with one
//!   flow to serve serves it in arrival order, as FIFO does.
//!
//! And one that pairs two sources:
//!
//! - **R9, a policer the source cannot exceed.**  An on/off source never
//!   sends faster than its peak rate, so a bucket filled at that rate and
//!   two packets deep always holds a packet's tokens when one arrives:
//!   policing it that way drops nothing and moves no departure, on both
//!   shapes under every discipline.

use ispn_core::TokenBucketSpec;
use ispn_scenario::{
    DisciplineSpec, FlowDef, FlowSummary, LinkProfile, MeasurementPlan, ScenarioBuilder, SourceSpec,
};
use ispn_sched::Averaging;
use ispn_sim::SimTime;
use ispn_traffic::OnOffConfig;

/// Long enough for every flow to queue behind bursts of the others, short
/// enough that this file's 164 runs stay within a few seconds in debug.
const HORIZON: SimTime = SimTime::from_secs(5);
/// The paper's average source rate, packets per second (85 % load on a
/// link with ten flows).
const AVG_RATE_PPS: f64 = 85.0;
/// The policer's depth in packets: shallow enough that bursts are dropped.
const POLICER_DEPTH_PKTS: f64 = 10.0;

/// The token-bucket policer a run's sources carry.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Policer {
    Off,
    /// At the average rate, [`POLICER_DEPTH_PKTS`] deep: bursts overflow.
    Shallow,
    /// At the source's peak rate, two packets deep: never empty when a
    /// packet arrives (R9).
    Roomy,
}

#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Table 1: ten flows on one link.
    SingleLink,
    /// Two guaranteed flows over three hops, eight one-hop flows per hop.
    GuaranteedChain,
    /// [`Shape::GuaranteedChain`] with its two end-to-end flows real-time
    /// best effort, in the one predicted class the one-hop flows are in.
    RealtimeChain,
    /// One flow on one link, averaging 85 % of it and sending at 1.7
    /// times its rate in a burst.
    OneFlowLink,
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

const FIFO_PLUS: DisciplineSpec = DisciplineSpec::FifoPlus(Averaging::RunningMean);

const DISCIPLINES: [DisciplineSpec; 5] = [
    DisciplineSpec::Fifo,
    FIFO_PLUS,
    DisciplineSpec::Wfq,
    DisciplineSpec::VirtualClock,
    DisciplineSpec::Unified {
        priority_classes: 2,
        averaging: Averaging::RunningMean,
    },
];

/// The paper's on/off source with seed `seed`, transformed by `t`.
fn onoff(seed: u64, policer: Policer, t: Transform) -> SourceSpec {
    onoff_at(AVG_RATE_PPS, seed, policer, t)
}

/// [`onoff`] averaging `avg_rate_pps` packets per second.
fn onoff_at(avg_rate_pps: f64, seed: u64, policer: Policer, t: Transform) -> SourceSpec {
    let mut config = OnOffConfig::paper(avg_rate_pps, seed);
    config.packet_bits *= t.scale;
    let bits = config.packet_bits;
    config.policer = match policer {
        Policer::Off => None,
        Policer::Shallow => Some(TokenBucketSpec::per_packets(
            avg_rate_pps,
            POLICER_DEPTH_PKTS,
            bits,
        )),
        Policer::Roomy => Some(TokenBucketSpec::per_packets(
            config.peak_rate_pps,
            2.0,
            bits,
        )),
    };
    config.start_offset += t.delay;
    SourceSpec::OnOff(config)
}

/// Build `shape` under `discipline`, transformed by `t`, run it to the
/// (shifted) horizon and return its declared flows' reports.
fn flow_reports(
    shape: Shape,
    discipline: DisciplineSpec,
    policer: Policer,
    t: Transform,
) -> Vec<FlowSummary> {
    let k = t.scale as f64;
    let end_to_end = |i| {
        match shape {
            Shape::RealtimeChain => FlowDef::best_effort_realtime(0, 3),
            _ => FlowDef::guaranteed(0, 3, 2.0 * AVG_RATE_PPS * 1000.0 * k),
        }
        .source(onoff(i, policer, t))
    };
    let builder = match shape {
        Shape::SingleLink => ScenarioBuilder::chain(2).flows(
            (0..10).map(|i| FlowDef::best_effort_realtime(0, 1).source(onoff(i, policer, t))),
        ),
        Shape::OneFlowLink => ScenarioBuilder::chain(2).flows([FlowDef::best_effort_realtime(
            0, 1,
        )
        .source(onoff_at(10.0 * AVG_RATE_PPS, 0, policer, t))]),
        Shape::GuaranteedChain | Shape::RealtimeChain => ScenarioBuilder::chain(4)
            .flows((0..2).map(end_to_end))
            .flows((0..3).flat_map(|link| {
                (0..8).map(move |j| {
                    FlowDef::best_effort_realtime(link, 1).source(onoff(
                        2 + 8 * link as u64 + j,
                        policer,
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

/// [`flow_reports`] untransformed, each as its [`bits`], after checking
/// that every flow queued: a relation says nothing about flows that never
/// did.
fn queued_bits(shape: Shape, discipline: DisciplineSpec, policer: Policer) -> Vec<[u64; 10]> {
    let reports = flow_reports(shape, discipline, policer, IDENTITY);
    assert!(
        reports
            .iter()
            .all(|f| f.delivered > 0 && f.max_delay_s > 0.0),
        "{shape:?} under {}: a flow never queued",
        discipline.label()
    );
    reports.iter().map(bits).collect()
}

/// The policers R1, R2 and R4–R6 hold with: none, and one that drops.
const POLICERS: [Policer; 2] = [Policer::Off, Policer::Shallow];

/// Run every shape, discipline and policing choice untransformed and under
/// each of `variants`, and assert that every flow report is bit-identical.
fn holds_for(variants: &[Transform]) {
    let mut broken = Vec::new();
    for shape in [Shape::SingleLink, Shape::GuaranteedChain] {
        for discipline in DISCIPLINES {
            for policer in POLICERS {
                let base = queued_bits(shape, discipline, policer);
                for &t in variants {
                    let moved: Vec<_> = flow_reports(shape, discipline, policer, t)
                        .iter()
                        .map(bits)
                        .collect();
                    if moved != base {
                        broken.push(format!(
                            "{shape:?} under {}, {policer:?} policer, {t:?}",
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

/// Assert that every flow report of `shape` is bit-identical under `a` and
/// `b`, with the policers on and off.
fn departs_alike(shape: Shape, a: DisciplineSpec, b: DisciplineSpec) {
    for policer in POLICERS {
        assert_eq!(
            queued_bits(shape, a, policer),
            queued_bits(shape, b, policer),
            "{shape:?}, {policer:?} policer: {} and {} differ",
            a.label(),
            b.label()
        );
    }
}

#[test]
fn r4_fifo_plus_on_one_hop_departs_like_fifo() {
    departs_alike(Shape::SingleLink, FIFO_PLUS, DisciplineSpec::Fifo);
}

#[test]
fn r5_unified_with_one_predicted_class_and_no_guarantee_departs_like_fifo_plus() {
    let unified = DisciplineSpec::Unified {
        priority_classes: 1,
        averaging: Averaging::RunningMean,
    };
    for shape in [Shape::SingleLink, Shape::RealtimeChain] {
        departs_alike(shape, unified, FIFO_PLUS);
    }
}

#[test]
fn r6_wfq_with_one_sender_departs_like_fifo() {
    departs_alike(
        Shape::OneFlowLink,
        DisciplineSpec::Wfq,
        DisciplineSpec::Fifo,
    );
}

#[test]
fn r9_a_policer_the_source_cannot_exceed_moves_no_flow_report() {
    let mut broken = Vec::new();
    for shape in [Shape::SingleLink, Shape::GuaranteedChain] {
        for discipline in DISCIPLINES {
            let unpoliced = queued_bits(shape, discipline, Policer::Off);
            if queued_bits(shape, discipline, Policer::Roomy) != unpoliced {
                broken.push(format!("{shape:?} under {}", discipline.label()));
            }
        }
    }
    assert!(broken.is_empty(), "flow reports moved: {broken:#?}");
}

#[test]
fn the_policer_drops_bursts_in_every_shape() {
    for shape in [
        Shape::SingleLink,
        Shape::GuaranteedChain,
        Shape::RealtimeChain,
        Shape::OneFlowLink,
    ] {
        let generated = |policer| -> u64 {
            flow_reports(shape, DisciplineSpec::Fifo, policer, IDENTITY)
                .iter()
                .map(|f| f.generated)
                .sum()
        };
        assert!(
            generated(Policer::Shallow) < generated(Policer::Off),
            "{shape:?}"
        );
    }
}
