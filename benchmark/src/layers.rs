//! The traced run: one extra pass per simulation workload that measures
//! every layer from outside, through its public functions, and reconciles
//! Σ(count × ns/op) against the run phase.
//!
//! The pass has three steps, all inside one child process:
//!
//! 1. **Record.**  Run the workload once with a [`Recorder`] on every
//!    measured link and phase spans around the facade calls.  The report
//!    must still be byte-identical to an untraced rep's.
//! 2. **Harvest.**  Read the deterministic counters the run left behind in
//!    `Sim::network()`: event and packet counts, high-water marks, flow
//!    reports, the decision log.
//! 3. **Replay.**  Time each layer's public functions in tight loops shaped
//!    by those counts ([`measure_layers`]), then weigh each cost by its
//!    count into the [`Ledger`].  Nested costs are subtracted so nothing is
//!    billed twice; what no row explains is the residue.

use std::cell::RefCell;
use std::hint::black_box;
use std::path::Path;
use std::rc::Rc;
use std::time::Duration;

use ispn_core::admission::{AdmissionConfig, AdmissionController};
use ispn_core::{FlowId, ServiceClass, TokenBucket, TokenBucketSpec};
use ispn_experiments::churn::ChurnConfig;
use ispn_experiments::config::PaperConfig;
use ispn_net::{Agent, AgentApi, FlowConfig, LinkId, Monitor};
use ispn_scenario::{JsonValue, Sim};
use ispn_sched::Discipline;
use ispn_sim::{EventQueue, Pcg64, SimTime};
use ispn_stats::SampleSet;
use ispn_traffic::{OnOffConfig, OnOffSource};

use crate::clock::now;
use crate::json::{int, num, obj, render, text};
use crate::metrics::Values;
use crate::recorder::{replay, LinkLog, Op, Recorder};
use crate::rep::{self, Phases};
use crate::workloads::{self, RunSpec, Workload};

/// Enqueues each link's recorder logs before it stops (about 65 simulated
/// seconds of a paper-rate link; 13 MB of log per link).
const ENQUEUE_CAP: u64 = 1 << 16;

/// Mean burst length of the paper's on/off source: each burst costs the
/// source two RNG draws (its length and the idle period after it).
const MEAN_BURST_PKTS: f64 = 5.0;

/// Table 1's published WFQ row: mean and 99.9th-percentile queueing delay
/// of the sample flow, in packet times.
const PAPER_WFQ_MEAN: f64 = 3.16;
const PAPER_WFQ_P999: f64 = 53.86;

/// A recorder's shared log and the recipe for a fresh instance of the
/// discipline it wraps.
struct Tap {
    log: Rc<RefCell<LinkLog>>,
    fresh: Box<dyn Fn() -> Discipline>,
}

/// Replace the discipline of every forward link with a recording wrapper
/// around an identical fresh instance, built the way `ScenarioBuilder`
/// built the original (same link parameters, same crossing-flow count,
/// same guaranteed installs).
fn install_recorders(workload: Workload, sim: &mut Sim) -> Vec<Tap> {
    let spec = workloads::discipline(workload);
    let links = sim.built().forward.clone();
    let declared = sim.flows().to_vec();
    links
        .into_iter()
        .map(|link| {
            let net = sim.network();
            let crossing: Vec<FlowId> = declared
                .iter()
                .copied()
                .filter(|&f| net.flow_config(f).route.contains(&link))
                .collect();
            let guaranteed: Vec<(FlowId, f64)> = crossing
                .iter()
                .filter_map(|&f| Some((f, net.flow_config(f).spec.clock_rate_bps()?)))
                .collect();
            let params = *net.topology().link(link);
            let flows_on_link = crossing.len();
            let fresh = move || spec.build(&params, flows_on_link, &guaranteed);
            let (recorder, log) = Recorder::new(fresh(), ENQUEUE_CAP);
            sim.network_mut()
                .set_discipline(link, Discipline::custom(recorder));
            Tap {
                log,
                fresh: Box::new(fresh),
            }
        })
        .collect()
}

/// The deterministic counts a finished run left behind.  Every field
/// repeats bit for bit for the same workload, seed and horizon.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    /// Events the network dispatched.
    pub events: u64,
    /// Peak size of the pending-event set.
    pub event_queue_high_water: u64,
    /// Packets the on/off sources injected (declared or churn-admitted
    /// flows; TCP segments are counted separately).
    pub onoff_pkts: u64,
    /// Packets every flow injected (one `record_generated` each).
    pub generated: u64,
    /// Token-bucket offers: one per on/off packet at its source's policer
    /// plus one per injected packet of an edge-policed flow.
    pub token_bucket_offers: u64,
    /// Per-link admission verdicts.
    pub admission_decisions: u64,
    /// Packets enqueued on the measured (forward) links.
    pub sched_pkts: u64,
    /// Predicted-class packets dequeued on links under admission control
    /// (each feeds the controller one delay observation).
    pub observed_delays: u64,
    /// Peak depth of any port queue.
    pub sched_depth_high_water: u64,
    /// `install_guaranteed` + `remove_flow` calls on the measured links.
    pub lane_ops: u64,
    /// Segment allocations by the schedulers' queue pools.
    pub pool_grow_events: u64,
    /// Packets dequeued for transmission, over every link.
    pub pkt_hops: u64,
    /// Packets dropped inside the network.
    pub drops: u64,
    /// `Network::flow_table_bytes`.
    pub flow_table_bytes: u64,
    /// `Network::reservation_state_bytes`.
    pub reservation_state_bytes: u64,
    /// Delivered packets (one delay sample each).
    pub samples: u64,
    /// Flows that delivered at least one packet.
    pub sampled_flows: u64,
    /// TCP segments sent.
    pub tcp_segments: u64,
    /// Completed setup requests.
    pub signal_requests: u64,
    /// Setups admitted on every hop.
    pub signal_accepted: u64,
}

fn harvest(sim: &mut Sim, taps: &[Tap]) -> Counts {
    let mut c = Counts::default();
    let mut tally = |generated: u64, delivered: u64, onoff: bool, policed: bool| {
        c.generated += generated;
        c.samples += delivered;
        c.sampled_flows += u64::from(delivered > 0);
        // One offer at the on/off source's own policer, one at the edge.
        c.onoff_pkts += if onoff { generated } else { 0 };
        c.token_bucket_offers += generated * (u64::from(onoff) + u64::from(policed));
    };
    if sim.has_churn() {
        for r in sim.churn_flow_reports() {
            tally(
                r.report.generated,
                r.report.delivered,
                true,
                r.priority.is_some(),
            );
        }
    } else {
        let declared = sim.flows().len();
        for i in 0..sim.network().num_flows() {
            let flow = FlowId(i as u32);
            let policed = sim.network().flow_config(flow).edge_policer.is_some();
            let r = sim.network_mut().monitor_mut().flow_report(flow);
            tally(r.generated, r.delivered, i < declared, policed);
        }
    }

    let net = sim.network();
    c.events = net.events_processed();
    c.event_queue_high_water = net.event_queue_high_water();
    c.admission_decisions =
        net.net_telemetry().admission_accepted() + net.net_telemetry().admission_rejected();
    c.sched_depth_high_water = net.peak_port_depth();
    c.pool_grow_events = net.sched_pool_grow_events();
    c.drops = net.net_telemetry().total_drops();
    c.flow_table_bytes = net.flow_table_bytes();
    c.reservation_state_bytes = net.reservation_state_bytes();
    for i in 0..net.topology().num_links() {
        let probe = net.link_probe(LinkId(i));
        c.pkt_hops += probe.dequeued.total();
        if net.admission(LinkId(i)).is_some() {
            c.observed_delays += probe
                .dequeued
                .bucket(ispn_sched::class_bucket(ServiceClass::Predicted {
                    priority: 0,
                }))
                .get();
        }
    }
    for tap in taps {
        let log = tap.log.borrow();
        c.sched_pkts += log.enqueues;
        c.lane_ops += log.lane_ops;
    }
    c.tcp_segments = sim
        .tcp()
        .iter()
        .map(|h| h.stats.borrow().segments_sent)
        .sum();
    let decisions = sim.signaling().decision_log();
    c.signal_requests = decisions.len() as u64;
    c.signal_accepted = decisions.iter().filter(|&&(_, accepted)| accepted).count() as u64;
    c
}

/// One timed section of the traced child, for the trace file.
struct Span {
    name: String,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

/// Run `batch` (which returns the seconds it measured for itself) until
/// `budget_s` is spent, at least three times, and return the 10th
/// percentile: like the end-to-end timings, the least disturbed batches.
fn quiet_batch_s(budget_s: f64, mut batch: impl FnMut() -> f64) -> f64 {
    let start = now();
    let mut samples = Vec::new();
    while samples.len() < 3 || crate::clock::secs_since(start) < budget_s {
        samples.push(batch());
    }
    crate::stats::low_decile(&samples)
}

/// `JsonValue::parse` cost per byte of `text`, nanoseconds, measured for
/// about `budget_s`.
pub fn json_parse_ns_per_byte(text: &str, budget_s: f64) -> f64 {
    let rounds = (1_000_000 / text.len().max(1)).max(1);
    let secs = quiet_batch_s(budget_s, || {
        timed(|| {
            (0..rounds)
                .filter(|_| JsonValue::parse(black_box(text)).is_ok())
                .count()
        })
    });
    secs * 1e9 / (rounds * text.len().max(1)) as f64
}

/// Time one call of `work`, in seconds.
fn timed<T>(work: impl FnOnce() -> T) -> f64 {
    let start = now();
    black_box(work());
    crate::clock::secs_since(start)
}

/// Per-operation costs of every layer, in nanoseconds unless the name
/// says otherwise.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerCosts {
    /// `EventQueue` pop + push at the run's high-water occupancy.
    pub event_queue_hold: f64,
    /// `Pcg64::exponential` / `geometric`, one of each per two draws.
    pub rng_draw: f64,
    /// `OnOffSource::on_timer` through a fresh `AgentApi`.
    pub onoff_pkt: f64,
    /// `TokenBucket::offer`.
    pub token_bucket_offer: f64,
    /// One admission decision with its share of measurement feeds.
    pub admission_decision: f64,
    /// Enqueue + dequeue of one packet, by replaying the busiest link.
    pub sched_pkt: f64,
    /// One `install_guaranteed` or `remove_flow`.
    pub lane_op: f64,
    /// One `Monitor::record_*` call in the run's mix.
    pub monitor_record: f64,
    /// `SampleSet::record`.
    pub sample_record: f64,
    /// One `SampleSet::quantile` at the per-flow sample count, seconds.
    pub sample_quantile_s: f64,
    /// One signalled request (submit → decision → teardown) without the
    /// admission decisions and lane operations nested inside it.
    pub signal_request: f64,
    /// `JsonValue::parse`, per byte of the workload's own report.
    pub json_parse_byte: f64,
}

/// Time every layer's public functions in replay loops shaped by `counts`,
/// spending about `budget_s` in total.  `span` is told each loop's name
/// and start when it ends.
fn measure_layers(
    counts: &Counts,
    taps: &[Tap],
    report_json: &str,
    budget_s: f64,
    mut span: impl FnMut(&str, Duration),
) -> LayerCosts {
    let slice = budget_s / 12.0;
    let ns = |secs: f64, ops: u64| secs * 1e9 / ops.max(1) as f64;
    let mut costs = LayerCosts::default();
    let mut run = |name: &str, work: &mut dyn FnMut() -> f64| {
        let start = now();
        let value = work();
        span(name, start);
        value
    };

    costs.event_queue_hold = run("sim.event_queue", &mut || {
        const HOLDS: u64 = 200_000;
        let occupancy = counts.event_queue_high_water.max(1);
        let mut rng = Pcg64::new(1);
        let deltas: Vec<SimTime> = (0..4096)
            .map(|_| SimTime::from_secs_f64(rng.exponential(0.001)))
            .collect();
        let secs = quiet_batch_s(slice, || {
            let mut queue = EventQueue::with_capacity(occupancy as usize);
            for i in 0..occupancy {
                queue.push(deltas[i as usize % deltas.len()], i);
            }
            timed(|| {
                for i in 0..HOLDS as usize {
                    let (t, e) = queue.pop().expect("the queue stays at its occupancy");
                    queue.push(t + deltas[i % deltas.len()], e);
                }
                queue.len()
            })
        });
        ns(secs, HOLDS)
    });

    costs.rng_draw = run("sim.rng", &mut || {
        const PAIRS: u64 = 250_000;
        let secs = quiet_batch_s(slice, || {
            let mut rng = Pcg64::new(7);
            timed(|| {
                let mut acc = 0.0;
                for _ in 0..PAIRS {
                    acc += rng.exponential(0.0294) + rng.geometric(MEAN_BURST_PKTS) as f64;
                }
                acc
            })
        });
        ns(secs, 2 * PAIRS)
    });

    let paper = PaperConfig::paper();
    let source_bucket = TokenBucketSpec::per_packets(paper.avg_rate_pps, 50.0, paper.packet_bits);

    costs.onoff_pkt = run("traffic.onoff", &mut || {
        const PKTS: u64 = 200_000;
        let gap = SimTime::from_secs_f64(1.0 / paper.avg_rate_pps);
        let secs = quiet_batch_s(slice, || {
            let mut source = OnOffSource::new(
                FlowId(0),
                OnOffConfig::paper(paper.avg_rate_pps, paper.flow_seed(0)),
            );
            timed(|| {
                let mut at = SimTime::ZERO;
                let mut sent = 0;
                for _ in 0..PKTS {
                    let mut api = AgentApi::new(at);
                    source.on_timer(0, &mut api);
                    sent += api.pending_sends();
                    at += gap;
                }
                sent
            })
        });
        ns(secs, PKTS)
    });

    costs.token_bucket_offer = run("core.token_bucket", &mut || {
        const OFFERS: u64 = 1_000_000;
        // Two percent faster than the fill rate, so the steady state has
        // the run's ~2 % of non-conforming offers.
        let gap = SimTime::from_secs_f64(1.0 / (1.02 * paper.avg_rate_pps));
        let secs = quiet_batch_s(slice, || {
            let mut bucket = TokenBucket::new(source_bucket);
            timed(|| {
                let mut at = SimTime::ZERO;
                let mut conforming = 0u64;
                for _ in 0..OFFERS {
                    conforming += u64::from(bucket.offer(at, paper.packet_bits));
                    at += gap;
                }
                conforming
            })
        });
        ns(secs, OFFERS)
    });

    costs.admission_decision = run("core.admission", &mut || {
        const DECISIONS: u64 = 100_000;
        // Delay observations each decision brings with it, as in the run
        // (none on a workload without admission control).
        let feeds = counts
            .observed_delays
            .checked_div(counts.admission_decisions)
            .unwrap_or(0)
            .min(64);
        let pt = paper.packet_time();
        let gap = SimTime::from_secs_f64(1.0 / workloads::CHURN_ARRIVALS_PER_SEC);
        let secs = quiet_batch_s(slice, || {
            let mut controller = AdmissionController::new(
                AdmissionConfig::new(
                    paper.link_rate_bps,
                    0.9,
                    vec![pt.mul_f64(30.0), pt.mul_f64(300.0)],
                ),
                10.0,
            );
            timed(|| {
                let mut at = SimTime::ZERO;
                let mut accepted = 0u64;
                for i in 0..DECISIONS {
                    at += gap;
                    if i % 200 == 0 {
                        controller.observe_utilization(at, 400_000.0 + (i % 7) as f64 * 1e4);
                    }
                    for k in 0..feeds {
                        controller.observe_class_delay(
                            at,
                            (k % 2) as u8,
                            pt.mul_f64(1.0 + ((i + k) % 17) as f64),
                        );
                    }
                    // The churn mix: one guaranteed request in four.
                    let decision = if i % 4 == 0 {
                        let d = controller.request_guaranteed(170_000.0);
                        if d.is_accept() {
                            controller.release_guaranteed(170_000.0);
                        }
                        d
                    } else {
                        controller.request_predicted(at, source_bucket, (i % 2) as u8)
                    };
                    accepted += u64::from(decision.is_accept());
                }
                accepted
            })
        });
        ns(secs, DECISIONS)
    });

    // Lane operations before the packet replay: the replay subtracts the
    // lane operations interleaved in its stream at this cost.
    let busiest = taps
        .iter()
        .max_by_key(|tap| tap.log.borrow().enqueues)
        .expect("every simulation workload has a measured link");
    let log = busiest.log.borrow();
    costs.lane_op = run("sched.lanes", &mut || {
        let recorded: Vec<Op> = log
            .ops
            .iter()
            .copied()
            .filter(|op| matches!(op, Op::Install(..) | Op::Remove(..)))
            .collect();
        // Without recorded lane operations (static workloads), cycle
        // sixteen synthetic guaranteed flows through the discipline.
        let stream: Vec<Op> = if recorded.is_empty() {
            let flows = (1000..1016).map(FlowId);
            flows
                .clone()
                .map(|f| Op::Install(f, paper.link_rate_bps / 64.0))
                .chain(flows.map(|f| Op::Remove(SimTime::ZERO, f)))
                .collect()
        } else {
            recorded
        };
        let rounds = (20_000 / stream.len()).max(1);
        let secs = quiet_batch_s(slice, || {
            let mut disc = (busiest.fresh)();
            timed(|| (0..rounds).fold(0, |acc, _| acc ^ replay(&mut disc, &stream)))
        });
        ns(secs, (rounds * stream.len()) as u64)
    });

    costs.sched_pkt = run("sched", &mut || {
        let secs = quiet_batch_s(slice, || {
            let mut disc = (busiest.fresh)();
            timed(|| replay(&mut disc, &log.ops))
        });
        let lanes_s = log.logged_lane_ops as f64 * costs.lane_op / 1e9;
        ns((secs - lanes_s).max(0.0), log.logged_enqueues)
    });

    costs.monitor_record = run("net.monitor", &mut || {
        const PKTS: u64 = 100_000;
        const FLOWS: u64 = 16;
        let generated = counts.generated.max(1);
        let tx = paper.packet_time();
        let mut records = 0u64;
        let secs = quiet_batch_s(slice, || {
            let mut monitor = Monitor::new(FLOWS as usize, 4);
            records = 0;
            timed(|| {
                let mut at = SimTime::ZERO;
                // Spread the run's transmissions and deliveries per
                // generated packet evenly over the batch.
                let (mut hops_due, mut deliveries_due) = (0u64, 0u64);
                for i in 0..PKTS {
                    at += tx;
                    let flow = FlowId((i % FLOWS) as u32);
                    monitor.record_generated(flow, at);
                    records += 1;
                    hops_due += counts.pkt_hops;
                    while hops_due >= generated {
                        hops_due -= generated;
                        monitor.record_transmission(
                            (i % 4) as usize,
                            ServiceClass::Predicted { priority: 0 },
                            tx.mul_f64((i % 13) as f64),
                            tx,
                            paper.packet_bits,
                            at,
                        );
                        records += 1;
                    }
                    deliveries_due += counts.samples;
                    while deliveries_due >= generated {
                        deliveries_due -= generated;
                        monitor.record_delivery(flow, tx.mul_f64((i % 29) as f64), at);
                        records += 1;
                    }
                }
                monitor.horizon()
            })
        });
        ns(secs, records)
    });

    // One flow's worth of samples per set, and enough sets per batch that
    // the clock reads around the timed region do not show.
    let per_flow = (counts.samples / counts.sampled_flows.max(1)).max(1);
    let sets = (100_000 / per_flow).max(1);
    let values: Vec<f64> = {
        let mut rng = Pcg64::new(11);
        (0..per_flow).map(|_| rng.exponential(0.003)).collect()
    };
    let filled = |values: &[f64]| {
        let mut set = SampleSet::new();
        for &x in values {
            set.record(x);
        }
        set
    };
    costs.sample_record = run("stats.sample_set.record", &mut || {
        let secs = quiet_batch_s(slice, || {
            timed(|| (0..sets).map(|_| filled(&values).len()).sum::<usize>())
        });
        ns(secs, sets * per_flow)
    });
    costs.sample_quantile_s = run("stats.sample_set.quantile", &mut || {
        let secs = quiet_batch_s(slice, || {
            let mut unsorted = vec![filled(&values); sets as usize];
            timed(|| {
                unsorted
                    .iter_mut()
                    .map(|set| set.quantile(0.999))
                    .sum::<f64>()
            })
        });
        secs / sets as f64
    });

    costs.signal_request = run("signal", &mut || {
        const REQUESTS: u64 = 2_000;
        let settle = SimTime::from_millis(50);
        let mut nested_s = 0.0;
        let secs = quiet_batch_s(slice, || {
            // The churn-signal chain with its admission controllers but no
            // arrivals of its own: an idle network to signal across.
            let mut sim = workloads::churn_chain(&paper)
                .build()
                .expect("the idle churn chain is valid");
            let forward = sim.built().forward.clone();
            let mut rng = Pcg64::new(3);
            let churn = ChurnConfig::new(paper.clone(), 1.0, 1.0).workload();
            let mut lane_ops = 0u64;
            let secs = timed(|| {
                let mut at = SimTime::ZERO;
                for i in 0..REQUESTS {
                    let first = rng.next_below(forward.len() as u64) as usize;
                    let hops = 1 + rng.next_below((forward.len() - first) as u64) as usize;
                    let route = forward[first..first + hops].to_vec();
                    let config = if i % 4 == 0 {
                        // Admitted on the idle chain: one lane installed
                        // and later removed on every hop.
                        lane_ops += 2 * hops as u64;
                        FlowConfig::guaranteed(route, churn.guaranteed_rate_bps)
                    } else {
                        let class = &churn.classes[(i % 2) as usize];
                        FlowConfig::predicted(
                            route,
                            class.priority,
                            class.bucket,
                            class.per_hop_target.mul_f64(hops as f64),
                            class.loss_rate,
                            class.police,
                        )
                    };
                    let (_, flow) = sim.submit(config);
                    at += settle;
                    sim.run_until(at);
                    sim.teardown(flow);
                    at += settle;
                    sim.run_until(at);
                    for drained in sim.network_mut().take_drained_flows() {
                        sim.network_mut().recycle_flow_slot(drained);
                    }
                }
                sim.signaling().decision_log().len()
            });
            let telemetry = sim.network().net_telemetry();
            let decisions = telemetry.admission_accepted() + telemetry.admission_rejected();
            nested_s = (decisions as f64 * costs.admission_decision
                + lane_ops as f64 * costs.lane_op)
                / 1e9;
            secs
        });
        ns((secs - nested_s).max(0.0), REQUESTS)
    });

    costs.json_parse_byte = run("scenario.wire", &mut || {
        json_parse_ns_per_byte(report_json, slice)
    });

    costs
}

/// One row of the ledger: a layer's count × cost, and its share of the run
/// phase.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerRow {
    /// Layer (crate, and the part of it the row covers).
    pub layer: String,
    /// How many operations the run made.
    pub count: u64,
    /// Self cost of one operation, nanoseconds (nested rows subtracted).
    pub ns_per_op: f64,
    /// `count × ns_per_op`, seconds.
    pub seconds: f64,
    /// `seconds ÷ run_s`.
    pub share: f64,
}

/// The reconciliation of Σ(count × ns/op) against the untraced run phase.
#[derive(Debug, Clone, PartialEq)]
pub struct Ledger {
    /// Median `scenario.run_s` of the untraced reps, seconds.
    pub run_s: f64,
    /// The explained rows.
    pub rows: Vec<LedgerRow>,
    /// `1 − Σ share`: forwarding glue, agent dispatch, TCP, cache effects.
    pub residue_share: f64,
}

impl Ledger {
    /// Weigh `costs` by `counts` against a run phase of `run_s` seconds.
    pub fn close(counts: &Counts, costs: &LayerCosts, run_s: f64) -> Ledger {
        // Two draws per burst; burst boundaries are not visible from
        // outside the source, so the count is the configured mean's.
        let draws = (2.0 * counts.onoff_pkts as f64 / MEAN_BURST_PKTS) as u64;
        let draws_per_pkt = 2.0 / MEAN_BURST_PKTS;
        let records = counts.generated + counts.pkt_hops + counts.samples;
        let row = |layer: &str, count: u64, ns_per_op: f64| {
            let ns_per_op = ns_per_op.max(0.0);
            let seconds = count as f64 * ns_per_op / 1e9;
            LedgerRow {
                layer: layer.to_string(),
                count,
                ns_per_op,
                seconds,
                share: if run_s > 0.0 { seconds / run_s } else { 0.0 },
            }
        };
        let rows = vec![
            row("sim.event_queue", counts.events, costs.event_queue_hold),
            row("sim.rng", draws, costs.rng_draw),
            // The source's own policer offer and RNG draws are billed to
            // their layers above and below.
            row(
                "traffic.onoff",
                counts.onoff_pkts,
                costs.onoff_pkt - costs.token_bucket_offer - draws_per_pkt * costs.rng_draw,
            ),
            row(
                "core.token_bucket",
                counts.token_bucket_offers,
                costs.token_bucket_offer,
            ),
            row(
                "core.admission",
                counts.admission_decisions,
                costs.admission_decision,
            ),
            row("sched", counts.sched_pkts, costs.sched_pkt),
            row("sched.lanes", counts.lane_ops, costs.lane_op),
            // `record_delivery` stores its delay sample in a `SampleSet`,
            // billed to `stats` below.
            row(
                "net.monitor",
                records,
                costs.monitor_record
                    - costs.sample_record * counts.samples as f64 / records.max(1) as f64,
            ),
            row("stats.sample_set", counts.samples, costs.sample_record),
            row("signal", counts.signal_requests, costs.signal_request),
        ];
        let explained: f64 = rows.iter().map(|r| r.share).sum();
        Ledger {
            run_s,
            rows,
            residue_share: 1.0 - explained,
        }
    }

    /// The ledger as an aligned text table, one row per layer plus the
    /// residue and the total.
    pub fn render(&self) -> String {
        let mut out = format!(
            "  {:<20} {:>12} {:>10} {:>10} {:>8}\n",
            "layer", "count", "ns/op", "seconds", "share"
        );
        for r in &self.rows {
            out.push_str(&format!(
                "  {:<20} {:>12} {:>10.1} {:>10.4} {:>7.1}%\n",
                r.layer,
                r.count,
                r.ns_per_op,
                r.seconds,
                100.0 * r.share
            ));
        }
        out.push_str(&format!(
            "  {:<20} {:>12} {:>10} {:>10.4} {:>7.1}%\n",
            "residue",
            "",
            "",
            self.residue_share * self.run_s,
            100.0 * self.residue_share
        ));
        out.push_str(&format!(
            "  {:<20} {:>12} {:>10} {:>10.4} {:>7.1}%\n",
            "scenario.run_s", "", "", self.run_s, 100.0
        ));
        out
    }

    fn to_json(&self) -> JsonValue {
        obj([
            ("run_s", num(self.run_s)),
            (
                "rows",
                JsonValue::Array(
                    self.rows
                        .iter()
                        .map(|r| {
                            obj([
                                ("layer", text(&r.layer)),
                                ("count", int(r.count)),
                                ("ns_per_op", num(r.ns_per_op)),
                                ("seconds", num(r.seconds)),
                                ("share", num(r.share)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("residue_share", num(self.residue_share)),
        ])
    }

    /// Read a ledger back from a trace file's `ledger` member.
    pub fn from_json(v: &JsonValue) -> Option<Ledger> {
        let rows = v
            .get("rows")?
            .as_array()
            .ok()?
            .iter()
            .map(|r| {
                Some(LedgerRow {
                    layer: r.get("layer")?.as_str().ok()?.to_string(),
                    count: r.get("count")?.as_u64().ok()?,
                    ns_per_op: r.get("ns_per_op")?.as_f64().ok()?,
                    seconds: r.get("seconds")?.as_f64().ok()?,
                    share: r.get("share")?.as_f64().ok()?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(Ledger {
            run_s: v.get("run_s")?.as_f64().ok()?,
            rows,
            residue_share: v.get("residue_share")?.as_f64().ok()?,
        })
    }
}

/// The per-layer metrics the traced child measures, by catalogue name.
fn child_metrics(
    workload: Workload,
    counts: &Counts,
    costs: &LayerCosts,
    ledger: &Ledger,
    phases: &mut Phases,
    spec: RunSpec,
) -> Values {
    let mut m = Values::new();
    let mut set = |name: &str, value: f64| {
        m.insert(name.to_string(), value);
    };
    set("sim.events", counts.events as f64);
    set(
        "sim.event_queue.high_water",
        counts.event_queue_high_water as f64,
    );
    set("sim.event_queue.ns_per_hold", costs.event_queue_hold);
    set("sim.rng.ns_per_draw", costs.rng_draw);
    set("traffic.pkts_generated", counts.onoff_pkts as f64);
    set("traffic.onoff.ns_per_pkt", costs.onoff_pkt);
    set(
        "core.token_bucket.offers",
        counts.token_bucket_offers as f64,
    );
    set("core.token_bucket.ns_per_offer", costs.token_bucket_offer);
    set(
        "core.admission.decisions",
        counts.admission_decisions as f64,
    );
    set("core.admission.ns_per_decision", costs.admission_decision);
    set("sched.pkts", counts.sched_pkts as f64);
    set(
        "sched.depth_high_water",
        counts.sched_depth_high_water as f64,
    );
    set("sched.ns_per_pkt", costs.sched_pkt);
    set("sched.lane_ops", counts.lane_ops as f64);
    set("sched.ns_per_lane_op", costs.lane_op);
    set("sched.pool_grow_events", counts.pool_grow_events as f64);
    set("net.pkt_hops", counts.pkt_hops as f64);
    set("net.drops", counts.drops as f64);
    set(
        "net.ns_per_event",
        ledger.run_s * 1e9 / counts.events.max(1) as f64,
    );
    set("net.monitor.ns_per_record", costs.monitor_record);
    set("net.flow_table_bytes", counts.flow_table_bytes as f64);
    set(
        "net.reservation_state_bytes",
        counts.reservation_state_bytes as f64,
    );
    set("net.residue_share", ledger.residue_share);
    set("stats.samples", counts.samples as f64);
    set("stats.sample_set.ns_per_record", costs.sample_record);
    set("stats.sample_set.quantile_s", costs.sample_quantile_s);
    set("transport.tcp.segments", counts.tcp_segments as f64);
    set("signal.requests", counts.signal_requests as f64);
    set("signal.accepted", counts.signal_accepted as f64);
    set("signal.ns_per_request", costs.signal_request);
    set("scenario.report_bytes", phases.json.len() as f64);
    set("scenario.wire.parse_ns_per_byte", costs.json_parse_byte);
    if workload == Workload::LinkWfq {
        // Model error beside every speed figure: the sample flow against
        // the published Table-1 WFQ row.
        let pt = spec.paper_config().packet_time().as_secs_f64();
        let sample = phases.sim.flows()[0];
        let r = phases.sim.network_mut().monitor_mut().flow_report(sample);
        let err = |measured: f64, published: f64| 100.0 * (measured / pt - published) / published;
        set(
            "experiments.paper_err_mean_pct",
            err(r.mean_delay, PAPER_WFQ_MEAN),
        );
        set(
            "experiments.paper_err_p999_pct",
            err(r.p999_delay, PAPER_WFQ_P999),
        );
    }
    m
}

/// What the parent tells the traced child.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRequest {
    /// Where to write the trace file.
    pub out: std::path::PathBuf,
    /// Seconds to spend in the replay loops.
    pub budget_s: f64,
    /// Median `scenario.run_s` of the untraced reps: what the ledger
    /// reconciles against.
    pub untraced_run_s: f64,
}

/// Run one traced rep in this process: record, emit the (unchanged)
/// report, harvest, replay, close the ledger and write the trace file.
pub fn run_traced(workload: Workload, spec: RunSpec, req: &TraceRequest) -> std::io::Result<()> {
    let mut taps = Vec::new();
    let mut phases = rep::run_phases(workload, spec, |sim| {
        taps = install_recorders(workload, sim);
    });
    let stats = phases.stats()?;
    rep::emit(&phases.json, &stats)?;

    let root = phases.start;
    let mut spans = vec![Span {
        name: "rep".to_string(),
        parent: None,
        start: root,
        end: root,
    }];
    let mut push = |name: &str, start: Duration, end: Duration| {
        spans.push(Span {
            name: name.to_string(),
            parent: Some(0),
            start,
            end,
        });
    };
    push("scenario.build", phases.start, phases.built);
    push("install_recorders", phases.built, phases.run_start);
    push("scenario.run", phases.run_start, phases.ran);
    push("scenario.report", phases.ran, phases.reported);
    push("scenario.json", phases.reported, phases.rendered);

    let harvest_start = now();
    let counts = harvest(&mut phases.sim, &taps);
    push("harvest", harvest_start, now());

    let costs = measure_layers(&counts, &taps, &phases.json, req.budget_s, |name, start| {
        push(&format!("replay.{name}"), start, now())
    });
    let ledger = Ledger::close(&counts, &costs, req.untraced_run_s);
    let metrics = child_metrics(workload, &counts, &costs, &ledger, &mut phases, spec);
    spans[0].end = now();

    let secs = |t: Duration| num(t.saturating_sub(root).as_secs_f64());
    let doc = obj([
        ("workload", text(workload.name())),
        ("seed", int(spec.seed)),
        ("horizon_s", int(spec.horizon_s)),
        ("traced_run_s", num(stats.run_s)),
        (
            "spans",
            JsonValue::Array(
                spans
                    .iter()
                    .enumerate()
                    .map(|(id, s)| {
                        obj([
                            ("id", int(id as u64)),
                            (
                                "parent",
                                s.parent.map_or(JsonValue::Null, |p| int(p as u64)),
                            ),
                            ("name", text(&s.name)),
                            ("start_s", secs(s.start)),
                            ("end_s", secs(s.end)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "metrics",
            JsonValue::Object(
                metrics
                    .iter()
                    .map(|(name, value)| (name.clone(), num(*value)))
                    .collect(),
            ),
        ),
        ("ledger", ledger.to_json()),
    ]);
    write_trace(&req.out, &doc)
}

/// Write a trace document, creating its directory if need be.
pub fn write_trace(path: &Path, doc: &JsonValue) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, render(doc) + "\n")
}
