//! The structured scenario report.
//!
//! [`ScenarioReport`] is the one report shape every run produces,
//! serializable to JSON (hand-rolled — this workspace builds offline, so no
//! serde): per-flow and per-link summaries, a signaling summary, links
//! grouped by the queueing discipline they run ([`DisciplineSummary`]), and
//! **per-class aggregation** ([`ClassSummary`]): every flow registered in
//! the network — declared, TCP-installed or dynamically admitted — is
//! grouped by its [`ServiceClass`](ispn_core::ServiceClass), and the
//! class's pooled delay samples yield the median, 90th, 99th and 99.9th
//! percentiles instead of just per-flow means.  A [`MeasurementPlan`] adds
//! only the opt-in [`RunTelemetry`] block.
//!
//! # What collecting costs, and what pins its bytes
//!
//! A report reads each flow's delay store where it lies, and writes only
//! what it must seal.  It first seals the declared flows
//! ([`Monitor::seal_flow`](ispn_net::Monitor::seal_flow)): a declared
//! flow's store was sealed into sorted runs of 4 096 as the run went, so
//! at most its last short run is sorted, through the monitor's sort
//! buffer, and its tail.  Then each class walks its flows by rising id
//! once, feeding one Welford accumulator, the class jitter, from each
//! flow's samples: a sealed store through a tournament merge of its own
//! runs, ascending; a store still in record order (a TCP connection or a
//! churn admission at its first report) as it was recorded, after which it
//! is sealed in place.  The flows after the class's last one still in
//! record order are read inside the class merge loop ([`merge_runs`]), one
//! sample beside each pop of the one tournament merge over every run of
//! the class that gives the class mean and quantiles — comparing the
//! integers and converting each to seconds as it pops, so a class's
//! samples are never pooled into a copy.  Each sealed store's own merge
//! notes, as they pass, the two samples its 99.9th percentile reads, and
//! the flow section reads them from there
//! ([`Monitor::sealed_flow_report`](ispn_net::Monitor::sealed_flow_report)),
//! with the mean, the jitter and the maximum the store kept as samples
//! arrived.  Floating-point sums depend on their order, so the orders are
//! part of the format: a flow's mean and jitter run in record order, at
//! every report; the class jitter runs over the class's flows by rising
//! id, declared flows ascending, the others in record order at their first
//! report, and at a later one ascending up to the report before, then in
//! record order ([`NanoSamples::nanos`]); the class mean is the
//! ascending-order sum.
//! The `reference` module among this file's tests is the older, many-pass
//! formulation, held to the same JSON bytes by a property test.

use ispn_core::{FlowId, ServiceClass};
use ispn_net::{FlowCounters, FlowReport, Network};
use ispn_signal::Signaling;
use ispn_stats::{merge_runs, NanoSamples, StreamingStats};

use crate::sweep::wire::WireResult;
use crate::wire_record;

/// The delay quantiles every [`ClassSummary`] reports: median, 90th, 99th
/// and the paper's headline 99.9th percentile.
const CLASS_QUANTILES: [f64; 4] = [0.5, 0.9, 0.99, 0.999];

/// What a scenario run adds to its report.
#[derive(Debug, Clone, Default)]
pub struct MeasurementPlan {
    /// Attach a [`RunTelemetry`] block (engine counters + wall-clock rate +
    /// memory footprint) to the report.  **Default-off**: when disabled the
    /// report JSON carries no `telemetry` key at all, so every
    /// pre-telemetry golden stays byte-identical.
    pub run_telemetry: bool,
}

impl MeasurementPlan {
    /// Attach run telemetry to the report (builder style).
    pub fn with_run_telemetry(mut self) -> Self {
        self.run_telemetry = true;
        self
    }
}

/// Per-flow summary (delays in seconds).
#[derive(Debug, Clone)]
pub struct FlowSummary {
    /// Numeric flow id.
    pub flow: u32,
    /// Packets the source submitted.
    pub generated: u64,
    /// Packets delivered end to end.
    pub delivered: u64,
    /// Packets dropped to full buffers.
    pub dropped_buffer: u64,
    /// Packets dropped by edge policing.
    pub dropped_at_edge: u64,
    /// Packets discarded while the flow held no reservation.
    pub dropped_inactive: u64,
    /// Mean queueing delay.
    pub mean_delay_s: f64,
    /// 99.9th-percentile queueing delay.
    pub p999_delay_s: f64,
    /// Maximum queueing delay.
    pub max_delay_s: f64,
    /// Delay jitter: the standard deviation of the queueing delay.
    pub jitter_s: f64,
}

wire_record! { FlowSummary {
    flow, generated, delivered, dropped_buffer, dropped_at_edge, dropped_inactive, mean_delay_s,
    p999_delay_s, max_delay_s, jitter_s,
} }

/// Per-link summary.
#[derive(Debug, Clone)]
pub struct LinkSummary {
    /// Numeric link id.
    pub link: usize,
    /// Fraction of the run the link was transmitting.
    pub utilization: f64,
    /// Fraction of the run spent on real-time traffic.
    pub realtime_utilization: f64,
    /// Packets dropped at this link's buffer.
    pub drops: u64,
    /// Packets transmitted.
    pub packets_sent: u64,
}

wire_record! { LinkSummary { link, utilization, realtime_utilization, drops, packets_sent } }

/// Aggregate statistics of one service class, pooled over every registered
/// flow of that class (delays in seconds).
#[derive(Debug, Clone)]
pub struct ClassSummary {
    /// Class label: `guaranteed`, `predicted-<priority>` or `datagram`.
    pub class: String,
    /// Number of flows in the class.
    pub flows: usize,
    /// Packets the class's sources submitted.
    pub generated: u64,
    /// Packets delivered end to end.
    pub delivered: u64,
    /// Packets dropped to full buffers.
    pub dropped_buffer: u64,
    /// Packets dropped by edge policing.
    pub dropped_at_edge: u64,
    /// Mean queueing delay over the pooled samples.
    pub mean_delay_s: f64,
    /// Maximum queueing delay over the pooled samples.
    pub max_delay_s: f64,
    /// Standard deviation of the pooled queueing delays (the class's
    /// jitter).
    pub jitter_s: f64,
    /// The median, 90th, 99th and 99.9th percentiles of the pooled delay
    /// distribution, as `(q, delay_s)` pairs in that order.
    pub quantiles: Vec<(f64, f64)>,
}

// `histogram` stays in the format as a constant `null` until the report's
// goldens are re-blessed: nothing produces a histogram any more.
wire_record! { ClassSummary {
    class, flows, generated, delivered, dropped_buffer, dropped_at_edge, mean_delay_s, max_delay_s,
    jitter_s, quantiles,
} null: histogram }

/// Aggregate statistics of every link running one queueing discipline.
#[derive(Debug, Clone)]
pub struct DisciplineSummary {
    /// The discipline's name as the link reports it (e.g. `WFQ`,
    /// `Unified`).
    pub discipline: String,
    /// Number of links running it.
    pub links: usize,
    /// Mean utilization over those links.
    pub mean_utilization: f64,
    /// Mean real-time utilization over those links.
    pub mean_realtime_utilization: f64,
    /// Total buffer drops on those links.
    pub drops: u64,
    /// Total packets transmitted on those links.
    pub packets_sent: u64,
}

wire_record! { DisciplineSummary {
    discipline, links, mean_utilization, mean_realtime_utilization, drops, packets_sent,
} }

/// Signaling summary: the decision record of completed setups.
#[derive(Debug, Clone, Default)]
pub struct SignalingSummary {
    /// Setups admitted on every hop.
    pub accepted: usize,
    /// Setups refused by some hop.
    pub rejected: usize,
    /// Chronological accept/reject sequence.
    pub decisions: Vec<bool>,
    /// Transactions still in flight when the report was taken.
    pub pending: usize,
}

// The wire's key order, not the struct's: `pending` precedes `decisions`.
wire_record! { SignalingSummary { accepted, rejected, pending, decisions } }

/// Engine telemetry of one scenario run: what the event loop, ports and
/// admission machinery actually did, plus the run's memory footprint and
/// wall-clock throughput.
///
/// Every field except `wall_s` and `events_per_sec` is a deterministic
/// function of the simulated event sequence — two same-seed runs agree
/// exactly (pinned by the determinism tests in `ispn-experiments`).  The
/// two wall-clock fields are measured *outside* the sim by
/// [`Sim::report`](crate::Sim::report) and never influence it.
#[derive(Debug, Clone, PartialEq)]
pub struct RunTelemetry {
    /// Events dispatched by the network event loop.
    pub events_processed: u64,
    /// Peak size of the pending-event set.
    pub event_queue_high_water: u64,
    /// Peak depth of any output-port packet queue.
    pub peak_queue_depth: u64,
    /// Per-link admission verdicts accepted.
    pub admission_accepted: u64,
    /// Per-link admission verdicts rejected.
    pub admission_rejected: u64,
    /// Structural size of the flow table, in bytes.
    pub flow_table_bytes: u64,
    /// Structural size of the per-link reservation state, in bytes.
    pub reservation_state_bytes: u64,
    /// Pushes that found a scheduler queue at its capacity, summed over
    /// every port.  Grows only while some queue reaches a new depth — flat
    /// after warm-up is the zero-steady-state-allocation property.
    pub sched_pool_grow_events: u64,
    /// Scheduler queue capacity in 32-slot units, summed over every port
    /// (queues never shrink, so this is the peak).
    pub sched_pool_segments_high_water: u64,
    /// Bytes every flow's stored delay samples take
    /// ([`Monitor::delay_sample_bytes`](ispn_net::Monitor::delay_sample_bytes)),
    /// read before the report seals them: the stores as the run left them.
    pub delay_sample_bytes: u64,
    /// Wall-clock seconds spent inside `run_until` (not simulated time).
    pub wall_s: f64,
    /// `events_processed / wall_s` (0 when no wall time was recorded).
    pub events_per_sec: f64,
}

wire_record! { RunTelemetry {
    events_processed, event_queue_high_water, peak_queue_depth, admission_accepted,
    admission_rejected, flow_table_bytes, reservation_state_bytes, sched_pool_grow_events,
    sched_pool_segments_high_water, delay_sample_bytes, wall_s, events_per_sec,
} }

impl RunTelemetry {
    /// Snapshot the deterministic counters from a run network; the caller
    /// (the `Sim` facade) supplies the wall-clock seconds it accumulated
    /// around its stepping loop.
    pub fn collect(net: &Network, wall_s: f64) -> RunTelemetry {
        let events_processed = net.events_processed();
        let events_per_sec = if wall_s > 0.0 {
            events_processed as f64 / wall_s
        } else {
            0.0
        };
        RunTelemetry {
            events_processed,
            event_queue_high_water: net.event_queue_high_water(),
            peak_queue_depth: net.peak_port_depth(),
            admission_accepted: net.net_telemetry().admission_accepted(),
            admission_rejected: net.net_telemetry().admission_rejected(),
            flow_table_bytes: net.flow_table_bytes(),
            reservation_state_bytes: net.reservation_state_bytes(),
            sched_pool_grow_events: net.sched_pool_grow_events(),
            sched_pool_segments_high_water: net.sched_pool_segments_high_water(),
            delay_sample_bytes: net.monitor().delay_sample_bytes(),
            wall_s,
            events_per_sec,
        }
    }
}

/// The structured result of a scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// End of the measured interval, in seconds of simulated time.
    pub horizon_s: f64,
    /// Per-flow summaries, for the flows the builder declared (in
    /// declaration order).
    pub flows: Vec<FlowSummary>,
    /// Per-link summaries for every link.
    pub links: Vec<LinkSummary>,
    /// Per-service-class summaries over every registered flow (guaranteed
    /// first, then predicted by rising priority, then datagram; classes
    /// with no flows are omitted).
    pub classes: Vec<ClassSummary>,
    /// Per-discipline link groups, ordered by first link id.
    pub disciplines: Vec<DisciplineSummary>,
    /// Signaling summary.
    pub signaling: SignalingSummary,
    /// Run telemetry, if the plan opted in
    /// ([`MeasurementPlan::run_telemetry`]).  When `None` the report JSON
    /// carries **no** `telemetry` key, keeping pre-telemetry goldens
    /// byte-identical.
    pub telemetry: Option<RunTelemetry>,
}

wire_record! { ScenarioReport {
    horizon_s, flows, links, classes, disciplines, signaling, telemetry: optional,
} }

/// The canonical report label of a service class.
fn class_label(class: ServiceClass) -> String {
    match class {
        ServiceClass::Guaranteed => "guaranteed".to_string(),
        ServiceClass::Predicted { priority } => format!("predicted-{priority}"),
        ServiceClass::Datagram => "datagram".to_string(),
    }
}

/// Deterministic report order of service classes: guaranteed, predicted by
/// rising priority, datagram.
fn class_order(class: ServiceClass) -> (u8, u8) {
    match class {
        ServiceClass::Guaranteed => (0, 0),
        ServiceClass::Predicted { priority } => (1, priority),
        ServiceClass::Datagram => (2, 0),
    }
}

impl ScenarioReport {
    /// Collect a report from a run network (the facade's
    /// [`Sim::report`](crate::Sim::report) calls this).
    pub fn collect(net: &mut Network, sig: &Signaling, flows: &[FlowId]) -> ScenarioReport {
        let horizon_s = net.monitor().horizon().as_secs_f64();
        // The class section reads a declared flow ascending, so it is
        // sealed first; the class pass notes each flow's percentile.
        for &f in flows {
            net.monitor_mut().seal_flow(f);
        }
        let (classes, p999) = Self::collect_classes(net);
        let flows = flows
            .iter()
            .map(|&f| {
                let (r, jitter_s) = net.monitor().sealed_flow_report(f, p999[f.index()]);
                FlowSummary {
                    flow: f.0,
                    generated: r.generated,
                    delivered: r.delivered,
                    dropped_buffer: r.dropped_buffer,
                    dropped_at_edge: r.dropped_at_edge,
                    dropped_inactive: r.dropped_inactive,
                    mean_delay_s: r.mean_delay,
                    p999_delay_s: r.p999_delay,
                    max_delay_s: r.max_delay,
                    jitter_s,
                }
            })
            .collect();
        let links = (0..net.monitor().num_links())
            .map(|i| {
                let r = net.monitor().link_report(i);
                LinkSummary {
                    link: i,
                    utilization: r.utilization,
                    realtime_utilization: r.realtime_utilization,
                    drops: r.drops,
                    packets_sent: r.packets_sent,
                }
            })
            .collect();
        let disciplines = Self::collect_disciplines(net);
        let decisions: Vec<bool> = sig.decisions().map(|(_, a)| a).collect();
        let accepted = decisions.iter().filter(|&&a| a).count();
        ScenarioReport {
            horizon_s,
            flows,
            links,
            classes,
            disciplines,
            signaling: SignalingSummary {
                accepted,
                rejected: decisions.len() - accepted,
                decisions,
                pending: sig.pending(),
            },
            // Filled by `Sim::report` when the plan opts in — only the
            // facade knows the run's wall-clock time.
            telemetry: None,
        }
    }

    /// Every registered flow's id, grouped by service class in report
    /// order.
    fn flows_by_class(net: &Network) -> Vec<(ServiceClass, Vec<FlowId>)> {
        let mut groups: Vec<(ServiceClass, Vec<FlowId>)> = Vec::new();
        for i in 0..net.num_flows() {
            let flow = FlowId(i as u32);
            let class = net.flow_config(flow).class;
            match groups.iter_mut().find(|(c, _)| *c == class) {
                Some((_, flows)) => flows.push(flow),
                None => groups.push((class, vec![flow])),
            }
        }
        groups.sort_by_key(|(c, _)| class_order(*c));
        groups
    }

    /// Summarise every registered flow's delay samples by service class,
    /// sealing each store on the way; beside the summaries, each flow's
    /// 99.9th-percentile order statistics, by flow id, as the pass read
    /// them (`None` for a flow read in record order, and an empty one).
    fn collect_classes(net: &mut Network) -> (Vec<ClassSummary>, Vec<Option<(u64, u64)>>) {
        let mut p999 = vec![None; net.num_flows()];
        let classes = Self::flows_by_class(net)
            .into_iter()
            .map(|(class, flows)| {
                let mut counters = FlowCounters::default();
                // Class jitter: flows in id order, each as it stands when
                // read — sealed ones ascending, the others in record order,
                // sealed only afterwards.  So the flows up to the last one
                // not yet sealed are read here before their seal, and the
                // rest inside the merge.
                let mut spread = StreamingStats::new();
                let mut pairs = vec![None; flows.len()];
                let monitor = net.monitor_mut();
                let split = flows
                    .iter()
                    .rposition(|&flow| !monitor.flow_delays(flow).is_sealed())
                    .map_or(0, |last| last + 1);
                for (i, &flow) in flows.iter().enumerate() {
                    if i < split {
                        let delays = monitor.flow_delays(flow);
                        pairs[i] = delays.fold_as_read(&mut spread, FlowReport::P999);
                        monitor.seal_flow(flow);
                    }
                    let c = monitor.flow_counters(flow);
                    counters.generated += c.generated;
                    counters.delivered += c.delivered;
                    counters.dropped_buffer += c.dropped_buffer;
                    counters.dropped_at_edge += c.dropped_at_edge;
                }
                // Mean and quantiles read the class in ascending order: a
                // merge over every run of the class, not a pooled copy.
                let stores: Vec<&NanoSamples> = flows
                    .iter()
                    .map(|&flow| monitor.flow_delays(flow))
                    .collect();
                let (mean_delay_s, values) = merge_runs(
                    &stores,
                    &CLASS_QUANTILES,
                    split,
                    &mut spread,
                    FlowReport::P999,
                    &mut pairs,
                );
                for (&flow, pair) in flows.iter().zip(pairs) {
                    p999[flow.index()] = pair;
                }
                let max_delay_s = stores.iter().map(|s| s.max()).fold(0.0, f64::max);
                ClassSummary {
                    class: class_label(class),
                    flows: flows.len(),
                    generated: counters.generated,
                    delivered: counters.delivered,
                    dropped_buffer: counters.dropped_buffer,
                    dropped_at_edge: counters.dropped_at_edge,
                    mean_delay_s,
                    max_delay_s,
                    jitter_s: spread.sample_std_dev(),
                    quantiles: CLASS_QUANTILES.into_iter().zip(values).collect(),
                }
            })
            .collect();
        (classes, p999)
    }

    /// Group links by the discipline they run, ordered by first link id.
    fn collect_disciplines(net: &Network) -> Vec<DisciplineSummary> {
        let mut groups: Vec<(String, Vec<usize>)> = Vec::new();
        for link in 0..net.monitor().num_links() {
            let name = net.discipline_name(ispn_net::LinkId(link)).to_string();
            match groups.iter_mut().find(|(n, _)| *n == name) {
                Some((_, links)) => links.push(link),
                None => groups.push((name, vec![link])),
            }
        }
        groups
            .into_iter()
            .map(|(discipline, links)| {
                let mut util = 0.0;
                let mut rt_util = 0.0;
                let mut drops = 0u64;
                let mut packets_sent = 0u64;
                for &l in &links {
                    let r = net.monitor().link_report(l);
                    util += r.utilization;
                    rt_util += r.realtime_utilization;
                    drops += r.drops;
                    packets_sent += r.packets_sent;
                }
                let n = links.len() as f64;
                DisciplineSummary {
                    discipline,
                    links: links.len(),
                    mean_utilization: util / n,
                    mean_realtime_utilization: rt_util / n,
                    drops,
                    packets_sent,
                }
            })
            .collect()
    }

    /// Serialize the report as JSON: its [`WireResult`] encoding.
    pub fn to_json(&self) -> String {
        self.to_wire_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> ScenarioReport {
        ScenarioReport {
            horizon_s: 40.0,
            flows: vec![FlowSummary {
                flow: 0,
                generated: 100,
                delivered: 98,
                dropped_buffer: 2,
                dropped_at_edge: 0,
                dropped_inactive: 0,
                mean_delay_s: 0.003,
                p999_delay_s: 0.05,
                max_delay_s: 0.06,
                jitter_s: 0.004,
            }],
            links: vec![LinkSummary {
                link: 0,
                utilization: 0.83,
                realtime_utilization: 0.8,
                drops: 2,
                packets_sent: 98,
            }],
            classes: vec![ClassSummary {
                class: "predicted-0".to_string(),
                flows: 1,
                generated: 100,
                delivered: 98,
                dropped_buffer: 2,
                dropped_at_edge: 0,
                mean_delay_s: 0.003,
                max_delay_s: 0.06,
                jitter_s: 0.004,
                quantiles: vec![(0.5, 0.002), (0.999, 0.05)],
            }],
            disciplines: vec![DisciplineSummary {
                discipline: "WFQ".to_string(),
                links: 1,
                mean_utilization: 0.83,
                mean_realtime_utilization: 0.8,
                drops: 2,
                packets_sent: 98,
            }],
            signaling: SignalingSummary {
                accepted: 3,
                rejected: 1,
                decisions: vec![true, true, false, true],
                pending: 0,
            },
            telemetry: None,
        }
    }

    fn sample_telemetry() -> RunTelemetry {
        RunTelemetry {
            events_processed: 1234,
            event_queue_high_water: 17,
            peak_queue_depth: 9,
            admission_accepted: 3,
            admission_rejected: 1,
            flow_table_bytes: 2048,
            reservation_state_bytes: 512,
            sched_pool_grow_events: 7,
            sched_pool_segments_high_water: 5,
            delay_sample_bytes: 40_960,
            wall_s: 0.25,
            events_per_sec: 4936.0,
        }
    }

    #[test]
    fn json_is_well_formed_and_complete() {
        let json = sample_report().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        for key in [
            "\"horizon_s\":40.0",
            "\"flows\":[{\"flow\":0",
            "\"delivered\":98",
            "\"mean_delay_s\":0.003",
            "\"links\":[{\"link\":0",
            "\"utilization\":0.83",
            "\"classes\":[{\"class\":\"predicted-0\"",
            "\"quantiles\":[[0.5,0.002],[0.999,0.05]]",
            "\"histogram\":null",
            "\"disciplines\":[{\"discipline\":\"WFQ\"",
            "\"signaling\":{\"accepted\":3",
            "\"decisions\":[true,true,false,true]",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    /// The report's bytes, pinned here and not only by the benchmark
    /// goldens: key order, `{:?}` floats, the class's constant `null`
    /// histogram, and no `telemetry` key at all when there is none.
    #[test]
    fn json_is_pinned_byte_for_byte_in_every_shape() {
        const HEAD: &str = "{\"horizon_s\":40.0,\"flows\":[{\"flow\":0,\"generated\":100,\
            \"delivered\":98,\"dropped_buffer\":2,\"dropped_at_edge\":0,\"dropped_inactive\":0,\
            \"mean_delay_s\":0.003,\"p999_delay_s\":0.05,\"max_delay_s\":0.06,\
            \"jitter_s\":0.004}],\"links\":[{\"link\":0,\"utilization\":0.83,\
            \"realtime_utilization\":0.8,\"drops\":2,\"packets_sent\":98}],\
            \"classes\":[{\"class\":\"predicted-0\",\"flows\":1,\"generated\":100,\
            \"delivered\":98,\"dropped_buffer\":2,\"dropped_at_edge\":0,\"mean_delay_s\":0.003,\
            \"max_delay_s\":0.06,\"jitter_s\":0.004,\"quantiles\":[[0.5,0.002],[0.999,0.05]],\
            \"histogram\":null}],\"disciplines\":[{\"discipline\":\"WFQ\",\"links\":1,\
            \"mean_utilization\":0.83,\"mean_realtime_utilization\":0.8,\"drops\":2,\
            \"packets_sent\":98}],\"signaling\":{\"accepted\":3,\"rejected\":1,\"pending\":0,\
            \"decisions\":[true,true,false,true]}";
        const TELEMETRY: &str = ",\"telemetry\":{\"events_processed\":1234,\
            \"event_queue_high_water\":17,\"peak_queue_depth\":9,\"admission_accepted\":3,\
            \"admission_rejected\":1,\"flow_table_bytes\":2048,\"reservation_state_bytes\":512,\
            \"sched_pool_grow_events\":7,\"sched_pool_segments_high_water\":5,\"delay_sample_bytes\":40960,\
            \"wall_s\":0.25,\
            \"events_per_sec\":4936.0}";

        assert_eq!(sample_report().to_json(), [HEAD, "}"].concat());
        let mut measured = sample_report();
        measured.telemetry = Some(sample_telemetry());
        assert_eq!(measured.to_json(), [HEAD, TELEMETRY, "}"].concat());
    }

    #[test]
    fn telemetry_off_emits_no_key_telemetry_on_appends_one() {
        let off = sample_report().to_json();
        assert!(
            !off.contains("\"telemetry\""),
            "default-off reports must not mention telemetry: {off}"
        );
        let mut with = sample_report();
        with.telemetry = Some(sample_telemetry());
        let json = with.to_json();
        // The telemetry block is appended just before the closing brace, so
        // a telemetry-on report is the telemetry-off bytes plus one key.
        assert!(json.starts_with(&off[..off.len() - 1]), "{json}");
        assert!(json.contains(
            "\"telemetry\":{\"events_processed\":1234,\"event_queue_high_water\":17,\
             \"peak_queue_depth\":9,\"admission_accepted\":3,\"admission_rejected\":1,\
             \"flow_table_bytes\":2048,\"reservation_state_bytes\":512,\
             \"sched_pool_grow_events\":7,\"sched_pool_segments_high_water\":5,\
             \"delay_sample_bytes\":40960,\"wall_s\":0.25,\"events_per_sec\":4936.0}"
        ));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn run_telemetry_plan_flag_defaults_off() {
        assert!(!MeasurementPlan::default().run_telemetry);
        assert!(
            MeasurementPlan::default()
                .with_run_telemetry()
                .run_telemetry
        );
    }

    #[test]
    fn nonfinite_values_serialize_as_null() {
        let mut r = sample_report();
        r.flows[0].p999_delay_s = f64::NAN;
        assert!(r.to_json().contains("\"p999_delay_s\":null"));
    }

    #[test]
    fn hostile_labels_are_escaped_in_json() {
        // A label with a quote, a backslash, a newline and a raw control
        // character: the emitter used to splice strings verbatim, which
        // would have produced malformed JSON here.
        let mut r = sample_report();
        r.disciplines[0].discipline = "WFQ\" \\evil\n\u{1}".to_string();
        r.classes[0].class = "class\"with\\quotes".to_string();
        let json = r.to_json();
        assert!(
            json.contains("\"discipline\":\"WFQ\\\" \\\\evil\\n\\u0001\""),
            "{json}"
        );
        assert!(
            json.contains("\"class\":\"class\\\"with\\\\quotes\""),
            "{json}"
        );
        // Still balanced after escaping (the cheap well-formedness check).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        // No raw control characters or unescaped quotes survive inside the
        // emitted text.
        assert!(!json.chars().any(|c| (c as u32) < 0x20 && c != ' '));
    }

    /// A second report of a run repeats the first's flow section byte for
    /// byte: each flow's mean and jitter are its record-order fold, however
    /// its samples stand (sealed into sorted runs as they arrived, then
    /// merged by the first report).  Only the class section may move, and
    /// only where it pools a flow the flow section does not report — a TCP
    /// connection's samples, which the first report folds in record order
    /// and the second sorted; a run of declared flows alone repeats whole.
    #[test]
    fn a_second_report_repeats_the_flow_section() {
        use crate::{DisciplineSpec, FlowDef, ScenarioBuilder, SourceSpec, TcpDef, TopologySpec};
        use ispn_sim::SimTime;
        for tcp in [false, true] {
            let mut builder = ScenarioBuilder::new(TopologySpec::chain_duplex(2))
                .discipline(DisciplineSpec::Wfq)
                .flows((0..4).map(|i| {
                    FlowDef::best_effort_realtime(0, 1)
                        .source(SourceSpec::onoff_paper(85.0, 0x1992 + i))
                }));
            if tcp {
                builder = builder.tcp(TcpDef::over_span(0, 1));
            }
            let mut sim = builder.build().expect("valid scenario");
            sim.run_until(SimTime::from_secs(120));
            let flow = sim.flows()[0];
            let delivered = sim.network().monitor().flow_counters(flow).delivered;
            assert!(delivered > 2 * 4_096, "{delivered} samples seal twice");
            let report = |sim: &mut crate::Sim| sim.report(&MeasurementPlan::default()).to_json();
            let (first, second) = (report(&mut sim), report(&mut sim));
            let classes = first.find("\"classes\":[").expect("a classes block");
            assert_eq!(second[..classes], first[..classes], "tcp: {tcp}");
            if !tcp {
                assert_eq!(second, first);
            }
        }
    }

    /// A report, more run time, and a report again: the class jitter reads
    /// each flow by rising id, a declared flow ascending, and a TCP
    /// connection — which a report seals into several sorted runs — in
    /// ascending order up to the first report, then as recorded since: the
    /// order a report that sorted the connection's samples in one piece
    /// left them in.
    #[test]
    fn a_report_after_more_run_time_reads_a_tcp_flow_sorted_then_as_recorded() {
        use crate::{DisciplineSpec, FlowDef, ScenarioBuilder, SourceSpec, TcpDef, TopologySpec};
        use ispn_sim::SimTime;
        let build = || {
            ScenarioBuilder::new(TopologySpec::chain_duplex(2))
                .discipline(DisciplineSpec::Wfq)
                .flows((0..3).map(|i| {
                    FlowDef::best_effort_realtime(0, 1)
                        .source(SourceSpec::onoff_paper(85.0, 0x1992 + i))
                }))
                .tcp(TcpDef::over_span(0, 1))
                .build()
                .expect("valid scenario")
        };
        let (mut sim, mut unreported) = (build(), build());
        sim.run_until(SimTime::from_secs(60));
        sim.report(&MeasurementPlan::default());
        let at_first: Vec<usize> = (0..sim.network().num_flows())
            .map(|i| sim.network().monitor().flow_delays(FlowId(i as u32)).len())
            .collect();
        sim.run_until(SimTime::from_secs(120));
        unreported.run_until(SimTime::from_secs(120));
        let report = sim.report(&MeasurementPlan::default());
        let declared = sim.flows().to_vec();
        let groups = ScenarioReport::flows_by_class(sim.network());
        assert_eq!(groups.len(), report.classes.len());
        let mut tcp_runs = 0;
        for ((_, flows), summary) in groups.iter().zip(&report.classes) {
            let mut pooled = ispn_stats::SampleSet::new();
            for &flow in flows {
                let read: Vec<u64> = if declared.contains(&flow) {
                    sim.network().monitor().flow_delays(flow).nanos().collect()
                } else {
                    let n = at_first[flow.index()];
                    tcp_runs = tcp_runs.max(n.div_ceil(4_096));
                    let delays = unreported.network().monitor().flow_delays(flow);
                    let mut order: Vec<u64> = delays.nanos().collect();
                    order[..n].sort_unstable();
                    order
                };
                for ns in read {
                    pooled.record(SimTime::from_nanos(ns).as_secs_f64());
                }
            }
            let expected = pooled.sample_std_dev();
            assert_eq!(
                summary.jitter_s.to_bits(),
                expected.to_bits(),
                "{}",
                summary.class
            );
        }
        assert!(
            tcp_runs >= 3,
            "the first report seals {tcp_runs} runs of the TCP flow"
        );
    }

    /// The pooled class jitter sums in the order it is fed: the class
    /// section must see the same sorted samples whatever order the flow
    /// section found (it once saw them sorted only when the flow section
    /// had run first, `jitter_s` 0.005662284476872525 against
    /// 0.0056622844768725224 on this run).  The flow section reads each
    /// flow's record-order fold, so reporting every flow first, which seals
    /// its samples, moves neither section.
    #[test]
    fn class_summaries_do_not_depend_on_the_flow_section() {
        use crate::{DisciplineSpec, FlowDef, ScenarioBuilder, SourceSpec};
        use ispn_sim::SimTime;
        let blocks = |presort: bool| {
            let mut sim = ScenarioBuilder::chain(2)
                .discipline(DisciplineSpec::Wfq)
                .flows((0..10).map(|i| {
                    FlowDef::best_effort_realtime(0, 1)
                        .source(SourceSpec::onoff_paper(85.0, 0x1992 + i))
                }))
                .build()
                .expect("valid scenario");
            sim.run_until(SimTime::from_secs(30));
            if presort {
                for f in sim.flows().to_vec() {
                    sim.network_mut().monitor_mut().flow_report(f);
                }
            }
            let json = sim.report(&MeasurementPlan::default()).to_json();
            let classes = json.find("\"classes\":[").expect("a classes block");
            let disciplines = json.find("\"disciplines\":[").expect("a disciplines block");
            (
                json[..classes].to_string(),
                json[classes..disciplines].to_string(),
            )
        };
        let (flows_as_recorded, classes) = blocks(false);
        let (flows_presorted, classes_presorted) = blocks(true);
        assert_eq!(
            flows_as_recorded, flows_presorted,
            "the flow section sums in record order"
        );
        assert!(classes.contains("\"jitter_s\":0.00"), "{classes}");
        assert_eq!(classes, classes_presorted);
    }

    /// The flow and class sections as they stood while a report still
    /// walked a declared flow's samples nine times: per flow a jitter pass,
    /// a mean pass, a sort and a max pass; per class a pooled copy with its
    /// own Welford pass, re-sort, mean and max.  Kept as the oracle the
    /// two-pass report is compared against, byte for byte.
    mod reference {
        use super::super::*;
        use ispn_stats::SampleSet;

        /// The old `Monitor::flow_report`, plus the jitter the flow section
        /// took before calling it; leaves the flow sealed, as the report
        /// does.
        fn flow_summary(net: &mut Network, f: FlowId) -> FlowSummary {
            let delays = seconds(net, f);
            let jitter_s = delays.sample_std_dev();
            let mean_delay_s = delays.mean();
            let mut sorted = delays.clone();
            let p999_delay_s = sorted.quantile(0.999);
            let c = net.monitor().flow_counters(f);
            net.monitor_mut().seal_flow(f);
            FlowSummary {
                flow: f.0,
                generated: c.generated,
                delivered: c.delivered,
                dropped_buffer: c.dropped_buffer,
                dropped_at_edge: c.dropped_at_edge,
                dropped_inactive: c.dropped_inactive,
                mean_delay_s,
                p999_delay_s,
                max_delay_s: sorted.max(),
                jitter_s,
            }
        }

        /// A flow's delays as they stand, each `SimTime::as_secs_f64` of
        /// its stored nanoseconds: in record order, or ascending once the
        /// store is sealed.
        fn seconds(net: &Network, f: FlowId) -> SampleSet {
            let delays = net.monitor().flow_delays(f);
            let mut set = SampleSet::new();
            for ns in delays.nanos() {
                set.record(ispn_sim::SimTime::from_nanos(ns).as_secs_f64());
            }
            if delays.is_sealed() {
                set.sort();
            }
            set
        }

        pub fn flows_and_classes(
            net: &mut Network,
            flows: &[FlowId],
        ) -> (Vec<FlowSummary>, Vec<ClassSummary>) {
            let flow_summaries = flows.iter().map(|&f| flow_summary(net, f)).collect();
            let classes = ScenarioReport::flows_by_class(net)
                .into_iter()
                .map(|(class, flows)| {
                    let mut pooled = SampleSet::new();
                    let mut generated = 0u64;
                    let mut delivered = 0u64;
                    let mut dropped_buffer = 0u64;
                    let mut dropped_at_edge = 0u64;
                    for &flow in &flows {
                        for &d in seconds(net, flow).samples() {
                            pooled.record(d);
                        }
                        let r = flow_summary(net, flow);
                        generated += r.generated;
                        delivered += r.delivered;
                        dropped_buffer += r.dropped_buffer;
                        dropped_at_edge += r.dropped_at_edge;
                    }
                    let jitter_s = pooled.sample_std_dev();
                    let quantiles = CLASS_QUANTILES
                        .iter()
                        .map(|&q| (q, pooled.quantile(q)))
                        .collect();
                    ClassSummary {
                        class: class_label(class),
                        flows: flows.len(),
                        generated,
                        delivered,
                        dropped_buffer,
                        dropped_at_edge,
                        mean_delay_s: pooled.mean(),
                        max_delay_s: pooled.max(),
                        jitter_s,
                        quantiles,
                    }
                })
                .collect();
            (flow_summaries, classes)
        }
    }

    /// A network nobody simulated: 1–24 flows over 1–3 classes on one link,
    /// their delays and counters recorded straight into the monitor, a
    /// random subset declared — enough
    /// flows for a five-level merge tree and for classes whose undeclared
    /// flows (still in record order) sit before, between and after declared
    /// ones.  Delays sit on a coarse grid with zero the likeliest value, so
    /// flows tie within and across each other, and flows with no sample or
    /// one are common; a few hold several blocks, or runs enough for the
    /// report to seal more than one.
    /// (A delay enters a monitor as a `SimTime`, so it is never negative and
    /// never `-0.0`; the merge's own tests in `ispn-stats` cover those.)
    fn random_run(seed: u64) -> (Network, Vec<FlowId>) {
        use ispn_net::{FlowConfig, Topology};
        use ispn_sim::SimTime;
        let mut rng = proptest::TestRng::new(seed);
        let mut below = |n: u64| rng.below(n);
        let (topo, _nodes, links) = Topology::chain(2, 1e6, SimTime::MILLISECOND, 200);
        let mut net = Network::new(topo);
        let palette = [
            ServiceClass::Datagram,
            ServiceClass::Predicted { priority: 1 },
            ServiceClass::Guaranteed,
            ServiceClass::Predicted { priority: 0 },
        ];
        let first_class = below(4) as usize;
        let classes = 1 + below(3) as usize;
        let mut declared = Vec::new();
        for _ in 0..1 + below(24) {
            let class = palette[(first_class + below(classes as u64) as usize) % 4];
            let flow = net.add_flow(FlowConfig {
                class,
                ..FlowConfig::datagram(links.clone())
            });
            if below(3) > 0 {
                declared.push(flow);
            }
            let samples = [0, 0, 1, 1, 2, 3, 7, 40, 300, 9_000][below(10) as usize];
            let spread = [1, 3, 12][below(3) as usize];
            let monitor = net.monitor_mut();
            for i in 0..samples {
                let now = SimTime::from_millis(i);
                monitor.record_generated(flow, now);
                let delay = SimTime::from_micros(700 * below(spread).saturating_sub(below(2)));
                monitor.record_delivery(flow, delay, now);
            }
            for _ in 0..below(3) {
                monitor.record_generated(flow, SimTime::SECOND);
                monitor.record_buffer_drop(flow, 0, SimTime::SECOND);
            }
            for _ in 0..below(2) {
                monitor.record_edge_drop(flow, SimTime::SECOND);
                monitor.record_inactive_drop(flow, SimTime::SECOND);
            }
        }
        (net, declared)
    }

    /// More delays for every flow of a [`random_run`] after its report —
    /// none, a few, or more than a block — on the same grid.
    fn more_records(net: &mut Network, seed: u64) {
        use ispn_sim::SimTime;
        let mut rng = proptest::TestRng::new(seed ^ 0x5eed);
        for i in 0..net.num_flows() {
            let samples = [0, 2, 50, 300][rng.below(4) as usize];
            for k in 0..samples {
                let delay = SimTime::from_micros(700 * rng.below(12));
                let now = SimTime::from_millis(10_000 + k);
                net.monitor_mut()
                    .record_delivery(FlowId(i as u32), delay, now);
            }
        }
    }

    proptest::proptest! {
        /// The two-pass report is the nine-pass report: the same JSON to
        /// the byte, and every flow's samples left in the same order.  A
        /// second report after more records repeats the reference's class
        /// section too (its flow section reads each flow's record-order
        /// fold, which the reference does not keep).
        ///
        /// Fails (checked by hand) when the class Welford is fed after the
        /// flow is sorted instead of before, and when the merge drops a
        /// run's last element on a tie with another run's head.
        #[test]
        fn report_matches_the_nine_pass_reference(seed in proptest::any::<u64>()) {
            let sig = Signaling::default();
            let (mut net, flows) = random_run(seed);
            let report = ScenarioReport::collect(&mut net, &sig, &flows);
            let (mut reference_net, _) = random_run(seed);
            let (flow_summaries, classes) = reference::flows_and_classes(&mut reference_net, &flows);
            let expected = ScenarioReport {
                flows: flow_summaries,
                classes,
                ..report.clone()
            };
            assert_eq!(report.to_json(), expected.to_json(), "seed {seed}");
            for i in 0..net.num_flows() {
                let bits = |net: &Network| -> Vec<u64> {
                    net.monitor().flow_delays(FlowId(i as u32)).nanos().collect()
                };
                assert_eq!(bits(&net), bits(&reference_net), "flow {i}, seed {seed}");
            }
            more_records(&mut net, seed);
            more_records(&mut reference_net, seed);
            let report = ScenarioReport::collect(&mut net, &sig, &flows);
            let (_, classes) = reference::flows_and_classes(&mut reference_net, &flows);
            let expected = ScenarioReport { classes, ..report.clone() };
            assert_eq!(report.to_json(), expected.to_json(), "second report, seed {seed}");
        }
    }

    #[test]
    fn json_escape_passes_clean_strings_through() {
        use crate::json_escape;
        assert_eq!(json_escape("FIFO+"), "FIFO+");
        assert_eq!(json_escape("predicted-1"), "predicted-1");
        assert_eq!(json_escape("a\"b"), "a\\\"b");
        assert_eq!(json_escape("a\\b"), "a\\\\b");
        assert_eq!(json_escape("a\tb"), "a\\tb");
        assert_eq!(json_escape("\u{7}"), "\\u0007");
    }
}
