//! The metric catalogue: every end-to-end and per-layer metric the
//! benchmark prints, with its unit, in printing order.  `BENCHMARK.json`
//! lists the same names, units and bounds; a self-test keeps the two in
//! step.

/// An end-to-end metric: something a user of the repo waits for or pays.
/// All are "lower is better".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Share of the median by which it may worsen before it counts as a
    /// regression.
    pub bound: f64,
}

/// The end-to-end metrics, reported for every workload.  Every timing is
/// taken over the least disturbed reps of a pass, and the bounds are as
/// wide as the reference box is noisy (see the README's *Noise* section).
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "wall_vs_ref",
        unit: "ratio",
        bound: 0.2,
    },
    EndToEnd {
        name: "peak_rss_bytes",
        unit: "bytes",
        bound: 0.15,
    },
];

/// The per-layer metrics as `(name, unit)`, layer = crate name.  A metric
/// that does not apply to a workload (sweep metrics on a simulation
/// workload, simulation metrics on `sweep-pipes`) is reported as 0.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("sim.events", "count"),
    ("sim.event_queue.high_water", "count"),
    ("sim.event_queue.ns_per_hold", "ns"),
    ("sim.rng.ns_per_draw", "ns"),
    ("traffic.pkts_generated", "count"),
    ("traffic.onoff.ns_per_pkt", "ns"),
    ("core.token_bucket.offers", "count"),
    ("core.token_bucket.ns_per_offer", "ns"),
    ("core.admission.decisions", "count"),
    ("core.admission.ns_per_decision", "ns"),
    ("sched.pkts", "count"),
    ("sched.depth_high_water", "count"),
    ("sched.ns_per_pkt", "ns"),
    ("sched.lane_ops", "count"),
    ("sched.ns_per_lane_op", "ns"),
    ("sched.pool_grow_events", "count"),
    ("net.pkt_hops", "count"),
    ("net.drops", "count"),
    ("net.ns_per_event", "ns"),
    ("net.monitor.ns_per_record", "ns"),
    ("net.flow_table_bytes", "bytes"),
    ("net.reservation_state_bytes", "bytes"),
    ("net.residue_share", "ratio"),
    ("stats.samples", "count"),
    ("stats.sample_set.ns_per_record", "ns"),
    ("stats.sample_set.quantile_s", "s"),
    ("transport.tcp.segments", "count"),
    ("signal.requests", "count"),
    ("signal.accepted", "count"),
    ("signal.ns_per_request", "ns"),
    ("scenario.build_s", "s"),
    ("scenario.run_s", "s"),
    ("scenario.report_s", "s"),
    ("scenario.json_s", "s"),
    ("scenario.exit_s", "s"),
    ("scenario.report_bytes", "bytes"),
    ("scenario.wire.parse_ns_per_byte", "ns"),
    ("scenario.sweep.points", "count"),
    ("scenario.sweep.point_wall_s", "s"),
    ("scenario.sweep.overhead_s_per_point", "s"),
    ("scenario.sweep.threads_wall_s", "s"),
    ("scenario.sweep.tcp_wall_s", "s"),
    ("experiments.paper_err_mean_pct", "%"),
    ("experiments.paper_err_p999_pct", "%"),
    ("bench.reps", "count"),
    ("bench.wall_p10_s", "s"),
    ("bench.wall_median_s", "s"),
    ("bench.wall_iqr_rel", "ratio"),
    ("bench.wall_tail_s", "s"),
    ("bench.cpu_s", "s"),
    ("bench.ref_s", "s"),
    ("bench.trace_overhead", "ratio"),
];

/// Whether a per-layer metric is an exact count: one that must repeat
/// bit for bit across two runs of the same seed.
pub fn is_exact(name: &str) -> bool {
    let unit = PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit);
    matches!(unit, "count" | "bytes" | "%") && name != "bench.reps"
}

/// Measured values by metric name.
pub type Values = std::collections::BTreeMap<String, f64>;
