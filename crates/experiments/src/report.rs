//! Rendering experiment results next to the paper's published numbers.
//!
//! We do not expect to match the absolute values (the original simulator and
//! its random streams are not available); the point of printing them side by
//! side is to check the *shape*: who wins, by roughly what factor, and where
//! the qualitative crossovers fall.  EXPERIMENTS.md records one full run.
//!
//! The sweep-shaped experiments (Tables 1–2, `hetmix`, `mesh`, `churn` and
//! the Table-3 seed replication) render through the axis-aware
//! [`SweepTable`] of `ispn-scenario`: the leading columns come straight
//! from each point's axis tags, so the renderers declare only their value
//! columns — and a point that panicked prints its payload in place
//! instead of suppressing the rest of the sweep.

use ispn_scenario::{PointResult, SweepReport, SweepTable};
use ispn_stats::table::fmt2;
use ispn_stats::TextTable;

use crate::churn::ChurnOutcome;
use crate::extensions::admission::AdmissionOutcome;
use crate::extensions::hops::HopsPoint;
use crate::extensions::playback::PlaybackComparison;
use crate::extensions::utilization::UtilizationPoint;
use crate::fig1::FlowKind;
use crate::hetmix::HetMixPoint;
use crate::mesh::MeshOutcome;
use crate::table1::Table1Row;
use crate::table2::Table2Point;
use crate::table3::Table3;

/// The paper's Table 1 (scheduler, mean, 99.9th percentile).
pub const PAPER_TABLE1: [(&str, f64, f64); 2] = [("WFQ", 3.16, 53.86), ("FIFO", 3.17, 34.72)];

/// The paper's Table 2: (scheduler, path length, mean, 99.9th percentile).
pub const PAPER_TABLE2: [(&str, usize, f64, f64); 12] = [
    ("WFQ", 1, 2.65, 45.31),
    ("WFQ", 2, 4.74, 60.31),
    ("WFQ", 3, 7.51, 65.86),
    ("WFQ", 4, 9.64, 80.59),
    ("FIFO", 1, 2.54, 30.49),
    ("FIFO", 2, 4.73, 41.22),
    ("FIFO", 3, 7.97, 52.36),
    ("FIFO", 4, 10.33, 58.13),
    ("FIFO+", 1, 2.71, 33.59),
    ("FIFO+", 2, 4.69, 38.15),
    ("FIFO+", 3, 7.76, 43.30),
    ("FIFO+", 4, 10.11, 45.25),
];

/// One published Table-3 row: (class, path length, mean, 99.9th, max,
/// Parekh–Gallager bound where one applies).
pub type PaperTable3Row = (&'static str, usize, f64, f64, f64, Option<f64>);

/// The paper's Table 3.
pub const PAPER_TABLE3: [PaperTable3Row; 8] = [
    ("Guaranteed-Peak", 4, 8.07, 14.41, 15.99, Some(23.53)),
    ("Guaranteed-Peak", 2, 2.91, 8.12, 8.79, Some(11.76)),
    ("Guaranteed-Average", 3, 56.44, 270.13, 296.23, Some(611.76)),
    ("Guaranteed-Average", 1, 36.27, 206.75, 247.24, Some(588.24)),
    ("Predicted-High", 4, 3.06, 8.20, 11.13, None),
    ("Predicted-High", 2, 1.60, 5.83, 7.48, None),
    ("Predicted-Low", 3, 19.22, 104.83, 148.70, None),
    ("Predicted-Low", 1, 7.43, 79.57, 108.56, None),
];

/// The paper's published value for a Table-2 cell.
pub fn paper_table2_value(scheduler: &str, path_length: usize) -> Option<(f64, f64)> {
    PAPER_TABLE2
        .iter()
        .find(|(s, p, _, _)| *s == scheduler && *p == path_length)
        .map(|(_, _, mean, p999)| (*mean, *p999))
}

/// The paper's published row for a Table-3 class/path pair.
pub fn paper_table3_value(kind: FlowKind, path_length: usize) -> Option<(f64, f64, f64)> {
    PAPER_TABLE3
        .iter()
        .find(|(s, p, ..)| *s == kind.label() && *p == path_length)
        .map(|(_, _, mean, p999, max, _)| (*mean, *p999, *max))
}

/// Render Table 1 with the paper's numbers alongside — axis-aware: the
/// discipline column comes from the sweep's axis tags.
pub fn render_table1(reports: &[SweepReport<PointResult<Table1Row>>]) -> String {
    SweepTable::new(
        "Table 1 — single link, 10 on/off flows, 83.5% utilization\n\
         (queueing delay in packet transmission times; 'paper' columns are the published values)",
    )
    .columns([
        "mean",
        "99.9 %ile",
        "paper mean",
        "paper 99.9 %ile",
        "utilization",
    ])
    .render(reports, |row| {
        let paper = PAPER_TABLE1.iter().find(|(s, _, _)| *s == row.scheduler);
        vec![vec![
            fmt2(row.mean),
            fmt2(row.p999),
            paper.map(|p| fmt2(p.1)).unwrap_or_default(),
            paper.map(|p| fmt2(p.2)).unwrap_or_default(),
            format!("{:.1}%", row.utilization * 100.0),
        ]]
    })
}

/// Render Table 2 with the paper's numbers alongside — axis-aware: one
/// row per path length under each discipline point, keyed by the
/// discipline tag.
pub fn render_table2(reports: &[SweepReport<PointResult<Table2Point>>]) -> String {
    let table = SweepTable::new(
        "Table 2 — Figure-1 chain, 22 on/off flows, 83.5% per-link utilization\n\
         (queueing delay in packet transmission times; 'paper' columns are the published values)",
    )
    .columns(["path", "mean", "99.9 %ile", "paper mean", "paper 99.9 %ile"])
    .render(reports, |point| {
        point
            .cells
            .iter()
            .map(|cell| {
                let paper = paper_table2_value(cell.scheduler, cell.path_length);
                vec![
                    cell.path_length.to_string(),
                    fmt2(cell.mean),
                    fmt2(cell.p999),
                    paper.map(|p| fmt2(p.0)).unwrap_or_default(),
                    paper.map(|p| fmt2(p.1)).unwrap_or_default(),
                ]
            })
            .collect()
    });
    let util: String = reports
        .iter()
        .filter_map(|r| r.result.as_ref().ok())
        .map(|p| format!("{} {:.1}%", p.scheduler, p.utilization * 100.0))
        .collect::<Vec<_>>()
        .join(", ");
    format!("{table}\nmean link utilization: {util}\n")
}

/// Render Table 3 with the paper's numbers alongside.
pub fn render_table3(t: &Table3) -> String {
    let mut table = TextTable::new(
        "Table 3 — unified scheduler on the Figure-1 chain (guaranteed + predicted + 2 TCP)\n\
         (queueing delay in packet transmission times; 'paper' columns are the published values)",
    )
    .header([
        "type",
        "path",
        "mean",
        "99.9 %ile",
        "max",
        "P-G bound",
        "paper mean",
        "paper max",
    ]);
    for row in &t.rows {
        let paper = paper_table3_value(row.kind, row.path_length);
        table.row([
            row.kind.label().to_string(),
            row.path_length.to_string(),
            fmt2(row.mean),
            fmt2(row.p999),
            fmt2(row.max),
            row.pg_bound.map(fmt2).unwrap_or_default(),
            paper.map(|p| fmt2(p.0)).unwrap_or_default(),
            paper.map(|p| fmt2(p.2)).unwrap_or_default(),
        ]);
    }
    format!(
        "{}\ndatagram drop rate: {:.3}%  (paper: ~0.1%)\n\
         mean utilization: {:.1}%  (paper: >99%)   real-time share: {:.1}%  (paper: 83.5%)\n\
         TCP goodput: {} packets/s\n",
        table.render(),
        t.datagram_drop_rate * 100.0,
        t.mean_utilization * 100.0,
        t.realtime_utilization * 100.0,
        t.tcp_goodput_pps
            .iter()
            .map(|g| format!("{g:.0}"))
            .collect::<Vec<_>>()
            .join(" / "),
    )
}

/// Render a Table-3 seed-axis replication: one full table per seed, in
/// seed order, one line apart; a panicked replication reports its failure
/// in place without suppressing the other seeds.
pub fn render_table3_seeds(reports: &[SweepReport<PointResult<(u64, Table3)>>]) -> String {
    let blocks: Vec<String> = reports
        .iter()
        .map(|report| match &report.result {
            Ok((seed, t)) => format!("seed {seed:#x}:\n{}", render_table3(t)),
            Err(e) => format!(
                "seed {}: panicked: {}",
                report.tag("seed").unwrap_or("?"),
                e.payload
            ),
        })
        .collect();
    blocks.join("\n")
}

/// Render the hop-count sweep.
pub fn render_hops(points: &[HopsPoint]) -> String {
    let mut table = TextTable::new(
        "Extension — 99.9th-percentile queueing delay vs path length (packet times)",
    )
    .header(["scheduling", "hops", "mean", "99.9 %ile"]);
    for p in points {
        table.row([
            p.scheduler.to_string(),
            p.hops.to_string(),
            fmt2(p.mean),
            fmt2(p.p999),
        ]);
    }
    table.render()
}

/// Render the playback comparison.
pub fn render_playback(c: &PlaybackComparison) -> String {
    let mut table = TextTable::new(
        "Extension — adaptive vs rigid play-back point over predicted service (packet times)",
    )
    .header(["client", "effective latency", "loss rate"]);
    table.row([
        "rigid (a-priori bound)".to_string(),
        fmt2(c.rigid_latency),
        format!("{:.3}%", c.rigid_loss * 100.0),
    ]);
    table.row([
        "adaptive".to_string(),
        fmt2(c.adaptive_latency),
        format!("{:.3}%", c.adaptive_loss * 100.0),
    ]);
    format!(
        "{}\nlatency saving from adaptation: {:.0}%  ({} samples)\n",
        table.render(),
        c.latency_saving() * 100.0,
        c.samples
    )
}

/// Render the admission-control comparison.
pub fn render_admission(controlled: &AdmissionOutcome, uncontrolled: &AdmissionOutcome) -> String {
    let mut table = TextTable::new(
        "Extension — measurement-based admission control (Section 9 criterion) vs accept-all",
    )
    .header([
        "policy",
        "accepted",
        "rejected",
        "utilization",
        "worst high-class delay",
        "worst low-class delay",
        "violations",
    ]);
    for o in [controlled, uncontrolled] {
        table.row([
            if o.controlled {
                "Section 9 criterion"
            } else {
                "accept everything"
            }
            .to_string(),
            o.accepted.to_string(),
            o.rejected.to_string(),
            format!("{:.1}%", o.utilization * 100.0),
            fmt2(o.worst_high_delay),
            fmt2(o.worst_low_delay),
            o.violations.to_string(),
        ]);
    }
    table.render()
}

/// Render the churn sweep: blocking probability and bound compliance as
/// offered load rises — axis-aware, keyed by the arrival-rate tag.
pub fn render_churn(reports: &[SweepReport<PointResult<ChurnOutcome>>]) -> String {
    SweepTable::new(
        "Churn — dynamic signaling on the Figure-1 chain\n\
         (Poisson arrivals, exponential holding times, Section-9 admission per link)",
    )
    .columns([
        "offered (erl)",
        "requests",
        "accepted",
        "rejected",
        "blocking",
        "mean util",
        "worst util",
        "bound violations",
        "worst bound use",
    ])
    .render(reports, |o| {
        vec![vec![
            format!("{:.1}", o.offered_erlangs),
            o.offered.to_string(),
            o.accepted.to_string(),
            o.rejected.to_string(),
            format!("{:.1}%", o.blocking_probability() * 100.0),
            format!("{:.1}%", o.mean_utilization * 100.0),
            format!("{:.1}%", o.worst_utilization * 100.0),
            o.violations.to_string(),
            format!("{:.0}%", o.worst_bound_fraction * 100.0),
        ]]
    })
}

/// Render the mesh cross-traffic study — axis-aware: the cross-traffic
/// column comes from the sweep's `cross` tag, one row per traffic class.
pub fn render_mesh(reports: &[SweepReport<PointResult<MeshOutcome>>]) -> String {
    let mut out = SweepTable::new(
        "Mesh — cross-traffic on the 3×3 grid's interior links, unified scheduler\n\
         (delays in packet times; 'cross' = Predicted-Low flows per row)",
    )
    .columns([
        "class",
        "flows",
        "mean",
        "worst 99.9 %ile",
        "worst max",
        "jitter",
        "loss",
    ])
    .render(reports, |o| {
        o.classes
            .iter()
            .map(|c| {
                vec![
                    c.class.to_string(),
                    c.flows.to_string(),
                    fmt2(c.mean),
                    fmt2(c.worst_p999),
                    fmt2(c.worst_max),
                    fmt2(c.jitter),
                    format!("{:.3}%", c.loss_rate * 100.0),
                ]
            })
            .collect()
    });
    for o in reports.iter().filter_map(|r| r.result.as_ref().ok()) {
        out.push_str(&format!(
            "cross {}: interior links {:.1}% busy ({} drops), edge links {:.1}%\n",
            o.cross_flows_per_row,
            o.interior_utilization * 100.0,
            o.interior_drops,
            o.edge_utilization * 100.0,
        ));
    }
    out
}

/// Render the heterogeneous-mix sweep — axis-aware: the discipline and
/// level columns come from the sweep's axis tags, one row per class.
pub fn render_hetmix(reports: &[SweepReport<PointResult<HetMixPoint>>]) -> String {
    SweepTable::new(
        "Heterogeneous mix — CBR + on/off + Poisson per class on one link\n\
         (delays in packet times; 'level' = flows per class)",
    )
    .columns([
        "utilization",
        "class",
        "mean",
        "worst 99.9 %ile",
        "jitter",
        "loss",
    ])
    .render(reports, |p| {
        p.classes
            .iter()
            .map(|c| {
                vec![
                    format!("{:.1}%", p.utilization * 100.0),
                    c.class.to_string(),
                    fmt2(c.mean),
                    fmt2(c.worst_p999),
                    fmt2(c.jitter),
                    format!("{:.3}%", c.loss_rate * 100.0),
                ]
            })
            .collect()
    })
}

/// Render the utilization sweep.
pub fn render_utilization(points: &[UtilizationPoint]) -> String {
    let mut table =
        TextTable::new("Extension — delay vs offered load on a single shared link (packet times)")
            .header(["scheduling", "flows", "utilization", "mean", "99.9 %ile"]);
    for p in points {
        table.row([
            p.scheduler.to_string(),
            p.flows.to_string(),
            format!("{:.1}%", p.utilization * 100.0),
            fmt2(p.mean),
            fmt2(p.p999),
        ]);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_lookups() {
        assert_eq!(paper_table2_value("FIFO+", 4), Some((10.11, 45.25)));
        assert_eq!(paper_table2_value("FIFO", 9), None);
        assert_eq!(
            paper_table3_value(FlowKind::GuaranteedPeak, 4),
            Some((8.07, 14.41, 15.99))
        );
        assert_eq!(paper_table3_value(FlowKind::PredictedLow, 4), None);
    }

    #[test]
    fn paper_constants_are_consistent_with_the_text() {
        // Table 1: FIFO's tail is far below WFQ's while means are equal-ish.
        assert!(PAPER_TABLE1[1].2 < PAPER_TABLE1[0].2);
        assert!((PAPER_TABLE1[0].1 - PAPER_TABLE1[1].1).abs() < 0.1);
        // Table 2: FIFO+ grows slowest from 1 to 4 hops.
        let growth = |s: &str| {
            let one = paper_table2_value(s, 1).unwrap().1;
            let four = paper_table2_value(s, 4).unwrap().1;
            four - one
        };
        assert!(growth("FIFO+") < growth("FIFO"));
        assert!(growth("FIFO") < growth("WFQ"));
        // Table 3: every guaranteed max is below its P-G bound.
        for (_, _, _, _, max, bound) in PAPER_TABLE3 {
            if let Some(b) = bound {
                assert!(max < b);
            }
        }
    }

    #[test]
    fn rendering_smoke_test() {
        let row = Table1Row {
            scheduler: "FIFO",
            mean: 3.0,
            p999: 30.0,
            all_flows_mean: 3.0,
            all_flows_worst_p999: 31.0,
            utilization: 0.83,
        };
        let reports = vec![SweepReport {
            index: 0,
            tags: vec![("discipline".to_string(), "FIFO".to_string())],
            result: Ok(row),
        }];
        let s = render_table1(&reports);
        assert!(s.contains("discipline"), "{s}"); // axis column from the tag
        assert!(s.contains("FIFO"));
        assert!(s.contains("34.72")); // paper value included
    }

    #[test]
    fn panicked_points_render_in_place() {
        let reports = vec![SweepReport::<PointResult<Table1Row>> {
            index: 0,
            tags: vec![("discipline".to_string(), "WFQ".to_string())],
            result: Err(ispn_scenario::SweepError {
                index: 0,
                tags: vec![("discipline".to_string(), "WFQ".to_string())],
                payload: "scheduler imploded".to_string(),
            }),
        }];
        let s = render_table1(&reports);
        assert!(s.contains("panicked: scheduler imploded"), "{s}");
        assert!(s.contains("WFQ"), "{s}");
    }
}
