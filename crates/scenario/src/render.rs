//! Axis-aware rendering of sweep results.
//!
//! Every experiment used to carry its own formatting glue: a hand-built
//! [`TextTable`] whose leading columns restated the sweep's axes (the
//! scheduler, the load level, the cross-traffic knob…) from fields the
//! experiment had copied out of its own loop variables.  The sweep API
//! already knows those axes — every [`SweepReport`] carries its point's
//! `(axis name, value label)` tags — so [`SweepTable`] renders them
//! directly: one leading column per axis, taken from the tags, followed by
//! whatever value columns the caller declares.  A point may expand into
//! several table rows (e.g. one row per traffic class); each row repeats
//! the point's axis labels.  Panicked points ([`SweepError`]) render as a
//! single row carrying the panic payload, so a partially failed sweep
//! still prints everything it measured.
//!
//! The JSON side of the same idea lives in
//! [`sweep_to_json`](crate::sweep::sweep_to_json): arrays
//! of points keyed by their axis tags, with `"report"` bodies for results
//! and `"error"` bodies for panics.
//!
//! ```
//! use ispn_scenario::{ScenarioSet, SweepProgress, SweepRunner, SweepTable};
//!
//! let set = ScenarioSet::over("load", [1usize, 2]).by("flows", [10usize]);
//! let reports = SweepRunner::serial().run(&set, |&(load, flows)| load * flows, &SweepProgress::default());
//! let text = SweepTable::new("delivered packets")
//!     .columns(["delivered"])
//!     .render(&reports, |&total| vec![vec![total.to_string()]]);
//! assert!(text.contains("load"));
//! assert!(text.contains("flows"));
//! assert!(text.contains("20"));
//! ```

use ispn_stats::TextTable;

use crate::sweep::{PointResult, SweepReport};

#[cfg(doc)]
use crate::sweep::SweepError;

/// The axis names spanning `reports`, in first-appearance order — the
/// leading columns of an axis-aware table.
pub fn axis_names<R>(reports: &[SweepReport<R>]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for report in reports {
        for (name, _) in &report.tags {
            if !names.iter().any(|n| n == name) {
                names.push(name.clone());
            }
        }
    }
    names
}

/// A declarative axis-keyed table over checked sweep reports: axis columns
/// come from the reports' tags, value columns from a caller-supplied row
/// expansion.  See the [module docs](self) for the shape.
#[derive(Debug, Clone)]
pub struct SweepTable {
    title: String,
    value_columns: Vec<String>,
}

impl SweepTable {
    /// A table with a title (printed above the grid) and no value columns
    /// yet.
    pub fn new(title: impl Into<String>) -> Self {
        SweepTable {
            title: title.into(),
            value_columns: Vec::new(),
        }
    }

    /// Declare the value columns (builder style), rendered after the axis
    /// columns in the order given.
    pub fn columns<I, S>(mut self, headers: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.value_columns = headers.into_iter().map(Into::into).collect();
        self
    }

    /// Render the reports: one leading column per axis (from the tags, in
    /// first-appearance order), then the declared value columns.  `rows`
    /// expands one successful point into its table rows (each a `Vec` of
    /// value cells, one per declared column); every row repeats the
    /// point's axis labels.  A panicked point becomes a single row whose
    /// first value cell carries `panicked: <payload>`.
    pub fn render<R, F>(&self, reports: &[SweepReport<PointResult<R>>], rows: F) -> String
    where
        F: Fn(&R) -> Vec<Vec<String>>,
    {
        let axes = axis_names(reports);
        let mut header: Vec<String> = axes.clone();
        header.extend(self.value_columns.iter().cloned());
        let mut table = TextTable::new(self.title.clone()).header(header);
        for report in reports {
            let axis_cells: Vec<String> = axes
                .iter()
                .map(|axis| report.tag(axis).unwrap_or("").to_string())
                .collect();
            match &report.result {
                Ok(result) => {
                    for row in rows(result) {
                        let mut cells = axis_cells.clone();
                        cells.extend(row);
                        table.row(cells);
                    }
                }
                Err(e) => {
                    let mut cells = axis_cells.clone();
                    cells.push(format!("panicked: {}", e.payload));
                    table.row(cells);
                }
            }
        }
        table.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{ScenarioSet, SweepError, SweepProgress, SweepRunner};

    fn checked(reports: Vec<SweepReport<usize>>) -> Vec<SweepReport<PointResult<usize>>> {
        reports
            .into_iter()
            .map(|r| SweepReport {
                index: r.index,
                tags: r.tags,
                result: Ok(r.result),
            })
            .collect()
    }

    #[test]
    fn axis_columns_come_from_tags_in_declaration_order() {
        let set = ScenarioSet::over("discipline", ["WFQ", "FIFO"]).by("level", [1usize, 2]);
        let reports =
            SweepRunner::serial().run(&set, |&(_, level)| level * 7, &SweepProgress::default());
        assert_eq!(axis_names(&reports), vec!["discipline", "level"]);
        let text = SweepTable::new("demo")
            .columns(["value"])
            .render(&reports, |&v| vec![vec![v.to_string()]]);
        let header = text.lines().nth(1).expect("header line");
        assert!(header.starts_with("discipline"), "{text}");
        assert!(header.contains("level"), "{text}");
        assert!(header.contains("value"), "{text}");
        // Every point renders with its own axis labels.
        assert!(text.contains("WFQ"), "{text}");
        assert!(text.contains("FIFO"), "{text}");
        assert!(text.contains("14"), "{text}");
    }

    #[test]
    fn points_may_expand_to_multiple_rows() {
        let reports = checked(vec![SweepReport {
            index: 0,
            tags: vec![("load".to_string(), "2".to_string())],
            result: 3,
        }]);
        let text = SweepTable::new("multi")
            .columns(["class", "n"])
            .render(&reports, |&n| {
                (0..n)
                    .map(|i| vec![format!("class-{i}"), n.to_string()])
                    .collect()
            });
        // Three rows, each repeating the axis label.
        assert_eq!(text.matches("class-").count(), 3, "{text}");
        let data_rows: Vec<&str> = text.lines().filter(|l| l.contains("class-")).collect();
        assert!(data_rows.iter().all(|l| l.starts_with('2')), "{text}");
    }

    #[test]
    fn panicked_points_render_their_payload() {
        let mut reports = checked(vec![SweepReport {
            index: 0,
            tags: vec![("load".to_string(), "1".to_string())],
            result: 10,
        }]);
        reports.push(SweepReport {
            index: 1,
            tags: vec![("load".to_string(), "2".to_string())],
            result: Err(SweepError {
                index: 1,
                tags: vec![("load".to_string(), "2".to_string())],
                payload: "buffer exploded".to_string(),
            }),
        });
        let text = SweepTable::new("faults")
            .columns(["value"])
            .render(&reports, |&v| vec![vec![v.to_string()]]);
        assert!(text.contains("10"), "{text}");
        assert!(text.contains("panicked: buffer exploded"), "{text}");
    }

    #[test]
    fn empty_sweeps_render_headers_only() {
        let reports: Vec<SweepReport<PointResult<usize>>> = Vec::new();
        let text = SweepTable::new("empty")
            .columns(["value"])
            .render(&reports, |&v| vec![vec![v.to_string()]]);
        assert!(text.contains("empty"));
        assert!(text.contains("value"));
    }
}
