//! Errors a scenario can fail to build with.
//!
//! Everything here implements [`std::error::Error`] and [`Display`], so
//! scenario code composes with `?` and `anyhow`-style reporting instead of
//! ad-hoc matching.
//!
//! [`Display`]: std::fmt::Display

use ispn_net::NodeId;

/// Why [`ScenarioBuilder::build`](crate::ScenarioBuilder::build) refused a
/// scenario description.
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    /// A topology preset was given a size or link profile it cannot build
    /// (e.g. a chain of fewer than two switches, or a zero link rate).
    BadTopology {
        /// What was wrong with the requested preset.
        reason: String,
    },
    /// A flow declared a number its service or source cannot run with: a
    /// rate that is zero, negative, NaN or infinite, a source too fast to
    /// pace at nanosecond resolution, an empty packet, a non-positive token
    /// bucket, a loss rate outside `[0, 1]`, an unsorted trace, or a
    /// predicted priority a `Unified` or `StrictPriority` link on its route
    /// has no class for.
    BadFlow {
        /// Index of the offending flow in declaration order.
        flow: usize,
        /// What was wrong with the flow's numbers.
        reason: String,
    },
    /// A flow declared an empty route.
    EmptyRoute {
        /// Index of the offending flow in declaration order.
        flow: usize,
    },
    /// A flow declared an explicit route that is not a contiguous path in
    /// the built topology.
    InvalidRoute {
        /// Index of the offending flow in declaration order.
        flow: usize,
    },
    /// A flow asked to be routed between two nodes with no path.
    NoPath {
        /// Index of the offending flow in declaration order.
        flow: usize,
        /// Requested entry switch.
        from: NodeId,
        /// Requested exit switch.
        to: NodeId,
    },
    /// A dynamic workload declaration is inconsistent (e.g. a churn process
    /// with a non-positive arrival rate or no service classes to request).
    BadWorkload {
        /// What was wrong with the requested workload.
        reason: String,
    },
    /// A route referenced a forward/reverse span that runs off the preset
    /// (e.g. `span(3, 2)` on a four-link chain).
    SpanOutOfRange {
        /// Index of the offending flow in declaration order (TCP
        /// connections count after the last plain flow).
        flow: usize,
        /// First link index of the requested span.
        first: usize,
        /// Number of links in the requested span.
        hops: usize,
        /// Number of links the preset actually has in that direction.
        available: usize,
    },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::BadTopology { reason } => write!(f, "bad topology: {reason}"),
            BuildError::BadWorkload { reason } => write!(f, "bad workload: {reason}"),
            BuildError::BadFlow { flow, reason } => write!(f, "flow #{flow}: {reason}"),
            BuildError::EmptyRoute { flow } => write!(f, "flow #{flow} has an empty route"),
            BuildError::InvalidRoute { flow } => {
                write!(f, "flow #{flow}'s route is not a contiguous path")
            }
            BuildError::NoPath { flow, from, to } => {
                write!(f, "flow #{flow}: no path from {from:?} to {to:?}")
            }
            BuildError::SpanOutOfRange {
                flow,
                first,
                hops,
                available,
            } => write!(
                f,
                "flow #{flow}: span ({first}, {hops}) runs off the {available}-link preset"
            ),
        }
    }
}

impl std::error::Error for BuildError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_and_compose_with_question_mark() {
        fn fallible() -> Result<(), Box<dyn std::error::Error>> {
            Err(BuildError::EmptyRoute { flow: 3 })?;
            Ok(())
        }
        let err = fallible().unwrap_err();
        assert_eq!(err.to_string(), "flow #3 has an empty route");

        let e = BuildError::NoPath {
            flow: 0,
            from: NodeId(1),
            to: NodeId(2),
        };
        assert!(e.to_string().contains("no path"));
        let e = BuildError::SpanOutOfRange {
            flow: 1,
            first: 3,
            hops: 2,
            available: 4,
        };
        assert!(e.to_string().contains("runs off"));
    }
}
