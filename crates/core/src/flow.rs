//! Service classes and the service interface (Sections 3 and 8).
//!
//! The paper defines three kinds of service commitment:
//!
//! * **guaranteed** — worst-case delay bounds that hold no matter how other
//!   clients behave, provided the flow itself conforms to its traffic
//!   characterization,
//! * **predicted** — bounds that hold "if the past is a guide to the
//!   future", delivered by measurement rather than worst-case analysis, with
//!   several widely-spaced target delay classes,
//! * **datagram** — traditional best-effort service with no commitment.
//!
//! The *service interface* (Section 8) differs per class: a guaranteed flow
//! only states its WFQ clock rate `r`; a predicted flow declares a token
//! bucket `(r, b)` plus the delay `D` and loss rate `L` it wants; a datagram
//! flow declares nothing.

use ispn_sim::SimTime;

use crate::token_bucket::TokenBucketSpec;

/// Which service commitment a flow's packets receive at switches.
///
/// Priority 0 is the highest predicted-service priority; the datagram class
/// sits below every predicted priority (Section 7: "We assign datagram
/// traffic to the lowest priority class").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServiceClass {
    /// A guaranteed-service flow isolated by WFQ with its own clock rate.
    Guaranteed,
    /// A predicted-service flow assigned to one of the K priority classes.
    Predicted {
        /// Priority level at this switch; 0 is highest.
        priority: u8,
    },
    /// Best-effort datagram traffic.
    Datagram,
}

impl ServiceClass {
    /// `true` for real-time (guaranteed or predicted) classes.
    pub fn is_realtime(self) -> bool {
        !matches!(self, ServiceClass::Datagram)
    }

    /// The predicted-service priority, if any.
    pub fn priority(self) -> Option<u8> {
        match self {
            ServiceClass::Predicted { priority } => Some(priority),
            _ => None,
        }
    }
}

/// The per-flow service interface of Section 8: what the source tells the
/// network when it requests service.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowSpec {
    /// Guaranteed service: "the source only needs to specify the needed
    /// clock rate r".  The network performs no conformance check; the source
    /// uses its own knowledge of `b(r)` to compute its worst-case delay.
    Guaranteed {
        /// Requested WFQ clock rate in bits per second.
        clock_rate_bps: f64,
    },
    /// Predicted service: the traffic characterization `(r, b)` plus the
    /// requested delay target `D` and tolerable loss rate `L`.
    Predicted {
        /// Declared token-bucket filter.
        bucket: TokenBucketSpec,
        /// Requested per-path delay target.
        target_delay: SimTime,
        /// Tolerable loss rate (fraction of packets that may miss the
        /// target), e.g. `0.001`.
        loss_rate: f64,
    },
    /// Datagram (best-effort) service: no parameters.
    Datagram,
}

impl FlowSpec {
    /// A guaranteed-service spec with the given clock rate.
    pub fn guaranteed(clock_rate_bps: f64) -> Self {
        assert!(clock_rate_bps > 0.0, "clock rate must be positive");
        FlowSpec::Guaranteed { clock_rate_bps }
    }

    /// A predicted-service spec.
    pub fn predicted(bucket: TokenBucketSpec, target_delay: SimTime, loss_rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&loss_rate),
            "loss rate must be a probability"
        );
        FlowSpec::Predicted {
            bucket,
            target_delay,
            loss_rate,
        }
    }

    /// The token bucket declared by a predicted flow, if any.
    pub fn bucket(&self) -> Option<TokenBucketSpec> {
        match self {
            FlowSpec::Predicted { bucket, .. } => Some(*bucket),
            _ => None,
        }
    }

    /// The guaranteed clock rate, if this is a guaranteed flow.
    pub fn clock_rate_bps(&self) -> Option<f64> {
        match self {
            FlowSpec::Guaranteed { clock_rate_bps } => Some(*clock_rate_bps),
            _ => None,
        }
    }

    /// `true` if the flow has any real-time commitment.
    pub fn is_realtime(&self) -> bool {
        !matches!(self, FlowSpec::Datagram)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_predicates() {
        assert!(ServiceClass::Guaranteed.is_realtime());
        assert!(ServiceClass::Predicted { priority: 1 }.is_realtime());
        assert!(!ServiceClass::Datagram.is_realtime());
        assert_eq!(ServiceClass::Predicted { priority: 2 }.priority(), Some(2));
        assert_eq!(ServiceClass::Guaranteed.priority(), None);
    }

    #[test]
    fn guaranteed_spec_exposes_rate() {
        let s = FlowSpec::guaranteed(170_000.0);
        assert_eq!(s.clock_rate_bps(), Some(170_000.0));
        assert_eq!(s.bucket(), None);
        assert!(s.is_realtime());
    }

    #[test]
    fn predicted_spec_exposes_bucket() {
        let b = TokenBucketSpec::new(85_000.0, 50_000.0);
        let s = FlowSpec::predicted(b, SimTime::from_millis(10), 0.001);
        assert_eq!(s.bucket(), Some(b));
        assert_eq!(s.clock_rate_bps(), None);
        assert!(s.is_realtime());
    }

    #[test]
    fn datagram_spec_is_not_realtime() {
        assert!(!FlowSpec::Datagram.is_realtime());
        assert_eq!(FlowSpec::Datagram.bucket(), None);
    }

    #[test]
    #[should_panic]
    fn zero_clock_rate_rejected() {
        let _ = FlowSpec::guaranteed(0.0);
    }

    #[test]
    #[should_panic]
    fn silly_loss_rate_rejected() {
        let _ = FlowSpec::predicted(TokenBucketSpec::new(1.0, 1.0), SimTime::from_millis(1), 1.5);
    }
}
