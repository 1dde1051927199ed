//! The vocabulary of the signaling protocol: the events the engine reports
//! back to its driver, and why it refuses a renegotiation at once.

use ispn_core::admission::RejectReason;
use ispn_core::FlowId;
use ispn_net::LinkId;
pub use ispn_net::RequestId;
use ispn_sim::SimTime;

/// Why a renegotiation was refused at once, with no control message sent:
/// a flow renegotiates only once admitted, one request at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// No admitted flow holds the id: it was never minted or is free, the
    /// flow's setup is in flight or was refused, or it was provisioned
    /// without signalling.
    NotAdmitted,
    /// The flow already has a renegotiation in flight.
    Busy,
    /// The flow's teardown has begun.
    TearingDown,
    /// A bucket for a flow that is not predicted-service, or a clock rate
    /// for one that is not guaranteed-service or that is not positive
    /// and finite.
    BadRequest,
}

impl std::fmt::Display for Refusal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Refusal::NotAdmitted => "no admitted flow holds this id",
            Refusal::Busy => "a renegotiation of the flow is already in flight",
            Refusal::TearingDown => "the flow is being torn down",
            Refusal::BadRequest => "the flow's service cannot take this declaration",
        })
    }
}

impl std::error::Error for Refusal {}

/// A completed signaling transaction, reported by
/// [`Signaling::process_until`](crate::Signaling::process_until) in event
/// order (and therefore deterministically for a given seed).
#[derive(Debug, Clone, PartialEq)]
pub enum SignalEvent {
    /// Every hop admitted the setup; the flow is now active.
    Accepted {
        /// The setup transaction.
        request: RequestId,
        /// The admitted flow.
        flow: FlowId,
        /// When the confirmation reached the destination.
        at: SimTime,
    },
    /// A hop refused the setup; all upstream reservations were (or are
    /// being) rolled back and the flow stays inactive.
    Rejected {
        /// The setup transaction.
        request: RequestId,
        /// The flow id that had been allocated to the request.
        flow: FlowId,
        /// Index of the refusing hop along the route.
        hop: usize,
        /// The link whose controller refused.
        link: LinkId,
        /// The failed admission criterion, typed; its `Display` is the
        /// sentence the controller would have logged.
        reason: RejectReason,
        /// When the refusing hop made its decision.
        at: SimTime,
    },
    /// A teardown finished: the release message has visited every hop.
    TornDown {
        /// The flow whose reservations are gone.
        flow: FlowId,
        /// When the last hop released its state.
        at: SimTime,
    },
    /// A renegotiation succeeded on every hop; the flow's spec (and edge
    /// policer, for predicted flows) now reflects the new parameters.
    Renegotiated {
        /// The renegotiation transaction.
        request: RequestId,
        /// The renegotiated flow.
        flow: FlowId,
        /// When the change committed.
        at: SimTime,
    },
    /// A hop refused the renegotiation; the previous parameters remain in
    /// force on every hop.
    RenegotiationRejected {
        /// The renegotiation transaction.
        request: RequestId,
        /// The flow that keeps its old service.
        flow: FlowId,
        /// Index of the refusing hop along the route.
        hop: usize,
        /// The failed admission criterion, typed; its `Display` is the
        /// sentence the controller would have logged.
        reason: RejectReason,
        /// When the refusing hop made its decision.
        at: SimTime,
    },
}

impl SignalEvent {
    /// When the event happened.
    pub fn at(&self) -> SimTime {
        match self {
            SignalEvent::Accepted { at, .. }
            | SignalEvent::Rejected { at, .. }
            | SignalEvent::TornDown { at, .. }
            | SignalEvent::Renegotiated { at, .. }
            | SignalEvent::RenegotiationRejected { at, .. } => *at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Completed transactions are buffered by the thousand in a churn run;
    /// a typed reason keeps the largest variant (`Rejected`) at ten words,
    /// where a `String` reason cost a heap allocation on top.
    #[test]
    fn a_signal_event_is_at_most_eighty_bytes() {
        assert!(std::mem::size_of::<SignalEvent>() <= 80);
    }
}
