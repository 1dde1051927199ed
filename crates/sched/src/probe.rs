//! The counters a switch keeps beside each output port's discipline:
//! enqueues and dequeues per service class and the peak queue depth.
//! `ispn-net` bumps them where it enqueues and dequeues, which is how
//! per-link telemetry reaches `ScenarioReport` without any discipline
//! knowing about counters.

use ispn_core::ServiceClass;
use ispn_telemetry::{
    Counter, HighWater, PerClass, CLASS_DATAGRAM, CLASS_GUARANTEED, CLASS_PREDICTED,
};

/// The telemetry bucket a service class is counted under (predicted
/// priorities are pooled — the per-priority split already lives in the
/// measurement `Monitor`).
pub fn class_bucket(class: ServiceClass) -> usize {
    match class {
        ServiceClass::Guaranteed => CLASS_GUARANTEED,
        ServiceClass::Predicted { .. } => CLASS_PREDICTED,
        ServiceClass::Datagram => CLASS_DATAGRAM,
    }
}

/// The counters of one output port.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeStats {
    /// Packets accepted into the queue, per class bucket.
    pub enqueued: PerClass<Counter>,
    /// Packets handed back for transmission, per class bucket.
    pub dequeued: PerClass<Counter>,
    /// The deepest the queue ever was (in packets).
    pub depth_high_water: HighWater,
}
