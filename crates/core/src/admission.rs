//! Admission control (Section 9).
//!
//! The paper gives two criteria for deciding whether to admit another flow
//! on a link of speed μ:
//!
//! 1. reserve no more than 90 % of the bandwidth for real-time traffic so
//!    that datagram service "remains operational at all times", and
//! 2. adding the flow must not push any predicted class's delay over its
//!    target bound Dᵢ.
//!
//! The example criterion: a flow promising token bucket `(r, b)` can be
//! admitted to priority level `i` if
//!
//! * `r + ν̂ < 0.9·μ`, and
//! * `b < (Dⱼ − d̂ⱼ)(μ − ν̂ − r)` for every class `j` lower than or equal in
//!   priority to `i`,
//!
//! where ν̂ is the *measured* post-facto bound on real-time utilization and
//! d̂ⱼ the *measured* maximal delay of class `j` — both taken as
//! "consistently conservative estimates" rather than averages.  Guaranteed
//! flows count as higher priority than every predicted class for check (2),
//! and their own admission is the worst-case rate check.

use std::num::Saturating;

use ispn_sim::SimTime;
use ispn_stats::{WindowedMax, WindowedMean};

use crate::token_bucket::TokenBucketSpec;

/// Which criterion refused a request, with the numbers it compared.
///
/// A refusal is made on every hop of every blocked setup and is usually only
/// counted, so the reason is a `Copy` value that costs nothing to produce;
/// the text is rendered by [`Display`](std::fmt::Display) when (and only
/// when) someone prints it.  That text is, character for character, the
/// sentence the controller used to `format!` into a `String` at decision
/// time — logs, examples and tests that match on it read the same — while
/// code that wants the numbers matches on the variant instead of parsing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RejectReason {
    /// The worst-case guaranteed check: `reserved_bps + requested_bps`
    /// would exceed `quota_bps` (the real-time quota × link speed).
    GuaranteedQuota {
        /// Σ guaranteed clock rates already reserved on the link.
        reserved_bps: f64,
        /// The clock rate (or renegotiated increase) asked for.
        requested_bps: f64,
        /// The real-time quota of the link in bits per second.
        quota_bps: f64,
    },
    /// The request named a predicted priority the link has no class for.
    UnknownPriority {
        /// The priority asked for.
        priority: u8,
        /// How many predicted classes the link is configured with.
        classes: usize,
    },
    /// Criterion 1 failed: `rate_bps + util_bps ≥ quota_bps`.
    RateCheck {
        /// The declared token rate `r`.
        rate_bps: f64,
        /// The measured real-time utilization ν̂.
        util_bps: f64,
        /// The real-time quota of the link in bits per second.
        quota_bps: f64,
    },
    /// Criterion 2 failed before any burst was considered: class `class`
    /// is measured at (or over) its delay target, `Dⱼ − d̂ⱼ ≤ 0`.
    ClassAtTarget {
        /// The class `j` with no headroom left.
        class: usize,
        /// Its measured maximal delay d̂ⱼ.
        measured: SimTime,
        /// Its delay target Dⱼ.
        target: SimTime,
    },
    /// Criterion 2 failed: `depth_bits ≥ headroom_secs × capacity_bps`
    /// for class `class`.
    BurstCheck {
        /// The class `j` whose bound the burst would break.
        class: usize,
        /// The declared bucket depth `b`.
        depth_bits: f64,
        /// The delay headroom `Dⱼ − d̂ⱼ` in seconds.
        headroom_secs: f64,
        /// The capacity headroom `μ − ν̂ − r` in bits per second.
        capacity_bps: f64,
    },
    /// The controller (if any) agreed, but `rate_bps` would take the link's
    /// Σ held to its scheduler's guaranteed capacity (the network ledger's
    /// check, made before anything is installed).
    SchedulerRefused {
        /// The guaranteed clock rate the flow asked to hold.
        rate_bps: f64,
    },
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            RejectReason::GuaranteedQuota {
                reserved_bps,
                requested_bps,
                quota_bps,
            } => write!(
                f,
                "guaranteed reservation {reserved_bps:.0} + requested {requested_bps:.0} bps \
                 exceeds quota {quota_bps:.0} bps"
            ),
            RejectReason::UnknownPriority { priority, classes } => write!(
                f,
                "priority {priority} does not exist (only {classes} classes configured)"
            ),
            RejectReason::RateCheck {
                rate_bps,
                util_bps,
                quota_bps,
            } => write!(
                f,
                "rate check failed: r + ν̂ = {rate_bps:.0} + {util_bps:.0} ≥ {quota_bps:.0} bps \
                 (quota)"
            ),
            RejectReason::ClassAtTarget {
                class,
                measured,
                target,
            } => write!(
                f,
                "class {class} already at its delay target \
                 ({measured} measured vs {target} target)"
            ),
            RejectReason::BurstCheck {
                class,
                depth_bits,
                headroom_secs,
                capacity_bps,
            } => write!(
                f,
                "burst check failed for class {class}: b = {depth_bits:.0} bits ≥ \
                 ({headroom_secs:.4} s)({capacity_bps:.0} bps)"
            ),
            RejectReason::SchedulerRefused { rate_bps } => write!(
                f,
                "scheduler refused guaranteed rate {rate_bps:.0} bps \
                 (per-flow reservations exhausted)"
            ),
        }
    }
}

/// Result of an admission request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmissionDecision {
    /// The flow may be admitted.
    Accept,
    /// The flow must be refused, with the failed criterion spelled out.
    Reject {
        /// Which criterion failed and the numbers it compared.
        reason: RejectReason,
    },
}

impl AdmissionDecision {
    /// `true` if the decision is `Accept`.
    pub fn is_accept(&self) -> bool {
        matches!(self, AdmissionDecision::Accept)
    }
}

/// A snapshot of the measured state of one link, as used by the
/// measurement-based criterion.
#[derive(Debug, Clone)]
pub struct LinkMeasurement {
    /// Measured real-time utilization ν̂ in bits per second (a conservative,
    /// post-facto bound — not an average).
    pub realtime_util_bps: f64,
    /// Measured maximal queueing delay d̂ⱼ per predicted class, indexed by
    /// priority (0 = highest).
    pub class_delay: Vec<SimTime>,
}

/// Static configuration of the admission controller for one link.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Link speed μ in bits per second.
    pub link_rate_bps: f64,
    /// Fraction of the link that real-time traffic may occupy (the paper
    /// suggests 0.9, leaving ≥10 % for datagram service).
    pub realtime_quota: f64,
    /// The widely-spaced per-class delay targets Dᵢ at this switch, indexed
    /// by priority (0 = highest priority, smallest target).
    pub class_targets: Vec<SimTime>,
}

impl AdmissionConfig {
    /// Create a configuration; the quota must be in (0, 1].
    pub fn new(link_rate_bps: f64, realtime_quota: f64, class_targets: Vec<SimTime>) -> Self {
        assert!(link_rate_bps > 0.0);
        assert!(realtime_quota > 0.0 && realtime_quota <= 1.0);
        AdmissionConfig {
            link_rate_bps,
            realtime_quota,
            class_targets,
        }
    }
}

/// The admission controller for one link: holds the configuration, the sum
/// of guaranteed clock rates already reserved, and the measurement machinery
/// that produces ν̂ and d̂ⱼ.
#[derive(Debug)]
pub struct AdmissionController {
    config: AdmissionConfig,
    /// Sum of clock rates of guaranteed flows currently reserved.
    reserved_guaranteed_bps: f64,
    /// Windowed mean of measured real-time throughput (bits/s samples).
    util_estimate: WindowedMean,
    /// Safety factor applied to the measured utilization to keep it
    /// conservative (ν̂ = factor × windowed mean, floored by reservations).
    util_safety_factor: f64,
    /// Windowed maximum of per-class queueing delays (seconds), one per
    /// priority level.
    delay_estimates: Vec<WindowedMax>,
    /// Decision counters; saturating, like every counter of a run.
    accepted: Saturating<u64>,
    rejected: Saturating<u64>,
}

impl AdmissionController {
    /// Create a controller with the given measurement window (seconds).
    pub fn new(config: AdmissionConfig, measurement_window_secs: f64) -> Self {
        let delay_estimates = config
            .class_targets
            .iter()
            .map(|_| WindowedMax::new(measurement_window_secs))
            .collect();
        AdmissionController {
            config,
            reserved_guaranteed_bps: 0.0,
            util_estimate: WindowedMean::new(measurement_window_secs),
            util_safety_factor: 1.2,
            delay_estimates,
            accepted: Saturating(0),
            rejected: Saturating(0),
        }
    }

    /// Access the static configuration.
    pub fn config(&self) -> &AdmissionConfig {
        &self.config
    }

    /// Set the multiplicative safety factor applied to measured utilization
    /// (default 1.2; larger is more conservative).
    pub fn set_util_safety_factor(&mut self, f: f64) {
        assert!(f >= 1.0, "a safety factor below 1 is not conservative");
        self.util_safety_factor = f;
    }

    /// Feed one measured sample of real-time throughput on the link
    /// (bits per second averaged over the monitor's sampling interval).
    pub fn observe_utilization(&mut self, now: SimTime, realtime_bps: f64) {
        self.util_estimate.record(now.as_secs_f64(), realtime_bps);
    }

    /// Feed one measured per-packet queueing delay for a predicted class.
    pub fn observe_class_delay(&mut self, now: SimTime, priority: u8, delay: SimTime) {
        if let Some(w) = self.delay_estimates.get_mut(priority as usize) {
            w.record(now.as_secs_f64(), delay.as_secs_f64());
        }
    }

    /// The current conservative measurement snapshot — the inspectable
    /// form of what [`request_predicted`](Self::request_predicted) reads.
    ///
    /// If no utilization samples have been observed recently the estimate
    /// falls back to the sum of guaranteed reservations (the only traffic we
    /// can be sure about); measured delays default to zero.
    pub fn measurement(&mut self, now: SimTime) -> LinkMeasurement {
        let t = now.as_secs_f64();
        let realtime_util_bps = self.realtime_util_bps(t);
        let class_delay = self
            .delay_estimates
            .iter_mut()
            .map(|w| SimTime::from_secs_f64(w.current(t, 0.0)))
            .collect();
        LinkMeasurement {
            realtime_util_bps,
            class_delay,
        }
    }

    /// ν̂ at time `t` (seconds): the windowed mean times the safety factor,
    /// floored by the guaranteed reservations.
    fn realtime_util_bps(&mut self, t: f64) -> f64 {
        let measured = self.util_estimate.current(t, 0.0) * self.util_safety_factor;
        measured.max(self.reserved_guaranteed_bps)
    }

    /// Number of requests accepted so far.
    pub fn accepted(&self) -> u64 {
        self.accepted.0
    }

    /// Number of requests rejected so far.
    pub fn rejected(&self) -> u64 {
        self.rejected.0
    }

    /// Sum of clock rates currently reserved by guaranteed flows.
    pub fn reserved_guaranteed_bps(&self) -> f64 {
        self.reserved_guaranteed_bps
    }

    /// Request admission of a guaranteed flow with clock rate `rate_bps`.
    ///
    /// Guaranteed admission is a worst-case check: the sum of all guaranteed
    /// clock rates (including the newcomer) must stay within the real-time
    /// quota of the link so that datagram traffic keeps its share and the
    /// Parekh–Gallager conditions hold.
    pub fn request_guaranteed(&mut self, rate_bps: f64) -> AdmissionDecision {
        assert!(rate_bps > 0.0);
        let quota = self.config.realtime_quota * self.config.link_rate_bps;
        if self.reserved_guaranteed_bps + rate_bps <= quota + 1e-9 {
            self.reserved_guaranteed_bps += rate_bps;
            self.accepted += 1;
            AdmissionDecision::Accept
        } else {
            self.rejected += 1;
            AdmissionDecision::Reject {
                reason: RejectReason::GuaranteedQuota {
                    reserved_bps: self.reserved_guaranteed_bps,
                    requested_bps: rate_bps,
                    quota_bps: quota,
                },
            }
        }
    }

    /// Release a previously admitted guaranteed reservation.
    pub fn release_guaranteed(&mut self, rate_bps: f64) {
        self.reserved_guaranteed_bps = (self.reserved_guaranteed_bps - rate_bps).max(0.0);
    }

    /// Request admission of a predicted flow declaring token bucket `bucket`
    /// at priority `priority`, using the Section 9 example criterion against
    /// the current measurements.
    ///
    /// No [`LinkMeasurement`] is built: the criterion reads ν̂ and each d̂ⱼ
    /// straight from the controller's windows — the same reads, in the same
    /// order and with the same rounding as [`measurement`](Self::measurement),
    /// which remains the way to *look at* what a decision saw — so a
    /// decision allocates nothing.
    pub fn request_predicted(
        &mut self,
        now: SimTime,
        bucket: TokenBucketSpec,
        priority: u8,
    ) -> AdmissionDecision {
        let t = now.as_secs_f64();
        let nu = self.realtime_util_bps(t);
        let estimates = &mut self.delay_estimates;
        let class_delay = |j: usize| SimTime::from_secs_f64(estimates[j].current(t, 0.0));
        let decision = section9(&self.config, nu, class_delay, bucket, priority);
        match decision {
            AdmissionDecision::Accept => self.accepted += 1,
            AdmissionDecision::Reject { .. } => self.rejected += 1,
        }
        decision
    }
}

/// The pure Section-9 criterion, usable without the stateful controller
/// (e.g. in tests or in a centralized reservation agent).
pub fn admit_predicted(
    config: &AdmissionConfig,
    meas: &LinkMeasurement,
    bucket: TokenBucketSpec,
    priority: u8,
) -> AdmissionDecision {
    let class_delay = |j: usize| meas.class_delay.get(j).copied().unwrap_or(SimTime::ZERO);
    section9(
        config,
        meas.realtime_util_bps,
        class_delay,
        bucket,
        priority,
    )
}

/// The Section-9 criterion over ν̂ = `nu` and d̂ⱼ = `class_delay(j)`.
///
/// `class_delay` is called once for every configured class, in priority
/// order, whatever the verdict: reading a controller's window also expires
/// its old samples, and a decision must leave every window as a full
/// [`AdmissionController::measurement`] would.
fn section9(
    config: &AdmissionConfig,
    nu: f64,
    mut class_delay: impl FnMut(usize) -> SimTime,
    bucket: TokenBucketSpec,
    priority: u8,
) -> AdmissionDecision {
    let mu = config.link_rate_bps;
    let r = bucket.rate_bps;
    let b = bucket.depth_bits;
    let classes = config.class_targets.len();

    // Criterion 1: r + ν̂ < quota · μ
    let quota = config.realtime_quota * mu;
    let mut refused = if priority as usize >= classes {
        Some(RejectReason::UnknownPriority { priority, classes })
    } else if r + nu >= quota {
        Some(RejectReason::RateCheck {
            rate_bps: r,
            util_bps: nu,
            quota_bps: quota,
        })
    } else {
        None
    };

    // Criterion 2: b < (Dⱼ − d̂ⱼ)(μ − ν̂ − r) for every class j at or below
    // priority i (larger j = lower priority); strictly higher-priority
    // classes are unaffected.
    for (j, &target) in config.class_targets.iter().enumerate() {
        let d_hat = class_delay(j).as_secs_f64();
        if refused.is_some() || j < priority as usize {
            continue;
        }
        let headroom_secs = target.as_secs_f64() - d_hat;
        let capacity_headroom = mu - nu - r;
        if headroom_secs <= 0.0 {
            refused = Some(RejectReason::ClassAtTarget {
                class: j,
                measured: SimTime::from_secs_f64(d_hat),
                target,
            });
        } else if capacity_headroom <= 0.0 || b >= headroom_secs * capacity_headroom {
            refused = Some(RejectReason::BurstCheck {
                class: j,
                depth_bits: b,
                headroom_secs,
                capacity_bps: capacity_headroom,
            });
        }
    }

    match refused {
        Some(reason) => AdmissionDecision::Reject { reason },
        None => AdmissionDecision::Accept,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINK: f64 = 1_000_000.0;

    fn config() -> AdmissionConfig {
        AdmissionConfig::new(
            LINK,
            0.9,
            vec![SimTime::from_millis(10), SimTime::from_millis(100)],
        )
    }

    fn idle_measurement() -> LinkMeasurement {
        LinkMeasurement {
            realtime_util_bps: 0.0,
            class_delay: vec![SimTime::ZERO, SimTime::ZERO],
        }
    }

    /// The text of a refusal, through the public decision functions.
    fn refusal(d: AdmissionDecision) -> String {
        match d {
            AdmissionDecision::Reject { reason } => reason.to_string(),
            AdmissionDecision::Accept => panic!("expected a refusal"),
        }
    }

    #[test]
    fn empty_link_accepts_reasonable_flow() {
        let bucket = TokenBucketSpec::per_packets(85.0, 5.0, 1000);
        let d = admit_predicted(&config(), &idle_measurement(), bucket, 0);
        assert!(d.is_accept());
    }

    #[test]
    fn rate_check_rejects_when_quota_exceeded() {
        let mut meas = idle_measurement();
        meas.realtime_util_bps = 850_000.0;
        let bucket = TokenBucketSpec::new(100_000.0, 5_000.0);
        let d = admit_predicted(&config(), &meas, bucket, 0);
        assert!(refusal(d).contains("rate check"));
    }

    #[test]
    fn burst_check_rejects_when_class_near_target() {
        let mut meas = idle_measurement();
        // Low-priority class is measured at 99 ms against a 100 ms target:
        // only 1 ms of headroom, so a 50-packet burst cannot fit.
        meas.class_delay[1] = SimTime::from_millis(99);
        let bucket = TokenBucketSpec::per_packets(85.0, 50.0, 1000);
        let d = admit_predicted(&config(), &meas, bucket, 0);
        assert!(!d.is_accept());
    }

    #[test]
    fn higher_priority_classes_are_not_checked() {
        let mut meas = idle_measurement();
        // The *high* priority class is saturated, but we are asking for the
        // low-priority class, so only class 1's headroom matters.
        meas.class_delay[0] = SimTime::from_millis(10);
        let bucket = TokenBucketSpec::per_packets(10.0, 5.0, 1000);
        let d = admit_predicted(&config(), &meas, bucket, 1);
        assert!(d.is_accept(), "{d:?}");
    }

    #[test]
    fn unknown_priority_rejected() {
        let bucket = TokenBucketSpec::new(1000.0, 1000.0);
        let d = admit_predicted(&config(), &idle_measurement(), bucket, 7);
        assert!(!d.is_accept());
    }

    #[test]
    fn guaranteed_reservations_respect_quota() {
        let mut ac = AdmissionController::new(config(), 30.0);
        // 0.9 Mbit/s quota: five 170 kbit/s reservations fit (850k), a sixth
        // does not.
        for _ in 0..5 {
            assert!(ac.request_guaranteed(170_000.0).is_accept());
        }
        assert!(!ac.request_guaranteed(170_000.0).is_accept());
        assert_eq!(ac.accepted(), 5);
        assert_eq!(ac.rejected(), 1);
        ac.release_guaranteed(170_000.0);
        assert!(ac.request_guaranteed(100_000.0).is_accept());
        assert!((ac.reserved_guaranteed_bps() - 780_000.0).abs() < 1e-6);
    }

    #[test]
    fn controller_uses_measurements() {
        let mut ac = AdmissionController::new(config(), 10.0);
        let bucket = TokenBucketSpec::per_packets(85.0, 5.0, 1000);
        // With no load measured, the flow is accepted.
        assert!(ac
            .request_predicted(SimTime::from_secs(1), bucket, 0)
            .is_accept());
        // Saturate the measured utilization: now it must be rejected.
        for s in 0..10 {
            ac.observe_utilization(SimTime::from_secs(s), 900_000.0);
        }
        assert!(!ac
            .request_predicted(SimTime::from_secs(10), bucket, 0)
            .is_accept());
        // After a long quiet period the window empties and the measured
        // utilization falls back to the guaranteed reservations (zero here),
        // so admission succeeds again.
        assert!(ac
            .request_predicted(SimTime::from_secs(100), bucket, 0)
            .is_accept());
    }

    #[test]
    fn controller_tracks_class_delays() {
        let mut ac = AdmissionController::new(config(), 10.0);
        ac.observe_class_delay(SimTime::from_secs(1), 1, SimTime::from_millis(99));
        let bucket = TokenBucketSpec::per_packets(85.0, 50.0, 1000);
        let d = ac.request_predicted(SimTime::from_secs(2), bucket, 1);
        assert!(!d.is_accept());
        let meas = ac.measurement(SimTime::from_secs(2));
        assert_eq!(meas.class_delay[1], SimTime::from_millis(99));
    }

    #[test]
    fn safety_factor_must_be_conservative() {
        let mut ac = AdmissionController::new(config(), 10.0);
        ac.set_util_safety_factor(2.0);
        ac.observe_utilization(SimTime::from_secs(1), 500_000.0);
        // 2 × 500k = 1 Mbit/s measured: nothing fits any more.
        let bucket = TokenBucketSpec::per_packets(10.0, 2.0, 1000);
        assert!(!ac
            .request_predicted(SimTime::from_secs(1), bucket, 0)
            .is_accept());
    }

    #[test]
    #[should_panic]
    fn non_conservative_safety_factor_panics() {
        let mut ac = AdmissionController::new(config(), 10.0);
        ac.set_util_safety_factor(0.5);
    }

    // ----- edge cases of the Section-9 criterion -------------------------

    #[test]
    fn rate_check_is_strict_at_the_exact_quota_boundary() {
        // r + ν̂ == 0.9·μ exactly: the paper's criterion is a strict
        // inequality, so the flow on the boundary is refused.
        let mut meas = idle_measurement();
        meas.realtime_util_bps = 800_000.0;
        let boundary = TokenBucketSpec::new(100_000.0, 1_000.0);
        let d = admit_predicted(&config(), &meas, boundary, 0);
        assert!(!d.is_accept(), "{d:?}");
        // One bit per second under the boundary passes the rate check (and
        // the tiny burst passes the burst check).
        let under = TokenBucketSpec::new(99_999.0, 1_000.0);
        assert!(admit_predicted(&config(), &meas, under, 0).is_accept());
    }

    #[test]
    fn zero_headroom_class_rejects_everything() {
        // (Dⱼ − d̂ⱼ) == 0: class 1 is measured exactly at its target, so no
        // burst — however small — can be squeezed in at priority ≤ 1.
        let mut meas = idle_measurement();
        meas.class_delay[1] = SimTime::from_millis(100);
        let tiny = TokenBucketSpec::new(1_000.0, 1.0);
        let reason = refusal(admit_predicted(&config(), &meas, tiny, 1));
        assert!(reason.contains("delay target"), "{reason}");
        // The same holds when the measured delay *exceeds* the target.
        meas.class_delay[1] = SimTime::from_millis(150);
        assert!(!admit_predicted(&config(), &meas, tiny, 1).is_accept());
        // A high-priority request is also caught: class 1 is at or below
        // priority 0 in the ordering, so its exhausted headroom vetoes the
        // newcomer that would add load above it.
        assert!(!admit_predicted(&config(), &meas, tiny, 0).is_accept());
    }

    #[test]
    fn empty_class_delay_measurement_defaults_to_zero() {
        // A controller that has never observed a delay sample reports an
        // empty/zero measurement vector; the criterion must treat missing
        // classes as unloaded rather than panic or reject.
        let meas = LinkMeasurement {
            realtime_util_bps: 0.0,
            class_delay: Vec::new(),
        };
        let bucket = TokenBucketSpec::per_packets(85.0, 5.0, 1000);
        assert!(admit_predicted(&config(), &meas, bucket, 0).is_accept());
        assert!(admit_predicted(&config(), &meas, bucket, 1).is_accept());
    }

    #[test]
    fn guaranteed_worst_case_check_at_the_exact_boundary() {
        // Guaranteed admission is a worst-case rate check against the
        // quota; filling it exactly is allowed, one more bit/s is not.
        let mut ac = AdmissionController::new(config(), 10.0);
        assert!(ac.request_guaranteed(900_000.0).is_accept());
        assert!((ac.reserved_guaranteed_bps() - 900_000.0).abs() < 1e-9);
        let d = ac.request_guaranteed(1.0);
        assert!(!d.is_accept(), "{d:?}");
        // A failed request must not leak into the reserved sum.
        assert!((ac.reserved_guaranteed_bps() - 900_000.0).abs() < 1e-9);
        // Releasing frees the quota again.
        ac.release_guaranteed(900_000.0);
        assert_eq!(ac.reserved_guaranteed_bps(), 0.0);
        assert!(ac.request_guaranteed(900_000.0).is_accept());
    }

    #[test]
    fn release_never_underflows_below_zero() {
        let mut ac = AdmissionController::new(config(), 10.0);
        assert!(ac.request_guaranteed(100_000.0).is_accept());
        ac.release_guaranteed(500_000.0);
        assert_eq!(ac.reserved_guaranteed_bps(), 0.0);
    }

    #[test]
    fn guaranteed_reservations_floor_the_utilization_estimate() {
        // With no recent utilization samples, ν̂ falls back to the sum of
        // guaranteed reservations — so guaranteed load admitted but not yet
        // transmitting still counts against predicted admission.
        let mut ac = AdmissionController::new(config(), 10.0);
        assert!(ac.request_guaranteed(880_000.0).is_accept());
        let bucket = TokenBucketSpec::new(50_000.0, 1_000.0);
        let d = ac.request_predicted(SimTime::from_secs(1), bucket, 0);
        assert!(!d.is_accept(), "{d:?}");
    }

    /// Each variant renders, character for character, the sentence the
    /// controller `format!`ted into a `String` before reasons were typed
    /// (precisions and the `ν̂`/`≥` glyphs included): logs and tests that
    /// match on the text must not notice the change.
    #[test]
    fn reject_reasons_render_the_sentences_the_controller_used_to_format() {
        let mut ac = AdmissionController::new(config(), 30.0);
        assert!(ac.request_guaranteed(800_000.0).is_accept());
        assert_eq!(
            refusal(ac.request_guaranteed(200_000.4)),
            "guaranteed reservation 800000 + requested 200000 bps exceeds quota 900000 bps"
        );

        let bucket = TokenBucketSpec::new(85_000.0, 50_000.0);
        assert_eq!(
            refusal(admit_predicted(&config(), &idle_measurement(), bucket, 5)),
            "priority 5 does not exist (only 2 classes configured)"
        );

        let mut meas = idle_measurement();
        meas.realtime_util_bps = 850_000.6;
        assert_eq!(
            refusal(admit_predicted(&config(), &meas, bucket, 0)),
            "rate check failed: r + ν̂ = 85000 + 850001 ≥ 900000 bps (quota)"
        );

        let mut meas = idle_measurement();
        meas.class_delay[1] = SimTime::from_micros(100_250);
        assert_eq!(
            refusal(admit_predicted(&config(), &meas, bucket, 1)),
            "class 1 already at its delay target (0.100250s measured vs 0.100000s target)"
        );

        let mut meas = idle_measurement();
        meas.realtime_util_bps = 300_000.0;
        meas.class_delay[0] = SimTime::from_micros(8_700);
        assert_eq!(
            refusal(admit_predicted(&config(), &meas, bucket, 0)),
            "burst check failed for class 0: b = 50000 bits ≥ (0.0013 s)(615000 bps)"
        );

        assert_eq!(
            RejectReason::SchedulerRefused { rate_bps: 1e6 }.to_string(),
            "scheduler refused guaranteed rate 1000000 bps (per-flow reservations exhausted)"
        );
    }

    /// A refusal is produced on every hop of every blocked setup and
    /// carried in every `Rejected` event: it must stay a few words.
    #[test]
    fn a_reject_reason_is_at_most_forty_bytes() {
        assert!(std::mem::size_of::<RejectReason>() <= 40);
        assert!(std::mem::size_of::<AdmissionDecision>() <= 40);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Whatever the measurements, an accepted flow satisfies the paper's
        /// two inequalities when re-checked directly.
        #[test]
        fn accept_implies_inequalities(
            nu in 0.0f64..1_000_000.0,
            d0 in 0.0f64..0.02,
            d1 in 0.0f64..0.2,
            r in 1_000.0f64..500_000.0,
            b in 1_000.0f64..100_000.0,
            pri in 0u8..2,
        ) {
            let config = AdmissionConfig::new(
                1_000_000.0,
                0.9,
                vec![SimTime::from_millis(10), SimTime::from_millis(100)],
            );
            let meas = LinkMeasurement {
                realtime_util_bps: nu,
                class_delay: vec![SimTime::from_secs_f64(d0), SimTime::from_secs_f64(d1)],
            };
            let bucket = TokenBucketSpec::new(r, b);
            if admit_predicted(&config, &meas, bucket, pri).is_accept() {
                prop_assert!(r + nu < 0.9 * 1_000_000.0);
                for (j, target) in [(0usize, 0.010f64), (1, 0.100)] {
                    if j >= pri as usize {
                        let d_hat = meas.class_delay[j].as_secs_f64();
                        prop_assert!(b < (target - d_hat) * (1_000_000.0 - nu - r) + 1e-6);
                    }
                }
            }
        }

        /// `request_predicted` builds no snapshot, yet decides exactly what
        /// the criterion decides on `measurement()` — reason and numbers
        /// included — and leaves the windows as that snapshot would, so a
        /// twin controller driven through the snapshot stays in step
        /// request after request.
        #[test]
        fn request_predicted_decides_what_its_snapshot_would(
            steps in proptest::collection::vec(
                (
                    (0.0f64..4.0, 0.0f64..1_200_000.0),
                    (0.0f64..0.15, 0u8..3),
                    (1_000.0f64..400_000.0, 1_000.0f64..80_000.0),
                ),
                1..40,
            ),
        ) {
            let config = AdmissionConfig::new(
                1_000_000.0,
                0.9,
                vec![SimTime::from_millis(10), SimTime::from_millis(100)],
            );
            let mut direct = AdmissionController::new(config.clone(), 5.0);
            let mut twin = AdmissionController::new(config.clone(), 5.0);
            let mut now = SimTime::ZERO;
            for ((gap, util), (delay, pri), (r, b)) in steps {
                now += SimTime::from_secs_f64(gap);
                for ac in [&mut direct, &mut twin] {
                    ac.observe_utilization(now, util);
                    ac.observe_class_delay(now, pri % 2, SimTime::from_secs_f64(delay));
                }
                let bucket = TokenBucketSpec::new(r, b);
                let meas = twin.measurement(now);
                prop_assert_eq!(
                    direct.request_predicted(now, bucket, pri),
                    admit_predicted(&config, &meas, bucket, pri)
                );
            }
            let (direct, twin) = (direct.measurement(now), twin.measurement(now));
            prop_assert_eq!(direct.realtime_util_bps, twin.realtime_util_bps);
            prop_assert_eq!(direct.class_delay, twin.class_delay);
        }
    }
}
