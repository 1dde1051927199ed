//! Admission control and the per-hop reservation ledger: for each link a
//! flow holds, the guaranteed rate its controller and scheduler reserve
//! (`FlowState::held`, summed per link in `Port::held_bps`).  Setup,
//! renegotiation and release move them together, here alone, so a release
//! returns exactly what is held — whatever order the control messages
//! reached the link in — and only here is a rate refused for lack of room.

use ispn_core::admission::{AdmissionController, AdmissionDecision, RejectReason};
use ispn_core::{FlowId, FlowSpec};
use ispn_sched::QueueDiscipline;
use ispn_sim::SimTime;

use super::{NetEvent, Network};
use crate::topology::LinkId;

/// Per-link admission-control state: the Section-9 controller plus the
/// sampling bookkeeping that feeds it live utilization measurements.
pub(super) struct AdmissionState {
    pub(super) controller: AdmissionController,
    sample_interval: SimTime,
    last_sample: SimTime,
    last_rt_bits: u64,
}

impl Network {
    /// Put a link under measurement-based admission control.
    ///
    /// The controller is fed live from this point on: every transmitted
    /// predicted-class packet reports its per-hop queueing delay to d̂ⱼ, and
    /// every `sample_interval` the real-time throughput since the previous
    /// sample becomes one ν̂ utilization sample.
    pub fn enable_admission(
        &mut self,
        link: LinkId,
        controller: AdmissionController,
        sample_interval: SimTime,
    ) {
        assert!(
            sample_interval > SimTime::ZERO,
            "sampling needs a positive interval"
        );
        let port = &mut self.ports[link.index()];
        port.admission = Some(AdmissionState {
            controller,
            sample_interval,
            last_sample: self.now,
            last_rt_bits: self.monitor.link_realtime_bits_sent(link.index()),
        });
        let link = port.id;
        self.schedule(
            self.now + sample_interval,
            NetEvent::AdmissionSample { link },
        );
    }

    /// The admission controller of a link, if one was installed.
    pub fn admission(&self, link: LinkId) -> Option<&AdmissionController> {
        self.ports[link.index()]
            .admission
            .as_ref()
            .map(|a| &a.controller)
    }

    pub(super) fn on_admission_sample(&mut self, link: LinkId) {
        let rt_bits = self.monitor.link_realtime_bits_sent(link.index());
        let now = self.now;
        let port = &mut self.ports[link.index()];
        let Some(ad) = port.admission.as_mut() else {
            return;
        };
        let dt = now.saturating_sub(ad.last_sample).as_secs_f64();
        if dt > 0.0 {
            let bps = rt_bits.saturating_sub(ad.last_rt_bits) as f64 / dt;
            ad.controller.observe_utilization(now, bps);
        }
        ad.last_rt_bits = rt_bits;
        ad.last_sample = now;
        let next = now + ad.sample_interval;
        let link = port.id;
        self.schedule(next, NetEvent::AdmissionSample { link });
    }

    /// The links on which reservation state is currently installed for a
    /// flow (in installation order), each with the guaranteed rate held
    /// there (0 for predicted service).
    pub fn installed_links(
        &self,
        flow: FlowId,
    ) -> impl ExactSizeIterator<Item = (LinkId, f64)> + '_ {
        self.flows[flow.index()].held.iter().copied()
    }

    /// Σ of the guaranteed rates the flows hold on `link`.
    pub fn held_bps(&self, link: LinkId) -> f64 {
        self.ports[link.index()].held_bps
    }

    /// Structural size of the per-link reservation state in bytes: the
    /// admission-control records installed on ports plus the per-flow
    /// reservation entries the schedulers keep (GPS clock state, VirtualClock
    /// rates).  Same estimation rules as
    /// [`flow_table_bytes`](Network::flow_table_bytes).
    pub fn reservation_state_bytes(&self) -> u64 {
        (self.ports.iter().filter(|p| p.admission.is_some()).count()
            * std::mem::size_of::<AdmissionState>()) as u64
            + self
                .ports
                .iter()
                .map(|p| p.discipline.reservation_bytes())
                .sum::<u64>()
    }

    /// Ask one link to admit `flow` at the current simulated time, and on
    /// acceptance install the reservation state (admission-controller
    /// bookkeeping plus per-flow scheduler state for guaranteed flows): a
    /// [`renegotiate_on_link`](Network::renegotiate_on_link) to the flow's
    /// own spec.  Links without an admission controller accept everything
    /// — but still receive scheduler installs, so statically
    /// over-provisioned setups keep working.
    pub fn admit_flow_on_link(&mut self, flow: FlowId, link: LinkId) -> AdmissionDecision {
        let spec = self.flows[flow.index()].config.spec.clone();
        let decision = self.renegotiate_on_link(flow, link, &spec);
        if decision.is_accept() {
            self.telemetry.record_admission_accept();
        } else {
            self.telemetry.record_admission_reject();
        }
        decision
    }

    /// Release the reservation state `flow` holds on one link: the rate
    /// held there goes back to the controller and the scheduler forgets
    /// the flow.  Returns `false` if nothing was installed there.
    pub fn release_flow_on_link(&mut self, flow: FlowId, link: LinkId) -> bool {
        let f = &mut self.flows[flow.index()];
        let Some(at) = f.held.iter().position(|&(l, _)| l == link) else {
            return false;
        };
        let (_, held) = f.held.swap_remove(at);
        if held > 0.0 {
            let port = &mut self.ports[link.index()];
            if let Some(ad) = port.admission.as_mut() {
                ad.controller.release_guaranteed(held);
            }
            port.discipline.remove_flow(self.now, flow);
            port.held_bps -= held;
        }
        true
    }

    /// Re-run admission on one link for `flow`'s declaration `to`: a new
    /// token bucket for a predicted flow, a new clock rate for a guaranteed
    /// one.
    ///
    /// A new bucket faces the criterion a fresh request would; predicted
    /// service holds no rate, so nothing changes.  A clock-rate increase is
    /// reserved at once — the controller takes the difference from the rate
    /// held here, the link's capacity may still veto the new rate — and
    /// becomes what is held; a decrease always fits and waits for
    /// [`commit_renegotiation`](Network::commit_renegotiation), so a
    /// renegotiation refused further along never loses the old
    /// reservation.  A link that holds nothing for the flow yet reserves
    /// `to` from nothing and joins its installed links.
    pub fn renegotiate_on_link(
        &mut self,
        flow: FlowId,
        link: LinkId,
        to: &FlowSpec,
    ) -> AdmissionDecision {
        let f = &self.flows[flow.index()];
        let at = f.held.iter().position(|&(l, _)| l == link);
        let held = at.map_or(0.0, |at| f.held[at].1);
        let decision = self.reserve(flow, link, to, held);
        if decision.is_accept() {
            let f = &mut self.flows[flow.index()];
            let rate = to.clock_rate_bps().unwrap_or(0.0);
            match at {
                Some(at) => f.held[at].1 = held.max(rate),
                None => f.held.push((link, rate)),
            }
        }
        decision
    }

    /// Give back, on one link, what a renegotiation refused further along
    /// reserved there: the rate held comes back down to the one the flow's
    /// spec declares.  A no-op on a link the flow no longer holds — its
    /// rollback or teardown got there first and released it all.
    pub fn undo_renegotiation_on_link(&mut self, flow: FlowId, link: LinkId) {
        let f = &self.flows[flow.index()];
        let at = f.held.iter().position(|&(l, _)| l == link);
        if let (Some(at), Some(rate)) = (at, f.config.spec.clock_rate_bps()) {
            self.hold_at_most(flow, at, rate);
        }
    }

    /// A renegotiation cleared every hop: `flow`'s spec becomes `to`.  A
    /// predicted flow's edge policer switches to the new bucket; every link
    /// a guaranteed flow still holds above its new rate comes down to it.
    ///
    /// # Panics
    /// Panics if `to` declares another service than the flow's spec.
    pub fn commit_renegotiation(&mut self, flow: FlowId, to: &FlowSpec) {
        let now = self.now;
        let f = &mut self.flows[flow.index()];
        let same = std::mem::discriminant(&f.config.spec) == std::mem::discriminant(to);
        assert!(same, "cannot renegotiate {:?} to {to:?}", f.config.spec);
        f.config.spec = to.clone();
        if let (Some(bucket), Some((declared, _)), Some(policer)) = (
            to.bucket(),
            f.config.edge_policer.as_mut(),
            f.policer.as_mut(),
        ) {
            *declared = bucket;
            // Carry the current token level into the new profile — a fresh
            // (full) bucket would hand the flow a free burst of depth_bits
            // on every renegotiation.
            policer.reconfigure(now, bucket);
        }
        if let Some(rate) = to.clock_rate_bps() {
            for at in 0..f.held.len() {
                self.hold_at_most(flow, at, rate);
            }
        }
    }

    /// Reserve `to` for `flow` on `link`, which holds `held` for it now: the
    /// controller, if any, takes what `to` adds (its bucket, or the rate
    /// above `held`) and the scheduler the new rate.  A rate that would take
    /// the link's Σ held to its scheduler's guaranteed capacity is refused
    /// whatever the controller (or its absence) said — the flow would run
    /// with no isolation at all — and the controller gets its share back.
    fn reserve(
        &mut self,
        flow: FlowId,
        link: LinkId,
        to: &FlowSpec,
        held: f64,
    ) -> AdmissionDecision {
        let priority = self.flows[flow.index()].config.class.priority();
        let port = &mut self.ports[link.index()];
        let rate = match (to, port.admission.as_mut()) {
            (FlowSpec::Predicted { bucket, .. }, Some(ad)) => {
                return ad
                    .controller
                    .request_predicted(self.now, *bucket, priority.unwrap_or(0));
            }
            (&FlowSpec::Guaranteed { clock_rate_bps }, ad) if clock_rate_bps > held => {
                if let Some(ad) = ad {
                    let decision = ad.controller.request_guaranteed(clock_rate_bps - held);
                    if !decision.is_accept() {
                        return decision;
                    }
                }
                clock_rate_bps
            }
            _ => return AdmissionDecision::Accept,
        };
        let capacity = port.discipline.guaranteed_capacity_bps();
        if capacity.is_some_and(|mu| port.held_bps - held + rate >= mu) {
            if let Some(ad) = port.admission.as_mut() {
                ad.controller.release_guaranteed(rate - held);
            }
            return AdmissionDecision::Reject {
                reason: RejectReason::SchedulerRefused { rate_bps: rate },
            };
        }
        port.discipline.install_guaranteed(flow, rate);
        port.held_bps += rate - held;
        AdmissionDecision::Accept
    }

    /// Bring the rate `flow` holds on its `at`-th installed link down to
    /// `rate`, if it holds more: the controller gets the difference back
    /// and the scheduler narrows the flow's reservation, which always fits.
    fn hold_at_most(&mut self, flow: FlowId, at: usize, rate: f64) {
        let (link, held) = &mut self.flows[flow.index()].held[at];
        if *held > rate {
            let port = &mut self.ports[link.index()];
            if let Some(ad) = port.admission.as_mut() {
                ad.controller.release_guaranteed(*held - rate);
            }
            port.discipline.install_guaranteed(flow, rate);
            port.held_bps -= *held - rate;
            *held = rate;
        }
    }
}

/// This file's tests.  `network.rs` expands them into its `tests` module,
/// which the suite lists every `Network` test under, beside the fixtures
/// they share.
#[cfg(test)]
macro_rules! tests {
    () => {
        fn controller(rate: f64) -> AdmissionController {
            AdmissionController::new(
                AdmissionConfig::new(rate, 0.9, vec![SimTime::from_millis(100)]),
                10.0,
            )
        }

        #[test]
        fn per_link_admission_reserves_and_release_frees() {
            let (topo, _nodes, links) = Topology::chain(3, MBIT, SimTime::ZERO, 200);
            let mut net = Network::new(topo);
            for &l in &links {
                net.set_discipline(l, Unified::new(MBIT, 1, Averaging::RunningMean));
                net.enable_admission(l, controller(MBIT), SimTime::SECOND);
            }
            let flow = net.add_flow_inactive(FlowConfig::guaranteed(links.clone(), 400_000.0));
            for &l in &links {
                assert!(net.admit_flow_on_link(flow, l).is_accept(), "empty network");
            }
            net.set_flow_phase(flow, FlowPhase::Admitted);
            assert!(net.flow_active(flow));
            let held: Vec<_> = net.installed_links(flow).collect();
            assert_eq!(held, [(links[0], 400_000.0), (links[1], 400_000.0)]);
            for &l in &links {
                let ad = net.admission(l).unwrap();
                assert!((ad.reserved_guaranteed_bps() - 400_000.0).abs() < 1e-6);
                assert_eq!(ad.accepted(), 1);
            }
            for &l in &links {
                assert!(net.release_flow_on_link(flow, l));
            }
            net.set_flow_phase(flow, FlowPhase::Idle);
            assert!(!net.flow_active(flow));
            assert_eq!(net.installed_links(flow).next(), None);
            for &l in &links {
                assert_eq!(net.admission(l).unwrap().reserved_guaranteed_bps(), 0.0);
            }
        }

        #[test]
        fn admission_sampling_feeds_live_utilization() {
            let (mut net, link) = two_switch_net();
            net.enable_admission(link, controller(MBIT), SimTime::SECOND);
            let flow = net.add_flow(FlowConfig {
                route: vec![link],
                spec: FlowSpec::Datagram,
                class: ServiceClass::Predicted { priority: 0 },
                edge_policer: None,
                sink: None,
            });
            // 500 packets back to back: the link carries 500 kbit over 1 s.
            let times: Vec<SimTime> = (0..500).map(|_| SimTime::ZERO).collect();
            net.add_agent(Box::new(ScheduledSender::new(flow, times)));
            net.run_until(SimTime::from_secs(3));
            let ad = net.ports[link.index()].admission.as_mut().unwrap();
            let meas = ad.controller.measurement(SimTime::from_secs(3));
            // The windowed mean saw ≈500 kbit/s samples; with the 1.2 safety
            // factor the conservative estimate lands well above zero.
            assert!(
                meas.realtime_util_bps > 100_000.0,
                "ν̂ = {}",
                meas.realtime_util_bps
            );
            // Per-hop waiting times of the predicted class reached d̂ⱼ.
            assert!(meas.class_delay[0] > SimTime::ZERO);
        }

        #[test]
        fn installed_flow_grows_footprint_accounting() {
            // Satellite regression: flow_table_bytes must include the
            // schedulers' per-flow state and reservation_state_bytes the
            // per-flow reservation entries — before the fix both ignored the
            // ports entirely, so installing a guaranteed flow left
            // reservation_state_bytes unchanged.
            let (mut net, link) = two_switch_net();
            net.set_discipline(link, Wfq::new(MBIT, 100_000.0));
            let table_before = net.flow_table_bytes();
            let resv_before = net.reservation_state_bytes();
            let flow = net.add_flow_inactive(FlowConfig::guaranteed(vec![link], 300_000.0));
            assert!(net.admit_flow_on_link(flow, link).is_accept());
            assert!(
                net.flow_table_bytes() > table_before,
                "flow table footprint must grow when a flow is installed"
            );
            assert!(
                net.reservation_state_bytes() > resv_before,
                "reservation footprint must include the scheduler's per-flow entries"
            );
            // Releasing returns the scheduler's reservation entry.
            net.release_flow_on_link(flow, link);
            assert_eq!(net.reservation_state_bytes(), resv_before);
        }

        /// A guaranteed flow holding `rate` on both links of a Unified
        /// chain under admission control, and the reservation bytes the
        /// links took before it came.
        fn guaranteed_on_both(rate: f64) -> (Network, Vec<LinkId>, FlowId, u64) {
            let (topo, _nodes, links) = Topology::chain(3, MBIT, SimTime::ZERO, 200);
            let mut net = Network::new(topo);
            for &l in &links {
                net.set_discipline(l, Unified::new(MBIT, 1, Averaging::RunningMean));
                net.enable_admission(l, controller(MBIT), SimTime::SECOND);
            }
            let empty = net.reservation_state_bytes();
            let flow = net.add_flow_inactive(FlowConfig::guaranteed(links.clone(), rate));
            for &l in &links {
                assert!(net.admit_flow_on_link(flow, l).is_accept());
            }
            (net, links, flow, empty)
        }

        fn reserved(net: &Network, link: LinkId) -> f64 {
            net.admission(link).unwrap().reserved_guaranteed_bps()
        }

        #[test]
        fn a_link_releases_the_rate_it_holds_after_a_renegotiated_increase() {
            let (mut net, links, flow, empty) = guaranteed_on_both(200_000.0);
            let up = FlowSpec::guaranteed(300_000.0);
            assert!(net.renegotiate_on_link(flow, links[0], &up).is_accept());
            assert_eq!(
                (reserved(&net, links[0]), reserved(&net, links[1])),
                (300_000.0, 200_000.0)
            );
            // Torn down before the commit: each link gives back what it holds.
            for &l in &links {
                assert!(net.release_flow_on_link(flow, l));
                assert_eq!(reserved(&net, l), 0.0);
            }
            assert_eq!(net.reservation_state_bytes(), empty);
        }

        #[test]
        fn undo_and_commit_touch_only_the_links_a_flow_still_holds() {
            let (mut net, links, flow, empty) = guaranteed_on_both(200_000.0);
            let up = FlowSpec::guaranteed(250_000.0);
            assert!(net.renegotiate_on_link(flow, links[0], &up).is_accept());
            // A rollback releases link 0 ahead of the renegotiation's undo.
            assert!(net.release_flow_on_link(flow, links[0]));
            net.undo_renegotiation_on_link(flow, links[0]);
            assert_eq!(reserved(&net, links[0]), 0.0);
            // A decrease committed now narrows link 1 alone.
            net.commit_renegotiation(flow, &FlowSpec::guaranteed(150_000.0));
            assert_eq!(
                (reserved(&net, links[0]), reserved(&net, links[1])),
                (0.0, 150_000.0)
            );
            assert_eq!(net.flow_config(flow).spec.clock_rate_bps(), Some(150_000.0));
            assert!(net.release_flow_on_link(flow, links[1]));
            assert_eq!(reserved(&net, links[1]), 0.0);
            assert_eq!(net.reservation_state_bytes(), empty);
        }
    };
}
#[cfg(test)]
pub(super) use tests;
