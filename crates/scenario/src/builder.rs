//! The scenario builder: topology + disciplines + workload + admission in,
//! a ready-to-run [`Sim`] out.

use ispn_core::admission::{AdmissionConfig, AdmissionController, AdmissionDecision};
use ispn_net::{LinkId, Network};
use ispn_traffic::{CbrSource, OnOffSource, PoissonSource, TraceSource};
use ispn_transport::install_tcp;

use crate::discipline::{DisciplineMatrix, DisciplineSpec};
use crate::error::BuildError;
use crate::sim::Sim;
use crate::topology::{BuiltTopology, LinkProfile, TopologySpec};
use crate::workload::{
    AdmissionSpec, ChurnClass, FlowDef, RouteSpec, ServiceSpec, SourceSpec, TcpDef, WorkloadSpec,
};

/// Which links an [`AdmissionSpec`] applies to.
#[derive(Debug, Clone)]
enum AdmissionTarget {
    All,
    Links(Vec<LinkId>),
}

/// Assembles a scenario declaratively.  See the crate docs for a complete
/// example.
pub struct ScenarioBuilder {
    topology: TopologySpec,
    profile: LinkProfile,
    disciplines: DisciplineMatrix,
    flows: Vec<FlowDef>,
    tcps: Vec<TcpDef>,
    admission: Vec<(AdmissionTarget, AdmissionSpec)>,
    workload: WorkloadSpec,
}

impl ScenarioBuilder {
    /// Start from a topology spec.
    pub fn new(topology: TopologySpec) -> Self {
        ScenarioBuilder {
            topology,
            profile: LinkProfile::default(),
            disciplines: DisciplineMatrix::default(),
            flows: Vec::new(),
            tcps: Vec::new(),
            admission: Vec::new(),
            workload: WorkloadSpec::Static,
        }
    }

    /// A simplex chain of `nodes` switches.
    pub fn chain(nodes: usize) -> Self {
        ScenarioBuilder::new(TopologySpec::chain(nodes))
    }

    /// A `rows × cols` duplex grid mesh.
    pub fn mesh(rows: usize, cols: usize) -> Self {
        ScenarioBuilder::new(TopologySpec::mesh(rows, cols))
    }

    /// Set the link parameters every preset link is built with.
    pub fn link_profile(mut self, profile: LinkProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Install the same discipline on every link.
    pub fn discipline(mut self, spec: DisciplineSpec) -> Self {
        self.disciplines = DisciplineMatrix::global(spec);
        self
    }

    /// Install a full per-link discipline matrix.
    pub fn disciplines(mut self, matrix: DisciplineMatrix) -> Self {
        self.disciplines = matrix;
        self
    }

    /// Declare a flow.
    pub fn flow(mut self, def: FlowDef) -> Self {
        self.flows.push(def);
        self
    }

    /// Declare several flows at once.
    pub fn flows(mut self, defs: impl IntoIterator<Item = FlowDef>) -> Self {
        self.flows.extend(defs);
        self
    }

    /// Declare a greedy TCP connection.
    pub fn tcp(mut self, def: TcpDef) -> Self {
        self.tcps.push(def);
        self
    }

    /// Put every link under measurement-based admission control.
    pub fn admission(mut self, spec: AdmissionSpec) -> Self {
        self.admission.push((AdmissionTarget::All, spec));
        self
    }

    /// Put specific links under measurement-based admission control.
    pub fn admission_on(mut self, links: Vec<LinkId>, spec: AdmissionSpec) -> Self {
        self.admission.push((AdmissionTarget::Links(links), spec));
        self
    }

    /// Attach a dynamic workload process (e.g.
    /// [`WorkloadSpec::Churn`]) on top of the declared flows.
    pub fn workload(mut self, spec: WorkloadSpec) -> Self {
        self.workload = spec;
        self
    }

    fn resolve_route(
        built: &BuiltTopology,
        route: &RouteSpec,
        flow: usize,
    ) -> Result<Vec<LinkId>, BuildError> {
        let links = match route {
            RouteSpec::Links(links) => links.clone(),
            RouteSpec::Span { first, hops } => {
                built
                    .span(*first, *hops)
                    .ok_or(BuildError::SpanOutOfRange {
                        flow,
                        first: *first,
                        hops: *hops,
                        available: built.forward.len(),
                    })?
            }
            RouteSpec::ReverseSpan { first, hops } => {
                built
                    .reverse_span(*first, *hops)
                    .ok_or(BuildError::SpanOutOfRange {
                        flow,
                        first: *first,
                        hops: *hops,
                        available: built.reverse.len(),
                    })?
            }
            RouteSpec::Path { from, to } => built.route(*from, *to).ok_or(BuildError::NoPath {
                flow,
                from: *from,
                to: *to,
            })?,
        };
        if links.is_empty() {
            return Err(BuildError::EmptyRoute { flow });
        }
        if !built.topology.validate_route(&links) {
            return Err(BuildError::InvalidRoute { flow });
        }
        Ok(links)
    }

    /// Build the network, wire the workload and return the run-ready
    /// simulation facade.
    ///
    /// Construction order is fixed (flows, then disciplines, then sources,
    /// then transports, then admission, then the declared guaranteed
    /// flows' reservations) so that identical declarations always produce
    /// identical simulations — flow ids, agent ids and event-queue seeding
    /// included.  Each declared guaranteed flow reserves its clock rate hop
    /// by hop through the network's ledger, as a signalled setup does, so
    /// the admission controllers count it and a teardown gives it back; a
    /// link that refuses it is [`BuildError::BadFlow`].
    pub fn build(self) -> Result<Sim, BuildError> {
        // Numbers first: the constructors below assert what these check.
        for (flow, def) in self.flows.iter().enumerate() {
            def.validate()
                .map_err(|reason| BuildError::BadFlow { flow, reason })?;
        }
        let built = self.topology.build(&self.profile)?;

        // Resolve every route first so errors surface before any wiring.
        let mut routes = Vec::with_capacity(self.flows.len());
        for (i, def) in self.flows.iter().enumerate() {
            routes.push(Self::resolve_route(&built, &def.route, i)?);
        }
        let mut tcp_routes = Vec::with_capacity(self.tcps.len());
        for (i, def) in self.tcps.iter().enumerate() {
            let idx = self.flows.len() + i;
            tcp_routes.push((
                Self::resolve_route(&built, &def.forward, idx)?,
                Self::resolve_route(&built, &def.reverse, idx)?,
            ));
        }

        let mut net = Network::new(built.topology.clone());

        // 1. Register the declared flows (ids 0..n in declaration order).
        let mut flow_ids = Vec::with_capacity(self.flows.len());
        for (def, route) in self.flows.iter().zip(&routes) {
            flow_ids.push(net.add_flow(def.service.flow_config(route.clone())));
        }

        // 2. Instantiate the discipline matrix, per link, with the workload
        //    context each recipe needs.
        for link_idx in 0..built.topology.num_links() {
            let link = LinkId(link_idx);
            let spec = self.disciplines.spec_for(link);
            let crossing: Vec<usize> = routes
                .iter()
                .enumerate()
                .filter(|(_, r)| r.contains(&link))
                .map(|(i, _)| i)
                .collect();
            // A priority level the link lacks would be served in its
            // lowest predicted one; the other disciplines have no levels,
            // and to them a predicted class is bookkeeping only.
            let classes = match spec {
                DisciplineSpec::Unified {
                    priority_classes, ..
                } => priority_classes,
                DisciplineSpec::StrictPriority { classes } => classes,
                _ => usize::MAX,
            };
            for &flow in &crossing {
                let (ServiceSpec::Predicted { priority, .. }
                | ServiceSpec::RealtimeBestEffort { priority }) = self.flows[flow].service
                else {
                    continue;
                };
                if usize::from(priority) >= classes {
                    return Err(BuildError::BadFlow {
                        flow,
                        reason: format!(
                            "predicted priority {priority} on link {link_idx}, which has \
                             {classes} predicted classes"
                        ),
                    });
                }
            }
            // Churn arrivals request spans of the forward links.
            let churn_classes = match &self.workload {
                WorkloadSpec::Churn(churn) if built.forward.contains(&link) => &churn.classes[..],
                _ => &[],
            };
            let too_high = |c: &ChurnClass| usize::from(c.priority) >= classes;
            if let Some(class) = churn_classes.iter().position(too_high) {
                let priority = churn_classes[class].priority;
                return Err(BuildError::BadWorkload {
                    reason: format!(
                        "churn class {class}'s predicted priority {priority} on link {link_idx}, \
                         which has {classes} predicted classes"
                    ),
                });
            }
            let params = built.topology.link(link);
            net.set_discipline(link, spec.build(params, crossing.len(), &[]));
        }

        // 3. Attach the traffic sources (agent ids follow flow declaration
        //    order).
        for (def, &flow) in self.flows.iter().zip(&flow_ids) {
            match &def.source {
                SourceSpec::None => {}
                SourceSpec::OnOff(config) => {
                    net.add_agent(Box::new(OnOffSource::new(flow, config.clone())));
                }
                SourceSpec::Cbr {
                    rate_pps,
                    packet_bits,
                } => {
                    net.add_agent(Box::new(CbrSource::new(flow, *rate_pps, *packet_bits)));
                }
                SourceSpec::Poisson {
                    rate_pps,
                    packet_bits,
                    seed,
                } => {
                    net.add_agent(Box::new(PoissonSource::new(
                        flow,
                        *rate_pps,
                        *packet_bits,
                        *seed,
                    )));
                }
                SourceSpec::Trace { schedule } => {
                    net.add_agent(Box::new(TraceSource::new(flow, schedule.clone())));
                }
            }
        }

        // 4. Install the transports.
        let mut tcp = Vec::with_capacity(self.tcps.len());
        for (def, (forward, reverse)) in self.tcps.iter().zip(tcp_routes) {
            tcp.push(install_tcp(&mut net, forward, reverse, def.config.clone()));
        }

        // 5. Enable admission control.
        for (target, spec) in &self.admission {
            let links: Vec<LinkId> = match target {
                AdmissionTarget::All => (0..built.topology.num_links()).map(LinkId).collect(),
                AdmissionTarget::Links(links) => links.clone(),
            };
            for link in links {
                let params = built.topology.link(link);
                let mut controller = AdmissionController::new(
                    AdmissionConfig::new(
                        params.rate_bps,
                        spec.realtime_quota,
                        spec.class_targets.clone(),
                    ),
                    spec.measurement_window_secs,
                );
                if let Some(factor) = spec.util_safety_factor {
                    controller.set_util_safety_factor(factor);
                }
                net.enable_admission(link, controller, spec.sample_interval);
            }
        }

        // 6. Reserve the declared guaranteed flows through the ledger.
        for (i, (&flow, route)) in flow_ids.iter().zip(&routes).enumerate() {
            let spec = net.flow_config(flow).spec.clone();
            if spec.clock_rate_bps().is_none() {
                continue;
            }
            for &link in route {
                if let AdmissionDecision::Reject { reason } =
                    net.renegotiate_on_link(flow, link, &spec)
                {
                    return Err(BuildError::BadFlow {
                        flow: i,
                        reason: format!("link {} refused its clock rate: {reason}", link.0),
                    });
                }
            }
        }

        let mut sim = Sim::from_parts(net, flow_ids, tcp, built);

        // 7. Attach the dynamic workload.
        if let WorkloadSpec::Churn(churn) = self.workload {
            churn
                .validate()
                .map_err(|reason| BuildError::BadWorkload { reason })?;
            // Churn arrivals request uniformly random spans of the
            // preset's forward links, so those links must form one
            // contiguous path: on a mesh the forward set is not a path and
            // a multi-hop request would be invalid.
            if !sim.built().topology.validate_route(&sim.built().forward) {
                return Err(BuildError::BadWorkload {
                    reason: "a churn workload needs a chain topology (its arrivals \
                             span contiguous forward links); this preset's forward \
                             links do not form one path"
                        .to_string(),
                });
            }
            sim.install_churn(churn);
        }

        Ok(sim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::MeasurementPlan;
    use crate::workload::{ServiceSpec, SourceSpec};
    use ispn_core::admission::RejectReason;
    use ispn_net::FlowConfig;
    use ispn_net::NodeId;
    use ispn_signal::SignalEvent;
    use ispn_sim::SimTime;

    #[test]
    fn minimal_scenario_runs_and_reports() {
        let mut sim = ScenarioBuilder::chain(2)
            .discipline(DisciplineSpec::Wfq)
            .flow(FlowDef::best_effort_realtime(0, 1).source(SourceSpec::cbr(100.0, 1000)))
            .build()
            .expect("valid scenario");
        sim.run_until(SimTime::from_secs(5));
        let report = sim.report(&Default::default());
        assert_eq!(report.flows.len(), 1);
        assert!(report.flows[0].delivered > 450);
        assert!(report.links[0].utilization > 0.05);
        assert_eq!(report.signaling.decisions, Vec::<bool>::new());
    }

    #[test]
    fn route_errors_surface_before_wiring() {
        let err = ScenarioBuilder::chain(3)
            .flow(FlowDef::datagram(1, 5))
            .build()
            .unwrap_err();
        assert!(matches!(err, BuildError::SpanOutOfRange { .. }));

        let err = ScenarioBuilder::chain(3)
            .flow(FlowDef::new(
                RouteSpec::Path {
                    from: NodeId(2),
                    to: NodeId(0),
                },
                ServiceSpec::Datagram,
            ))
            .build()
            .unwrap_err();
        assert!(matches!(err, BuildError::NoPath { .. }), "{err}");

        let err = ScenarioBuilder::chain(3)
            .flow(FlowDef::new(
                RouteSpec::Links(Vec::new()),
                ServiceSpec::Datagram,
            ))
            .build()
            .unwrap_err();
        assert!(matches!(err, BuildError::EmptyRoute { .. }));
    }

    /// A route that revisits a switch is contiguous, so it used to pass
    /// the builder and panic when the network registered the flow; a link
    /// the topology lacks, behind a real one, panicked in the contiguity
    /// check itself.
    #[test]
    fn looping_routes_are_build_errors_not_panics() {
        // chain_duplex(3): forward L0 (0→1), L1 (1→2); reverse L2 (1→0).
        let looping = || RouteSpec::Links(vec![LinkId(0), LinkId(2), LinkId(0)]);
        for route in [looping(), RouteSpec::Links(vec![LinkId(0), LinkId(99)])] {
            let err = ScenarioBuilder::new(TopologySpec::chain_duplex(3))
                .flow(FlowDef::new(route, ServiceSpec::Datagram))
                .build()
                .expect_err("a looping or unknown route built");
            assert_eq!(err, BuildError::InvalidRoute { flow: 0 });
        }
        // TCP connections count after the plain flows, either direction.
        for (forward, reverse) in [
            (looping(), RouteSpec::ReverseSpan { first: 0, hops: 1 }),
            (RouteSpec::Span { first: 0, hops: 1 }, looping()),
        ] {
            let err = ScenarioBuilder::new(TopologySpec::chain_duplex(3))
                .flow(FlowDef::datagram(0, 1))
                .tcp(TcpDef {
                    forward,
                    reverse,
                    config: Default::default(),
                })
                .build()
                .expect_err("a looping TCP route built");
            assert_eq!(err, BuildError::InvalidRoute { flow: 1 });
        }
        // Out and back feeds each switch once, and stays buildable.
        let out_and_back = RouteSpec::Links(vec![LinkId(0), LinkId(2)]);
        assert!(ScenarioBuilder::new(TopologySpec::chain_duplex(3))
            .flow(FlowDef::new(out_and_back, ServiceSpec::Datagram))
            .build()
            .is_ok());
    }

    #[test]
    fn unbuildable_link_profiles_are_errors_not_panics() {
        // `Topology::add_link` panicked on each of these.
        for (rate_bps, buffer_packets) in [(0.0, 200), (-1e6, 200), (f64::NAN, 200), (1e6, 0)] {
            let propagation = SimTime::ZERO;
            let profile = LinkProfile {
                rate_bps,
                propagation,
                buffer_packets,
            };
            let built = ScenarioBuilder::chain(2).link_profile(profile).build();
            let err = built.unwrap_err();
            assert!(matches!(err, BuildError::BadTopology { .. }), "{err}");
        }
    }

    #[test]
    fn guaranteed_flows_are_installed_into_the_unified_scheduler() {
        let mut sim = ScenarioBuilder::chain(2)
            .discipline(DisciplineSpec::Unified {
                priority_classes: 2,
                averaging: ispn_sched::Averaging::RunningMean,
            })
            .flow(FlowDef::guaranteed(0, 1, 200_000.0).source(SourceSpec::cbr(50.0, 1000)))
            .build()
            .unwrap();
        assert_eq!(sim.network().discipline_name(LinkId(0)), "Unified");
        sim.run_until(SimTime::from_secs(2));
        let r = sim.report(&MeasurementPlan::default());
        assert!(r.flows[0].delivered > 80);
    }

    #[test]
    fn per_link_matrix_overrides_apply() {
        let matrix = DisciplineMatrix::global(DisciplineSpec::Fifo)
            .with_links(&[LinkId(1)], DisciplineSpec::Wfq);
        let sim = ScenarioBuilder::chain(3)
            .disciplines(matrix)
            .flow(FlowDef::datagram(0, 2))
            .build()
            .unwrap();
        assert_eq!(sim.network().discipline_name(LinkId(0)), "FIFO");
        assert_eq!(sim.network().discipline_name(LinkId(1)), "WFQ");
    }

    #[test]
    fn per_class_aggregation_pools_flows_and_histograms() {
        let mut sim = ScenarioBuilder::chain(2)
            .discipline(DisciplineSpec::Unified {
                priority_classes: 2,
                averaging: ispn_sched::Averaging::RunningMean,
            })
            .flow(FlowDef::guaranteed(0, 1, 150_000.0).source(SourceSpec::cbr(50.0, 1000)))
            .flow(FlowDef::guaranteed(0, 1, 150_000.0).source(SourceSpec::cbr(50.0, 1000)))
            .flow(FlowDef::best_effort_realtime(0, 1).source(SourceSpec::poisson(100.0, 1000, 7)))
            .flow(FlowDef::datagram(0, 1).source(SourceSpec::cbr(30.0, 1000)))
            .build()
            .unwrap();
        sim.run_until(SimTime::from_secs(5));
        let r = sim.report(&MeasurementPlan::default());
        // Deterministic class order: guaranteed, predicted-0, datagram.
        let labels: Vec<&str> = r.classes.iter().map(|c| c.class.as_str()).collect();
        assert_eq!(labels, vec!["guaranteed", "predicted-0", "datagram"]);
        assert_eq!(r.classes[0].flows, 2, "both guaranteed flows pooled");
        // The pooled class counts equal the sum of the per-flow counts.
        let guaranteed_delivered: u64 = r.flows[0].delivered + r.flows[1].delivered;
        assert_eq!(r.classes[0].delivered, guaranteed_delivered);
        // Quantiles come back median first and are monotone.
        let qs = &r.classes[0].quantiles;
        assert_eq!(qs.len(), 4);
        assert!(qs.windows(2).all(|w| w[0].1 <= w[1].1 + 1e-12));
        // Every class still carries the histogram key, with nothing in it.
        let json = r.to_json();
        assert_eq!(json.matches("\"histogram\":null").count(), 3, "{json}");
        // The discipline group covers the single link.
        assert_eq!(r.disciplines.len(), 1);
        assert_eq!(r.disciplines[0].discipline, "Unified");
        assert_eq!(r.disciplines[0].links, 1);
    }

    /// `SourceSpec::cbr(f64::INFINITY, 1000)` used to build and then hang
    /// `run_until` (its 0 ns gap re-armed the source at one instant
    /// forever, as any rate above 2·10⁹ did), and a zero, negative or NaN
    /// rate panicked in `CbrSource::new` inside `build`.
    #[test]
    fn source_numbers_a_run_cannot_use_are_build_errors() {
        let sources = [
            SourceSpec::cbr(f64::INFINITY, 1000),
            SourceSpec::cbr(3e9, 1000),
            SourceSpec::cbr(0.0, 1000),
            SourceSpec::cbr(-1.0, 1000),
            SourceSpec::cbr(f64::NAN, 1000),
            SourceSpec::cbr(100.0, 0),
            SourceSpec::poisson(f64::NAN, 1000, 1),
            SourceSpec::OnOff(ispn_traffic::OnOffConfig {
                peak_rate_pps: 50.0,
                ..ispn_traffic::OnOffConfig::paper(85.0, 1)
            }),
            SourceSpec::OnOff(ispn_traffic::OnOffConfig {
                policer: Some(ispn_core::TokenBucketSpec {
                    rate_bps: 0.0,
                    depth_bits: 50_000.0,
                }),
                ..ispn_traffic::OnOffConfig::paper(85.0, 1)
            }),
            SourceSpec::Trace {
                schedule: vec![(SimTime::from_millis(2), 1000), (SimTime::ZERO, 1000)],
            },
        ];
        for source in sources {
            let built = ScenarioBuilder::chain(2)
                .flow(FlowDef::datagram(0, 1))
                .flow(FlowDef::datagram(0, 1).source(source.clone()))
                .build();
            let err = built.err().unwrap_or_else(|| panic!("{source:?} built"));
            assert!(matches!(err, BuildError::BadFlow { flow: 1, .. }), "{err}");
        }
    }

    /// A guaranteed clock rate of 0, −1 or NaN panicked in
    /// `FlowSpec::guaranteed` inside `build`; +∞ built and ran.
    #[test]
    fn guaranteed_clock_rates_must_be_positive_and_finite() {
        for rate in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = ScenarioBuilder::chain(2)
                .discipline(DisciplineSpec::Wfq)
                .flow(FlowDef::guaranteed(0, 1, rate).source(SourceSpec::cbr(50.0, 1000)))
                .build()
                .err()
                .unwrap_or_else(|| panic!("clock rate {rate} built"));
            assert!(matches!(err, BuildError::BadFlow { flow: 0, .. }), "{err}");
            assert!(err.to_string().contains("clock rate"), "{err}");
        }
    }

    /// A predicted priority the route's `Unified` or `StrictPriority`
    /// link has no class for used to build, and the link silently served
    /// it in its lowest predicted class.
    #[test]
    fn predicted_priorities_beyond_the_link_classes_are_build_errors() {
        let predicted = |priority| ServiceSpec::Predicted {
            priority,
            bucket: ispn_core::TokenBucketSpec::per_packets(85.0, 50.0, 1000),
            target_delay: SimTime::from_millis(100),
            loss_rate: 0.001,
            police: ispn_net::PoliceAction::Drop,
        };
        let disciplines = [
            DisciplineSpec::StrictPriority { classes: 2 },
            DisciplineSpec::Unified {
                priority_classes: 2,
                averaging: ispn_sched::Averaging::RunningMean,
            },
        ];
        for spec in disciplines {
            // The second link alone carries the discipline with classes.
            let matrix =
                DisciplineMatrix::global(DisciplineSpec::Fifo).with_links(&[LinkId(1)], spec);
            let build = |service: ServiceSpec| {
                ScenarioBuilder::chain(3)
                    .disciplines(matrix.clone())
                    .flow(FlowDef::datagram(0, 2))
                    .flow(FlowDef::new(RouteSpec::Span { first: 0, hops: 2 }, service))
                    .build()
            };
            for service in [
                predicted(1),
                ServiceSpec::RealtimeBestEffort { priority: 1 },
            ] {
                assert!(build(service).is_ok(), "{spec:?}");
            }
            for service in [
                predicted(2),
                predicted(u8::MAX),
                ServiceSpec::RealtimeBestEffort { priority: 2 },
            ] {
                let err = build(service).expect_err("priority beyond the classes built");
                assert!(matches!(err, BuildError::BadFlow { flow: 1, .. }), "{err}");
                assert!(err.to_string().contains("link 1"), "{err}");
            }
            // A route that avoids the link with classes is not its business.
            let first_link_only = ScenarioBuilder::chain(3)
                .disciplines(matrix)
                .flow(FlowDef::new(
                    RouteSpec::Span { first: 0, hops: 1 },
                    predicted(2),
                ))
                .build();
            assert!(first_link_only.is_ok());
        }
    }

    /// A churn class's priority used to pass the builder whatever the
    /// links' class count: a link without admission control then served
    /// it in its lowest predicted level, and admission-controlled links
    /// refused every request at setup as `UnknownPriority`.
    #[test]
    fn churn_priorities_beyond_the_link_classes_are_build_errors() {
        use crate::workload::{ChurnSourceSpec, ChurnWorkload};
        let class = |priority| ChurnClass {
            priority,
            bucket: ispn_core::TokenBucketSpec::per_packets(85.0, 50.0, 1000),
            per_hop_target: SimTime::from_millis(30),
            loss_rate: 0.001,
            police: ispn_net::PoliceAction::Drop,
        };
        let churn = |priorities: &[u8]| {
            WorkloadSpec::Churn(ChurnWorkload {
                arrivals_per_sec: 1.0,
                mean_holding_secs: 5.0,
                seed: 1,
                guaranteed_fraction: 0.5,
                guaranteed_rate_bps: 100_000.0,
                classes: priorities.iter().map(|&p| class(p)).collect(),
                source: ChurnSourceSpec {
                    avg_rate_pps: 85.0,
                    seed_base: 1,
                },
            })
        };
        let disciplines = [
            DisciplineSpec::StrictPriority { classes: 2 },
            DisciplineSpec::Unified {
                priority_classes: 2,
                averaging: ispn_sched::Averaging::RunningMean,
            },
        ];
        for spec in disciplines {
            // chain_duplex(3): forward links 0 and 1, reverse 2 and 3.
            let build = |links: &[LinkId], priorities: &[u8]| {
                let matrix = DisciplineMatrix::global(DisciplineSpec::Fifo).with_links(links, spec);
                ScenarioBuilder::new(TopologySpec::chain_duplex(3))
                    .disciplines(matrix)
                    .workload(churn(priorities))
                    .build()
            };
            assert!(build(&[LinkId(0), LinkId(1)], &[0, 1]).is_ok(), "{spec:?}");
            for priorities in [&[0, 2][..], &[u8::MAX, 0]] {
                let err = build(&[LinkId(1)], priorities).expect_err("priority beyond the classes");
                assert!(matches!(err, BuildError::BadWorkload { .. }), "{err}");
                let class = priorities.iter().position(|&p| p >= 2).unwrap();
                let named = format!("churn class {class}'s predicted priority");
                assert!(err.to_string().contains(&named), "{err}");
                assert!(err.to_string().contains("link 1"), "{err}");
            }
            // Churn requests only the forward links.
            assert!(build(&[LinkId(2), LinkId(3)], &[0, 2]).is_ok(), "{spec:?}");
        }
    }

    /// One scenario drawn from `seed`: one to three flows on a two- or
    /// three-switch duplex chain, every number drawn half the time from a
    /// hostile palette (NaN, ±∞, zero, negative, tiny, huge) and half the
    /// time from a workable value; one route in eight loops back through
    /// its first switch.  Half the link profiles and half the on/off start
    /// offsets sit within 2¹⁰ ns of the end of time.
    fn hostile_scenario(seed: u64) -> ScenarioBuilder {
        use ispn_core::TokenBucketSpec;
        use ispn_traffic::OnOffConfig;
        const HOSTILE: [f64; 10] = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -1.0,
            5e-324,
            1e-300,
            3e9,
            1e300,
            f64::MAX,
        ];
        let mut rng = proptest::TestRng::new(seed);
        let mut number = |workable: f64| match rng.below(2 * HOSTILE.len() as u64) as usize {
            i if i < HOSTILE.len() => HOSTILE[i],
            _ => workable,
        };
        let mut rng = proptest::TestRng::new(seed ^ 0x5EED);
        let mut below = |n: u64| rng.below(n);
        let size = |i: u64| [0, 1, 1000, 12_000, u64::MAX][i as usize];
        let end_of_time = |below_max: u64| SimTime::MAX - SimTime::from_nanos(below_max);
        let nodes = 2 + below(2) as usize;
        let discipline = [
            DisciplineSpec::Fifo,
            DisciplineSpec::FifoPlus(ispn_sched::Averaging::RunningMean),
            DisciplineSpec::Wfq,
            DisciplineSpec::VirtualClock,
            DisciplineSpec::Unified {
                priority_classes: 2,
                averaging: ispn_sched::Averaging::RunningMean,
            },
        ][below(5) as usize];
        let mut builder = ScenarioBuilder::new(TopologySpec::chain_duplex(nodes))
            .link_profile(LinkProfile {
                rate_bps: number(1e6),
                propagation: match below(4) {
                    0 | 1 => SimTime::from_micros(below(2) * 500),
                    2 => end_of_time(below(1 << 10)),
                    _ => SimTime::MAX,
                },
                buffer_packets: [1, 200][below(2) as usize],
            })
            .discipline(discipline);
        for _ in 0..1 + below(3) {
            let hops = 1 + below(nodes as u64 - 1) as usize;
            // Out, back and out again: contiguous, but switch 0 feeds twice.
            let route = match below(8) {
                0 => RouteSpec::Links(vec![LinkId(0), LinkId(nodes - 1), LinkId(0)]),
                _ => RouteSpec::Span { first: 0, hops },
            };
            let service = match below(4) {
                0 => ServiceSpec::Datagram,
                1 => ServiceSpec::RealtimeBestEffort {
                    priority: below(2) as u8,
                },
                2 => ServiceSpec::Predicted {
                    priority: below(2) as u8,
                    bucket: TokenBucketSpec {
                        rate_bps: number(85_000.0),
                        depth_bits: number(50_000.0),
                    },
                    target_delay: SimTime::from_millis(100),
                    loss_rate: number(0.001),
                    police: ispn_net::PoliceAction::Drop,
                },
                _ => ServiceSpec::Guaranteed {
                    clock_rate_bps: number(170_000.0),
                },
            };
            let source = match below(5) {
                0 => SourceSpec::None,
                1 => SourceSpec::cbr(number(85.0), size(below(5))),
                2 => SourceSpec::poisson(number(85.0), size(below(5)), below(1 << 20)),
                3 => SourceSpec::OnOff(OnOffConfig {
                    avg_rate_pps: number(85.0),
                    peak_rate_pps: number(170.0),
                    mean_burst_pkts: number(5.0),
                    packet_bits: size(below(5)),
                    policer: (below(2) == 0).then(|| TokenBucketSpec {
                        rate_bps: number(85_000.0),
                        depth_bits: number(50_000.0),
                    }),
                    start_offset: match below(2) {
                        0 => SimTime::from_micros(below(1000)),
                        _ => end_of_time(below(1 << 10)),
                    },
                    seed: below(1 << 20),
                }),
                _ => SourceSpec::Trace {
                    schedule: (0..below(4))
                        .map(|_| (SimTime::from_millis(below(60)), size(below(5))))
                        .collect(),
                },
            };
            builder = builder.flow(FlowDef::new(route, service).source(source));
        }
        builder
    }

    /// `build` turns every drawn number into a scenario or a typed error —
    /// never a panic — and every scenario it accepts runs 50 simulated
    /// milliseconds on a thread that finishes within ten seconds.
    #[test]
    fn build_never_panics_and_what_it_accepts_runs() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::mpsc;
        use std::time::Duration;
        let mut accepted = 0;
        for seed in 0..10_000u64 {
            let (done, finished) = mpsc::channel();
            let worker = std::thread::spawn(move || {
                let built = catch_unwind(AssertUnwindSafe(|| hostile_scenario(seed).build()));
                let ok = match built {
                    Err(_) => Err("build panicked"),
                    Ok(Err(_)) => Ok(false),
                    Ok(Ok(mut sim)) => {
                        sim.run_until(SimTime::from_millis(50));
                        Ok(true)
                    }
                };
                let _ = done.send(ok);
            });
            match finished.recv_timeout(Duration::from_secs(10)) {
                Ok(Ok(ran)) => accepted += usize::from(ran),
                Ok(Err(why)) => panic!("seed {seed}: {why}"),
                Err(mpsc::RecvTimeoutError::Timeout) => panic!("seed {seed}: the run hung"),
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    panic!("seed {seed}: the run panicked")
                }
            }
            worker
                .join()
                .expect("the case thread reported before it ended");
        }
        // The palette must leave enough scenarios standing to exercise runs.
        assert!(
            accepted > 1_000,
            "only {accepted} of 10 000 scenarios built"
        );
    }

    /// A one-link chain running `spec`, holding a declared 600 kbit/s
    /// guaranteed flow, under the paper's admission control if `admission`.
    fn declared_600k(spec: DisciplineSpec, admission: bool) -> Sim {
        let mut builder = ScenarioBuilder::chain(2)
            .discipline(spec)
            .flow(FlowDef::guaranteed(0, 1, 600_000.0));
        if admission {
            builder = builder.admission(AdmissionSpec::paper(vec![SimTime::from_millis(100)]));
        }
        builder.build().expect("600 kbit/s fits a 1 Mbit/s link")
    }

    /// Signal a guaranteed setup of `rate_bps` over link 0 and run until it
    /// completes: `Ok` if admitted, else why not.
    fn signal(sim: &mut Sim, rate_bps: f64) -> Result<(), RejectReason> {
        let outcome = std::rc::Rc::new(std::cell::Cell::new(None));
        let seen = outcome.clone();
        sim.on_signal(move |event, _| match *event {
            SignalEvent::Accepted { .. } => seen.set(Some(Ok(()))),
            SignalEvent::Rejected { reason, .. } => seen.set(Some(Err(reason))),
            _ => {}
        });
        sim.submit(FlowConfig::guaranteed(vec![LinkId(0)], rate_bps));
        sim.run_until(sim.now() + SimTime::from_millis(10));
        outcome.take().expect("the setup completed")
    }

    const UNIFIED: DisciplineSpec = DisciplineSpec::Unified {
        priority_classes: 2,
        averaging: ispn_sched::Averaging::RunningMean,
    };

    /// The four disciplines whose installs differ: class-based, WFQ,
    /// VirtualClock and the unified scheduler.
    const FOUR: [DisciplineSpec; 4] = [
        DisciplineSpec::Fifo,
        DisciplineSpec::Wfq,
        DisciplineSpec::VirtualClock,
        UNIFIED,
    ];

    /// A declared flow's rate went straight into the scheduler, beside the
    /// ledger: WFQ never counted it, and admitted a signalled 600 kbit/s
    /// beside it — 1.2 Mbit/s reserved on a 1 Mbit/s link.
    #[test]
    fn a_signalled_rate_cannot_oversubscribe_a_declared_one() {
        for spec in [DisciplineSpec::Wfq, UNIFIED] {
            let mut sim = declared_600k(spec, false);
            let refused = RejectReason::SchedulerRefused {
                rate_bps: 600_000.0,
            };
            assert_eq!(signal(&mut sim, 600_000.0), Err(refused), "{spec:?}");
        }
    }

    /// Admission control never heard of a declared flow: a signalled
    /// 350 kbit/s was admitted beside a declared 600, 950 kbit/s against a
    /// 900 kbit/s quota.
    #[test]
    fn admission_control_counts_declared_guaranteed_flows() {
        for spec in FOUR {
            let mut sim = declared_600k(spec, true);
            let refused = RejectReason::GuaranteedQuota {
                reserved_bps: 600_000.0,
                requested_bps: 350_000.0,
                quota_bps: 900_000.0,
            };
            assert_eq!(signal(&mut sim, 350_000.0), Err(refused), "{spec:?}");
        }
    }

    /// A declared flow held no links, so its teardown gave nothing back
    /// and the scheduler kept its 600 kbit/s for good.
    #[test]
    fn tearing_a_declared_flow_down_gives_its_rate_back() {
        for spec in [DisciplineSpec::Wfq, UNIFIED] {
            let mut sim = declared_600k(spec, false);
            let declared = sim.flows()[0];
            sim.teardown(declared);
            sim.run_until(SimTime::from_millis(10));
            assert_eq!(sim.network().installed_links(declared).next(), None);
            assert_eq!(signal(&mut sim, 350_000.0), Ok(()), "{spec:?}");
            assert_eq!(signal(&mut sim, 500_000.0), Ok(()), "{spec:?}");
        }
    }

    #[test]
    fn declared_rates_a_link_cannot_hold_do_not_build() {
        for spec in [DisciplineSpec::Wfq, UNIFIED] {
            let err = ScenarioBuilder::chain(2)
                .discipline(spec)
                .flow(FlowDef::guaranteed(0, 1, 600_000.0))
                .flow(FlowDef::guaranteed(0, 1, 600_000.0))
                .build()
                .err()
                .unwrap_or_else(|| panic!("1.2 Mbit/s built on a 1 Mbit/s {spec:?} link"));
            assert!(matches!(err, BuildError::BadFlow { flow: 1, .. }), "{err}");
            assert!(err.to_string().contains("link 0"), "{err}");
        }
        // Within the link but over the admission quota.
        let err = ScenarioBuilder::chain(2)
            .discipline(DisciplineSpec::Fifo)
            .admission(AdmissionSpec::paper(vec![SimTime::from_millis(100)]))
            .flow(FlowDef::guaranteed(0, 1, 600_000.0))
            .flow(FlowDef::guaranteed(0, 1, 350_000.0))
            .build()
            .unwrap_err();
        assert!(matches!(err, BuildError::BadFlow { flow: 1, .. }), "{err}");
    }

    #[test]
    fn a_declared_guaranteed_flow_holds_its_whole_route() {
        for spec in FOUR {
            let sim = ScenarioBuilder::chain(4)
                .discipline(spec)
                .flow(FlowDef::datagram(0, 3))
                .flow(FlowDef::guaranteed(0, 3, 200_000.0))
                .build()
                .unwrap();
            let net = sim.network();
            let held: Vec<_> = net.installed_links(sim.flows()[1]).collect();
            let route = &net.flow_config(sim.flows()[1]).route;
            assert_eq!(
                held,
                route.iter().map(|&l| (l, 200_000.0)).collect::<Vec<_>>()
            );
            assert_eq!(net.installed_links(sim.flows()[0]).next(), None);
        }
    }

    /// On every link of `sim`, the guaranteed rates its flows hold sum to
    /// what its controller reserves and, on a WFQ or unified link, stay
    /// below the link's rate.
    fn assert_ledger_balances(sim: &Sim, spec: DisciplineSpec) {
        let net = sim.network();
        for &link in &sim.built().forward {
            let held: f64 = (0..net.num_flows())
                .flat_map(|i| net.installed_links(ispn_core::FlowId(i as u32)))
                .filter(|&(at, _)| at == link)
                .map(|(_, rate)| rate)
                .sum();
            if let Some(ad) = net.admission(link) {
                assert_eq!(held, ad.reserved_guaranteed_bps(), "{link:?}");
            }
            if matches!(spec, DisciplineSpec::Wfq | DisciplineSpec::Unified { .. }) {
                assert!(
                    held < net.topology().link(link).rate_bps,
                    "{link:?} holds {held}"
                );
            }
        }
    }

    /// Spans of the three-link chain, drawn from `a`.
    fn span(a: usize) -> (usize, usize) {
        let first = a % 3;
        (first, 1 + (a / 3) % (3 - first))
    }

    /// One drawn mix: `declared` guaranteed flows of `150 kbit/s × k` on
    /// spans of a three-link chain, then `signalled` steps — a setup, or a
    /// teardown of any flow — each followed by 0, 1 or 5 ms of run.
    fn check_mix(
        spec: DisciplineSpec,
        admission: bool,
        declared: &[(usize, u64)],
        signalled: &[(usize, u64, u8)],
    ) {
        let paper = AdmissionSpec::paper(vec![SimTime::from_millis(100)]);
        let chain = || {
            let builder = ScenarioBuilder::chain(4).discipline(spec);
            match admission {
                true => builder.admission(paper.clone()),
                false => builder,
            }
        };
        let fresh = chain().build().unwrap().network().reservation_state_bytes();
        let mut builder = chain();
        for &(a, k) in declared {
            let (first, hops) = span(a);
            builder = builder.flow(FlowDef::guaranteed(first, hops, 150_000.0 * k as f64));
        }
        let mut sim = match builder.build() {
            Ok(sim) => sim,
            Err(BuildError::BadFlow { .. }) => return,
            Err(err) => panic!("{err}"),
        };
        assert_ledger_balances(&sim, spec);
        let links = sim.built().forward.clone();
        for &(a, k, step) in signalled {
            match step {
                0 => match sim.network().num_flows() as u64 {
                    0 => {}
                    flows => sim.teardown(ispn_core::FlowId((k % flows) as u32)),
                },
                _ => {
                    let (first, hops) = span(a);
                    let route = links[first..first + hops].to_vec();
                    sim.submit(FlowConfig::guaranteed(route, 150_000.0 * k as f64));
                }
            }
            let run = SimTime::from_millis([0, 1, 5][a % 3]);
            sim.run_until(sim.now() + run);
            assert_ledger_balances(&sim, spec);
        }
        for i in 0..sim.network().num_flows() {
            sim.teardown(ispn_core::FlowId(i as u32));
        }
        sim.run_until(sim.now() + SimTime::SECOND);
        assert_ledger_balances(&sim, spec);
        for &link in &links {
            if let Some(ad) = sim.network().admission(link) {
                assert_eq!(ad.reserved_guaranteed_bps(), 0.0, "{link:?}");
            }
        }
        assert_eq!(sim.network().reservation_state_bytes(), fresh);
    }

    proptest::proptest! {
        /// Declared and signalled guaranteed flows share one ledger on
        /// FIFO, WFQ, VirtualClock and the unified scheduler, with and
        /// without admission control: a mix builds only if every link can
        /// hold its declared rates, then never oversubscribes, and a drain
        /// leaves every link as it was built.
        #[test]
        fn declared_and_signalled_reservations_share_one_ledger(
            choice in 0usize..4,
            admission in proptest::prelude::any::<bool>(),
            declared in proptest::collection::vec((0usize..64, 1u64..5), 0..4),
            signalled in proptest::collection::vec((0usize..64, 1u64..5, 0u8..4), 0..10),
        ) {
            check_mix(FOUR[choice], admission, &declared, &signalled);
        }
    }

    #[test]
    fn admission_is_enabled_on_the_selected_links() {
        let spec = AdmissionSpec::paper(vec![SimTime::from_millis(100)]);
        let sim = ScenarioBuilder::new(TopologySpec::chain_duplex(3))
            .admission_on(vec![LinkId(0), LinkId(1)], spec)
            .build()
            .unwrap();
        assert!(sim.network().admission(LinkId(0)).is_some());
        assert!(sim.network().admission(LinkId(1)).is_some());
        assert!(sim.network().admission(LinkId(2)).is_none(), "reverse link");
    }
}
