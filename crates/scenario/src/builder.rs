//! The scenario builder: topology + disciplines + workload + admission in,
//! a ready-to-run [`Sim`] out.

use ispn_core::admission::{AdmissionConfig, AdmissionController};
use ispn_net::{LinkId, Network};
use ispn_traffic::{CbrSource, OnOffSource, PoissonSource, TraceSource};
use ispn_transport::install_tcp;

use crate::discipline::{DisciplineMatrix, DisciplineSpec};
use crate::error::BuildError;
use crate::sim::Sim;
use crate::topology::{BuiltTopology, LinkProfile, TopologySpec};
use crate::workload::{AdmissionSpec, FlowDef, RouteSpec, SourceSpec, TcpDef, WorkloadSpec};

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

    /// A duplex chain of `nodes` switches (the Figure-1 shape).
    pub fn chain_duplex(nodes: usize) -> Self {
        ScenarioBuilder::new(TopologySpec::chain_duplex(nodes))
    }

    /// A star of `leaves` access switches around a hub.
    pub fn star(leaves: usize) -> Self {
        ScenarioBuilder::new(TopologySpec::star(leaves))
    }

    /// A `rows × cols` duplex grid mesh.
    pub fn mesh(rows: usize, cols: usize) -> Self {
        ScenarioBuilder::new(TopologySpec::mesh(rows, cols))
    }

    /// A custom topology passthrough.
    pub fn custom(topology: ispn_net::Topology) -> Self {
        ScenarioBuilder::new(TopologySpec::custom(topology))
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
    /// then transports, then admission) so that identical declarations
    /// always produce identical simulations — flow ids, agent ids and
    /// event-queue seeding included.
    pub fn build(self) -> Result<Sim, BuildError> {
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
            let guaranteed: Vec<(ispn_core::FlowId, f64)> = crossing
                .iter()
                .filter_map(|&i| {
                    self.flows[i]
                        .service
                        .clock_rate_bps()
                        .map(|rate| (flow_ids[i], rate))
                })
                .collect();
            let params = *built.topology.link(link);
            net.set_discipline(link, spec.build(&params, crossing.len(), &guaranteed));
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

        let mut sim = Sim::from_parts(net, flow_ids, tcp, built);

        // 6. Attach the dynamic workload.
        if let WorkloadSpec::Churn(churn) = self.workload {
            churn
                .validate()
                .map_err(|reason| BuildError::BadWorkload { reason })?;
            // Churn arrivals request uniformly random spans of the
            // preset's forward links, so those links must form one
            // contiguous path (a chain preset, or a custom chain): on a
            // star or mesh the forward set is not a path and a multi-hop
            // request would be invalid.
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
    use ispn_net::NodeId;
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
        assert!(report.signaling.is_some());
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
        let r = sim.report(&MeasurementPlan {
            link_stats: false,
            ..MeasurementPlan::default()
        });
        assert!(r.flows[0].delivered > 80);
        assert!(r.links.is_empty(), "plan skipped link stats");
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
        use crate::report::HistogramSpec;
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
        let plan = MeasurementPlan {
            delay_histogram: Some(HistogramSpec {
                lo_s: 0.0,
                hi_s: 0.1,
                bins: 10,
            }),
            ..MeasurementPlan::default()
        };
        let r = sim.report(&plan);
        // Deterministic class order: guaranteed, predicted-0, datagram.
        let labels: Vec<&str> = r.classes.iter().map(|c| c.class.as_str()).collect();
        assert_eq!(labels, vec!["guaranteed", "predicted-0", "datagram"]);
        assert_eq!(r.classes[0].flows, 2, "both guaranteed flows pooled");
        // The pooled class counts equal the sum of the per-flow counts.
        let guaranteed_delivered: u64 = r.flows[0].delivered + r.flows[1].delivered;
        assert_eq!(r.classes[0].delivered, guaranteed_delivered);
        // Quantiles come back in plan order and are monotone.
        let qs = &r.classes[0].quantiles;
        assert_eq!(qs.len(), 4);
        assert!(qs.windows(2).all(|w| w[0].1 <= w[1].1 + 1e-12));
        // The histogram accounts for every pooled delivery.
        let h = r.classes[0].histogram.as_ref().unwrap();
        let total = h.underflow + h.overflow + h.counts.iter().sum::<u64>();
        assert_eq!(total, guaranteed_delivered);
        // The discipline group covers the single link.
        assert_eq!(r.disciplines.len(), 1);
        assert_eq!(r.disciplines[0].discipline, "Unified");
        assert_eq!(r.disciplines[0].links, 1);
    }

    #[test]
    fn admission_is_enabled_on_the_selected_links() {
        let spec = AdmissionSpec::paper(vec![SimTime::from_millis(100)]);
        let sim = ScenarioBuilder::chain_duplex(3)
            .admission_on(vec![LinkId(0), LinkId(1)], spec)
            .build()
            .unwrap();
        assert!(sim.network().admission(LinkId(0)).is_some());
        assert!(sim.network().admission(LinkId(1)).is_some());
        assert!(sim.network().admission(LinkId(2)).is_none(), "reverse link");
    }
}
