//! Declarative workloads: routes, service classes, traffic sources, TCP
//! connections and admission control.

use ispn_core::TokenBucketSpec;
use ispn_net::{FlowConfig, LinkId, NodeId, PoliceAction};
use ispn_sim::SimTime;
use ispn_traffic::OnOffConfig;
use ispn_transport::TcpConfig;

/// How a flow's path through the topology is described.
#[derive(Debug, Clone)]
pub enum RouteSpec {
    /// An explicit list of links (must form a loop-free contiguous path).
    Links(Vec<LinkId>),
    /// The forward-link span `[first, first + hops)` of a chain preset.
    Span {
        /// Index of the first forward link.
        first: usize,
        /// Number of consecutive forward links.
        hops: usize,
    },
    /// The reverse route matching a forward span (acknowledgement paths on
    /// duplex presets).
    ReverseSpan {
        /// Index of the first forward link of the matching forward span.
        first: usize,
        /// Number of consecutive links.
        hops: usize,
    },
    /// The shortest path between two switches (deterministic tie-break).
    Path {
        /// Entry switch.
        from: NodeId,
        /// Exit switch.
        to: NodeId,
    },
}

/// The service a flow requests from the network (Section 8's interface).
#[derive(Debug, Clone)]
pub enum ServiceSpec {
    /// Best-effort datagram service.
    Datagram,
    /// Datagram-spec packets scheduled in a predicted class — the
    /// undifferentiated "real-time flow" Tables 1 and 2 use (the class only
    /// affects real-time-utilization bookkeeping under FIFO/WFQ/FIFO+).
    RealtimeBestEffort {
        /// Predicted priority class (0 = highest).
        priority: u8,
    },
    /// Predicted service with an `(r, b)` declaration and edge policing.
    Predicted {
        /// Priority class (0 = highest).
        priority: u8,
        /// Declared token bucket.
        bucket: TokenBucketSpec,
        /// Advertised end-to-end delay target.
        target_delay: SimTime,
        /// Acceptable loss rate.
        loss_rate: f64,
        /// What the edge does with nonconforming packets.
        police: PoliceAction,
    },
    /// Guaranteed service with a WFQ clock rate.
    Guaranteed {
        /// Reserved clock rate in bits per second.
        clock_rate_bps: f64,
    },
}

impl ServiceSpec {
    /// The clock rate of a guaranteed service, if this is one.
    pub fn clock_rate_bps(&self) -> Option<f64> {
        match self {
            ServiceSpec::Guaranteed { clock_rate_bps } => Some(*clock_rate_bps),
            _ => None,
        }
    }

    /// Turn the service into a [`FlowConfig`] over a resolved route.
    pub fn flow_config(&self, route: Vec<LinkId>) -> FlowConfig {
        match self {
            ServiceSpec::Datagram => FlowConfig::datagram(route),
            ServiceSpec::RealtimeBestEffort { priority } => {
                let mut config = FlowConfig::datagram(route);
                config.class = ispn_core::ServiceClass::Predicted {
                    priority: *priority,
                };
                config
            }
            ServiceSpec::Predicted {
                priority,
                bucket,
                target_delay,
                loss_rate,
                police,
            } => FlowConfig::predicted(
                route,
                *priority,
                *bucket,
                *target_delay,
                *loss_rate,
                *police,
            ),
            ServiceSpec::Guaranteed { clock_rate_bps } => {
                FlowConfig::guaranteed(route, *clock_rate_bps)
            }
        }
    }
}

/// The traffic source attached to a flow.
#[derive(Debug, Clone)]
pub enum SourceSpec {
    /// No source: the flow is registered but driven externally (tests, or
    /// transports installed separately).
    None,
    /// The Appendix's two-state Markov on/off source.
    OnOff(OnOffConfig),
    /// Constant bit rate.
    Cbr {
        /// Packets per second.
        rate_pps: f64,
        /// Packet size in bits.
        packet_bits: u64,
    },
    /// Poisson arrivals.
    Poisson {
        /// Mean packets per second.
        rate_pps: f64,
        /// Packet size in bits.
        packet_bits: u64,
        /// Seed of the source's private random stream.
        seed: u64,
    },
    /// Replay an explicit `(time, size_bits)` schedule.
    Trace {
        /// The packet schedule.
        schedule: Vec<(SimTime, u64)>,
    },
}

impl SourceSpec {
    /// The paper's on/off source at average rate `avg_rate_pps` (peak `2A`,
    /// burst 5, `(A, 50)` source policer) with the given seed.
    pub fn onoff_paper(avg_rate_pps: f64, seed: u64) -> Self {
        SourceSpec::OnOff(OnOffConfig::paper(avg_rate_pps, seed))
    }

    /// A constant-bit-rate source.
    pub fn cbr(rate_pps: f64, packet_bits: u64) -> Self {
        SourceSpec::Cbr {
            rate_pps,
            packet_bits,
        }
    }

    /// A Poisson source.
    pub fn poisson(rate_pps: f64, packet_bits: u64, seed: u64) -> Self {
        SourceSpec::Poisson {
            rate_pps,
            packet_bits,
            seed,
        }
    }
}

/// One declared flow: a route, the service it asks for and the source that
/// drives it.
#[derive(Debug, Clone)]
pub struct FlowDef {
    /// Where the flow goes.
    pub route: RouteSpec,
    /// What service it receives.
    pub service: ServiceSpec,
    /// What traffic drives it.
    pub source: SourceSpec,
}

impl FlowDef {
    /// A flow with the given route and service and no source yet.
    pub fn new(route: RouteSpec, service: ServiceSpec) -> Self {
        FlowDef {
            route,
            service,
            source: SourceSpec::None,
        }
    }

    /// A datagram flow over a forward span.
    pub fn datagram(first: usize, hops: usize) -> Self {
        FlowDef::new(RouteSpec::Span { first, hops }, ServiceSpec::Datagram)
    }

    /// An undifferentiated real-time flow (Tables 1–2) over a forward span.
    pub fn best_effort_realtime(first: usize, hops: usize) -> Self {
        FlowDef::new(
            RouteSpec::Span { first, hops },
            ServiceSpec::RealtimeBestEffort { priority: 0 },
        )
    }

    /// A guaranteed flow over a forward span.
    pub fn guaranteed(first: usize, hops: usize, clock_rate_bps: f64) -> Self {
        FlowDef::new(
            RouteSpec::Span { first, hops },
            ServiceSpec::Guaranteed { clock_rate_bps },
        )
    }

    /// Attach a source (builder style).
    pub fn source(mut self, source: SourceSpec) -> Self {
        self.source = source;
        self
    }

    /// Replace the route (builder style).
    pub fn route(mut self, route: RouteSpec) -> Self {
        self.route = route;
        self
    }

    /// Check the numbers the builder hands to `FlowSpec`, the sources and
    /// their token buckets, whose constructors assert them, and the source
    /// rates a run could not advance past (the builder calls this).
    pub(crate) fn validate(&self) -> Result<(), String> {
        match &self.service {
            ServiceSpec::Guaranteed { clock_rate_bps }
                if !(*clock_rate_bps > 0.0 && clock_rate_bps.is_finite()) =>
            {
                return Err(format!(
                    "guaranteed clock rate must be positive and finite, got {clock_rate_bps} bit/s"
                ));
            }
            ServiceSpec::Predicted {
                bucket, loss_rate, ..
            } => {
                check_bucket("declared", bucket)?;
                // NaN fails `contains` too.
                if !(0.0..=1.0).contains(loss_rate) {
                    return Err(format!("loss rate must be within [0, 1], got {loss_rate}"));
                }
            }
            _ => {}
        }
        match &self.source {
            SourceSpec::None => Ok(()),
            SourceSpec::OnOff(config) => {
                check_pacing("on/off average", config.avg_rate_pps)?;
                check_pacing("on/off peak", config.peak_rate_pps)?;
                if config.peak_rate_pps < config.avg_rate_pps {
                    return Err(format!(
                        "on/off peak rate {} is below the average rate {}",
                        config.peak_rate_pps, config.avg_rate_pps
                    ));
                }
                if !(config.mean_burst_pkts >= 1.0 && config.mean_burst_pkts.is_finite()) {
                    return Err(format!(
                        "on/off mean burst must be finite and at least one packet, got {}",
                        config.mean_burst_pkts
                    ));
                }
                if let Some(policer) = &config.policer {
                    check_bucket("source policer", policer)?;
                }
                check_packet(config.packet_bits)
            }
            SourceSpec::Cbr {
                rate_pps,
                packet_bits,
            }
            | SourceSpec::Poisson {
                rate_pps,
                packet_bits,
                ..
            } => {
                check_pacing("source", *rate_pps)?;
                check_packet(*packet_bits)
            }
            SourceSpec::Trace { schedule } => {
                if schedule.windows(2).all(|w| w[0].0 <= w[1].0) {
                    Ok(())
                } else {
                    Err("trace must be sorted by time".to_string())
                }
            }
        }
    }
}

/// A source rate in packets per second whose packet gap, rounded to the
/// nanosecond, is not zero: zero, negative, NaN and infinite rates have no
/// such gap, and neither does any rate above 2·10⁹ — a source with a zero
/// gap re-arms at the same instant forever.
fn check_pacing(what: &str, rate_pps: f64) -> Result<(), String> {
    if SimTime::from_secs_f64(1.0 / rate_pps) > SimTime::ZERO {
        Ok(())
    } else {
        Err(format!(
            "{what} rate must be positive and at most 2e9 packets/s, got {rate_pps}"
        ))
    }
}

/// What `TokenBucketSpec::new` asserts: a positive rate and depth.
fn check_bucket(what: &str, bucket: &TokenBucketSpec) -> Result<(), String> {
    if bucket.rate_bps > 0.0 && bucket.depth_bits > 0.0 {
        Ok(())
    } else {
        Err(format!(
            "{what} token bucket needs a positive rate and depth, got ({}, {})",
            bucket.rate_bps, bucket.depth_bits
        ))
    }
}

fn check_packet(bits: u64) -> Result<(), String> {
    if bits > 0 {
        Ok(())
    } else {
        Err("packets must be at least one bit long".to_string())
    }
}

/// A dynamic workload process attached to a scenario, driven through the
/// control plane while the static flows run.
#[derive(Debug, Clone, Default)]
pub enum WorkloadSpec {
    /// Only the statically declared flows (the default).
    #[default]
    Static,
    /// Flow churn: Poisson setup arrivals with exponentially distributed
    /// holding times, each admitted flow sourced and torn down by the
    /// [`Sim`](crate::Sim) facade itself.
    Churn(ChurnWorkload),
}

/// One predicted-service class a churn arrival can request.
#[derive(Debug, Clone)]
pub struct ChurnClass {
    /// Priority class (0 = highest).
    pub priority: u8,
    /// The `(r, b)` token bucket the request declares.
    pub bucket: TokenBucketSpec,
    /// Advertised per-hop delay target; a request over `h` hops is sold the
    /// end-to-end bound `h × per_hop_target`.
    pub per_hop_target: SimTime,
    /// Acceptable loss rate of the request.
    pub loss_rate: f64,
    /// What the edge does with nonconforming packets.
    pub police: PoliceAction,
}

/// How churn sources are shaped and seeded.
#[derive(Debug, Clone)]
pub struct ChurnSourceSpec {
    /// Average rate `A` of the paper's on/off source attached to each
    /// admitted flow (peak `2A`, burst 5, `(A, 50)` source policer).
    pub avg_rate_pps: f64,
    /// Base seed; the `i`-th admitted source draws an independent stream
    /// from [`seed_for(i)`](ChurnSourceSpec::seed_for).
    pub seed_base: u64,
}

impl ChurnSourceSpec {
    /// The derived seed of the `i`-th admitted source (golden-ratio mixing,
    /// the same derivation the static experiments use for per-flow seeds —
    /// this is what lets a migrated churn run reproduce its pre-migration
    /// source streams bit-exactly).
    pub fn seed_for(&self, i: u32) -> u64 {
        self.seed_base
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(i as u64 + 1)
    }
}

/// A first-class churn workload: Poisson flow arrivals over uniformly
/// random forward spans, exponential holding times, teardown on departure.
///
/// The whole process is a pure function of [`seed`](ChurnWorkload::seed):
/// one private RNG stream drives, in arrival order, the span choice, the
/// service mix, the inter-arrival gap and (on acceptance) the holding
/// time.  Admitted flows get the Appendix's on/off source attached at the
/// exact instant their confirmation lands; departure retires the source's
/// agent slot ([`Network::retire_agent`](ispn_net::Network::retire_agent)),
/// which silences it at once and lets the slot be reused.
#[derive(Debug, Clone)]
pub struct ChurnWorkload {
    /// Poisson flow-arrival rate λ (setup requests per second).
    pub arrivals_per_sec: f64,
    /// Mean exponential holding time 1/μ of an admitted flow, seconds.
    pub mean_holding_secs: f64,
    /// Seed of the churn driver's private random stream.
    pub seed: u64,
    /// Fraction of requests asking for guaranteed service.
    pub guaranteed_fraction: f64,
    /// The clock rate a guaranteed request reserves, bits per second.
    pub guaranteed_rate_bps: f64,
    /// The predicted classes the remaining requests draw from (uniformly).
    pub classes: Vec<ChurnClass>,
    /// Source shape and seeding for admitted flows.
    pub source: ChurnSourceSpec,
}

impl ChurnWorkload {
    /// Validate the declaration (the builder calls this).
    pub(crate) fn validate(&self) -> Result<(), String> {
        // A NaN rate fails the positivity checks too: `is_positive_finite`
        // style comparisons are written so NaN falls into the error arm.
        if self.arrivals_per_sec <= 0.0 || self.arrivals_per_sec.is_nan() {
            return Err(format!(
                "churn arrival rate must be positive, got {}",
                self.arrivals_per_sec
            ));
        }
        if self.mean_holding_secs <= 0.0 || self.mean_holding_secs.is_nan() {
            return Err(format!(
                "churn mean holding time must be positive, got {}",
                self.mean_holding_secs
            ));
        }
        // NaN fails `contains` and lands here too — without this check a
        // NaN fraction would sail past both class checks below (NaN < 1.0
        // and NaN > 0.0 are both false) and crash at the first arrival.
        if !(0.0..=1.0).contains(&self.guaranteed_fraction) {
            return Err(format!(
                "churn guaranteed fraction must be within [0, 1], got {}",
                self.guaranteed_fraction
            ));
        }
        if self.guaranteed_fraction < 1.0 && self.classes.is_empty() {
            return Err(
                "churn with guaranteed_fraction < 1 needs at least one predicted class".to_string(),
            );
        }
        if self.guaranteed_fraction > 0.0
            && (self.guaranteed_rate_bps <= 0.0 || self.guaranteed_rate_bps.is_nan())
        {
            return Err(format!(
                "churn guaranteed requests need a positive clock rate, got {}",
                self.guaranteed_rate_bps
            ));
        }
        Ok(())
    }
}

/// A greedy TCP connection: a datagram data flow forward and an
/// acknowledgement flow back.
#[derive(Debug, Clone)]
pub struct TcpDef {
    /// Route of the data flow.
    pub forward: RouteSpec,
    /// Route of the acknowledgement flow.
    pub reverse: RouteSpec,
    /// Transport parameters.
    pub config: TcpConfig,
}

impl TcpDef {
    /// A TCP connection over a forward span of a duplex preset, with the
    /// matching reverse span carrying the acknowledgements.
    pub fn over_span(first: usize, hops: usize) -> Self {
        TcpDef {
            forward: RouteSpec::Span { first, hops },
            reverse: RouteSpec::ReverseSpan { first, hops },
            config: TcpConfig::default(),
        }
    }
}

/// Put links under the Section-9 measurement-based admission controller.
#[derive(Debug, Clone)]
pub struct AdmissionSpec {
    /// Fraction of each link real-time traffic may occupy (the paper
    /// suggests 0.9).
    pub realtime_quota: f64,
    /// Per-class delay targets Dᵢ, indexed by priority.
    pub class_targets: Vec<SimTime>,
    /// Length of the measurement window feeding ν̂ and d̂ⱼ, in seconds.
    pub measurement_window_secs: f64,
    /// Override of the utilization safety factor (`None` keeps the
    /// controller's default).
    pub util_safety_factor: Option<f64>,
    /// How often the network samples real-time throughput into ν̂.
    pub sample_interval: SimTime,
}

impl AdmissionSpec {
    /// The controller the paper's Section-9 example suggests: 90 % quota
    /// and a ten-second measurement window, sampled once per second.
    pub fn paper(class_targets: Vec<SimTime>) -> Self {
        AdmissionSpec {
            realtime_quota: 0.9,
            class_targets,
            measurement_window_secs: 10.0,
            util_safety_factor: None,
            sample_interval: SimTime::SECOND,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ispn_core::{FlowSpec, ServiceClass};

    #[test]
    fn service_specs_produce_the_expected_flow_configs() {
        let route = vec![LinkId(0)];
        let c = ServiceSpec::Datagram.flow_config(route.clone());
        assert_eq!(c.class, ServiceClass::Datagram);
        assert!(c.edge_policer.is_none());

        let c = ServiceSpec::RealtimeBestEffort { priority: 1 }.flow_config(route.clone());
        assert!(matches!(c.spec, FlowSpec::Datagram));
        assert_eq!(c.class, ServiceClass::Predicted { priority: 1 });

        let bucket = TokenBucketSpec::per_packets(85.0, 50.0, 1000);
        let c = ServiceSpec::Predicted {
            priority: 0,
            bucket,
            target_delay: SimTime::from_millis(30),
            loss_rate: 0.001,
            police: PoliceAction::Drop,
        }
        .flow_config(route.clone());
        assert!(matches!(c.spec, FlowSpec::Predicted { .. }));
        assert!(c.edge_policer.is_some());

        let c = ServiceSpec::Guaranteed {
            clock_rate_bps: 170_000.0,
        }
        .flow_config(route);
        assert_eq!(c.spec.clock_rate_bps(), Some(170_000.0));
        assert_eq!(
            ServiceSpec::Guaranteed {
                clock_rate_bps: 170_000.0
            }
            .clock_rate_bps(),
            Some(170_000.0)
        );
        assert_eq!(ServiceSpec::Datagram.clock_rate_bps(), None);
    }

    #[test]
    fn flow_def_builders_compose() {
        let def = FlowDef::guaranteed(1, 2, 250_000.0).source(SourceSpec::cbr(100.0, 1000));
        assert!(matches!(def.route, RouteSpec::Span { first: 1, hops: 2 }));
        assert!(matches!(def.source, SourceSpec::Cbr { .. }));
        let def = def.route(RouteSpec::Path {
            from: NodeId(0),
            to: NodeId(2),
        });
        assert!(matches!(def.route, RouteSpec::Path { .. }));
    }

    #[test]
    fn admission_spec_defaults_match_the_paper() {
        let spec = AdmissionSpec::paper(vec![SimTime::from_millis(30)]);
        assert_eq!(spec.realtime_quota, 0.9);
        assert_eq!(spec.sample_interval, SimTime::SECOND);
        assert!(spec.util_safety_factor.is_none());
    }
}
