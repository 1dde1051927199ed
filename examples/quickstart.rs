//! Quickstart: declare a two-switch network, give one flow a
//! guaranteed-service reservation under the unified scheduler, let a bursty
//! best-effort flow compete with it, and look at the delays each one
//! receives.
//!
//! Run with: `cargo run -p ispn-examples --example quickstart`

use ispn_core::bounds::pg_queueing_bound;
use ispn_core::{FlowId, TokenBucketSpec};
use ispn_net::Network;
use ispn_scenario::{DisciplineSpec, FlowDef, ScenarioBuilder, SourceSpec};
use ispn_sched::Averaging;
use ispn_sim::SimTime;
use ispn_traffic::OnOffConfig;

fn main() {
    // Two switches joined by the default link (1 Mbit/s, 200-packet output
    // buffer) running the unified scheduler: WFQ isolation for the
    // guaranteed flow, FIFO+/priority sharing for everything else.  Flows:
    // a 100-packet/s constant-rate "voice" flow with a 150 kbit/s
    // guaranteed clock rate, and a bursty best-effort flow averaging 600
    // packets/s.
    let bursty = OnOffConfig {
        avg_rate_pps: 600.0,
        peak_rate_pps: 1200.0,
        mean_burst_pkts: 20.0,
        packet_bits: 1000,
        policer: None,
        start_offset: SimTime::ZERO,
        seed: 7,
    };
    let mut sim = ScenarioBuilder::chain(2)
        .discipline(DisciplineSpec::Unified {
            priority_classes: 2,
            averaging: Averaging::RunningMean,
        })
        .flow(FlowDef::guaranteed(0, 1, 150_000.0).source(SourceSpec::cbr(100.0, 1000)))
        .flow(FlowDef::datagram(0, 1).source(SourceSpec::OnOff(bursty)))
        .build()
        .expect("a valid scenario");
    let (voice, noise) = (sim.flows()[0], sim.flows()[1]);

    // Run ten simulated minutes.
    sim.run_until(SimTime::from_secs(600));

    let pg = pg_queueing_bound(
        TokenBucketSpec::per_packets(100.0, 2.0, 1000),
        150_000.0,
        1,
        1000,
    );
    let net = sim.network_mut();
    println!("guaranteed voice flow (clock rate 150 kbit/s):");
    print_flow(net, voice);
    println!(
        "  Parekh-Gallager queueing bound: {:.2} ms",
        pg.as_millis_f64()
    );
    println!("\nbursty best-effort flow (no commitment):");
    print_flow(net, noise);
    let lr = net.monitor().link_report(0);
    println!(
        "\nlink utilization {:.1}% ({} packets, {} drops)",
        lr.utilization * 100.0,
        lr.packets_sent,
        lr.drops
    );
}

fn print_flow(net: &mut Network, flow: FlowId) {
    let r = net.monitor_mut().flow_report(flow);
    println!(
        "  delivered {} packets; queueing delay mean {:.2} ms, 99.9th percentile {:.2} ms, max {:.2} ms",
        r.delivered,
        r.mean_delay * 1e3,
        r.p999_delay * 1e3,
        r.max_delay * 1e3
    );
}
