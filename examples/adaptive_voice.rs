//! Adaptive packet voice over predicted service — the motivating workload of
//! Section 2 (VT/VAT-style conferencing tools).
//!
//! A 64 kbit/s voice flow shares a 1 Mbit/s link with nine bursty on/off
//! sources under FIFO+.  Two receivers watch the same packet stream: a rigid
//! one that fixes its play-back point at the a-priori bound the network
//! advertises, and an adaptive one that tracks the delays actually being
//! delivered.  The adaptive receiver ends up with a much earlier play-back
//! point (lower conversational latency) at a tiny loss rate — exactly the
//! trade the paper argues tolerant, adaptive clients will make.
//!
//! The one example wired by hand rather than through `ScenarioBuilder`, on
//! purpose: it needs a custom sink agent ([`PlaybackSink`]) and a CBR start
//! offset, and a scenario declaration grows neither for one example.
//!
//! Run with: `cargo run -p ispn-examples --example adaptive_voice`

use ispn_core::FlowSpec;
use ispn_core::ServiceClass;
use ispn_examples::{PlaybackKind, PlaybackSink};
use ispn_net::{FlowConfig, Network, Topology};
use ispn_sched::{Averaging, FifoPlus};
use ispn_sim::SimTime;
use ispn_traffic::{CbrSource, OnOffConfig, OnOffSource};

fn main() {
    let mut topo = Topology::new();
    let a = topo.add_node();
    let b = topo.add_node();
    let link = topo.add_link(a, b, 1_000_000.0, SimTime::ZERO, 200);
    let mut net = Network::new(topo);
    net.set_discipline(link, FifoPlus::new(Averaging::RunningMean));

    // The a-priori bound the network would advertise for this predicted
    // class at this switch: 60 packet times.
    let advertised = SimTime::from_millis(60);

    // Two copies of the same 64 kbit/s voice source (64 packets/s of
    // 1000-bit packets), one feeding each receiver, so both see the same
    // network conditions.
    let rigid_sink = PlaybackSink::rigid(advertised);
    let rigid_handle = rigid_sink.handle();
    let rigid_sink = net.add_agent(Box::new(rigid_sink));
    let adaptive_sink = PlaybackSink::adaptive(advertised);
    let adaptive_handle = adaptive_sink.handle();
    let adaptive_sink = net.add_agent(Box::new(adaptive_sink));

    for (sink, offset) in [(rigid_sink, 0u64), (adaptive_sink, 7)] {
        let flow = net.add_flow(
            FlowConfig {
                route: vec![link],
                spec: FlowSpec::Datagram,
                class: ServiceClass::Predicted { priority: 0 },
                edge_policer: None,
                sink: None,
            }
            .with_sink(sink),
        );
        net.add_agent(Box::new(
            CbrSource::new(flow, 64.0, 1000).with_start_offset(SimTime::from_millis(offset)),
        ));
    }

    // Nine bursty on/off sources provide the competing load (~75 %).
    for i in 0..9 {
        let f = net.add_flow(FlowConfig {
            route: vec![link],
            spec: FlowSpec::Datagram,
            class: ServiceClass::Predicted { priority: 0 },
            edge_policer: None,
            sink: None,
        });
        net.add_agent(Box::new(OnOffSource::new(
            f,
            OnOffConfig::paper(85.0, 100 + i),
        )));
    }

    net.run_until(SimTime::from_secs(300));

    println!(
        "advertised a-priori bound: {:.1} ms\n",
        advertised.as_millis_f64()
    );
    report("rigid receiver   ", &rigid_handle.borrow());
    report("adaptive receiver", &adaptive_handle.borrow());
    let saving = 1.0
        - adaptive_handle.borrow().stats().playback_point().mean()
            / rigid_handle.borrow().stats().playback_point().mean();
    println!(
        "\nadaptation cut the effective latency by {:.0}%",
        saving * 100.0
    );
}

fn report(name: &str, app: &PlaybackKind) {
    let s = app.stats();
    println!(
        "{name}: effective latency {:6.2} ms, loss {:.3}%, final play-back point {:.2} ms ({} packets)",
        s.playback_point().mean() * 1e3,
        s.loss_rate() * 100.0,
        app.playback_point().as_millis_f64(),
        s.played() + s.late()
    );
}
