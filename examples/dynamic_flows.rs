//! Dynamic flows: set up, renegotiate and tear down reservations while the
//! network runs — the Sections 8–9 service interface end to end.
//!
//! A three-switch chain runs the unified scheduler with measurement-based
//! admission control on both links.  Flows then arrive *during* the run:
//! each setup message walks its route hop by hop through `ispn-signal`,
//! every switch consults its live measurements, and the last request is
//! refused — demonstrating the rollback of partial reservations.
//!
//! The whole scenario is declared through `ispn-scenario`: the builder
//! assembles topology, disciplines and admission control, and the [`Sim`]
//! facade steps control and data plane in global event-time order — the
//! mid-run actions below are scheduled at their exact simulated instants
//! instead of being wedged between manual `process_until` calls.
//!
//! Run with: `cargo run -p ispn-examples --example dynamic_flows`

use ispn_core::TokenBucketSpec;
use ispn_net::{FlowConfig, PoliceAction};
use ispn_scenario::{AdmissionSpec, DisciplineSpec, ScenarioBuilder, Sim};
use ispn_sched::Averaging;
use ispn_signal::SignalEvent;
use ispn_sim::SimTime;
use ispn_traffic::{OnOffConfig, OnOffSource};

fn main() {
    // A chain of three switches: two 1 Mbit/s links, unified scheduling,
    // Section-9 admission control fed live by the network's monitor.
    let mut sim = ScenarioBuilder::chain(3)
        .discipline(DisciplineSpec::Unified {
            priority_classes: 2,
            averaging: Averaging::RunningMean,
        })
        .admission(AdmissionSpec::paper(vec![
            SimTime::from_millis(30),
            SimTime::from_millis(300),
        ]))
        .build()
        .expect("valid scenario");
    let links = sim.built().forward.clone();

    // Completed transactions are announced the instant they happen.
    sim.on_signal(|event, _| announce(event));

    // t = 0 s: a guaranteed "video" flow asks for 500 kbit/s end to end.
    let (_r1, video) = sim.submit(FlowConfig::guaranteed(links.clone(), 500_000.0));
    // t = 0 s: an adaptive predicted "voice" flow declares a small bucket.
    let small = TokenBucketSpec::per_packets(40.0, 10.0, 1000);
    let (_r2, voice) = sim.submit(FlowConfig::predicted(
        links.clone(),
        1,
        small,
        SimTime::from_millis(600),
        0.001,
        PoliceAction::Drop,
    ));

    // t = 100 ms: both setups have confirmed; attach the sources.
    sim.schedule_at(SimTime::from_millis(100), move |sim: &mut Sim| {
        let mut attach = |flow, seed, rate| {
            let source = OnOffSource::new(flow, OnOffConfig::paper(rate, seed));
            sim.network_mut().add_agent(Box::new(source))
        };
        let video_source = attach(video, 1, 170.0);
        attach(voice, 2, 40.0);
        // t = 20 s: the video flow hangs up — its source ends and its
        // capacity is free again.
        sim.schedule_at(SimTime::from_secs(20), move |sim: &mut Sim| {
            sim.network_mut().retire_agent(video_source);
            sim.teardown(video);
        });
    });

    // t = 5 s: the adaptive voice client widens its declaration to the
    // paper's (85 pkt/s, 50 pkt) — every hop re-runs the criterion.
    sim.schedule_at(SimTime::from_secs(5), move |sim: &mut Sim| {
        let roomy = TokenBucketSpec::per_packets(85.0, 50.0, 1000);
        if let Err(refusal) = sim.renegotiate_bucket(voice, roomy) {
            println!(
                "[{}] {voice} renegotiation refused at once: {refusal}",
                sim.now()
            );
        }
    });

    // t = 10 s: a greedy 600 kbit/s guaranteed request must be refused —
    // 500 k (video) + 600 k exceeds the 900 k real-time quota — and its
    // partial reservation on the first link rolls back.
    let greedy_route = links.clone();
    sim.schedule_at(SimTime::from_secs(10), move |sim: &mut Sim| {
        let (_r3, _greedy) = sim.submit(FlowConfig::guaranteed(greedy_route, 600_000.0));
    });

    sim.run_until(SimTime::from_secs(30));

    println!("\nafter 30 simulated seconds:");
    for (name, flow) in [("video", video), ("voice", voice)] {
        let r = sim.network_mut().monitor_mut().flow_report(flow);
        println!(
            "  {name:>5}: {} delivered, mean queueing delay {:.2} ms, max {:.2} ms",
            r.delivered,
            r.mean_delay * 1e3,
            r.max_delay * 1e3
        );
    }
    for &l in &links {
        println!(
            "  {:?}: {:.0} bps still reserved",
            l,
            sim.network()
                .admission(l)
                .expect("admission enabled")
                .reserved_guaranteed_bps()
        );
    }
}

fn announce(event: &SignalEvent) {
    match event {
        SignalEvent::Accepted { flow, at, .. } => println!("[{at}] {flow} admitted"),
        SignalEvent::Rejected {
            flow,
            hop,
            reason,
            at,
            ..
        } => println!("[{at}] {flow} refused at hop {hop}: {reason}"),
        SignalEvent::TornDown { flow, at } => println!("[{at}] {flow} torn down"),
        SignalEvent::Renegotiated { flow, at, .. } => {
            println!("[{at}] {flow} renegotiated its traffic declaration")
        }
        SignalEvent::RenegotiationRejected {
            flow, reason, at, ..
        } => println!("[{at}] {flow} renegotiation refused: {reason}"),
    }
}
