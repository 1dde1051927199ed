//! Guaranteed service for a bursty video source (Section 4).
//!
//! The example walks through the guaranteed-service workflow:
//!
//! 1. characterize the source's traffic with its `b(r)` curve (the minimal
//!    token-bucket depth at each candidate clock rate),
//! 2. pick a clock rate from the resulting delay/bandwidth trade-off
//!    (the Parekh–Gallager bound is `b(r)/r` + per-hop terms),
//! 3. reserve that rate across a three-hop path under the unified scheduler,
//! 4. verify that the measured worst-case delay honours the bound even while
//!    an unpoliced, misbehaving source floods the same links — and exit 1
//!    if it does not.
//!
//! Run with: `cargo run -p ispn-examples --example guaranteed_video`

use ispn_core::bounds::pg_queueing_bound;
use ispn_core::token_bucket::minimal_depth_for_rate;
use ispn_core::TokenBucketSpec;
use ispn_scenario::{DisciplineSpec, FlowDef, ScenarioBuilder, SourceSpec};
use ispn_sched::Averaging;
use ispn_sim::{Pcg64, SimTime};
use ispn_traffic::OnOffConfig;

const PKT: u64 = 1000;

fn main() {
    // --- 1. Record a sample of the video source and characterize it. ------
    let trace = record_video_trace(120.0, 42);
    println!(
        "recorded {} packets of the video source (120 pkt/s average, bursty)",
        trace.len()
    );
    println!("\n   clock rate r      b(r)            3-hop P-G bound");
    let mut chosen = None;
    for rate_pps in [150.0, 200.0, 240.0, 300.0] {
        let rate_bps = rate_pps * PKT as f64;
        let depth = minimal_depth_for_rate(&trace, rate_bps);
        let bound = pg_queueing_bound(
            TokenBucketSpec::new(rate_bps, depth.max(1.0)),
            rate_bps,
            3,
            PKT,
        );
        println!(
            "   {rate_pps:6.0} pkt/s   {:6.1} packets   {:8.2} ms",
            depth / PKT as f64,
            bound.as_millis_f64()
        );
        if rate_pps == 240.0 {
            chosen = Some((rate_bps, depth.max(1.0)));
        }
    }
    let (clock_rate, depth) = chosen.expect("240 pkt/s is in the sweep");
    let bound = pg_queueing_bound(TokenBucketSpec::new(clock_rate, depth), clock_rate, 3, PKT);
    println!(
        "\nreserving r = 240 pkt/s; advertised queueing bound {:.2} ms\n",
        bound.as_millis_f64()
    );

    // --- 2. Reserve the rate at every switch of a 3-hop path. --------------
    // The video flow crosses the whole chain; each link also carries a
    // polite on/off flow and a misbehaving unpoliced flood at 85% of the
    // link rate.
    let background = (0..3).flat_map(|l| {
        let i = 2 * l as u64;
        [
            FlowDef::datagram(l, 1).source(SourceSpec::onoff_paper(85.0, 1000 + i)),
            FlowDef::datagram(l, 1).source(SourceSpec::poisson(850.0, PKT, 2001 + i)),
        ]
    });
    let mut sim = ScenarioBuilder::chain(4)
        .discipline(DisciplineSpec::Unified {
            priority_classes: 2,
            averaging: Averaging::RunningMean,
        })
        .flow(FlowDef::guaranteed(0, 3, clock_rate).source(SourceSpec::OnOff(video_config(42))))
        .flows(background)
        .build()
        .expect("a valid scenario");

    // --- 3. Run the video source against the background. ------------------
    sim.run_until(SimTime::from_secs(300));

    // --- 4. Check the commitment. ------------------------------------------
    let video = sim.flows()[0];
    let net = sim.network_mut();
    let r = net.monitor_mut().flow_report(video);
    println!("video flow over 3 congested hops (each flooded by a misbehaving source):");
    println!(
        "   delivered {:6} packets; mean {:.2} ms, 99.9th {:.2} ms, max {:.2} ms",
        r.delivered,
        r.mean_delay * 1e3,
        r.p999_delay * 1e3,
        r.max_delay * 1e3
    );
    let honoured = r.max_delay <= bound.as_secs_f64();
    println!(
        "   Parekh-Gallager bound {:.2} ms — {}",
        bound.as_millis_f64(),
        if honoured {
            "honoured despite the flood (isolation works)"
        } else {
            "VIOLATED (this should not happen)"
        }
    );
    for i in 0..3 {
        let lr = net.monitor().link_report(i);
        println!(
            "   link {}: utilization {:5.1}%, {} drops",
            i + 1,
            lr.utilization * 100.0,
            lr.drops
        );
    }
    if !honoured {
        std::process::exit(1);
    }
}

/// The "video" source: 120 pkt/s on average, bursts of ~12 frames at 480 pkt/s.
fn video_config(seed: u64) -> OnOffConfig {
    OnOffConfig {
        avg_rate_pps: 120.0,
        peak_rate_pps: 480.0,
        mean_burst_pkts: 12.0,
        packet_bits: PKT,
        policer: None,
        start_offset: SimTime::ZERO,
        seed,
    }
}

/// Record the generation times of the video source (without a network) so
/// its `b(r)` curve can be computed.
fn record_video_trace(seconds: f64, seed: u64) -> Vec<(SimTime, u64)> {
    let cfg = video_config(seed);
    let mut rng = Pcg64::new(seed);
    let mut out = Vec::new();
    let mut t = 0.0f64;
    while t < seconds {
        let burst = rng.geometric(cfg.mean_burst_pkts);
        for _ in 0..burst {
            if t >= seconds {
                break;
            }
            out.push((SimTime::from_secs_f64(t), PKT));
            t += 1.0 / cfg.peak_rate_pps;
        }
        t += rng.exponential(cfg.mean_idle_secs());
    }
    out
}
