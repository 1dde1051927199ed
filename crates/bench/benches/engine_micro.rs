//! Criterion micro-benchmarks of the simulation substrate: event-queue
//! throughput, the PCG generator, a setup request's whole life under churn,
//! and an end-to-end events-per-second figure for the Table-1 scenario (how
//! much simulated traffic the simulator pushes per wall-clock second).  The
//! queue, RNG and churn workload cores live in `ispn_bench::micro` so the
//! `snapshot` harness measures the same code.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use ispn_bench::micro;
use ispn_experiments::{config::PaperConfig, table1};
use ispn_scenario::DisciplineSpec;
use ispn_sim::SimTime;

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_push_pop_10k", |b| {
        b.iter(|| black_box(micro::event_queue_push_pop(10_000)))
    });
    c.bench_function("event_queue_paced_10k", |b| {
        b.iter(|| black_box(micro::event_queue_paced(10_000)))
    });
}

fn bench_rng(c: &mut Criterion) {
    c.bench_function("pcg64_exponential_100k", |b| {
        b.iter(|| black_box(micro::pcg_exponential(100_000)))
    });
}

fn bench_churn_request(c: &mut Criterion) {
    let mut group = c.benchmark_group("signal");
    group.sample_size(10);
    group.bench_function("churn_request_4k", |b| {
        b.iter(|| black_box(micro::churn_request(4_000)))
    });
    group.finish();
}

fn bench_table1_scenario(c: &mut Criterion) {
    // Short simulated duration so one iteration stays around tens of
    // milliseconds; the interesting number is simulated-seconds per
    // wall-clock second.
    let cfg = PaperConfig {
        duration: SimTime::from_secs(5),
        ..PaperConfig::paper()
    };
    let mut group = c.benchmark_group("table1_scenario_5s");
    group.sample_size(10);
    group.bench_function("fifo", |b| {
        b.iter(|| black_box(table1::run_single_link(&cfg, DisciplineSpec::Fifo)))
    });
    group.bench_function("wfq", |b| {
        b.iter(|| black_box(table1::run_single_link(&cfg, DisciplineSpec::Wfq)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_rng,
    bench_churn_request,
    bench_table1_scenario
);
criterion_main!(benches);
