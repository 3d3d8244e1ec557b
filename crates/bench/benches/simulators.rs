//! Benchmarks of the simulators' event throughput — flow and packet —
//! the cost the analytical model exists to avoid ("simulation ... is
//! highly time-consuming and expensive", §2), and of the future-event
//! list under them. Also pins the analysis-to-simulation speed
//! advantage.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hmcs_core::config::SystemConfig;
use hmcs_core::model::AnalyticalModel;
use hmcs_core::scenario::Scenario;
use hmcs_des::event::EventQueue;
use hmcs_des::rng::RngStream;
use hmcs_des::time::SimTime;
use hmcs_sim::config::SimConfig;
use hmcs_sim::flow::FlowSimulator;
use hmcs_sim::packet::PacketSimulator;
use hmcs_topology::transmission::Architecture;
use std::hint::black_box;

fn flow_simulator(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim/flow");
    for clusters in [4usize, 64] {
        let sys = SystemConfig::paper_preset(Scenario::Case1, clusters, Architecture::NonBlocking)
            .unwrap();
        let cfg = SimConfig::new(sys).with_messages(5_000).with_warmup(500).with_seed(1);
        group.throughput(Throughput::Elements(cfg.messages));
        group.bench_with_input(BenchmarkId::from_parameter(clusters), &cfg, |b, cfg| {
            b.iter(|| black_box(FlowSimulator::run(black_box(cfg)).unwrap()))
        });
    }
    group.finish();
}

fn packet_simulator(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim/packet");
    for arch in [Architecture::NonBlocking, Architecture::Blocking] {
        let sys = SystemConfig::paper_preset(Scenario::Case1, 16, arch).unwrap();
        let cfg = SimConfig::new(sys).with_messages(3_000).with_warmup(300).with_seed(1);
        group.throughput(Throughput::Elements(cfg.messages));
        group.bench_with_input(BenchmarkId::from_parameter(format!("{arch:?}")), &cfg, |b, cfg| {
            b.iter(|| black_box(PacketSimulator::run(black_box(cfg)).unwrap()))
        });
    }
    group.finish();
}

/// Pending events in the hold benchmark: one think-time event per
/// processor of the 1,024-processor figures.
const HOLD_PENDING: usize = 1_024;

/// The classic hold model of the future-event list: with
/// [`HOLD_PENDING`] events pending, pop the earliest and push its
/// successor an exponential delay later. One iteration is 1,024
/// pop+push pairs, so the queue stays at its steady-state size and
/// pre-sized storage, exactly as a long simulation sees it.
fn event_queue_hold(c: &mut Criterion) {
    let mut rng = RngStream::new(42, 0);
    let mut queue = EventQueue::with_capacity(HOLD_PENDING);
    for id in 0..HOLD_PENDING {
        queue.push(SimTime::from_us(rng.exponential_mean(1_000.0)), id);
    }
    let mut group = c.benchmark_group("des");
    group.throughput(Throughput::Elements(HOLD_PENDING as u64));
    group.bench_function("event_queue_hold_1k", |b| {
        b.iter(|| {
            for _ in 0..HOLD_PENDING {
                let (now, id) = queue.pop().expect("the hold keeps its population");
                let delay = SimTime::from_us(rng.exponential_mean(1_000.0));
                queue.push(now + delay, id);
            }
            black_box(queue.peek_time())
        })
    });
    group.finish();
}

fn analysis_vs_simulation_speed(c: &mut Criterion) {
    // The paper's motivation, quantified: one analysis evaluation vs one
    // 10,000-message simulation of the same system.
    let sys = SystemConfig::paper_preset(Scenario::Case1, 16, Architecture::NonBlocking).unwrap();
    let mut group = c.benchmark_group("speed_advantage");
    group.bench_function("analysis", |b| {
        b.iter(|| black_box(AnalyticalModel::evaluate(black_box(&sys)).unwrap()))
    });
    let cfg = SimConfig::new(sys).with_messages(10_000).with_warmup(2_000).with_seed(1);
    group.sample_size(10);
    group.bench_function("simulation_10k", |b| {
        b.iter(|| black_box(FlowSimulator::run(black_box(&cfg)).unwrap()))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = flow_simulator, packet_simulator, event_queue_hold, analysis_vs_simulation_speed
}
criterion_main!(benches);
