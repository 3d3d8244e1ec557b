//! Benchmarks of the simulators' event throughput — flow and packet —
//! the cost the analytical model exists to avoid ("simulation ... is
//! highly time-consuming and expensive", §2). Also pins the
//! analysis-to-simulation speed advantage.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hmcs_core::config::SystemConfig;
use hmcs_core::model::AnalyticalModel;
use hmcs_core::scenario::Scenario;
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
    targets = flow_simulator, packet_simulator, analysis_vs_simulation_speed
}
criterion_main!(benches);
