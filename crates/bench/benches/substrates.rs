//! Micro-benchmarks of the substrate crates: exact Mean Value Analysis,
//! the fat-tree hop-count average and the DES event queue.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hmcs_des::event::EventQueue;
use hmcs_des::rng::RngStream;
use hmcs_des::time::SimTime;
use hmcs_queueing::closed::{mva, MvaStation};
use hmcs_topology::fat_tree::FatTree;
use hmcs_topology::switch::SwitchFabric;
use std::hint::black_box;

fn queueing_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("queueing/mva");
    for population in [16u32, 256] {
        let stations = [
            MvaStation::Delay { demand: 4000.0 },
            MvaStation::Queueing { demand: 120.0 },
            MvaStation::Queueing { demand: 160.0 },
            MvaStation::Queueing { demand: 180.0 },
        ];
        group.bench_with_input(BenchmarkId::from_parameter(population), &population, |b, &n| {
            b.iter(|| black_box(mva(&stations, n).unwrap()))
        });
    }
    group.finish();
}

fn topology_kernels(c: &mut Criterion) {
    let sw = SwitchFabric::paper_default();
    c.bench_function("topology/fat_tree_mean_traversals_4096", |b| {
        let ft = FatTree::new(4096, sw).unwrap();
        b.iter(|| black_box(ft.mean_switch_traversals()))
    });
}

fn des_kernels(c: &mut Criterion) {
    c.bench_function("des/event_queue_push_pop_10k", |b| {
        let mut rng = RngStream::new(42, 0);
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..10_000u32 {
                q.push(SimTime::from_us(rng.uniform() * 1e6), i);
            }
            let mut acc = 0u64;
            while let Some((_, v)) = q.pop() {
                acc += v as u64;
            }
            black_box(acc)
        })
    });
    c.bench_function("des/exponential_sampling_100k", |b| {
        let mut rng = RngStream::new(7, 1);
        b.iter(|| {
            let mut acc = 0.0;
            for _ in 0..100_000 {
                acc += rng.exponential(0.25);
            }
            black_box(acc)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = queueing_kernels, topology_kernels, des_kernels
}
criterion_main!(benches);
