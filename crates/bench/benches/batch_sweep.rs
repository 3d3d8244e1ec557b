//! Pins the batch engine's parallel speedup on the full
//! figure-reproduction grid: all four figures' analysis columns
//! (2 scenarios × 2 architectures × 2 message sizes × 9 cluster
//! counts = 72 evaluations) as one batch, at several worker counts.
//!
//! On a ≥4-core machine the 4-worker row should run ≥2× faster than
//! the 1-worker row; on smaller machines the rows degrade gracefully
//! to the sequential time (the pool never spawns more workers than
//! items, and one worker means no threads at all).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hmcs_core::config::SystemConfig;
use hmcs_core::kernel;
use hmcs_core::metrics;
use hmcs_core::scenario::{Scenario, PAPER_CLUSTER_COUNTS, PAPER_MESSAGE_SIZES};
use hmcs_topology::transmission::Architecture;

fn figure_grid() -> Vec<SystemConfig> {
    let mut configs = Vec::new();
    for scenario in [Scenario::Case1, Scenario::Case2] {
        for arch in [Architecture::NonBlocking, Architecture::Blocking] {
            for &bytes in &PAPER_MESSAGE_SIZES[..2] {
                for &c in &PAPER_CLUSTER_COUNTS {
                    configs.push(
                        SystemConfig::paper_preset(scenario, c, arch)
                            .unwrap()
                            .with_message_bytes(bytes),
                    );
                }
            }
        }
    }
    configs
}

fn bench_figure_grid(c: &mut Criterion) {
    let configs = figure_grid();
    let mut group = c.benchmark_group("figure_grid");
    group.throughput(Throughput::Elements(configs.len() as u64));
    let max_workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    for workers in [1usize, 2, 4, 8] {
        if workers > 1 && workers > 2 * max_workers {
            // Oversubscribing far past the core count only measures
            // scheduler noise; skip those rows on small machines.
            continue;
        }
        group.bench_with_input(BenchmarkId::new("workers", workers), &workers, |b, &workers| {
            b.iter(|| {
                let results = kernel::evaluate_batch(&configs, workers);
                assert!(results.iter().all(Result::is_ok));
                results
            })
        });
    }
    group.finish();
}

/// The observability layer's hot-path cost, measured where it matters:
/// the same 72-point grid, sequentially, with metric recording on vs
/// off. The budget is ≤2% — relaxed atomic adds per *evaluation* (not
/// per solver iteration) should be invisible next to a ~µs solve.
fn bench_instrumentation_overhead(c: &mut Criterion) {
    let configs = figure_grid();
    let mut group = c.benchmark_group("instrumentation");
    group.throughput(Throughput::Elements(configs.len() as u64));
    for (label, enabled) in [("metrics_on", true), ("metrics_off", false)] {
        group.bench_function(label, |b| {
            metrics::set_enabled(enabled);
            b.iter(|| {
                let results = kernel::evaluate_batch(&configs, 1);
                assert!(results.iter().all(Result::is_ok));
                results
            });
            metrics::set_enabled(true);
        });
    }
    group.finish();
}

criterion_group!(benches, bench_figure_grid, bench_instrumentation_overhead);
criterion_main!(benches);
