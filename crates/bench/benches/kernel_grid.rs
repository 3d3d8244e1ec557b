//! Pins the batched SoA kernel's speedup over the scalar reference
//! solver on a figure-scale λ grid: the same 96 log-spaced offered
//! rates evaluated (a) one [`solver::solve`] call per point plus report
//! assembly — the scalar algorithm, each point paying its own
//! `ServiceTimes` computation and per-evaluation setup — and (b) as
//! one [`sweep::lambda_sweep`] through the lockstep kernel, which
//! hoists the topology work and the per-lane coefficients once.
//!
//! The two paths are asserted bit-identical before timing starts, so
//! the ratio is a pure like-for-like cost comparison; `benchgate`
//! gates the ratio of the two means (`--min-ratio`, ≥5× on a quiet
//! host for the committed `BENCH_KERNEL.json`).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hmcs_core::config::SystemConfig;
use hmcs_core::model::PerformanceReport;
use hmcs_core::scenario::Scenario;
use hmcs_core::{solver, sweep};
use hmcs_topology::transmission::Architecture;
use std::hint::black_box;

/// 96 log-spaced per-processor rates spanning light load through the
/// saturation knee into retention-throttled overload — the λ range the
/// figure drivers and `/v1/sweep` actually walk.
fn lambda_grid() -> Vec<f64> {
    let (lo, hi) = (1e-7f64, 1e-2f64);
    let n = 96;
    (0..n)
        .map(|i| {
            let t = i as f64 / (n - 1) as f64;
            lo * (hi / lo).powf(t)
        })
        .collect()
}

fn base_config() -> SystemConfig {
    SystemConfig::paper_preset(Scenario::Case1, 16, Architecture::NonBlocking).unwrap()
}

/// The scalar reference for one point: service times and the
/// bisection inside [`solver::solve`], then report assembly.
fn scalar_point(config: &SystemConfig) -> PerformanceReport {
    PerformanceReport::from_equilibrium(config, solver::solve(config).unwrap())
}

fn bench_kernel_grid(c: &mut Criterion) {
    let base = base_config();
    let grid = lambda_grid();

    // Prove the two paths agree to the bit before timing them: a
    // speedup over a *different* answer would be meaningless.
    let batched = sweep::lambda_sweep(&base, &grid).unwrap();
    for (point, &lambda) in batched.iter().zip(&grid) {
        let scalar = scalar_point(&base.with_lambda(lambda));
        assert_eq!(
            point.report.latency.mean_message_latency_us.to_bits(),
            scalar.latency.mean_message_latency_us.to_bits(),
            "kernel and scalar paths diverged at lambda={lambda:e}"
        );
    }

    let mut group = c.benchmark_group("kernel_grid");
    group.throughput(Throughput::Elements(grid.len() as u64));
    group.bench_function("scalar_per_point", |b| {
        b.iter(|| {
            for &lambda in &grid {
                let cfg = base.with_lambda(lambda);
                black_box(scalar_point(black_box(&cfg)));
            }
        })
    });
    group.bench_function("batched", |b| {
        b.iter(|| black_box(sweep::lambda_sweep(black_box(&base), black_box(&grid)).unwrap()))
    });
    group.finish();
}

criterion_group!(benches, bench_kernel_grid);
criterion_main!(benches);
