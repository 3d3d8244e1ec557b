//! The kernel's helper threads, counted by the pool itself. This is the
//! only test in its binary: a batch at a larger worker count anywhere
//! else in the process would grow the pool while it runs.

use hmcs_core::batch::BatchOptions;
use hmcs_core::config::SystemConfig;
use hmcs_core::kernel::{self, LaneBounds, LaneService, HELPER_MIN_LANES};
use hmcs_core::optimize::{self, Constraints, OptimizeSpec};
use hmcs_core::scenario::{Scenario, PAPER_CLUSTER_COUNTS};
use hmcs_core::work;
use hmcs_topology::transmission::Architecture;

/// `count` lanes cycling through both architectures and every paper
/// cluster count on a λ grid.
fn lanes(count: usize) -> Vec<SystemConfig> {
    let shapes: Vec<SystemConfig> = [Architecture::NonBlocking, Architecture::Blocking]
        .iter()
        .flat_map(|&arch| {
            PAPER_CLUSTER_COUNTS
                .iter()
                .map(move |&c| SystemConfig::paper_preset(Scenario::Case1, c, arch).unwrap())
        })
        .collect();
    (0..count)
        .map(|i| {
            let shape = shapes[i % shapes.len()];
            shape.with_lambda(shape.lambda_per_us * 1.001f64.powi(i as i32))
        })
        .collect()
}

#[test]
fn warm_kernel_batches_spawn_no_threads() {
    assert_eq!(kernel::helpers_spawned(), 0, "no batch has run yet");

    // Below two blocks of `HELPER_MIN_LANES`, a two-worker batch runs
    // whole on the calling thread and wakes no helper.
    let small = lanes(2 * HELPER_MIN_LANES - 1);
    let before = work::tally();
    kernel::evaluate_batch(&small, 2);
    assert_eq!((work::tally() - before).helper_blocks, 0);
    assert_eq!(kernel::helpers_spawned(), 0, "a two-worker batch below the threshold");

    // Two blocks' worth of lanes: four workers cut them into two blocks.
    let configs = lanes(2 * HELPER_MIN_LANES);
    let service: Vec<LaneService> =
        configs.iter().map(|c| LaneService::compute(c).unwrap()).collect();
    let bounds = vec![LaneBounds::NONE; configs.len()];
    // One helper serves every two-worker batch.
    for _ in 0..200 {
        kernel::evaluate_batch_bounded(&configs, &service, &bounds, 2);
        kernel::evaluate_batch(&configs, 4);
    }
    assert_eq!(kernel::helpers_spawned(), 1, "200 two-block batches");

    // A whole two-worker plan (its probe batch, its waves and the
    // frontier's sensitivity) spawns no thread on a warm pool, and its
    // batches are too small to send a block to the helper.
    let spec = OptimizeSpec::paper_default(Constraints {
        slo_latency_us: Some(5_000.0),
        budget_usd: Some(200_000.0),
        ..Constraints::default()
    });
    let before = work::tally();
    let outcome = optimize::optimize_pruned(&spec, BatchOptions::with_workers(2)).unwrap();
    optimize::frontier_sensitivity(&outcome, spec.constraints.slo_latency_us).unwrap();
    assert_eq!((work::tally() - before).helper_blocks, 0, "a two-worker plan's helper blocks");
    assert!(!outcome.frontier.is_empty());
    assert_eq!(kernel::helpers_spawned(), 1, "a warm two-worker plan");

    // The pool grows only to one fewer than the most blocks a batch
    // was cut into.
    let configs = lanes(4 * HELPER_MIN_LANES);
    kernel::evaluate_batch(&configs, 4);
    assert_eq!(kernel::helpers_spawned(), 3, "a four-worker batch");
    kernel::evaluate_batch(&configs, 3);
    kernel::evaluate_batch(&configs, 2);
    assert_eq!(kernel::helpers_spawned(), 3, "batches below the largest worker count");
}
