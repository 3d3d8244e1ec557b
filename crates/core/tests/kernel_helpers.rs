//! The kernel's helper threads, counted by the pool itself. This is the
//! only test in its binary: a batch at a larger worker count anywhere
//! else in the process would grow the pool while it runs.

use hmcs_core::batch::BatchOptions;
use hmcs_core::config::SystemConfig;
use hmcs_core::kernel::{self, LaneBounds, LaneService};
use hmcs_core::optimize::{self, Constraints, OptimizeSpec};
use hmcs_core::scenario::{Scenario, PAPER_CLUSTER_COUNTS};
use hmcs_topology::transmission::Architecture;

#[test]
fn warm_kernel_batches_spawn_no_threads() {
    // Twelve lanes: four workers cut them into four blocks.
    let configs: Vec<SystemConfig> = [Architecture::NonBlocking, Architecture::Blocking]
        .iter()
        .flat_map(|&arch| {
            PAPER_CLUSTER_COUNTS
                .iter()
                .map(move |&c| SystemConfig::paper_preset(Scenario::Case1, c, arch).unwrap())
        })
        .collect();
    let service: Vec<LaneService> =
        configs.iter().map(|c| LaneService::compute(c).unwrap()).collect();
    let bounds = vec![LaneBounds::NONE; configs.len()];
    assert_eq!(kernel::helpers_spawned(), 0, "no batch has run yet");

    // One helper serves every two-worker batch.
    for _ in 0..200 {
        kernel::evaluate_batch_bounded(&configs, &service, &bounds, 2);
        kernel::evaluate_batch(&configs, 2);
    }
    assert_eq!(kernel::helpers_spawned(), 1, "200 two-worker batches");

    // A whole two-worker plan (its probe batch, its waves and the
    // frontier's sensitivity) spawns no thread on a warm pool.
    let spec = OptimizeSpec::paper_default(Constraints {
        slo_latency_us: Some(5_000.0),
        budget_usd: Some(200_000.0),
        ..Constraints::default()
    });
    let outcome = optimize::optimize_pruned(&spec, BatchOptions::with_workers(2)).unwrap();
    optimize::frontier_sensitivity(&outcome, spec.constraints.slo_latency_us).unwrap();
    assert!(!outcome.frontier.is_empty());
    assert_eq!(kernel::helpers_spawned(), 1, "a warm two-worker plan");

    // The pool grows only to one fewer than the largest worker count.
    kernel::evaluate_batch(&configs, 4);
    assert_eq!(kernel::helpers_spawned(), 3, "a four-worker batch");
    kernel::evaluate_batch(&configs, 3);
    kernel::evaluate_batch(&configs, 2);
    assert_eq!(kernel::helpers_spawned(), 3, "batches below the largest worker count");
}
