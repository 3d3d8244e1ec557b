//! Heap allocations of the analytical hot paths, counted exactly.
//!
//! A kernel arena rewinds its columns without releasing capacity, so a
//! batch that fits the storage an earlier batch grew allocates only the
//! result vector it returns; the single-point facade solves on its
//! thread's arena the same way. The counting allocator keeps each
//! thread's count apart and counts only while that thread asks, so
//! tests running in parallel cannot land in each other's counts.

use hmcs_core::config::SystemConfig;
use hmcs_core::kernel::BatchKernel;
use hmcs_core::model::AnalyticalModel;
use hmcs_core::scenario::{Scenario, PAPER_CLUSTER_COUNTS};
use hmcs_topology::transmission::Architecture;

#[path = "../../sim/tests/counting_alloc/mod.rs"]
mod counting_alloc;
use counting_alloc::allocations;

#[test]
fn a_warm_kernel_batch_allocates_only_its_result() {
    // The paper grid: both scenarios, both architectures, every cluster
    // count.
    let mut configs = Vec::new();
    for scenario in [Scenario::Case1, Scenario::Case2] {
        for arch in [Architecture::NonBlocking, Architecture::Blocking] {
            for &c in &PAPER_CLUSTER_COUNTS {
                configs.push(SystemConfig::paper_preset(scenario, c, arch).unwrap());
            }
        }
    }
    let mut arena = BatchKernel::new(&configs);
    arena.evaluate(&configs);
    let warm = allocations(|| {
        arena.evaluate(&configs);
    });
    assert_eq!(warm, KERNEL_WARM, "a warm {}-lane batch's allocations", configs.len());
}

#[test]
fn a_warm_model_evaluation_allocates_only_its_result() {
    let cfg = SystemConfig::paper_preset(Scenario::Case1, 16, Architecture::NonBlocking).unwrap();
    AnalyticalModel::evaluate(&cfg).unwrap();
    let warm = allocations(|| {
        AnalyticalModel::evaluate(&cfg).unwrap();
    });
    assert_eq!(warm, MODEL_WARM, "a warm single-point evaluation's allocations");
}

/// Allocations of a warm batch: the lane-ordered result vector.
const KERNEL_WARM: u64 = 1;
/// Allocations of a warm single-point evaluation: the one-lane result
/// vector.
const MODEL_WARM: u64 = 1;
