//! Heap allocations of the analytical hot paths, counted exactly.
//!
//! A kernel arena rewinds its columns without releasing capacity, so a
//! batch that fits the storage an earlier batch grew allocates only the
//! result vector it returns; the single-point facade, the sensitivity
//! probes and the caller's block of a parallel batch solve on their
//! thread's arena the same way. The counting allocator keeps each
//! thread's count apart and counts only while that thread asks, so
//! tests running in parallel cannot land in each other's counts; a
//! parallel batch is counted on its calling thread.

use hmcs_core::batch::BatchOptions;
use hmcs_core::config::SystemConfig;
use hmcs_core::kernel::{self, BatchKernel, LaneBounds, LaneOutcome, LaneService};
use hmcs_core::model::AnalyticalModel;
use hmcs_core::optimize::{self, Constraints, DesignSpace, OptimizeSpec, Workload};
use hmcs_core::scenario::{Scenario, PAPER_CLUSTER_COUNTS};
use hmcs_core::sensitivity;
use hmcs_core::work;
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

fn case1_c16() -> SystemConfig {
    SystemConfig::paper_preset(Scenario::Case1, 16, Architecture::NonBlocking).unwrap()
}

#[test]
fn a_warm_sensitivity_evaluation_allocates_only_its_result() {
    let cfg = case1_c16();
    sensitivity::evaluate(&cfg).unwrap();
    let warm = allocations(|| {
        sensitivity::evaluate(&cfg).unwrap();
    });
    assert_eq!(warm, SENSITIVITY_WARM, "a warm sensitivity evaluation's allocations");
}

#[test]
fn a_warm_lambda_search_allocates_only_its_outcome_buffer() {
    let cfg = case1_c16();
    // Twice the operating point's latency: the ladder brackets the
    // crossing and the Newton polish runs.
    let budget = 2.0 * AnalyticalModel::evaluate(&cfg).unwrap().latency.mean_message_latency_us;
    let lambda = sensitivity::lambda_for_latency(&cfg, budget).unwrap();
    assert!(lambda.is_some_and(|l| l > cfg.lambda_per_us));
    let warm = allocations(|| {
        sensitivity::lambda_for_latency(&cfg, budget).unwrap();
    });
    assert_eq!(warm, LAMBDA_SEARCH_WARM, "a warm λ-for-latency search's allocations");
}

#[test]
fn a_warm_bounded_batch_allocates_only_its_result_at_one_and_two_workers() {
    // Two blocks' worth of lanes of one shape on a λ grid, half of them
    // bounded by an SLO they cross, so both solved and pruned lanes come
    // back, and two workers send one block to a helper.
    let base = case1_c16();
    let configs: Vec<SystemConfig> = (0..2 * kernel::HELPER_MIN_LANES as i32)
        .map(|i| base.with_lambda(1e-5 * 1.01f64.powi(i)))
        .collect();
    let service = vec![LaneService::compute(&base).unwrap(); configs.len()];
    let bounds: Vec<LaneBounds> = (0..configs.len())
        .map(|i| {
            if i % 2 == 0 {
                LaneBounds::NONE
            } else {
                LaneBounds { slo_us: 700.0, ..LaneBounds::NONE }
            }
        })
        .collect();
    let cold = kernel::evaluate_batch_bounded(&configs, &service, &bounds, 1);
    assert!(cold.iter().any(|o| matches!(o, LaneOutcome::Pruned { .. })));
    assert!(cold.iter().any(|o| matches!(o, LaneOutcome::Solved(..))));
    for (workers, pinned) in [(1, BOUNDED_WARM_ONE_WORKER), (2, BOUNDED_WARM_TWO_WORKERS)] {
        let cold = kernel::evaluate_batch_bounded(&configs, &service, &bounds, workers);
        let mut warm_outcomes = Vec::new();
        let before = work::tally();
        let warm = allocations(|| {
            warm_outcomes = kernel::evaluate_batch_bounded(&configs, &service, &bounds, workers);
        });
        assert_eq!((work::tally() - before).helper_blocks, workers as u64 - 1);
        assert_eq!(timeless(warm_outcomes), timeless(cold), "workers={workers}");
        assert_eq!(
            warm,
            pinned,
            "a warm {}-lane bounded batch's allocations at {workers} workers",
            configs.len()
        );
    }
}

#[test]
fn a_warm_pruned_plan_allocates_a_fixed_count() {
    // The expanded 21,280-design space under an SLO and a budget, at one
    // worker: enumeration, probe batch, gradient ordering, waves and
    // the Pareto reduction.
    let spec = OptimizeSpec {
        workload: Workload::paper_default(),
        constraints: Constraints {
            slo_latency_us: Some(30_000.0),
            budget_usd: Some(200_000.0),
            require_unsaturated: false,
        },
        space: DesignSpace::expanded(256),
    };
    let options = BatchOptions::with_workers(1);
    let cold = optimize::optimize_pruned(&spec, options).unwrap();
    let mut outcome = None;
    let warm = allocations(|| {
        outcome = Some(optimize::optimize_pruned(&spec, options).unwrap());
    });
    assert_eq!(outcome.unwrap().frontier, cold.frontier);
    assert_eq!(warm, PRUNED_PLAN_WARM, "a warm pruned plan's allocations");
}

#[test]
fn a_warm_frontier_sensitivity_allocates_a_fixed_count() {
    // The frontier of a plan over the paper space under an SLO: its
    // points' derivatives and λ-for-latency searches, batched.
    let spec = OptimizeSpec::paper_default(Constraints {
        slo_latency_us: Some(30_000.0),
        ..Constraints::default()
    });
    let outcome = optimize::optimize_pruned(&spec, BatchOptions::with_workers(1)).unwrap();
    let slo = spec.constraints.slo_latency_us;
    let cold = optimize::frontier_sensitivity(&outcome, slo).unwrap();
    let mut rows = None;
    let warm = allocations(|| {
        rows = Some(optimize::frontier_sensitivity(&outcome, slo).unwrap());
    });
    assert_eq!(rows.unwrap(), cold);
    assert_eq!(outcome.frontier.len(), FRONTIER_POINTS);
    assert_eq!(warm, FRONTIER_SENSITIVITY_WARM, "a warm frontier sensitivity's allocations");
}

/// `outcomes` without their wall-clock times, the one field two solves
/// of the same lanes may disagree on.
fn timeless(mut outcomes: Vec<LaneOutcome>) -> Vec<LaneOutcome> {
    for outcome in &mut outcomes {
        if let LaneOutcome::Solved(_, stats) = outcome {
            stats.eval_time_us = 0.0;
        }
    }
    outcomes
}

/// Allocations of a warm batch: the lane-ordered result vector.
const KERNEL_WARM: u64 = 1;
/// Allocations of a warm single-point evaluation: the one-lane result
/// vector.
const MODEL_WARM: u64 = 1;
/// Allocations of a warm sensitivity evaluation: the probes' result
/// vector (36 on the per-call arena it used to build).
const SENSITIVITY_WARM: u64 = 1;
/// Allocations of a warm λ-for-latency search: the outcome buffer its
/// solves share (39 on its own per-call arena and probe vectors).
const LAMBDA_SEARCH_WARM: u64 = 1;
/// Allocations of a warm pruned plan over the expanded space: the
/// enumeration's tables and candidates, the family index, the waves'
/// buffers and the outcome (479 while the gradient ordering collected
/// each family's probes into a vector of its own; 406 while each family
/// had a vector of its members and the feasible set held whole designs).
const PRUNED_PLAN_WARM: u64 = 61;
/// Frontier points of the plan whose sensitivity is pinned.
const FRONTIER_POINTS: usize = 14;
/// Allocations of a warm frontier sensitivity: the frontier's
/// configurations, the two batches' results and the rows (4), and the
/// rows' design keys, whose formatting allocates six or seven times
/// each (122 while each point's derivatives and λ search allocated
/// their own result and outcome buffers).
const FRONTIER_SENSITIVITY_WARM: u64 = 97;
/// Allocations of a warm bounded batch at one worker: the result
/// vector (4 through the scoped-thread pool).
const BOUNDED_WARM_ONE_WORKER: u64 = 1;
/// Allocations of a warm bounded batch at two workers, on the calling
/// thread: the result vector alone, since the helper's block and its
/// outcome buffer are the ones the previous batch handed back (12
/// through the scoped-thread pool).
const BOUNDED_WARM_TWO_WORKERS: u64 = 1;
