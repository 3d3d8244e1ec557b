//! Work counts of the solver and the planner, pinned: how many real
//! evaluations of the eq.-7 residual a kernel batch makes, and how many
//! designs, lanes and lane-passes a capacity plan costs. Unlike CPU
//! time these do not depend on the host, so a change that makes a hot
//! path do more work fails here.
//!
//! Counts come from the kernel's own return values and from this
//! thread's work tally ([`hmcs_core::work`]), never from the global
//! metrics registry, so tests running in parallel cannot land in each
//! other's counts. Plans run at one worker: lane-passes depend on how a
//! batch is cut into blocks.

use hmcs_core::batch::BatchOptions;
use hmcs_core::config::SystemConfig;
use hmcs_core::kernel::BatchKernel;
use hmcs_core::optimize::{self, Constraints, DesignSpace, OptimizeSpec, Workload};
use hmcs_core::scenario::{Scenario, PAPER_CLUSTER_COUNTS, PAPER_LAMBDA_PER_US, PAPER_TOTAL_NODES};
use hmcs_core::sensitivity;
use hmcs_core::work::{self, Work};
use hmcs_topology::splitmix::SplitMix64;
use hmcs_topology::transmission::Architecture;

/// The paper grid: both scenarios, both architectures, every cluster
/// count.
fn paper_grid() -> Vec<SystemConfig> {
    let mut configs = Vec::new();
    for scenario in [Scenario::Case1, Scenario::Case2] {
        for arch in [Architecture::NonBlocking, Architecture::Blocking] {
            for &c in &PAPER_CLUSTER_COUNTS {
                configs.push(SystemConfig::paper_preset(scenario, c, arch).unwrap());
            }
        }
    }
    configs
}

#[test]
fn the_paper_grid_bisects_in_47_iterations() {
    let configs = paper_grid();
    let mut arena = BatchKernel::default();
    let lanes = arena.evaluate(&configs);
    for lane in &lanes {
        assert_eq!(lane.as_ref().unwrap().1.solver_iterations, 47);
    }
    let work = arena.work();
    assert_eq!(work.lanes, 36);
    // Full bisection evaluates every one of its 47 counted probes but
    // the residual at the root: 46 per lane.
    assert_eq!(work.evaluations, PAPER_GRID_EVALUATIONS);
    assert_eq!(work.lane_passes, PAPER_GRID_LANE_PASSES);
    assert_eq!(work.designs_priced, 0);
}

/// Uniform draw in `[lo, hi)`.
fn uniform(rng: &mut SplitMix64, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Plans per seed.
const PLANS: usize = 6;

/// The capacity plans of one seed, as the benchmark's `plan` workload
/// draws them: each of three message sizes twice, and the offered
/// rate, latency SLO and budget each stratified over six slices of
/// their range around the paper's operating point.
fn plan_specs(seed: u64) -> Vec<OptimizeSpec> {
    let mut rng = SplitMix64::new(seed ^ 0x9_1A4E);
    let mut strata = |lo: f64, hi: f64| -> Vec<f64> {
        let mut order: Vec<usize> = (0..PLANS).collect();
        for i in (1..PLANS).rev() {
            order.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
        order
            .into_iter()
            .map(|k| lo + (hi - lo) * (k as f64 + uniform(&mut rng, 0.0, 1.0)) / PLANS as f64)
            .collect()
    };
    let (bytes, lambda) = (strata(0.0, PLANS as f64), strata(0.8, 1.2));
    let (slo_ms, budget) = (strata(25.0, 35.0), strata(150_000.0, 250_000.0));
    (0..PLANS)
        .map(|k| OptimizeSpec {
            workload: Workload {
                scenario: Scenario::Case1,
                total_nodes: PAPER_TOTAL_NODES,
                message_bytes: [512, 1024, 2048][bytes[k] as usize % 3],
                lambda_per_us: PAPER_LAMBDA_PER_US * lambda[k],
            },
            constraints: Constraints {
                slo_latency_us: Some(slo_ms[k] * 1000.0),
                budget_usd: Some(budget[k]),
                require_unsaturated: false,
            },
            space: DesignSpace::expanded(PAPER_TOTAL_NODES),
        })
        .collect()
}

/// One plan's work: the pruned walk plus the frontier's sensitivity,
/// and the lanes of each frontier point's λ-for-latency search.
fn plan_work(spec: &OptimizeSpec) -> (Work, Vec<u64>) {
    let before = work::tally();
    let outcome = optimize::optimize_pruned(spec, BatchOptions::with_workers(1)).unwrap();
    optimize::frontier_sensitivity(&outcome, spec.constraints.slo_latency_us).unwrap();
    let plan = work::tally() - before;
    let budget = spec.constraints.slo_latency_us.unwrap();
    let search_lanes = outcome
        .frontier
        .iter()
        .map(|point| {
            let before = work::tally();
            sensitivity::lambda_for_latency(&point.design.config, budget).unwrap();
            (work::tally() - before).lanes
        })
        .collect();
    (plan, search_lanes)
}

#[test]
fn seed_one_plans_are_pinned() {
    let specs = plan_specs(1);
    let plans: Vec<(Work, Vec<u64>)> = specs.iter().map(plan_work).collect();
    let mut passes = 0;
    for (k, (spec, (plan, search_lanes))) in specs.iter().zip(&plans).enumerate() {
        assert_eq!(plan.designs_priced, PLAN_DESIGNS_PRICED[k], "plan {k} designs priced");
        assert!(plan.designs_priced < spec.space.len() as u64);
        assert_eq!(plan.lanes, PLAN_LANES[k], "plan {k} lanes");
        assert_eq!(plan.lane_passes, PLAN_LANE_PASSES[k], "plan {k} lane-passes");
        assert_eq!(&search_lanes[..], PLAN_SEARCH_LANES[k], "plan {k} search lanes per point");
        passes += plan.lane_passes;
    }
    // The lockstep passes of a seed-1 plan averaged 74,195 lane
    // evaluations while every frontier point solved its whole λ ladder,
    // and 58,152 while saturated designs became kernel lanes; pruning
    // those on their saturation floor cut the average to 24,660.
    assert!(passes <= 24_660 * PLANS as u64);
}

/// Real evaluations of the paper-grid batch: 46 per lane.
const PAPER_GRID_EVALUATIONS: u64 = 1_656;
/// Lockstep lane-passes of the paper-grid batch: 45 midpoint passes
/// over all 36 lanes.
const PAPER_GRID_LANE_PASSES: u64 = 1_620;
/// Designs each seed-1 plan's enumeration priced one by one, of the
/// 21,280 in its space.
const PLAN_DESIGNS_PRICED: [u64; PLANS] = [9_880, 9_880, 7_220, 5_320, 9_310, 5_320];
/// Kernel lanes of each seed-1 plan (4,124–5,052 before saturated
/// designs were pruned on their saturation floor).
const PLAN_LANES: [u64; PLANS] = [712, 611, 457, 452, 540, 516];
/// Lockstep lane-passes of each seed-1 plan (50,061–66,472 before the
/// saturation floor).
const PLAN_LANE_PASSES: [u64; PLANS] = [32_040, 27_495, 20_565, 20_340, 24_300, 23_220];
/// Lanes of each frontier point's λ-for-latency search, per seed-1
/// plan: at most 14 ladder rungs (47 before the ladder was searched)
/// plus three per Newton polish step.
const PLAN_SEARCH_LANES: [&[u64]; PLANS] = [
    &[125, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7],
    &[7; 12],
    &[7; 8],
    &[56, 7, 7, 7, 7, 7, 7],
    &[7; 10],
    &[116, 7, 7, 7, 7, 7],
];
