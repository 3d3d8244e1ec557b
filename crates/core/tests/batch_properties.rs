//! Property tests for the batch-evaluation engine: parallel execution
//! must never change results, and kernel evaluations must equal the
//! scalar reference solver bit for bit.

use hmcs_core::batch;
use hmcs_core::config::SystemConfig;
use hmcs_core::error::ModelError;
use hmcs_core::metrics;
use hmcs_core::model::{AnalyticalModel, PerformanceReport};
use hmcs_core::scenario::{Scenario, PAPER_CLUSTER_COUNTS, PAPER_TOTAL_NODES};
use hmcs_core::{kernel, solver, sweep};
use hmcs_topology::transmission::Architecture;
use proptest::prelude::*;

/// Re-enables metric recording on drop, so a failing assertion can't
/// leave the process-global flag off for later tests in this binary.
struct MetricsGuard;

impl Drop for MetricsGuard {
    fn drop(&mut self) {
        metrics::set_enabled(true);
    }
}

fn any_scenario() -> impl Strategy<Value = Scenario> {
    prop_oneof![Just(Scenario::Case1), Just(Scenario::Case2)]
}

fn any_architecture() -> impl Strategy<Value = Architecture> {
    prop_oneof![Just(Architecture::NonBlocking), Just(Architecture::Blocking)]
}

/// Evaluates the paper's cluster grid at 256 nodes through the kernel
/// on `workers` workers, one report per cluster count.
fn cluster_grid_reports(base: &SystemConfig, workers: usize) -> Vec<PerformanceReport> {
    let configs: Vec<SystemConfig> = PAPER_CLUSTER_COUNTS
        .iter()
        .map(|&c| {
            let mut cfg = *base;
            cfg.clusters = c;
            cfg.nodes_per_cluster = PAPER_TOTAL_NODES / c;
            cfg
        })
        .collect();
    kernel::evaluate_batch(&configs, workers).into_iter().map(|r| r.unwrap().0).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The full paper cluster grid, evaluated in parallel, is
    /// bit-identical to the sequential evaluation — every f64 of every
    /// report compares equal, not merely close.
    #[test]
    fn parallel_sweep_is_bit_identical_to_sequential(
        scenario in any_scenario(),
        arch in any_architecture(),
        message_bytes in prop_oneof![Just(512u64), Just(1024u64)],
        lambda_exp in -6.0f64..-3.0,
        workers in 2usize..6,
    ) {
        let base = SystemConfig::paper_preset(scenario, 1, arch)
            .unwrap()
            .with_message_bytes(message_bytes)
            .with_lambda(10f64.powf(lambda_exp));
        let seq = cluster_grid_reports(&base, 1);
        let par = cluster_grid_reports(&base, workers);
        // PerformanceReport is PartialEq over all its floats: exact
        // equality, no tolerance.
        prop_assert_eq!(seq, par);
    }

    /// A λ-sweep, whose lanes share one service-time computation, lands
    /// on exactly the fixed point an independent reference solve finds,
    /// for any shape on the paper grid.
    #[test]
    fn warm_started_bisection_matches_cold_start(
        scenario in any_scenario(),
        arch in any_architecture(),
        cluster_idx in 0usize..PAPER_CLUSTER_COUNTS.len(),
        lambda_lo_exp in -6.0f64..-4.5,
    ) {
        let clusters = PAPER_CLUSTER_COUNTS[cluster_idx];
        let base = SystemConfig::paper_preset(scenario, clusters, arch).unwrap();
        // A geometric ramp from light load up through the saturation
        // knee.
        let lambdas: Vec<f64> =
            (0..8).map(|i| 10f64.powf(lambda_lo_exp + 0.45 * i as f64)).collect();
        let swept = sweep::lambda_sweep(&base, &lambdas).unwrap();
        for (pt, &l) in swept.iter().zip(&lambdas) {
            let reference = solver::solve(&base.with_lambda(l)).unwrap();
            prop_assert_eq!(
                pt.report.equilibrium,
                reference,
                "λ={} C={} {:?} {:?}",
                l,
                clusters,
                scenario,
                arch
            );
        }
    }

    /// A metrics-instrumented parallel sweep is bit-identical to the
    /// uninstrumented sequential path: recording counters/histograms
    /// observes the computation but must never feed back into it.
    #[test]
    fn instrumented_sweep_is_bit_identical_to_uninstrumented(
        scenario in any_scenario(),
        arch in any_architecture(),
        message_bytes in prop_oneof![Just(512u64), Just(1024u64)],
        lambda_exp in -6.0f64..-3.0,
        workers in 2usize..6,
    ) {
        let base = SystemConfig::paper_preset(scenario, 1, arch)
            .unwrap()
            .with_message_bytes(message_bytes)
            .with_lambda(10f64.powf(lambda_exp));

        let _guard = MetricsGuard;
        metrics::set_enabled(false);
        let uninstrumented = cluster_grid_reports(&base, 1);

        metrics::set_enabled(true);
        let solves_before = metrics::counter(metrics::keys::SOLVER_SOLVES).get();
        let instrumented = cluster_grid_reports(&base, workers);
        let solves_after = metrics::counter(metrics::keys::SOLVER_SOLVES).get();

        prop_assert!(
            solves_after >= solves_before + PAPER_CLUSTER_COUNTS.len() as u64,
            "instrumented run must record its solves"
        );
        // Exact f64 equality across every field of every report.
        prop_assert_eq!(uninstrumented, instrumented);
    }

    /// Replication-style fan-out through par_map preserves order and
    /// content for arbitrary worker counts and item counts.
    #[test]
    fn par_map_is_order_preserving(
        len in 0usize..64,
        workers in 1usize..9,
        offset in 0u64..1000,
    ) {
        let items: Vec<u64> = (0..len as u64).map(|i| i + offset).collect();
        let out = batch::par_map(&items, workers, |&x| x * 3 + 1);
        let expected: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
        prop_assert_eq!(out, expected);
    }
}

/// The production facade [`AnalyticalModel::evaluate`] runs on the
/// kernel; it must equal the scalar reference [`solver::solve`] bit for
/// bit, failures included.
#[test]
fn facade_and_engine_agree() {
    let reference = |cfg: &SystemConfig| -> Result<PerformanceReport, ModelError> {
        solver::solve(cfg).map(|eq| PerformanceReport::from_equilibrium(cfg, eq))
    };
    for arch in [Architecture::NonBlocking, Architecture::Blocking] {
        let cfg = SystemConfig::paper_preset(Scenario::Case1, 16, arch).unwrap();
        let facade = AnalyticalModel::evaluate(&cfg).unwrap();
        assert_eq!(facade, reference(&cfg).unwrap());
        assert!(facade.equilibrium.solver_iterations > 0);
        let invalid = cfg.with_lambda(-1.0);
        assert_eq!(AnalyticalModel::evaluate(&invalid), reference(&invalid));
        assert!(AnalyticalModel::evaluate(&invalid).is_err());
    }
}
