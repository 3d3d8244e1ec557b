//! Property tests for the capacity-planning optimizer: for any
//! workload, constraint set and (small) design space, the reported
//! Pareto frontier must be exactly the set of non-dominated feasible
//! designs, bit-identical to direct `AnalyticalModel` evaluation, with
//! self-consistent binding-constraint diagnostics.

use hmcs_core::batch::BatchOptions;
use hmcs_core::model::AnalyticalModel;
use hmcs_core::optimize::{
    self, CatalogCostModel, Constraints, Design, DesignSpace, OptimizeSpec, Workload,
};
use hmcs_core::scenario::Scenario;
use hmcs_core::service::ServiceTimes;
use hmcs_core::solver;
use hmcs_topology::technology::NetworkTechnology;
use hmcs_topology::transmission::Architecture;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

fn any_scenario() -> impl Strategy<Value = Scenario> {
    prop_oneof![Just(Scenario::Case1), Just(Scenario::Case2)]
}

fn maybe(range: std::ops::Range<f64>) -> impl Strategy<Value = Option<f64>> {
    prop_oneof![Just(None), range.prop_map(Some)]
}

fn any_tech_pair() -> impl Strategy<Value = (usize, usize)> {
    // Indices into the preset catalogue; intra and inter pick
    // different (possibly equal) entries.
    (0usize..NetworkTechnology::PRESETS.len(), 0usize..NetworkTechnology::PRESETS.len())
}

/// A small spec: ≤ 5 cluster counts × 2 technologies per axis ×
/// 3 port counts × 2 architectures keeps the brute-force oracle cheap.
/// Two entries make designs unbuildable on purpose: 3 clusters divide
/// none of the node counts, and 2-port switches cannot form a
/// multi-stage fat-tree.
fn any_spec() -> impl Strategy<Value = OptimizeSpec> {
    (
        (prop_oneof![Just(8usize), Just(16), Just(32)], any_scenario(), 1u64..8192, -7.0f64..-3.5),
        (any_tech_pair(), maybe(0.5f64..500.0), maybe(3.0f64..6.0), any::<bool>()),
    )
        .prop_map(
            |(
                (total_nodes, scenario, bytes, lambda_exp),
                ((ti, tj), slo_ms, budget_exp, strict),
            )| {
                let workload = Workload {
                    scenario,
                    total_nodes,
                    message_bytes: bytes,
                    lambda_per_us: 10f64.powf(lambda_exp),
                };
                let presets = NetworkTechnology::PRESETS;
                let mut cluster_counts = DesignSpace::paper_default(total_nodes).cluster_counts;
                cluster_counts.push(3);
                let space = DesignSpace {
                    cluster_counts,
                    intra: vec![presets[ti], presets[tj]],
                    inter: vec![presets[tj]],
                    switch_ports: vec![2, 8, 16],
                    architectures: vec![Architecture::NonBlocking, Architecture::Blocking],
                };
                OptimizeSpec {
                    workload,
                    constraints: Constraints {
                        slo_latency_us: slo_ms.map(|v| v * 1e3),
                        budget_usd: budget_exp.map(|e| 10f64.powf(e)),
                        require_unsaturated: strict,
                    },
                    space,
                }
            },
        )
}

/// What the brute-force oracle finds: every feasible (design, cost,
/// latency) triple, and the designs the pre-filter drops under each
/// counter.
#[derive(Debug, Default)]
struct Oracle {
    feasible: Vec<(String, f64, f64)>,
    invalid: usize,
    over_budget: usize,
    saturated: usize,
}

/// Brute-force oracle: every design of the space through the
/// one-design path (`Design::build`, `CatalogCostModel::cost_usd`,
/// `ServiceTimes::compute`, direct single-point evaluation), counted
/// in that order. A design both over budget and saturated counts under
/// both.
fn brute_force(spec: &OptimizeSpec) -> Oracle {
    let mut out = Oracle::default();
    for &clusters in &spec.space.cluster_counts {
        for &intra in &spec.space.intra {
            for &inter in &spec.space.inter {
                for &ports in &spec.space.switch_ports {
                    for &arch in &spec.space.architectures {
                        let Ok(design) =
                            Design::build(&spec.workload, clusters, intra, inter, ports, arch)
                        else {
                            out.invalid += 1;
                            continue;
                        };
                        let cost = CatalogCostModel.cost_usd(&design).expect("preset catalogue");
                        let Ok(service) = ServiceTimes::compute(&design.config) else {
                            out.invalid += 1;
                            continue;
                        };
                        let over_budget = spec.constraints.budget_usd.is_some_and(|b| cost > b);
                        let saturated = spec.constraints.require_unsaturated
                            && spec.workload.lambda_per_us
                                >= solver::saturation_lambda(&design.config, &service);
                        out.over_budget += usize::from(over_budget);
                        out.saturated += usize::from(saturated);
                        if over_budget || saturated {
                            continue;
                        }
                        let Ok(report) = AnalyticalModel::evaluate(&design.config) else {
                            continue;
                        };
                        let latency = report.latency.mean_message_latency_us;
                        if !spec.constraints.slo_latency_us.is_none_or(|slo| latency <= slo) {
                            continue;
                        }
                        out.feasible.push((design.key(), cost, latency));
                    }
                }
            }
        }
    }
    out
}

/// The outcome's pre-filter counters equal the oracle's exactly.
fn assert_prefilter_counts(
    outcome: &optimize::OptimizeOutcome,
    oracle: &Oracle,
) -> Result<(), TestCaseError> {
    let d = &outcome.diagnostics;
    prop_assert_eq!(d.invalid, oracle.invalid, "invalid");
    prop_assert_eq!(d.over_budget, oracle.over_budget, "over_budget");
    prop_assert_eq!(d.saturated, oracle.saturated, "saturated");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The frontier is a strict staircase of non-dominated feasible
    /// designs, every feasible design is dominated-or-equalled by some
    /// frontier point, and the diagnostics counters balance.
    #[test]
    fn frontier_is_exactly_the_non_dominated_feasible_set(spec in any_spec()) {
        let outcome = optimize::optimize(&spec, BatchOptions::sequential()).unwrap();

        // Accounting identities.
        prop_assert_eq!(outcome.feasible, outcome.frontier.len() + outcome.diagnostics.dominated);
        prop_assert_eq!(
            outcome.evaluated,
            outcome.feasible + outcome.diagnostics.above_slo
        );
        prop_assert!(outcome.evaluated <= outcome.space_size);

        // Strict staircase: cost strictly rises, latency strictly falls.
        for pair in outcome.frontier.windows(2) {
            prop_assert!(pair[0].cost_usd < pair[1].cost_usd);
            prop_assert!(pair[0].latency_us > pair[1].latency_us);
        }

        // Oracle comparison: the pre-filter counts match, and the
        // frontier is feasible, non-dominated, and covers
        // (dominates-or-equals) every feasible design.
        let oracle = brute_force(&spec);
        assert_prefilter_counts(&outcome, &oracle)?;
        let feasible = oracle.feasible;
        prop_assert_eq!(outcome.feasible, feasible.len());
        for point in &outcome.frontier {
            let key = point.design.key();
            prop_assert!(
                feasible.iter().any(|(k, c, l)| *k == key
                    && c.to_bits() == point.cost_usd.to_bits()
                    && l.to_bits() == point.latency_us.to_bits()),
                "frontier point {} must appear in the brute-force feasible set", key
            );
            prop_assert!(
                !feasible.iter().any(|(k, c, l)| *k != key
                    && *c <= point.cost_usd
                    && *l <= point.latency_us
                    && (*c < point.cost_usd || *l < point.latency_us)),
                "frontier point {} must not be dominated", key
            );
        }
        for (key, cost, latency) in &feasible {
            prop_assert!(
                outcome.frontier.iter().any(|p| p.cost_usd <= *cost && p.latency_us <= *latency),
                "feasible design {} must be dominated-or-equalled by the frontier", key
            );
        }

        // The cheapest feasible design is the frontier's first point.
        if let Some(cheapest) = outcome.cheapest_feasible() {
            for (_, cost, _) in &feasible {
                prop_assert!(cheapest.cost_usd <= *cost);
            }
        } else {
            prop_assert!(feasible.is_empty());
        }
    }

    /// Every frontier metric is bit-identical to evaluating the same
    /// config directly — the optimizer adds selection, never drift.
    #[test]
    fn frontier_points_are_bit_identical_to_direct_evaluation(spec in any_spec()) {
        let outcome = optimize::optimize(&spec, BatchOptions::sequential()).unwrap();
        for point in &outcome.frontier {
            let report = AnalyticalModel::evaluate(&point.design.config).unwrap();
            prop_assert_eq!(
                point.latency_us.to_bits(),
                report.latency.mean_message_latency_us.to_bits()
            );
            prop_assert_eq!(
                point.throughput_per_us.to_bits(),
                report.throughput_per_us.to_bits()
            );
            prop_assert_eq!(
                point.retained_fraction.to_bits(),
                report.equilibrium.retained_fraction.to_bits()
            );
            prop_assert_eq!(
                point.bottleneck_utilization.to_bits(),
                report.equilibrium.bottleneck_utilization().to_bits()
            );
            let service = ServiceTimes::compute(&point.design.config).unwrap();
            prop_assert_eq!(
                point.saturation_lambda.to_bits(),
                solver::saturation_lambda(&point.design.config, &service).to_bits()
            );
            prop_assert_eq!(
                point.cost_usd.to_bits(),
                CatalogCostModel.cost_usd(&point.design).unwrap().to_bits()
            );
        }
    }

    /// The gradient-pruned optimizer returns a frontier bitwise equal
    /// to the exhaustive one on seeded random spaces (densified along
    /// the port axis so pruning actually engages), attributes every
    /// certificate-skipped point to `diagnostics.pruned`, and counts
    /// the pre-filtered designs in both walkers exactly as the oracle
    /// does.
    #[test]
    fn pruned_optimize_matches_exhaustive_bitwise(spec in any_spec()) {
        let mut spec = spec;
        spec.space.switch_ports = std::iter::once(2).chain((4..=32).step_by(4)).collect();
        let exhaustive = optimize::optimize(&spec, BatchOptions::sequential()).unwrap();
        let pruned = optimize::optimize_pruned(&spec, BatchOptions::sequential()).unwrap();

        // Both walkers share one enumeration; the oracle checks it.
        let oracle = brute_force(&spec);
        assert_prefilter_counts(&exhaustive, &oracle)?;
        assert_prefilter_counts(&pruned, &oracle)?;

        prop_assert_eq!(exhaustive.frontier.len(), pruned.frontier.len());
        for (a, b) in exhaustive.frontier.iter().zip(&pruned.frontier) {
            prop_assert_eq!(a.design.key(), b.design.key());
            prop_assert_eq!(a.cost_usd.to_bits(), b.cost_usd.to_bits());
            prop_assert_eq!(a.latency_us.to_bits(), b.latency_us.to_bits());
            prop_assert_eq!(a.throughput_per_us.to_bits(), b.throughput_per_us.to_bits());
            prop_assert_eq!(a.retained_fraction.to_bits(), b.retained_fraction.to_bits());
            prop_assert_eq!(
                a.bottleneck_utilization.to_bits(),
                b.bottleneck_utilization.to_bits()
            );
            prop_assert_eq!(a.saturation_lambda.to_bits(), b.saturation_lambda.to_bits());
        }

        // Pruning only ever removes work, never adds results.
        prop_assert_eq!(exhaustive.diagnostics.pruned, 0);
        prop_assert!(pruned.evaluated <= exhaustive.evaluated);
        prop_assert!(pruned.feasible <= exhaustive.feasible);
        prop_assert_eq!(
            pruned.feasible,
            pruned.frontier.len() + pruned.diagnostics.dominated
        );
        prop_assert_eq!(
            pruned.evaluated + pruned.diagnostics.failed + pruned.diagnostics.pruned,
            exhaustive.evaluated + exhaustive.diagnostics.failed
        );
        match (exhaustive.cheapest_feasible(), pruned.cheapest_feasible()) {
            (Some(a), Some(b)) => {
                prop_assert_eq!(a.cost_usd.to_bits(), b.cost_usd.to_bits());
                prop_assert_eq!(a.latency_us.to_bits(), b.latency_us.to_bits());
            }
            (a, b) => prop_assert_eq!(a.is_none(), b.is_none()),
        }
    }

    /// Parallel and sequential optimization agree bitwise, so the
    /// served (sequential) frontier equals the artefact (parallel) one.
    #[test]
    fn parallel_optimize_matches_sequential_bitwise(spec in any_spec()) {
        let sequential = optimize::optimize(&spec, BatchOptions::sequential()).unwrap();
        let parallel = optimize::optimize(&spec, BatchOptions::with_workers(4)).unwrap();
        prop_assert_eq!(sequential.frontier.len(), parallel.frontier.len());
        for (a, b) in sequential.frontier.iter().zip(&parallel.frontier) {
            prop_assert_eq!(a.design.key(), b.design.key());
            prop_assert_eq!(a.latency_us.to_bits(), b.latency_us.to_bits());
            prop_assert_eq!(a.cost_usd.to_bits(), b.cost_usd.to_bits());
        }
    }
}
