//! Workspace-level property tests: invariants that must hold for any
//! valid system configuration, spanning the model, the solver and the
//! simulators.

use hmcs_core::config::{QueueAccounting, SystemConfig};
use hmcs_core::model::AnalyticalModel;
use hmcs_core::scenario::Scenario;
use hmcs_sim::config::SimConfig;
use hmcs_sim::flow::FlowSimulator;
use hmcs_topology::transmission::Architecture;
use proptest::prelude::*;

fn any_scenario() -> impl Strategy<Value = Scenario> {
    prop_oneof![Just(Scenario::Case1), Just(Scenario::Case2)]
}

fn any_architecture() -> impl Strategy<Value = Architecture> {
    prop_oneof![Just(Architecture::NonBlocking), Just(Architecture::Blocking)]
}

fn any_shape() -> impl Strategy<Value = (usize, usize)> {
    // clusters, nodes per cluster; total <= 512 to keep runs fast.
    (1usize..24, 1usize..24).prop_filter("at least two nodes", |(c, n)| c * n >= 2)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The model always produces positive, finite latency and a
    /// fixed point inside (0, lambda].
    #[test]
    fn model_invariants(
        (clusters, n0) in any_shape(),
        scenario in any_scenario(),
        arch in any_architecture(),
        bytes in 1u64..16_384,
        lambda_exp in -7.0f64..-2.5,
    ) {
        let lambda = 10f64.powf(lambda_exp);
        let cfg = SystemConfig::new(clusters, n0, bytes, lambda, scenario, arch).unwrap();
        let report = AnalyticalModel::evaluate(&cfg).unwrap();
        prop_assert!(report.latency.mean_message_latency_us.is_finite());
        prop_assert!(report.latency.mean_message_latency_us > 0.0);
        let eq = report.equilibrium;
        prop_assert!(eq.lambda_eff > 0.0 && eq.lambda_eff <= lambda * (1.0 + 1e-9));
        prop_assert!(eq.bottleneck_utilization() < 1.0);
        prop_assert!(eq.total_waiting >= 0.0);
        prop_assert!(eq.total_waiting <= cfg.total_nodes() as f64 + 1e-9);
        // Eq. 7 holds at the returned point.
        let n = cfg.total_nodes() as f64;
        let rhs = lambda * (n - eq.total_waiting) / n;
        prop_assert!((eq.lambda_eff - rhs).abs() < 1e-5 * lambda);
    }

    /// Latency is monotone non-decreasing in message size.
    #[test]
    fn latency_monotone_in_message_size(
        (clusters, n0) in any_shape(),
        scenario in any_scenario(),
        arch in any_architecture(),
        bytes in 16u64..4_096,
        grow in 2u64..8,
    ) {
        let mk = |m: u64| {
            let cfg = SystemConfig::new(clusters, n0, m, 1e-5, scenario, arch).unwrap();
            AnalyticalModel::evaluate(&cfg).unwrap().latency.mean_message_latency_us
        };
        prop_assert!(mk(bytes * grow) >= mk(bytes));
    }

    /// The single-queue accounting never predicts lower total waiting
    /// than zero nor more than the literal double-count.
    #[test]
    fn accounting_ordering(
        (clusters, n0) in any_shape(),
        arch in any_architecture(),
    ) {
        let base =
            SystemConfig::new(clusters, n0, 1024, 2.5e-4, Scenario::Case1, arch).unwrap();
        let single = AnalyticalModel::evaluate(
            &base.with_accounting(QueueAccounting::SingleQueue),
        )
        .unwrap()
        .equilibrium;
        let literal = AnalyticalModel::evaluate(
            &base.with_accounting(QueueAccounting::PaperLiteral),
        )
        .unwrap()
        .equilibrium;
        prop_assert!(literal.lambda_eff <= single.lambda_eff + 1e-15);
    }

    /// Short flow-simulation runs complete and produce sane statistics
    /// for arbitrary valid configurations.
    #[test]
    fn simulation_smoke(
        (clusters, n0) in (1usize..10, 2usize..10),
        scenario in any_scenario(),
        arch in any_architecture(),
        seed in 0u64..1_000,
    ) {
        let sys = SystemConfig::new(clusters, n0, 512, 1e-4, scenario, arch).unwrap();
        let cfg = SimConfig::new(sys).with_messages(300).with_seed(seed);
        let r = FlowSimulator::run(&cfg).unwrap();
        prop_assert_eq!(r.messages, 300);
        prop_assert!(r.mean_latency_us > 0.0);
        prop_assert!(r.latency.min().unwrap() >= 0.0);
        prop_assert!(r.latency.max().unwrap() >= r.mean_latency_us);
        prop_assert!(r.external_fraction() >= 0.0 && r.external_fraction() <= 1.0);
        if clusters == 1 {
            prop_assert_eq!(r.external_latency.count(), 0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The Allen–Cunneen GI/G/1 estimate coincides with Pollaczek–
    /// Khinchine for Poisson arrivals, for any service SCV.
    #[test]
    fn gg1_reduces_to_mg1_for_poisson_arrivals(
        lambda in 0.05f64..0.9,
        scv in 0.0f64..4.0,
    ) {
        use hmcs_queueing::gg1::{Approximation, GG1};
        use hmcs_queueing::mg1::{ServiceDistribution, MG1};
        let svc = ServiceDistribution::General { mean: 1.0, scv };
        let gg1 = GG1::new(lambda, 1.0, svc).unwrap();
        let pk = MG1::new(lambda, svc).unwrap();
        let diff = (gg1.mean_waiting_time(Approximation::AllenCunneen)
            - pk.mean_waiting_time())
        .abs();
        prop_assert!(diff < 1e-9);
    }

    /// The P² estimator stays within the observed range and is
    /// order-consistent across levels.
    #[test]
    fn p2_quantiles_are_ordered(seed in 0u64..5_000, n in 100usize..2_000) {
        use hmcs_des::quantile::P2Quantile;
        use hmcs_des::rng::RngStream;
        let mut rng = RngStream::new(seed, 0);
        let mut q25 = P2Quantile::new(0.25);
        let mut q50 = P2Quantile::new(0.50);
        let mut q95 = P2Quantile::new(0.95);
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for _ in 0..n {
            let x = rng.exponential_mean(5.0);
            lo = lo.min(x);
            hi = hi.max(x);
            q25.record(x);
            q50.record(x);
            q95.record(x);
        }
        let (a, b, c) = (
            q25.estimate().unwrap(),
            q50.estimate().unwrap(),
            q95.estimate().unwrap(),
        );
        prop_assert!(a <= b + 1e-9 && b <= c + 1e-9);
        prop_assert!(a >= lo - 1e-9 && c <= hi + 1e-9);
    }

    /// Operational interactive-law identity: the model's equilibrium
    /// satisfies R = N/X − Z with R = mean latency, X = N·λ_eff,
    /// Z = 1/λ... approximately, since L counts only network residency.
    #[test]
    fn interactive_law_consistency(
        clusters in 1usize..17,
        lambda_exp in -5.0f64..-3.0,
    ) {
        prop_assume!(256 % clusters == 0);
        use hmcs_queueing::operational::interactive_response_time;
        let lambda = 10f64.powf(lambda_exp);
        let cfg = SystemConfig::paper_preset(
            Scenario::Case1,
            clusters,
            Architecture::NonBlocking,
        )
        .unwrap()
        .with_lambda(lambda);
        let r = AnalyticalModel::evaluate(&cfg).unwrap();
        let n = cfg.total_nodes() as f64;
        let x = n * r.equilibrium.lambda_eff;
        let implied =
            interactive_response_time(n, x, 1.0 / lambda).expect("positive throughput");
        // The model's eq. 15 latency and the interactive-law residence
        // time agree within the model's own approximation error.
        let rel = (implied - r.latency.mean_message_latency_us).abs()
            / r.latency.mean_message_latency_us.max(1.0);
        prop_assert!(rel < 0.35, "implied {implied} vs model {}",
            r.latency.mean_message_latency_us);
    }
}
