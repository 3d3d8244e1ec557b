//! Parameter sweeps — the x-axes of the paper's figures.
//!
//! Both sweeps run on the batched structure-of-arrays kernel
//! ([`crate::kernel`]): the cluster sweep evaluates its shapes through
//! [`kernel::evaluate_batch`] on the bounded worker pool, while the
//! λ-sweep computes the λ-independent [`kernel::LaneService`] once for
//! its shape and advances every point's bisection in lockstep lanes of a
//! single kernel. Other shape sweeps (message size, switch ports,
//! technologies) are a `Vec<SystemConfig>` handed to
//! [`kernel::evaluate_batch`] directly.

use crate::batch::{BatchOptions, EvalStats};
use crate::config::SystemConfig;
use crate::error::ModelError;
use crate::kernel;
use crate::model::PerformanceReport;

/// One point of a sweep: the varied value and the model output.
#[derive(Debug, Clone, Copy)]
pub struct SweepPoint<T> {
    /// The swept parameter's value at this point.
    pub x: T,
    /// The model evaluation at this point.
    pub report: PerformanceReport,
    /// Evaluation cost of this point (timing and solver iterations).
    pub stats: EvalStats,
}

/// Zips x-values with batch results into sweep points, propagating the
/// first evaluation error.
fn collect_points<T>(
    xs: Vec<T>,
    results: Vec<Result<(PerformanceReport, EvalStats), ModelError>>,
) -> Result<Vec<SweepPoint<T>>, ModelError> {
    xs.into_iter()
        .zip(results)
        .map(|(x, r)| r.map(|(report, stats)| SweepPoint { x, report, stats }))
        .collect()
}

/// Sweeps the cluster count at fixed total node count (the figures'
/// x-axis). Each `clusters` entry must divide `total_nodes`.
pub fn cluster_sweep(
    base: &SystemConfig,
    total_nodes: usize,
    cluster_counts: &[usize],
) -> Result<Vec<SweepPoint<usize>>, ModelError> {
    let mut configs = Vec::with_capacity(cluster_counts.len());
    for &c in cluster_counts {
        if c == 0 || !total_nodes.is_multiple_of(c) {
            return Err(ModelError::InvalidConfig {
                name: "cluster_counts",
                reason: "every cluster count must divide the total node count",
            });
        }
        let mut cfg = *base;
        cfg.clusters = c;
        cfg.nodes_per_cluster = total_nodes / c;
        configs.push(cfg);
    }
    collect_points(
        cluster_counts.to_vec(),
        kernel::evaluate_batch(&configs, BatchOptions::default().resolved_workers()),
    )
}

/// Sweeps the per-processor generation rate (λ) at a fixed shape —
/// useful for locating the saturation knee.
///
/// The λ-independent service times and saturation rate are computed
/// once for the shared shape, then one [`kernel::BatchKernel`] advances
/// every point's bisection in lockstep — each point is bit-identical to an
/// independent [`crate::solver::solve`] of the same configuration.
pub fn lambda_sweep(
    base: &SystemConfig,
    lambdas_per_us: &[f64],
) -> Result<Vec<SweepPoint<f64>>, ModelError> {
    base.validate()?;
    let service = kernel::LaneService::compute(base)?;
    let configs: Vec<SystemConfig> = lambdas_per_us.iter().map(|&l| base.with_lambda(l)).collect();
    let results =
        kernel::BatchKernel::with_service(&configs, &vec![service; configs.len()]).solve();
    collect_points(lambdas_per_us.to_vec(), results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Scenario, PAPER_CLUSTER_COUNTS, PAPER_LAMBDA_PER_US, PAPER_TOTAL_NODES};
    use hmcs_topology::switch::SwitchFabric;
    use hmcs_topology::technology::NetworkTechnology;
    use hmcs_topology::transmission::Architecture;

    /// Evaluates a shape sweep's configs through the kernel, one report
    /// per config.
    fn reports(configs: &[SystemConfig], workers: usize) -> Vec<PerformanceReport> {
        kernel::evaluate_batch(configs, workers).into_iter().map(|r| r.unwrap().0).collect()
    }

    fn with_ports(base: &SystemConfig, ports: &[u32]) -> Vec<SystemConfig> {
        ports
            .iter()
            .map(|&p| base.with_switch(SwitchFabric::new(p, base.switch.latency_us()).unwrap()))
            .collect()
    }

    #[test]
    fn paper_sweep_covers_all_cluster_counts() {
        let base = SystemConfig::paper_preset(Scenario::Case1, 1, Architecture::NonBlocking)
            .unwrap()
            .with_message_bytes(1024)
            .with_lambda(PAPER_LAMBDA_PER_US);
        let pts = cluster_sweep(&base, PAPER_TOTAL_NODES, &PAPER_CLUSTER_COUNTS).unwrap();
        assert_eq!(pts.len(), 9);
        assert_eq!(pts[0].x, 1);
        assert_eq!(pts[8].x, 256);
        for p in &pts {
            assert!(p.report.latency.mean_message_latency_us > 0.0);
            assert!(p.stats.solver_iterations > 0);
        }
    }

    #[test]
    fn cluster_sweep_rejects_non_divisors() {
        let base =
            SystemConfig::paper_preset(Scenario::Case1, 1, Architecture::NonBlocking).unwrap();
        assert!(cluster_sweep(&base, 256, &[3]).is_err());
        assert!(cluster_sweep(&base, 256, &[0]).is_err());
    }

    #[test]
    fn parallel_cluster_sweep_matches_sequential_exactly() {
        let base = SystemConfig::paper_preset(Scenario::Case2, 1, Architecture::Blocking).unwrap();
        let configs: Vec<SystemConfig> = PAPER_CLUSTER_COUNTS
            .iter()
            .map(|&c| {
                let mut cfg = base;
                cfg.clusters = c;
                cfg.nodes_per_cluster = 256 / c;
                cfg
            })
            .collect();
        assert_eq!(reports(&configs, 1), reports(&configs, 4));
    }

    #[test]
    fn message_sweep_is_monotone() {
        let base =
            SystemConfig::paper_preset(Scenario::Case1, 16, Architecture::NonBlocking).unwrap();
        let configs: Vec<SystemConfig> =
            [128, 256, 512, 1024, 2048].iter().map(|&m| base.with_message_bytes(m)).collect();
        for w in reports(&configs, 1).windows(2) {
            assert!(w[1].latency.mean_message_latency_us > w[0].latency.mean_message_latency_us);
        }
    }
    #[test]
    fn lambda_sweep_is_monotone() {
        let base =
            SystemConfig::paper_preset(Scenario::Case2, 8, Architecture::NonBlocking).unwrap();
        let pts = lambda_sweep(&base, &[1e-6, 1e-5, 1e-4, 5e-4]).unwrap();
        for w in pts.windows(2) {
            assert!(
                w[1].report.latency.mean_message_latency_us
                    >= w[0].report.latency.mean_message_latency_us
            );
        }
    }

    #[test]
    fn warm_started_lambda_sweep_matches_cold_start() {
        // The sweep shares one service-time computation across its
        // lanes; every point must still equal an independent solve of
        // the reference solver, bit for bit.
        let base = SystemConfig::paper_preset(Scenario::Case1, 32, Architecture::Blocking).unwrap();
        let lambdas = [1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 2.5e-4, 1e-3];
        let swept = lambda_sweep(&base, &lambdas).unwrap();
        for (pt, &l) in swept.iter().zip(&lambdas) {
            let reference = crate::solver::solve(&base.with_lambda(l)).unwrap();
            assert_eq!(pt.report.equilibrium, reference, "λ={l}");
        }
    }

    #[test]
    fn bigger_switches_never_hurt_lightly_loaded_latency() {
        // At light load, fewer fat-tree stages mean strictly fewer switch
        // hops and hence lower latency.
        let base = SystemConfig::paper_preset(Scenario::Case1, 8, Architecture::NonBlocking)
            .unwrap()
            .with_lambda(crate::scenario::PAPER_LAMBDA_LITERAL_PER_US);
        let pts = reports(&with_ports(&base, &[8, 16, 24, 48, 64]), 1);
        for w in pts.windows(2) {
            assert!(
                w[1].latency.mean_message_latency_us <= w[0].latency.mean_message_latency_us + 1e-9,
                "more ports should not increase lightly-loaded fat-tree latency"
            );
        }
    }

    #[test]
    fn bigger_switches_raise_throughput_under_saturation() {
        // Under heavy load the system is ICN2-bound; faster access tiers
        // release throttled sources, so throughput must not decrease —
        // even though mean latency can *increase* as the bottleneck
        // absorbs the extra offered load. This is a real property of the
        // flow-blocking feedback worth pinning down.
        let base =
            SystemConfig::paper_preset(Scenario::Case1, 8, Architecture::NonBlocking).unwrap();
        let pts = reports(&with_ports(&base, &[8, 24, 48]), 1);
        for w in pts.windows(2) {
            assert!(
                w[1].throughput_per_us >= w[0].throughput_per_us - 1e-12,
                "more ports should not reduce delivered throughput"
            );
        }
    }

    #[test]
    fn technology_sweep_covers_the_grid_and_orders_sanely() {
        let base = SystemConfig::paper_preset(Scenario::Case1, 16, Architecture::NonBlocking)
            .unwrap()
            .with_lambda(crate::scenario::PAPER_LAMBDA_LITERAL_PER_US);
        let techs = [
            NetworkTechnology::FAST_ETHERNET,
            NetworkTechnology::GIGABIT_ETHERNET,
            NetworkTechnology::MYRINET,
        ];
        // Every ICN1 technology against every ECN1/ICN2 pair.
        let mut configs = Vec::new();
        for &intra in &techs {
            for &inter in &techs {
                let mut cfg = base;
                cfg.icn1 = intra;
                cfg.ecn1 = inter;
                cfg.icn2 = inter;
                configs.push(cfg);
            }
        }
        let pts = reports(&configs, 1);
        assert_eq!(pts.len(), 9);
        // At light load the all-Myrinet system must beat the all-FE one.
        let lat = |intra: &str, inter: &str| {
            let i = configs.iter().position(|c| c.icn1.name == intra && c.ecn1.name == inter);
            pts[i.unwrap()].latency.mean_message_latency_us
        };
        assert!(lat("Myrinet", "Myrinet") < lat("Fast Ethernet", "Fast Ethernet"));
        // With mostly-external traffic at C=16, upgrading the inter tier
        // helps more than upgrading the intra tier.
        let upgrade_inter = lat("Fast Ethernet", "Myrinet");
        let upgrade_intra = lat("Myrinet", "Fast Ethernet");
        assert!(upgrade_inter < upgrade_intra);
    }
}
