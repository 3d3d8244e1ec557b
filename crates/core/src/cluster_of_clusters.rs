//! The Cluster-of-Clusters generalisation — the paper's future work
//! (§7), implemented.
//!
//! A Cluster-of-Clusters system interconnects *heterogeneous* single
//! clusters: cluster `i` has its own node count `Nᵢ` and its own ICN1 /
//! ECN1 technologies. The derivation follows the paper's method with
//! per-cluster quantities:
//!
//! * External probability from cluster `i` under uniform destinations:
//!   `Pᵢ = (N − Nᵢ)/(N − 1)` with `N = ΣNᵢ`.
//! * Traffic: `λ_I1ᵢ = Nᵢ(1−Pᵢ)λ`; the forward ECN1ᵢ rate is
//!   `NᵢPᵢλ`, and — a pleasant symmetry of uniform traffic — the
//!   feedback rate into cluster `i` (traffic addressed to it from
//!   everywhere else) is also `NᵢPᵢλ`, so `λ_E1ᵢ = 2NᵢPᵢλ` exactly as in
//!   the homogeneous eq. 5. The global rate is `λ_I2 = Σᵢ NᵢPᵢλ`.
//! * The effective-rate fixed point (eqs. 6–7) carries over with
//!   `L = Σᵢ(w·L_E1ᵢ + L_I1ᵢ) + L_I2`. This module supplies that sum and
//!   the closed-form saturation rate; the bisection, its bracket and the
//!   near-saturation back-off are the base model's, in [`crate::solver`].
//! * Mean latency averages over source clusters (weight `Nᵢ/N`) and, for
//!   external messages, over destination clusters (weight
//!   `Nⱼ/(N−Nᵢ)`):
//!   `T_W = Σᵢ (Nᵢ/N)·[(1−Pᵢ)W_I1ᵢ + Pᵢ·(W_E1ᵢ + W_I2 + Σ_{j≠i} Nⱼ·W_E1ⱼ/(N−Nᵢ))]`.
//!
//! The homogeneous special case reduces to the Super-Cluster model of
//! [`crate::model`]: both solve through the same bisection, so they
//! agree to 1e-9 relative latency (floating-point summation order is
//! all that differs); a test pins that down over the paper's grid.

use crate::config::{QueueAccounting, ServiceTimeModel};
use crate::error::ModelError;
use crate::solver;
use hmcs_queueing::mg1::MG1;
use hmcs_topology::switch::SwitchFabric;
use hmcs_topology::technology::NetworkTechnology;
use hmcs_topology::transmission::{Architecture, TransmissionModel};

/// One heterogeneous cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterSpec {
    /// Processors in this cluster.
    pub nodes: usize,
    /// Intra-communication network technology.
    pub icn1: NetworkTechnology,
    /// Inter-communication network technology.
    pub ecn1: NetworkTechnology,
}

/// Configuration of a Cluster-of-Clusters system.
#[derive(Debug, Clone, PartialEq)]
pub struct CocConfig {
    /// The member clusters (at least one; at least two nodes total).
    pub clusters: Vec<ClusterSpec>,
    /// Technology of the global second-stage network.
    pub icn2: NetworkTechnology,
    /// Switch fabric used by every network.
    pub switch: SwitchFabric,
    /// Interconnect architecture of every network.
    pub architecture: Architecture,
    /// Fixed message length in bytes.
    pub message_bytes: u64,
    /// Per-processor generation rate (messages/µs), identical across
    /// clusters.
    pub lambda_per_us: f64,
    /// ECN occupancy accounting (see [`QueueAccounting`]).
    pub accounting: QueueAccounting,
    /// Service-time randomness.
    pub service_model: ServiceTimeModel,
}

impl CocConfig {
    /// Total node count `N`.
    pub fn total_nodes(&self) -> usize {
        self.clusters.iter().map(|c| c.nodes).sum()
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), ModelError> {
        if self.clusters.is_empty() {
            return Err(ModelError::InvalidConfig {
                name: "clusters",
                reason: "need at least one cluster",
            });
        }
        if self.clusters.iter().any(|c| c.nodes == 0) {
            return Err(ModelError::InvalidConfig {
                name: "clusters",
                reason: "every cluster needs at least one node",
            });
        }
        if self.total_nodes() < 2 {
            return Err(ModelError::InvalidConfig {
                name: "total_nodes",
                reason: "a single-node system generates no traffic",
            });
        }
        if self.message_bytes == 0 {
            return Err(ModelError::InvalidConfig {
                name: "message_bytes",
                reason: "messages must carry at least one byte",
            });
        }
        if !self.lambda_per_us.is_finite() || self.lambda_per_us <= 0.0 {
            return Err(ModelError::InvalidConfig {
                name: "lambda_per_us",
                reason: "generation rate must be positive and finite",
            });
        }
        Ok(())
    }
}

/// Per-cluster converged state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CocClusterState {
    /// External probability `Pᵢ`.
    pub external_probability: f64,
    /// ICN1ᵢ sojourn time (µs).
    pub icn1_sojourn_us: f64,
    /// ECN1ᵢ per-pass sojourn time (µs).
    pub ecn1_sojourn_us: f64,
    /// ICN1ᵢ utilization.
    pub icn1_utilization: f64,
    /// ECN1ᵢ utilization.
    pub ecn1_utilization: f64,
}

/// Output of a Cluster-of-Clusters evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct CocReport {
    /// Effective per-processor rate after flow-blocking throttling.
    pub lambda_eff: f64,
    /// Per-cluster states.
    pub clusters: Vec<CocClusterState>,
    /// ICN2 sojourn time (µs).
    pub icn2_sojourn_us: f64,
    /// ICN2 utilization.
    pub icn2_utilization: f64,
    /// Mean message latency (µs), averaged over sources and
    /// destinations.
    pub mean_message_latency_us: f64,
    /// Total waiting processors at equilibrium.
    pub total_waiting: f64,
}

/// Per-tier mean service times of a Cluster-of-Clusters system (µs).
/// Shared with the flow-level simulator so analysis and simulation
/// always use identical service parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct CocServiceTimes {
    /// Mean ICN1 service time per cluster.
    pub icn1_us: Vec<f64>,
    /// Mean ECN1 service time per cluster.
    pub ecn1_us: Vec<f64>,
    /// Mean ICN2 service time.
    pub icn2_us: f64,
}

/// Computes the per-tier service times from the topology models.
pub fn tier_service_times(cfg: &CocConfig) -> Result<CocServiceTimes, ModelError> {
    let mut icn1_us = Vec::with_capacity(cfg.clusters.len());
    let mut ecn1_us = Vec::with_capacity(cfg.clusters.len());
    for c in &cfg.clusters {
        icn1_us.push(
            TransmissionModel::new(c.icn1, cfg.switch, c.nodes, cfg.architecture)?
                .mean_time_us(cfg.message_bytes),
        );
        ecn1_us.push(
            TransmissionModel::new(c.ecn1, cfg.switch, c.nodes, cfg.architecture)?
                .mean_time_us(cfg.message_bytes),
        );
    }
    let icn2_us =
        TransmissionModel::new(cfg.icn2, cfg.switch, cfg.clusters.len().max(2), cfg.architecture)?
            .mean_time_us(cfg.message_bytes);
    Ok(CocServiceTimes { icn1_us, ecn1_us, icn2_us })
}

fn center_metrics(cfg: &CocConfig, lambda: f64, service_us: f64) -> Option<(f64, f64, f64)> {
    // (L, W, rho); None when unstable.
    if lambda <= 0.0 {
        return Some((0.0, service_us, 0.0));
    }
    let dist = cfg.service_model.distribution(service_us);
    MG1::new(lambda, dist)
        .ok()
        .map(|q| (q.mean_number_in_system(), q.mean_sojourn_time(), q.utilization()))
}

fn total_waiting(cfg: &CocConfig, times: &CocServiceTimes, lambda_eff: f64) -> Option<f64> {
    let n = cfg.total_nodes() as f64;
    let w = match cfg.accounting {
        QueueAccounting::PaperLiteral => 2.0,
        QueueAccounting::SingleQueue => 1.0,
    };
    let mut total = 0.0;
    let mut icn2_rate = 0.0;
    for (i, c) in cfg.clusters.iter().enumerate() {
        let ni = c.nodes as f64;
        let pi = if n > 1.0 { (n - ni) / (n - 1.0) } else { 0.0 };
        let (l_i1, _, _) = center_metrics(cfg, ni * (1.0 - pi) * lambda_eff, times.icn1_us[i])?;
        let (l_e1, _, _) = center_metrics(cfg, 2.0 * ni * pi * lambda_eff, times.ecn1_us[i])?;
        total += w * l_e1 + l_i1;
        icn2_rate += ni * pi * lambda_eff;
    }
    let (l_i2, _, _) = center_metrics(cfg, icn2_rate, times.icn2_us)?;
    Some(total + l_i2)
}

/// Evaluates the Cluster-of-Clusters model.
pub fn evaluate(cfg: &CocConfig) -> Result<CocReport, ModelError> {
    cfg.validate()?;
    let times = tier_service_times(cfg)?;
    let n = cfg.total_nodes() as f64;

    // Every centre's arrival rate is linear in lambda_eff, so the
    // smallest saturating rate is exact.
    let mut sat = f64::INFINITY;
    for (i, c) in cfg.clusters.iter().enumerate() {
        let ni = c.nodes as f64;
        let pi = (n - ni) / (n - 1.0);
        let coeff_i1 = ni * (1.0 - pi);
        let coeff_e1 = 2.0 * ni * pi;
        if coeff_i1 > 0.0 {
            sat = sat.min(1.0 / (coeff_i1 * times.icn1_us[i]));
        }
        if coeff_e1 > 0.0 {
            sat = sat.min(1.0 / (coeff_e1 * times.ecn1_us[i]));
        }
    }
    let coeff_i2: f64 = cfg
        .clusters
        .iter()
        .map(|c| {
            let ni = c.nodes as f64;
            ni * (n - ni) / (n - 1.0)
        })
        .sum();
    if coeff_i2 > 0.0 {
        sat = sat.min(1.0 / (coeff_i2 * times.icn2_us));
    }
    let solved =
        solver::solve_effective_rate(cfg.lambda_per_us, n, sat, |x| total_waiting(cfg, &times, x))?;
    let lambda_eff = solved.lambda_eff;

    // Final metrics.
    let mut clusters = Vec::with_capacity(cfg.clusters.len());
    let mut icn2_rate = 0.0;
    for (i, c) in cfg.clusters.iter().enumerate() {
        let ni = c.nodes as f64;
        let pi = (n - ni) / (n - 1.0);
        let (_, w_i1, rho_i1) = center_metrics(cfg, ni * (1.0 - pi) * lambda_eff, times.icn1_us[i])
            .ok_or(ModelError::SolverFailed { residual: f64::INFINITY })?;
        let (_, w_e1, rho_e1) = center_metrics(cfg, 2.0 * ni * pi * lambda_eff, times.ecn1_us[i])
            .ok_or(ModelError::SolverFailed { residual: f64::INFINITY })?;
        clusters.push(CocClusterState {
            external_probability: pi,
            icn1_sojourn_us: w_i1,
            ecn1_sojourn_us: w_e1,
            icn1_utilization: rho_i1,
            ecn1_utilization: rho_e1,
        });
        icn2_rate += ni * pi * lambda_eff;
    }
    let (_, w_i2, rho_i2) = center_metrics(cfg, icn2_rate, times.icn2_us)
        .ok_or(ModelError::SolverFailed { residual: f64::INFINITY })?;

    // Latency: average over source clusters and destinations.
    let mut latency = 0.0;
    for (i, c) in cfg.clusters.iter().enumerate() {
        let ni = c.nodes as f64;
        let pi = clusters[i].external_probability;
        // Destination-side ECN1 sojourn, weighted by Nj/(N - Ni).
        let mut dest_ecn1 = 0.0;
        if n - ni > 0.0 {
            for (j, cj) in cfg.clusters.iter().enumerate() {
                if j != i {
                    dest_ecn1 += cj.nodes as f64 * clusters[j].ecn1_sojourn_us;
                }
            }
            dest_ecn1 /= n - ni;
        }
        let external = clusters[i].ecn1_sojourn_us + w_i2 + dest_ecn1;
        latency += ni / n * ((1.0 - pi) * clusters[i].icn1_sojourn_us + pi * external);
    }

    Ok(CocReport {
        lambda_eff,
        clusters,
        icn2_sojourn_us: w_i2,
        icn2_utilization: rho_i2,
        mean_message_latency_us: latency,
        total_waiting: solved.total_waiting,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::model::AnalyticalModel;
    use crate::scenario::{Scenario, PAPER_LAMBDA_PER_US};

    fn homogeneous(clusters: usize, nodes: usize) -> CocConfig {
        CocConfig {
            clusters: vec![
                ClusterSpec {
                    nodes,
                    icn1: NetworkTechnology::GIGABIT_ETHERNET,
                    ecn1: NetworkTechnology::FAST_ETHERNET,
                };
                clusters
            ],
            icn2: NetworkTechnology::FAST_ETHERNET,
            switch: SwitchFabric::paper_default(),
            architecture: Architecture::NonBlocking,
            message_bytes: 1024,
            lambda_per_us: PAPER_LAMBDA_PER_US,
            accounting: QueueAccounting::SingleQueue,
            service_model: ServiceTimeModel::Exponential,
        }
    }

    #[test]
    fn homogeneous_case_reduces_to_super_cluster_model() {
        // Both models solve through the solver's one bisection, so only
        // floating-point summation order separates them — from idle
        // load (λ = 1e-6) to deep saturation (λ ≈ 0.52).
        for c in [2usize, 4, 8, 16, 32, 64, 128] {
            for arch in [Architecture::NonBlocking, Architecture::Blocking] {
                for acc in [QueueAccounting::SingleQueue, QueueAccounting::PaperLiteral] {
                    for k in 0..60 {
                        let lambda = 1e-6 * 1.25f64.powi(k);
                        let mut coc_cfg = homogeneous(c, 256 / c);
                        coc_cfg.architecture = arch;
                        coc_cfg.accounting = acc;
                        coc_cfg.lambda_per_us = lambda;
                        let coc = evaluate(&coc_cfg).unwrap();
                        let sc_cfg = SystemConfig::paper_preset(Scenario::Case1, c, arch)
                            .unwrap()
                            .with_accounting(acc)
                            .with_lambda(lambda);
                        let sc = AnalyticalModel::evaluate(&sc_cfg).unwrap();
                        let sc_latency = sc.latency.mean_message_latency_us;
                        let sc_lambda_eff = sc.equilibrium.lambda_eff;
                        let latency_rel =
                            (coc.mean_message_latency_us - sc_latency).abs() / sc_latency;
                        let lambda_rel = (coc.lambda_eff - sc_lambda_eff).abs() / sc_lambda_eff;
                        assert!(
                            latency_rel < 1e-9 && lambda_rel < 1e-12,
                            "C={c} {arch:?} {acc:?} λ={lambda:e}: latency CoC {} vs SC \
                             {sc_latency} (rel {latency_rel:e}), λ_eff CoC {} vs SC \
                             {sc_lambda_eff} (rel {lambda_rel:e})",
                            coc.mean_message_latency_us,
                            coc.lambda_eff,
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn heterogeneous_sizes_produce_asymmetric_p() {
        let mut cfg = homogeneous(2, 64);
        cfg.clusters[0].nodes = 192;
        // N = 256; P0 = 64/255, P1 = 192/255.
        let r = evaluate(&cfg).unwrap();
        assert!((r.clusters[0].external_probability - 64.0 / 255.0).abs() < 1e-12);
        assert!((r.clusters[1].external_probability - 192.0 / 255.0).abs() < 1e-12);
    }

    #[test]
    fn upgrading_one_cluster_reduces_latency() {
        let slow = {
            let mut c = homogeneous(4, 64);
            for s in &mut c.clusters {
                s.icn1 = NetworkTechnology::FAST_ETHERNET;
            }
            c
        };
        let upgraded = {
            let mut c = slow.clone();
            c.clusters[0].icn1 = NetworkTechnology::INFINIBAND;
            c
        };
        let l_slow = evaluate(&slow).unwrap().mean_message_latency_us;
        let l_up = evaluate(&upgraded).unwrap().mean_message_latency_us;
        assert!(l_up < l_slow);
    }

    #[test]
    fn llnl_like_four_cluster_system_evaluates() {
        // A four-cluster Cluster-of-Clusters sketch in the spirit of the
        // paper's LLNL example (MCR / ALC / Thunder / PVC): different
        // sizes and mixed technologies.
        let cfg = CocConfig {
            clusters: vec![
                ClusterSpec {
                    nodes: 128,
                    icn1: NetworkTechnology::MYRINET,
                    ecn1: NetworkTechnology::GIGABIT_ETHERNET,
                },
                ClusterSpec {
                    nodes: 96,
                    icn1: NetworkTechnology::MYRINET,
                    ecn1: NetworkTechnology::GIGABIT_ETHERNET,
                },
                ClusterSpec {
                    nodes: 64,
                    icn1: NetworkTechnology::INFINIBAND,
                    ecn1: NetworkTechnology::GIGABIT_ETHERNET,
                },
                ClusterSpec {
                    nodes: 16,
                    icn1: NetworkTechnology::FAST_ETHERNET,
                    ecn1: NetworkTechnology::FAST_ETHERNET,
                },
            ],
            icn2: NetworkTechnology::GIGABIT_ETHERNET,
            switch: SwitchFabric::paper_default(),
            architecture: Architecture::NonBlocking,
            message_bytes: 1024,
            lambda_per_us: PAPER_LAMBDA_PER_US,
            accounting: QueueAccounting::SingleQueue,
            service_model: ServiceTimeModel::Exponential,
        };
        let r = evaluate(&cfg).unwrap();
        assert!(r.mean_message_latency_us > 0.0);
        assert_eq!(r.clusters.len(), 4);
        assert!(r.lambda_eff > 0.0 && r.lambda_eff <= cfg.lambda_per_us);
        // The small FE cluster has the slowest intra-cluster sojourn.
        assert!(r.clusters[3].icn1_sojourn_us > r.clusters[0].icn1_sojourn_us);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut cfg = homogeneous(2, 4);
        cfg.clusters.clear();
        assert!(evaluate(&cfg).is_err());
        let mut cfg = homogeneous(2, 4);
        cfg.clusters[0].nodes = 0;
        assert!(evaluate(&cfg).is_err());
        let mut cfg = homogeneous(2, 4);
        cfg.message_bytes = 0;
        assert!(evaluate(&cfg).is_err());
        let mut cfg = homogeneous(2, 4);
        cfg.lambda_per_us = -1.0;
        assert!(evaluate(&cfg).is_err());
    }

    #[test]
    fn fixed_point_property_holds() {
        let cfg = homogeneous(8, 32);
        let r = evaluate(&cfg).unwrap();
        let n = cfg.total_nodes() as f64;
        let rhs = cfg.lambda_per_us * (n - r.total_waiting) / n;
        assert!((r.lambda_eff - rhs).abs() < 1e-6 * cfg.lambda_per_us);
    }
}
