//! System configuration for the HMSCS model.
//!
//! A [`SystemConfig`] fully describes one multi-cluster system: its
//! shape (`C` clusters × `N₀` processors), its workload (message size
//! `M`, per-processor generation rate λ), the technology of each network
//! tier and the interconnect architecture. Both the analytical model
//! (`hmcs-core`) and the simulators (`hmcs-sim`) consume the same
//! configuration, which is what makes the validation comparison
//! meaningful.

use crate::error::ModelError;
use crate::scenario::{Scenario, PAPER_LAMBDA_PER_US, PAPER_TOTAL_NODES};
use hmcs_queueing::mg1::ServiceDistribution;
use hmcs_topology::switch::SwitchFabric;
use hmcs_topology::technology::NetworkTechnology;
use hmcs_topology::transmission::{Architecture, HopModel};

/// How eq. 6 counts the waiting processors held at each cluster's ECN1.
///
/// The paper writes `L = C·(2·L_E1 + L_I1) + L_I2` while defining the
/// ECN1 arrival rate as the *combined* forward+feedback rate
/// `λ_E1 = 2·N₀·P·λ` (eq. 5). Counting the occupancy of that single
/// queue twice double-books the processors waiting there and breaks the
/// Little's-law self-consistency between eq. 7 and eq. 15: validated
/// against simulation, the literal reading diverges by up to ~50% at
/// cluster counts where the ECN1 queues carry significant load
/// (C ∈ {2, 4, 8} on the paper platform), while the single-count
/// reading matches within ~2% everywhere (`ablation-accounting`
/// experiment). Since the paper's own figures show analysis ≈
/// simulation, the authors almost certainly computed the single-count
/// form; it is therefore the default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueAccounting {
    /// Count `2·L_E1` per cluster, exactly as printed in eq. 6.
    PaperLiteral,
    /// Count the physical ECN1 queue once:
    /// `L = C·(L_E1 + L_I1) + L_I2` (default; simulation-validated).
    #[default]
    SingleQueue,
}

/// Service-time randomness at the communication networks.
///
/// The paper assumes exponential service (§5.2). The alternatives let
/// the `ablation-service` experiment test that assumption: with a fixed
/// message length, real transmission times are nearly deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ServiceTimeModel {
    /// Exponential with the topology-model mean (the paper's choice).
    #[default]
    Exponential,
    /// Deterministic at the topology-model mean.
    Deterministic,
    /// Erlang-k with the topology-model mean.
    Erlang(u32),
    /// Two-phase hyper-exponential with the given SCV ≥ 1.
    HyperExponential(f64),
}

impl ServiceTimeModel {
    /// The matching two-moment service distribution with mean
    /// `mean_us`.
    pub fn distribution(&self, mean_us: f64) -> ServiceDistribution {
        match *self {
            ServiceTimeModel::Exponential => ServiceDistribution::Exponential(mean_us),
            ServiceTimeModel::Deterministic => ServiceDistribution::Deterministic(mean_us),
            ServiceTimeModel::Erlang(k) => ServiceDistribution::Erlang { mean: mean_us, phases: k },
            ServiceTimeModel::HyperExponential(scv) => {
                ServiceDistribution::HyperExponential { mean: mean_us, scv }
            }
        }
    }

    /// Squared coefficient of variation of this service model.
    pub fn scv(&self) -> f64 {
        self.distribution(1.0).scv()
    }
}

/// Complete description of one HMSCS system plus its workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    /// Number of clusters `C`.
    pub clusters: usize,
    /// Processors per cluster `N₀` (homogeneous across clusters,
    /// assumption 5).
    pub nodes_per_cluster: usize,
    /// Fixed message length `M` in bytes (assumption 6).
    pub message_bytes: u64,
    /// Per-processor message generation rate λ in messages/µs
    /// (assumption 1).
    pub lambda_per_us: f64,
    /// Technology of every cluster's intra-communication network.
    pub icn1: NetworkTechnology,
    /// Technology of every cluster's inter-communication network.
    pub ecn1: NetworkTechnology,
    /// Technology of the global second-stage network.
    pub icn2: NetworkTechnology,
    /// The switch fabric building block (Pr ports, α_sw).
    pub switch: SwitchFabric,
    /// Interconnect architecture of all networks.
    pub architecture: Architecture,
    /// ECN1 occupancy accounting for eq. 6.
    pub accounting: QueueAccounting,
    /// Hop-count model for the blocking architecture.
    pub hop_model: HopModel,
    /// Service-time randomness at the networks.
    pub service_model: ServiceTimeModel,
}

impl SystemConfig {
    /// Creates a configuration with the paper's Table-2 defaults for
    /// everything except the explicit shape arguments.
    pub fn new(
        clusters: usize,
        nodes_per_cluster: usize,
        message_bytes: u64,
        lambda_per_us: f64,
        scenario: Scenario,
        architecture: Architecture,
    ) -> Result<Self, ModelError> {
        let cfg = SystemConfig {
            clusters,
            nodes_per_cluster,
            message_bytes,
            lambda_per_us,
            icn1: scenario.icn1(),
            ecn1: scenario.ecn1(),
            icn2: scenario.icn2(),
            switch: SwitchFabric::paper_default(),
            architecture,
            accounting: QueueAccounting::default(),
            hop_model: HopModel::default(),
            service_model: ServiceTimeModel::default(),
        };
        cfg.validate()?;
        Ok(cfg)
    }

    /// The paper's evaluation platform: 256 total nodes split into
    /// `clusters` clusters, 1024-byte messages, λ = 0.25 msg/ms, Table-2
    /// constants, the given scenario and architecture.
    ///
    /// # Errors
    ///
    /// `clusters` must divide 256.
    pub fn paper_preset(
        scenario: Scenario,
        clusters: usize,
        architecture: Architecture,
    ) -> Result<Self, ModelError> {
        if clusters == 0 || !PAPER_TOTAL_NODES.is_multiple_of(clusters) {
            return Err(ModelError::InvalidConfig {
                name: "clusters",
                reason: "must divide the paper's 256-node platform",
            });
        }
        SystemConfig::new(
            clusters,
            PAPER_TOTAL_NODES / clusters,
            1024,
            PAPER_LAMBDA_PER_US,
            scenario,
            architecture,
        )
    }

    /// Returns a copy with a different message size.
    pub fn with_message_bytes(mut self, message_bytes: u64) -> Self {
        self.message_bytes = message_bytes;
        self
    }

    /// Returns a copy with a different generation rate.
    pub fn with_lambda(mut self, lambda_per_us: f64) -> Self {
        self.lambda_per_us = lambda_per_us;
        self
    }

    /// Returns a copy with a different accounting rule.
    pub fn with_accounting(mut self, accounting: QueueAccounting) -> Self {
        self.accounting = accounting;
        self
    }

    /// Returns a copy with a different service-time model.
    pub fn with_service_model(mut self, service_model: ServiceTimeModel) -> Self {
        self.service_model = service_model;
        self
    }

    /// Returns a copy with a different hop model.
    pub fn with_hop_model(mut self, hop_model: HopModel) -> Self {
        self.hop_model = hop_model;
        self
    }

    /// Returns a copy with a different switch fabric.
    pub(crate) fn with_switch(mut self, switch: SwitchFabric) -> Self {
        self.switch = switch;
        self
    }

    /// Total node count `N = C·N₀`.
    #[inline]
    pub fn total_nodes(&self) -> usize {
        self.clusters * self.nodes_per_cluster
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), ModelError> {
        if self.clusters == 0 {
            return Err(ModelError::InvalidConfig {
                name: "clusters",
                reason: "need at least one cluster",
            });
        }
        if self.nodes_per_cluster == 0 {
            return Err(ModelError::InvalidConfig {
                name: "nodes_per_cluster",
                reason: "need at least one processor per cluster",
            });
        }
        if self.total_nodes() < 2 {
            return Err(ModelError::InvalidConfig {
                name: "total_nodes",
                reason: "a single-node system generates no traffic (assumption 3)",
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
        if let ServiceTimeModel::Erlang(k) = self.service_model {
            if k == 0 {
                return Err(ModelError::InvalidConfig {
                    name: "service_model",
                    reason: "Erlang phase count must be >= 1",
                });
            }
        }
        if let ServiceTimeModel::HyperExponential(scv) = self.service_model {
            if !(scv.is_finite() && scv >= 1.0) {
                return Err(ModelError::InvalidConfig {
                    name: "service_model",
                    reason: "hyper-exponential SCV must be >= 1",
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_preset_shape() {
        let cfg =
            SystemConfig::paper_preset(Scenario::Case1, 8, Architecture::NonBlocking).unwrap();
        assert_eq!(cfg.clusters, 8);
        assert_eq!(cfg.nodes_per_cluster, 32);
        assert_eq!(cfg.total_nodes(), 256);
        assert_eq!(cfg.message_bytes, 1024);
        assert_eq!(cfg.switch.ports(), 24);
        assert_eq!(cfg.icn1.name, "Gigabit Ethernet");
        assert_eq!(cfg.ecn1.name, "Fast Ethernet");
    }

    #[test]
    fn preset_rejects_non_divisors() {
        assert!(SystemConfig::paper_preset(Scenario::Case1, 3, Architecture::Blocking).is_err());
        assert!(SystemConfig::paper_preset(Scenario::Case1, 0, Architecture::Blocking).is_err());
        for c in crate::scenario::PAPER_CLUSTER_COUNTS {
            assert!(SystemConfig::paper_preset(Scenario::Case2, c, Architecture::Blocking).is_ok());
        }
    }

    #[test]
    fn builders_compose() {
        let cfg = SystemConfig::paper_preset(Scenario::Case1, 4, Architecture::NonBlocking)
            .unwrap()
            .with_message_bytes(512)
            .with_lambda(1e-4)
            .with_accounting(QueueAccounting::SingleQueue)
            .with_service_model(ServiceTimeModel::Deterministic);
        assert_eq!(cfg.message_bytes, 512);
        assert_eq!(cfg.lambda_per_us, 1e-4);
        assert_eq!(cfg.accounting, QueueAccounting::SingleQueue);
        assert_eq!(cfg.service_model, ServiceTimeModel::Deterministic);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validation_rejects_degenerate_systems() {
        let base =
            SystemConfig::paper_preset(Scenario::Case1, 1, Architecture::NonBlocking).unwrap();
        let mut one_node = base;
        one_node.nodes_per_cluster = 1;
        assert!(one_node.validate().is_err());
        let mut no_msg = base;
        no_msg.message_bytes = 0;
        assert!(no_msg.validate().is_err());
        let mut bad_lambda = base;
        bad_lambda.lambda_per_us = 0.0;
        assert!(bad_lambda.validate().is_err());
        let mut bad_lambda2 = base;
        bad_lambda2.lambda_per_us = f64::NAN;
        assert!(bad_lambda2.validate().is_err());
        assert!(base.with_service_model(ServiceTimeModel::Erlang(0)).validate().is_err());
        assert!(base
            .with_service_model(ServiceTimeModel::HyperExponential(0.5))
            .validate()
            .is_err());
    }

    #[test]
    fn service_models_expose_scv() {
        assert_eq!(ServiceTimeModel::Exponential.scv(), 1.0);
        assert_eq!(ServiceTimeModel::Deterministic.scv(), 0.0);
        assert_eq!(ServiceTimeModel::Erlang(4).scv(), 0.25);
        assert_eq!(ServiceTimeModel::HyperExponential(3.0).scv(), 3.0);
    }

    #[test]
    fn single_cluster_is_valid() {
        // C=1 collapses to a classic single-cluster system; the paper's
        // x-axis starts there.
        let cfg =
            SystemConfig::paper_preset(Scenario::Case1, 1, Architecture::NonBlocking).unwrap();
        assert_eq!(cfg.nodes_per_cluster, 256);
        assert!(cfg.validate().is_ok());
    }
}
