//! The traffic equations — eqs. 1–5 of the paper.
//!
//! Given a per-processor generation rate λ (or the throttled effective
//! rate λ_eff) and the external-request probability `P`, the arrival
//! rate at every service centre follows in closed form:
//!
//! ```text
//! λ_I1     = N₀·(1−P)·λ                (eq. 1, per-cluster ICN1)
//! λ_E1⁽¹⁾  = N₀·P·λ                    (eq. 2, ECN1 forward pass)
//! λ_I2     = C·N₀·P·λ                  (eq. 3, global ICN2)
//! λ_E1⁽²⁾  = λ_I2 / C = N₀·P·λ         (eq. 4, ECN1 feedback pass)
//! λ_E1     = λ_E1⁽¹⁾ + λ_E1⁽²⁾ = 2·N₀·P·λ   (eq. 5)
//! ```
//!
//! The same rates fall out of the general Jackson traffic equations;
//! an integration test cross-checks the two derivations against the
//! suite's Jackson-network oracle.

use crate::config::SystemConfig;
use crate::routing::external_probability;

/// Arrival rates (messages/µs) at each service centre for a given
/// effective per-processor rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficRates {
    /// Effective per-processor generation rate used to derive the rest.
    pub lambda_eff: f64,
    /// External-request probability `P` (eq. 8).
    pub external_probability: f64,
    /// Arrival rate at each cluster's ICN1 (eq. 1).
    pub icn1: f64,
    /// Forward-pass arrival rate at each cluster's ECN1 (eq. 2).
    pub ecn1_forward: f64,
    /// Feedback-pass arrival rate at each cluster's ECN1 (eq. 4).
    pub ecn1_feedback: f64,
    /// Total arrival rate at each cluster's ECN1 (eq. 5).
    pub ecn1_total: f64,
    /// Arrival rate at the global ICN2 (eq. 3).
    pub icn2: f64,
}

impl TrafficRates {
    /// Evaluates eqs. 1–5 for `config` at effective rate `lambda_eff`.
    pub fn compute(config: &SystemConfig, lambda_eff: f64) -> Self {
        let p = external_probability(config.clusters, config.nodes_per_cluster);
        Self::compute_with_p(config, lambda_eff, p)
    }

    /// Evaluates eqs. 1–5 with an explicit external probability
    /// (locality extension).
    pub(crate) fn compute_with_p(config: &SystemConfig, lambda_eff: f64, p: f64) -> Self {
        let n0 = config.nodes_per_cluster as f64;
        let c = config.clusters as f64;
        let icn1 = n0 * (1.0 - p) * lambda_eff;
        let ecn1_forward = n0 * p * lambda_eff;
        let icn2 = c * n0 * p * lambda_eff;
        let ecn1_feedback = icn2 / c;
        TrafficRates {
            lambda_eff,
            external_probability: p,
            icn1,
            ecn1_forward,
            ecn1_feedback,
            ecn1_total: ecn1_forward + ecn1_feedback,
            icn2,
        }
    }

    /// Flow-conservation identity: everything a processor generates
    /// shows up exactly once as either intra-cluster traffic (ICN1) or
    /// inter-cluster traffic (ICN2). Returns the residual of
    /// `C·λ_I1 + λ_I2 == N·λ_eff` — used as an internal consistency
    /// check. (ECN1 traffic is excluded: its forward and feedback
    /// streams are the ICN2 messages in transit, not new generation.)
    pub fn generation_rate_residual(&self, config: &SystemConfig) -> f64 {
        let n = config.total_nodes() as f64;
        let c = config.clusters as f64;
        let total_generated = n * self.lambda_eff;
        // Internal share + external share.
        let internal = c * self.icn1;
        let external = self.icn2;
        (internal + external - total_generated).abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use hmcs_topology::transmission::Architecture;

    fn cfg(clusters: usize) -> SystemConfig {
        SystemConfig::paper_preset(Scenario::Case1, clusters, Architecture::NonBlocking).unwrap()
    }

    #[test]
    fn closed_forms_for_paper_platform() {
        // C=16, N0=16, lambda arbitrary.
        let config = cfg(16);
        let lam = 2.5e-4;
        let r = TrafficRates::compute(&config, lam);
        let p = 240.0 / 255.0;
        assert!((r.external_probability - p).abs() < 1e-12);
        assert!((r.icn1 - 16.0 * (1.0 - p) * lam).abs() < 1e-15);
        assert!((r.ecn1_forward - 16.0 * p * lam).abs() < 1e-15);
        assert!((r.icn2 - 256.0 * p * lam).abs() < 1e-15);
        assert!((r.ecn1_feedback - r.ecn1_forward).abs() < 1e-15, "eq. 4 equals eq. 2");
        assert!((r.ecn1_total - 2.0 * 16.0 * p * lam).abs() < 1e-15, "eq. 5");
    }

    #[test]
    fn single_cluster_routes_everything_internally() {
        let r = TrafficRates::compute(&cfg(1), 1e-4);
        assert_eq!(r.external_probability, 0.0);
        assert!((r.icn1 - 256.0 * 1e-4).abs() < 1e-15);
        assert_eq!(r.ecn1_total, 0.0);
        assert_eq!(r.icn2, 0.0);
    }

    #[test]
    fn per_node_clusters_route_everything_externally() {
        let r = TrafficRates::compute(&cfg(256), 1e-4);
        assert!((r.external_probability - 1.0).abs() < 1e-12);
        assert!(r.icn1.abs() < 1e-18);
        assert!((r.icn2 - 256.0 * 1e-4).abs() < 1e-12);
    }

    #[test]
    fn flow_conservation_across_the_sweep() {
        for c in crate::scenario::PAPER_CLUSTER_COUNTS {
            let config = cfg(c);
            let r = TrafficRates::compute(&config, 3.3e-4);
            assert!(
                r.generation_rate_residual(&config) < 1e-12,
                "flow conservation violated at C={c}"
            );
        }
    }

    #[test]
    fn rates_scale_linearly_in_lambda() {
        let config = cfg(8);
        let r1 = TrafficRates::compute(&config, 1e-4);
        let r2 = TrafficRates::compute(&config, 2e-4);
        assert!((r2.icn1 - 2.0 * r1.icn1).abs() < 1e-15);
        assert!((r2.ecn1_total - 2.0 * r1.ecn1_total).abs() < 1e-15);
        assert!((r2.icn2 - 2.0 * r1.icn2).abs() < 1e-15);
    }
}
