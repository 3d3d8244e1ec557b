//! Per-centre service times from the interconnect models.
//!
//! Each network tier is sized by the HMSCS structure (Figure 1):
//!
//! * every cluster's **ICN1** and **ECN1** connect that cluster's `N₀`
//!   processors;
//! * the global **ICN2** connects the `C` cluster ECNs.
//!
//! This sizing is what produces the paper's observed kink at `C = 16` on
//! the 256-node platform: there both `C` and `N₀ = 256/C` first drop to
//! ≤ Pr = 24, so every network becomes a single switch fabric ("usage of
//! one switch fabric for all communication networks", §6).
//!
//! The mean transmission time of each tier (eq. 11 or eq. 21) becomes
//! the mean service time of the corresponding M/M/1 centre (µ = 1/T).

use crate::config::SystemConfig;
use crate::error::ModelError;
use hmcs_topology::switch::SwitchFabric;
use hmcs_topology::technology::NetworkTechnology;
use hmcs_topology::transmission::{Architecture, HopModel, TransmissionModel};

/// Mean service times (µs) of the three network tiers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceTimes {
    /// Mean message time through a cluster's ICN1.
    pub icn1_us: f64,
    /// Mean message time through a cluster's ECN1 (per pass).
    pub ecn1_us: f64,
    /// Mean message time through the global ICN2.
    pub icn2_us: f64,
}

impl ServiceTimes {
    /// Builds the three tier transmission models and evaluates their
    /// mean times for `config.message_bytes`.
    pub fn compute(config: &SystemConfig) -> Result<Self, ModelError> {
        let models = TierModels::build(config)?;
        Ok(ServiceTimes {
            icn1_us: models.icn1.mean_time_us(config.message_bytes),
            ecn1_us: models.ecn1.mean_time_us(config.message_bytes),
            icn2_us: models.icn2.mean_time_us(config.message_bytes),
        })
    }

    /// Service rates µ (messages/µs) per tier.
    pub fn rates(&self) -> (f64, f64, f64) {
        (1.0 / self.icn1_us, 1.0 / self.ecn1_us, 1.0 / self.icn2_us)
    }
}

/// The three tier transmission models (exposed so the simulators can
/// reuse exactly the same construction).
#[derive(Debug, Clone, Copy)]
pub(crate) struct TierModels {
    /// ICN1 model: `N₀` endpoints on the ICN1 technology.
    pub icn1: TransmissionModel,
    /// ECN1 model: `N₀` endpoints on the ECN1 technology.
    pub ecn1: TransmissionModel,
    /// ICN2 model: `C` endpoints on the ICN2 technology.
    pub icn2: TransmissionModel,
}

impl TierModels {
    /// Builds the per-tier models from a system configuration.
    pub fn build(config: &SystemConfig) -> Result<Self, ModelError> {
        config.validate()?;
        let tier = |technology, endpoints| {
            tier_model(technology, config.switch, endpoints, config.architecture, config.hop_model)
        };
        Ok(TierModels {
            icn1: tier(config.icn1, config.nodes_per_cluster)?,
            ecn1: tier(config.ecn1, config.nodes_per_cluster)?,
            icn2: tier(config.icn2, config.clusters.max(1))?,
        })
    }
}

/// One tier's transmission model: `endpoints` endpoints on
/// `technology` through `switch` fabrics of `architecture`. Every tier
/// of [`TierModels::build`] comes from here, and so does every tier time
/// in the optimizer's tables, so both produce the same bits.
pub(crate) fn tier_model(
    technology: NetworkTechnology,
    switch: SwitchFabric,
    endpoints: usize,
    architecture: Architecture,
    hop_model: HopModel,
) -> Result<TransmissionModel, ModelError> {
    Ok(TransmissionModel::new(technology, switch, endpoints, architecture)?
        .with_hop_model(hop_model))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use hmcs_topology::transmission::Architecture;

    fn cfg(clusters: usize, arch: Architecture) -> SystemConfig {
        SystemConfig::paper_preset(Scenario::Case1, clusters, arch).unwrap()
    }

    #[test]
    fn case1_assigns_technologies_correctly() {
        let st = ServiceTimes::compute(&cfg(16, Architecture::NonBlocking)).unwrap();
        // C=16: N0=16 <= 24 and C=16 <= 24 => every tier is 1 switch.
        // ICN1 (GE): 80 + 10 + 1024/94.
        let icn1 = 80.0 + 10.0 + 1024.0 / 94.0;
        // ECN1/ICN2 (FE): 50 + 10 + 1024/10.5.
        let fe = 50.0 + 10.0 + 1024.0 / 10.5;
        assert!((st.icn1_us - icn1).abs() < 1e-9);
        assert!((st.ecn1_us - fe).abs() < 1e-9);
        assert!((st.icn2_us - fe).abs() < 1e-9);
    }

    /// True when every tier is a single switch — the `C = 16` kink
    /// regime on the paper platform.
    fn all_single_switch(config: &SystemConfig) -> bool {
        let pr = config.switch.ports() as usize;
        config.nodes_per_cluster <= pr && config.clusters <= pr
    }

    #[test]
    fn kink_regime_detection() {
        for c in crate::scenario::PAPER_CLUSTER_COUNTS {
            let config = cfg(c, Architecture::NonBlocking);
            let expect = c <= 24 && 256 / c <= 24;
            assert_eq!(all_single_switch(&config), expect, "C={c}");
        }
        // Only C=16 satisfies both bounds on the 256-node platform.
        let kinks: Vec<usize> = crate::scenario::PAPER_CLUSTER_COUNTS
            .iter()
            .copied()
            .filter(|&c| all_single_switch(&cfg(c, Architecture::NonBlocking)))
            .collect();
        assert_eq!(kinks, vec![16]);
    }

    #[test]
    fn icn2_size_tracks_cluster_count() {
        let a = TierModels::build(&cfg(2, Architecture::NonBlocking)).unwrap();
        let b = TierModels::build(&cfg(256, Architecture::NonBlocking)).unwrap();
        assert_eq!(a.icn2.endpoints(), 2);
        assert_eq!(b.icn2.endpoints(), 256);
        assert_eq!(a.icn1.endpoints(), 128);
        assert_eq!(b.icn1.endpoints(), 1);
    }

    #[test]
    fn blocking_service_times_exceed_nonblocking() {
        for c in [2usize, 8, 32, 128] {
            let nb = ServiceTimes::compute(&cfg(c, Architecture::NonBlocking)).unwrap();
            let bl = ServiceTimes::compute(&cfg(c, Architecture::Blocking)).unwrap();
            // ICN1 has N0 = 256/c >= 2 endpoints; blocking penalty
            // applies whenever N0 > 2.
            if 256 / c > 2 {
                assert!(bl.icn1_us > nb.icn1_us, "C={c}");
            }
        }
    }

    #[test]
    fn rates_invert_times() {
        let st = ServiceTimes::compute(&cfg(8, Architecture::NonBlocking)).unwrap();
        let (r1, r2, r3) = st.rates();
        assert!((r1 * st.icn1_us - 1.0).abs() < 1e-12);
        assert!((r2 * st.ecn1_us - 1.0).abs() < 1e-12);
        assert!((r3 * st.icn2_us - 1.0).abs() < 1e-12);
    }

    #[test]
    fn case2_swaps_fast_and_slow_tiers() {
        let c1 = ServiceTimes::compute(
            &SystemConfig::paper_preset(Scenario::Case1, 16, Architecture::NonBlocking).unwrap(),
        )
        .unwrap();
        let c2 = ServiceTimes::compute(
            &SystemConfig::paper_preset(Scenario::Case2, 16, Architecture::NonBlocking).unwrap(),
        )
        .unwrap();
        assert!(c1.icn1_us < c1.ecn1_us, "Case 1: fast intra, slow inter");
        assert!(c2.icn1_us > c2.ecn1_us, "Case 2: slow intra, fast inter");
        assert!((c1.icn1_us - c2.ecn1_us).abs() < 1e-9, "GE tier swaps");
    }
}
