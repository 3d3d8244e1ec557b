//! Simulation run configuration.

use hmcs_core::cluster_of_clusters::{tier_service_times, CocConfig, CocServiceTimes};
use hmcs_core::config::{ServiceTimeModel, SystemConfig};
use hmcs_core::error::ModelError;
use hmcs_core::routing::TrafficPattern;
use hmcs_core::scenario::PAPER_SIM_MESSAGES;
use hmcs_core::service::ServiceTimes;

/// Configuration of one simulation run: the system under test plus the
/// experiment-control knobs. The system is the paper's Super-Cluster
/// ([`SystemConfig`], the default) or a Cluster-of-Clusters federation
/// ([`CocConfig`]); both shapes share every run control.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig<S = SystemConfig> {
    /// The system being simulated (shared with the analytical model).
    pub system: S,
    /// Number of *measured* delivered messages (the paper gathers
    /// statistics over 10,000).
    pub messages: u64,
    /// Delivered messages discarded before measurement starts (warm-up
    /// deletion; the paper does not mention one — default 0 keeps
    /// fidelity, experiments may override).
    pub warmup_messages: u64,
    /// Master RNG seed; every run with the same seed reproduces exactly.
    pub seed: u64,
    /// Whether sources block until their message is delivered
    /// (assumption 4). Disabling yields an open Jackson network, useful
    /// for validating against the unthrottled analytical solution.
    pub blocked_sources: bool,
    /// Destination-selection pattern (assumption 3 by default).
    pub pattern: TrafficPattern,
    /// Whether the sink maintains streaming P² latency-quantile
    /// estimators (p50/p95/p99). On by default; consumers that only
    /// read means (the figure pipelines) can switch the three
    /// per-delivery marker updates off. The flag never changes any
    /// other statistic — with it off, [`crate::result::SimResult::quantiles`]
    /// is `None` and everything else is bit-identical.
    pub track_quantiles: bool,
    /// Whether the run keeps diagnostic statistics beyond the overall
    /// latency/throughput: per-center waiting times and time-weighted
    /// queue length / busy area, plus the internal-vs-external latency
    /// split. On by default; consumers that only read the overall
    /// latency and throughput (the figure pipelines) can switch them
    /// off to drop the per-event time-weighted updates from the hot
    /// path. Queueing behaviour and every overall statistic are
    /// bit-identical either way — with the flag off, the per-center
    /// observations, utilizations and per-class latencies in
    /// [`crate::result::SimResult`] read empty/zero.
    pub track_center_stats: bool,
}

impl<S: SimSystem> SimConfig<S> {
    /// Creates a run configuration with the paper's defaults: 10,000
    /// measured messages, no warm-up, blocked sources, uniform traffic,
    /// seed 0x5EED.
    pub fn new(system: S) -> Self {
        SimConfig {
            system,
            messages: PAPER_SIM_MESSAGES,
            warmup_messages: 0,
            seed: 0x5EED,
            blocked_sources: true,
            pattern: TrafficPattern::Uniform,
            track_quantiles: true,
            track_center_stats: true,
        }
    }

    /// Sets the measured-message budget.
    pub fn with_messages(mut self, messages: u64) -> Self {
        self.messages = messages;
        self
    }

    /// Sets the warm-up deletion budget.
    pub fn with_warmup(mut self, warmup_messages: u64) -> Self {
        self.warmup_messages = warmup_messages;
        self
    }

    /// Sets the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Toggles assumption 4 (blocked sources).
    pub fn with_blocked_sources(mut self, blocked: bool) -> Self {
        self.blocked_sources = blocked;
        self
    }

    /// Sets the traffic pattern.
    pub fn with_pattern(mut self, pattern: TrafficPattern) -> Self {
        self.pattern = pattern;
        self
    }

    /// Toggles the sink's P² latency-quantile estimators.
    pub fn with_quantiles(mut self, track_quantiles: bool) -> Self {
        self.track_quantiles = track_quantiles;
        self
    }

    /// Toggles the service centers' per-event statistics.
    pub fn with_center_stats(mut self, track_center_stats: bool) -> Self {
        self.track_center_stats = track_center_stats;
        self
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), ModelError> {
        self.system.validate()?;
        self.pattern.validate()?;
        if self.messages == 0 {
            return Err(ModelError::InvalidConfig {
                name: "messages",
                reason: "need at least one measured message",
            });
        }
        Ok(())
    }
}

/// A system shape the flow-level simulator runs: [`SystemConfig`]
/// (equal clusters) or [`CocConfig`] (clusters of any size and
/// technology). Sealed; both shapes are laid out as the same model.
pub trait SimSystem: sealed::Sealed {}

impl<T: sealed::Sealed> SimSystem for T {}

pub(crate) mod sealed {
    use super::*;

    /// A system as the flow model sees it: contiguous clusters of
    /// `cluster_nodes[i]` processors with per-cluster ICN1/ECN1 means,
    /// all sharing one ICN2.
    #[derive(Debug)]
    pub struct Layout {
        /// Processors in each cluster.
        pub cluster_nodes: Vec<usize>,
        /// Mean service time of every tier (µs).
        pub means: CocServiceTimes,
        /// Per-processor generation rate (messages/µs).
        pub lambda_per_us: f64,
        /// Service-time randomness at the networks.
        pub service_model: ServiceTimeModel,
    }

    /// What a system shape supplies to the flow model.
    pub trait Sealed: Clone {
        /// RNG stream ids for think times, destinations and service
        /// times; fixed per shape so each shape's goldens stay put.
        const STREAMS: [u64; 3];
        /// Whether runs add to the `sim.flow.*` engine metrics, which
        /// count paper-shaped runs only.
        const FLOW_METRICS: bool;
        /// Validates the system.
        fn validate(&self) -> Result<(), ModelError>;
        /// Lays the system out for the flow model.
        fn layout(&self) -> Result<Layout, ModelError>;
    }

    impl Sealed for SystemConfig {
        const STREAMS: [u64; 3] = [1, 2, 3];
        const FLOW_METRICS: bool = true;

        fn validate(&self) -> Result<(), ModelError> {
            SystemConfig::validate(self)
        }

        fn layout(&self) -> Result<Layout, ModelError> {
            let t = ServiceTimes::compute(self)?;
            Ok(Layout {
                cluster_nodes: vec![self.nodes_per_cluster; self.clusters],
                means: CocServiceTimes {
                    icn1_us: vec![t.icn1_us; self.clusters],
                    ecn1_us: vec![t.ecn1_us; self.clusters],
                    icn2_us: t.icn2_us,
                },
                lambda_per_us: self.lambda_per_us,
                service_model: self.service_model,
            })
        }
    }

    impl Sealed for CocConfig {
        const STREAMS: [u64; 3] = [21, 22, 23];
        const FLOW_METRICS: bool = false;

        fn validate(&self) -> Result<(), ModelError> {
            CocConfig::validate(self)
        }

        fn layout(&self) -> Result<Layout, ModelError> {
            Ok(Layout {
                cluster_nodes: self.clusters.iter().map(|c| c.nodes).collect(),
                means: tier_service_times(self)?,
                lambda_per_us: self.lambda_per_us,
                service_model: self.service_model,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmcs_core::scenario::Scenario;
    use hmcs_topology::transmission::Architecture;

    fn system() -> SystemConfig {
        SystemConfig::paper_preset(Scenario::Case1, 8, Architecture::NonBlocking).unwrap()
    }

    #[test]
    fn defaults_match_the_paper() {
        let cfg = SimConfig::new(system());
        assert_eq!(cfg.messages, 10_000);
        assert_eq!(cfg.warmup_messages, 0);
        assert!(cfg.blocked_sources);
        assert_eq!(cfg.pattern, TrafficPattern::Uniform);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn builders_apply() {
        let cfg = SimConfig::new(system())
            .with_messages(500)
            .with_warmup(100)
            .with_seed(9)
            .with_blocked_sources(false)
            .with_pattern(TrafficPattern::Localized { locality: 0.5 });
        assert_eq!(cfg.messages, 500);
        assert_eq!(cfg.warmup_messages, 100);
        assert_eq!(cfg.seed, 9);
        assert!(!cfg.blocked_sources);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_runs() {
        assert!(SimConfig::new(system()).with_messages(0).validate().is_err());
        assert!(SimConfig::new(system())
            .with_pattern(TrafficPattern::Localized { locality: 2.0 })
            .validate()
            .is_err());
    }
}
