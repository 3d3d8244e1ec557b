//! Simulation results: the `sink` module's output plus each
//! simulator's per-centre observations.

use hmcs_des::queue::FcfsServer;
use hmcs_des::stats::{confidence_interval, OnlineStats};

/// Streaming latency-quantile estimates (P² algorithm) collected by the
/// sink: medians and tails without storing samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyQuantiles {
    /// Median latency estimate (µs).
    pub p50_us: f64,
    /// 95th-percentile estimate (µs).
    pub p95_us: f64,
    /// 99th-percentile estimate (µs).
    pub p99_us: f64,
}

/// Steady-state observations of one service centre (or centre class)
/// collected during a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CenterObservation {
    /// Time-weighted mean number in system.
    pub mean_number_in_system: f64,
    /// Fraction of time busy.
    pub utilization: f64,
    /// Total arrivals seen.
    pub arrivals: u64,
}

impl CenterObservation {
    /// The observation of `centres` at `now`, averaged over the centres
    /// (arrivals summed).
    pub(crate) fn average<T: Clone>(centres: &[FcfsServer<T>], now: f64) -> Self {
        let k = centres.len() as f64;
        CenterObservation {
            mean_number_in_system: centres
                .iter()
                .map(|q| q.mean_number_in_system(now))
                .sum::<f64>()
                / k,
            utilization: centres.iter().map(|q| q.utilization(now)).sum::<f64>() / k,
            arrivals: centres.iter().map(|q| q.arrivals()).sum(),
        }
    }
}

/// The output of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Mean measured message latency (µs).
    pub mean_latency_us: f64,
    /// Latency statistics (full accumulator: mean/var/extrema).
    pub latency: OnlineStats,
    /// Streaming latency quantiles (`None` when no messages measured).
    pub quantiles: Option<LatencyQuantiles>,
    /// Latency of intra-cluster messages only.
    pub internal_latency: OnlineStats,
    /// Latency of inter-cluster messages only.
    pub external_latency: OnlineStats,
    /// Measured messages delivered.
    pub messages: u64,
    /// Simulated time elapsed (µs).
    pub sim_duration_us: f64,
    /// Delivered-message throughput (messages/µs) over the run.
    pub throughput_per_us: f64,
    /// Measured effective per-processor generation rate
    /// (throughput / N) — the simulation counterpart of the paper's
    /// λ_eff (eq. 7).
    pub effective_lambda_per_us: f64,
    /// Per-cluster ECN1 utilizations (empty for simulators that do not
    /// expose them). Reveals the asymmetry hotspot traffic creates,
    /// which the averaged observations mask.
    pub per_cluster_ecn1_utilization: Vec<f64>,
    /// Aggregate ICN1 observation (averaged over clusters).
    pub icn1: CenterObservation,
    /// Aggregate ECN1 observation (averaged over clusters).
    pub ecn1: CenterObservation,
    /// ICN2 observation.
    pub icn2: CenterObservation,
}

impl SimResult {
    /// Fraction of measured messages that were external.
    pub fn external_fraction(&self) -> f64 {
        if self.latency.count() == 0 {
            0.0
        } else {
            self.external_latency.count() as f64 / self.latency.count() as f64
        }
    }

    /// 95% confidence half-width of the mean latency (normal
    /// approximation — adequate at the paper's 10,000-message runs).
    pub fn latency_ci95_us(&self) -> f64 {
        confidence_interval(&self.latency, 0.95)
    }

    /// Mean latency in milliseconds (figure unit).
    pub fn mean_latency_ms(&self) -> f64 {
        self.mean_latency_us / 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result_with(internal: u64, external: u64) -> SimResult {
        let mut latency = OnlineStats::new();
        let mut int = OnlineStats::new();
        let mut ext = OnlineStats::new();
        for i in 0..internal {
            let v = 100.0 + i as f64;
            latency.record(v);
            int.record(v);
        }
        for i in 0..external {
            let v = 500.0 + i as f64;
            latency.record(v);
            ext.record(v);
        }
        SimResult {
            mean_latency_us: latency.mean(),
            latency,
            quantiles: None,
            internal_latency: int,
            external_latency: ext,
            messages: internal + external,
            sim_duration_us: 1e6,
            throughput_per_us: (internal + external) as f64 / 1e6,
            effective_lambda_per_us: (internal + external) as f64 / 1e6 / 256.0,
            per_cluster_ecn1_utilization: Vec::new(),
            icn1: CenterObservation::default(),
            ecn1: CenterObservation::default(),
            icn2: CenterObservation::default(),
        }
    }

    #[test]
    fn external_fraction_counts_classes() {
        let r = result_with(30, 70);
        assert!((r.external_fraction() - 0.7).abs() < 1e-12);
        let empty = result_with(0, 0);
        assert_eq!(empty.external_fraction(), 0.0);
    }

    #[test]
    fn ci_and_unit_helpers() {
        let r = result_with(50, 50);
        assert!(r.latency_ci95_us() > 0.0);
        assert!((r.mean_latency_ms() * 1e3 - r.mean_latency_us).abs() < 1e-9);
    }
}
