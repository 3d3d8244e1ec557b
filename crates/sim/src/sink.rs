//! The paper's sink module, shared by every simulator: it receives each
//! delivered message with its generation time stamp, discards the
//! warm-up deliveries, and keeps the latency statistics of the rest.

use crate::config::SimConfig;
use crate::result::{LatencyQuantiles, SimResult};
use hmcs_des::quantile::P2Quantile;
use hmcs_des::stats::OnlineStats;
use hmcs_des::time::SimTime;

/// Delivered-message counts and latency statistics.
#[derive(Debug)]
pub(crate) struct Sink {
    warmup_messages: u64,
    track_quantiles: bool,
    /// Whether to split latencies into internal and external messages.
    track_classes: bool,
    delivered: u64,
    latency: OnlineStats,
    internal_latency: OnlineStats,
    external_latency: OnlineStats,
    p50: P2Quantile,
    p95: P2Quantile,
    p99: P2Quantile,
}

impl Sink {
    /// An empty sink with `cfg`'s warm-up budget, quantile estimators
    /// and (with the centre statistics) internal/external split.
    pub(crate) fn new<S>(cfg: &SimConfig<S>) -> Self {
        Sink {
            warmup_messages: cfg.warmup_messages,
            track_quantiles: cfg.track_quantiles,
            track_classes: cfg.track_center_stats,
            delivered: 0,
            latency: OnlineStats::new(),
            internal_latency: OnlineStats::new(),
            external_latency: OnlineStats::new(),
            p50: P2Quantile::new(0.50),
            p95: P2Quantile::new(0.95),
            p99: P2Quantile::new(0.99),
        }
    }

    /// Returns the sink to its just-constructed state.
    pub(crate) fn reset(&mut self) {
        self.delivered = 0;
        self.latency = OnlineStats::new();
        self.internal_latency = OnlineStats::new();
        self.external_latency = OnlineStats::new();
        self.p50.reset();
        self.p95.reset();
        self.p99.reset();
    }

    /// A message generated at `created_us` is delivered at `now`.
    pub(crate) fn deliver(&mut self, now: SimTime, created_us: f64, external: bool) {
        let latency = now.as_us() - created_us;
        self.delivered += 1;
        if self.delivered <= self.warmup_messages {
            return;
        }
        self.latency.record(latency);
        if self.track_quantiles {
            self.p50.record(latency);
            self.p95.record(latency);
            self.p99.record(latency);
        }
        if self.track_classes {
            if external {
                self.external_latency.record(latency);
            } else {
                self.internal_latency.record(latency);
            }
        }
    }

    /// Measured (post-warm-up) deliveries.
    pub(crate) fn measured(&self) -> u64 {
        self.latency.count()
    }

    /// The run's latency and throughput fields at `now` for `nodes`
    /// processors; per-centre observations are left empty for the
    /// simulator to fill in.
    pub(crate) fn result(&self, now: f64, nodes: usize) -> SimResult {
        SimResult {
            mean_latency_us: self.latency.mean(),
            latency: self.latency.clone(),
            quantiles: match (self.p50.estimate(), self.p95.estimate(), self.p99.estimate()) {
                (Some(p50_us), Some(p95_us), Some(p99_us)) => {
                    Some(LatencyQuantiles { p50_us, p95_us, p99_us })
                }
                _ => None,
            },
            internal_latency: self.internal_latency.clone(),
            external_latency: self.external_latency.clone(),
            messages: self.measured(),
            sim_duration_us: now,
            throughput_per_us: self.delivered as f64 / now,
            effective_lambda_per_us: self.delivered as f64 / now / nodes as f64,
            per_cluster_ecn1_utilization: Vec::new(),
            icn1: Default::default(),
            ecn1: Default::default(),
            icn2: Default::default(),
        }
    }
}
