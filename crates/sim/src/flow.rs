//! The flow-level simulator — the direct counterpart of the paper's
//! validation simulator (§6).
//!
//! Implements exactly the stochastic system the analytical model
//! approximates:
//!
//! * each processor generates messages with exponential inter-arrival
//!   times of mean `1/λ` (assumption 1) and a uniformly random
//!   destination among all other nodes (assumption 3);
//! * a source blocks while its message is in flight (assumption 4) —
//!   disable with [`crate::config::SimConfig::with_blocked_sources`] to
//!   obtain the open network;
//! * an internal message queues once at its cluster's ICN1; an external
//!   message queues at the source ECN1, then ICN2, then the destination
//!   ECN1 (Figure 2's forward + feedback passes);
//! * every network tier is a single FCFS server whose service times are
//!   drawn from the configured distribution with the topology-model mean
//!   (eq. 11 / eq. 21) — exponential by default (§5.2);
//! * each message is time-stamped at generation and its latency recorded
//!   at delivery by the sink.
//!
//! The generator and the sink are the shared `source` and `sink`
//! modules; this module adds the three service centres.
//!
//! The simulator therefore differs from the *analysis* only in the ways
//! the analysis approximates reality: Poisson-arrival assumptions at
//! interior centres and the eq. 6/7 throttling model.
//!
//! The same model runs Cluster-of-Clusters federations (the paper's §7
//! future work): with a [`hmcs_core::cluster_of_clusters::CocConfig`]
//! as the system, clusters differ in size and per-cluster ICN1/ECN1
//! service means, and everything else above is unchanged.
//!
//! Given a measured latency matrix ([`HopDelays`]), the model also
//! consumes the matrix's per-pair residuals, not just the two-level
//! abstraction fitted to it: each message's ICN1 (internal) or ICN2
//! (external) service mean is shifted by how far its pair's latency
//! sits from the fitted band centre.

use crate::config::sealed::Layout;
use crate::config::{SimConfig, SimSystem};
use crate::metrics_keys;
use crate::result::{CenterObservation, SimResult};
use crate::sink::Sink;
use crate::source::Source;
use hmcs_core::config::{ServiceTimeModel, SystemConfig};
use hmcs_core::error::ModelError;
use hmcs_core::metrics;
use hmcs_des::engine::{Engine, Model, Scheduler};
use hmcs_des::queue::{FcfsServer, ServiceDirective};
use hmcs_des::rng::RngStream;
use hmcs_des::time::SimTime;
use hmcs_topology::latmatrix::LatencySource;
use std::fmt;

/// Message identifier (index into the in-flight table).
type MsgId = usize;

/// Per-pair service-mean modulation from a latency matrix.
///
/// A message from flow node `src` to `dst` gets the offset
/// `α(src, dst) − centre`, where α is the matrix latency between the
/// two nodes' matrix ids and the centre is the intra or inter band's.
/// The offset shifts the ICN1 mean of an internal message and the ICN2
/// (the WAN leg) mean of an external one. The centres are subtracted so
/// a perfectly two-level matrix reproduces the fitted means; only the
/// *residual* heterogeneity perturbs the run.
#[derive(Clone, Copy)]
pub struct HopDelays<'a> {
    /// The matrix (or implicit source) to read per-pair latencies from.
    pub source: &'a (dyn LatencySource + Sync),
    /// Centre of the intra-cluster band (µs), usually the identified
    /// intra median.
    pub intra_centre_us: f64,
    /// Centre of the inter-cluster band (µs), usually the identified
    /// inter median.
    pub inter_centre_us: f64,
    /// Matrix node ids per simulated cluster: flow node `k` of cluster
    /// `c` (numbered in cluster order) is matrix node `partition[c][k]`.
    pub partition: &'a [Vec<usize>],
}

impl fmt::Debug for HopDelays<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HopDelays")
            .field("nodes", &self.source.nodes())
            .field("intra_centre_us", &self.intra_centre_us)
            .field("inter_centre_us", &self.inter_centre_us)
            .field("clusters", &self.partition.len())
            .finish()
    }
}

/// [`HopDelays`] checked against a layout, with the partition
/// flattened into the matrix id of every flow node.
#[derive(Debug)]
struct Hops<'a> {
    delays: HopDelays<'a>,
    matrix_node: Vec<usize>,
}

impl<'a> Hops<'a> {
    /// Rejects a partition that does not cover every node exactly once
    /// in clusters of the layout's sizes, a source of another node
    /// count, and band centres that are not positive and finite.
    fn new(delays: HopDelays<'a>, cluster_nodes: &[usize]) -> Result<Self, ModelError> {
        let invalid = |name, reason| Err(ModelError::InvalidConfig { name, reason });
        let sizes = delays.partition.iter().map(Vec::len);
        if !sizes.eq(cluster_nodes.iter().copied()) {
            return invalid("partition", "cluster sizes must match the configured system");
        }
        let n: usize = cluster_nodes.iter().sum();
        let mut seen = vec![false; n];
        for &m in delays.partition.iter().flatten() {
            if m >= n || std::mem::replace(&mut seen[m], true) {
                return invalid("partition", "every node must appear exactly once");
            }
        }
        if delays.source.nodes() != n {
            return invalid("hop.source", "latency source node count must match the system");
        }
        let centres = [delays.intra_centre_us, delays.inter_centre_us];
        if !centres.iter().all(|c| c.is_finite() && *c > 0.0) {
            return invalid("hop.centre", "band centres must be positive and finite");
        }
        Ok(Hops { delays, matrix_node: delays.partition.concat() })
    }

    /// The ICN1 (internal) or ICN2 (external) mean offset of a message
    /// from flow node `src` to `dst`.
    fn offset_us(&self, src: usize, dst: usize, external: bool) -> f64 {
        let d = &self.delays;
        let alpha = d.source.latency_us(self.matrix_node[src], self.matrix_node[dst]);
        alpha - if external { d.inter_centre_us } else { d.intra_centre_us }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    Icn1,
    Ecn1Forward,
    Icn2,
    Ecn1Feedback,
}

#[derive(Debug, Clone, Copy)]
struct Msg {
    src: usize,
    dst: usize,
    created_us: f64,
    /// ICN1 or ICN2 mean offset (µs); 0 without [`HopDelays`].
    hop_offset_us: f64,
    stage: Stage,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    /// A processor attempts to generate a message.
    Generate { node: usize },
    /// The ICN1 of `cluster` finishes its current service.
    Icn1Done { cluster: usize },
    /// The ECN1 of `cluster` finishes its current service.
    Ecn1Done { cluster: usize },
    /// The global ICN2 finishes its current service.
    Icn2Done,
}

#[derive(Debug)]
struct FlowModel<'h, S> {
    cfg: SimConfig<S>,
    layout: Layout,
    hops: Option<Hops<'h>>,
    source: Source,
    sink: Sink,
    /// RNG stream id of the service times.
    svc_stream: u64,
    svc_rng: RngStream,
    icn1: Vec<FcfsServer<MsgId>>,
    ecn1: Vec<FcfsServer<MsgId>>,
    icn2: FcfsServer<MsgId>,
    msgs: Vec<Msg>,
    free_ids: Vec<MsgId>,
}

/// Builds one single-server centre, keeping per-event statistics only
/// when `instrumented`.
fn center(instrumented: bool) -> FcfsServer<MsgId> {
    let mut server = FcfsServer::new(1);
    server.set_instrumented(instrumented);
    server
}

/// Draws one service time with mean `mean_us` from `model` on `rng`.
fn sample_service(rng: &mut RngStream, model: ServiceTimeModel, mean_us: f64) -> f64 {
    match model {
        ServiceTimeModel::Exponential => rng.exponential_mean(mean_us),
        ServiceTimeModel::Deterministic => mean_us,
        ServiceTimeModel::Erlang(k) => rng.erlang(mean_us, k),
        ServiceTimeModel::HyperExponential(scv) => rng.hyper_exponential(mean_us, scv),
    }
}

impl<'h, S: SimSystem> FlowModel<'h, S> {
    fn new(
        cfg: &SimConfig<S>,
        streams: [u64; 3],
        hops: Option<HopDelays<'h>>,
    ) -> Result<Self, ModelError> {
        cfg.validate()?;
        let layout = cfg.system.layout()?;
        let sizes = &layout.cluster_nodes;
        let instrumented = cfg.track_center_stats;
        Ok(FlowModel {
            hops: hops.map(|h| Hops::new(h, sizes)).transpose()?,
            source: Source::new(cfg, [streams[0], streams[1]], layout.lambda_per_us, sizes),
            sink: Sink::new(cfg),
            svc_stream: streams[2],
            svc_rng: RngStream::new(cfg.seed, streams[2]),
            icn1: sizes.iter().map(|_| center(instrumented)).collect(),
            ecn1: sizes.iter().map(|_| center(instrumented)).collect(),
            icn2: center(instrumented),
            msgs: Vec::new(),
            free_ids: Vec::new(),
            layout,
            cfg: cfg.clone(),
        })
    }

    /// Returns the model to the state `FlowModel::new` would produce
    /// for the same system with `seed`, keeping every allocation
    /// (server deques, message table, free list) warm. The RNG streams
    /// are rebuilt with the same stream ids, so a reset model replays
    /// a fresh model's sample path bit for bit.
    fn reset(&mut self, seed: u64) {
        self.cfg.seed = seed;
        self.source.reset(seed);
        self.sink.reset();
        self.svc_rng = RngStream::new(seed, self.svc_stream);
        for q in &mut self.icn1 {
            q.reset();
        }
        for q in &mut self.ecn1 {
            q.reset();
        }
        self.icn2.reset();
        self.msgs.clear();
        self.free_ids.clear();
    }

    fn alloc_msg(&mut self, msg: Msg) -> MsgId {
        if let Some(id) = self.free_ids.pop() {
            self.msgs[id] = msg;
            id
        } else {
            self.msgs.push(msg);
            self.msgs.len() - 1
        }
    }

    /// The ICN1 or ICN2 service mean of message `id` for a tier of
    /// mean `base`: shifted by the message's hop offset, floored at 5%
    /// of `base` so a pathological matrix cannot produce non-positive
    /// service times. A zero offset returns `base` exactly.
    fn hop_mean(&self, base: f64, id: MsgId) -> f64 {
        (base + self.msgs[id].hop_offset_us).max(0.05 * base)
    }

    fn schedule_done(&mut self, now: SimTime, s: &mut Scheduler<Ev>, ev: Ev, mean_us: f64) {
        let svc = sample_service(&mut self.svc_rng, self.layout.service_model, mean_us);
        s.schedule_in(now, SimTime::from_us(svc), ev);
    }

    /// Message `id` leaves the network at `now`: the sink records it
    /// and its source resumes.
    fn finish(&mut self, now: SimTime, s: &mut Scheduler<Ev>, id: MsgId, external: bool) {
        let msg = self.msgs[id];
        self.free_ids.push(id);
        self.sink.deliver(now, msg.created_us, external);
        self.source.delivered(now, s, Ev::Generate { node: msg.src });
    }
}

impl<S: SimSystem> Model for FlowModel<'_, S> {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, event: Ev, s: &mut Scheduler<Ev>) {
        match event {
            Ev::Generate { node } => {
                let dst = self.source.destination(node);
                let src_cluster = self.source.cluster_of(node);
                let external = src_cluster != self.source.cluster_of(dst);
                let stage = if external { Stage::Ecn1Forward } else { Stage::Icn1 };
                let hop_offset_us =
                    self.hops.as_ref().map_or(0.0, |h| h.offset_us(node, dst, external));
                let created_us = now.as_us();
                let id = self.alloc_msg(Msg { src: node, dst, created_us, hop_offset_us, stage });
                if external {
                    if let ServiceDirective::StartService(_) =
                        self.ecn1[src_cluster].arrive(now.as_us(), id)
                    {
                        let mean = self.layout.means.ecn1_us[src_cluster];
                        self.schedule_done(now, s, Ev::Ecn1Done { cluster: src_cluster }, mean);
                    }
                } else if let ServiceDirective::StartService(_) =
                    self.icn1[src_cluster].arrive(now.as_us(), id)
                {
                    let mean = self.hop_mean(self.layout.means.icn1_us[src_cluster], id);
                    self.schedule_done(now, s, Ev::Icn1Done { cluster: src_cluster }, mean);
                }
                self.source.generated(now, s, Ev::Generate { node });
            }
            Ev::Icn1Done { cluster } => {
                let (id, directive) = self.icn1[cluster].complete(now.as_us());
                debug_assert_eq!(self.msgs[id].stage, Stage::Icn1);
                self.finish(now, s, id, false);
                if let ServiceDirective::StartService(next) = directive {
                    let mean = self.hop_mean(self.layout.means.icn1_us[cluster], next);
                    self.schedule_done(now, s, Ev::Icn1Done { cluster }, mean);
                }
            }
            Ev::Ecn1Done { cluster } => {
                let (id, directive) = self.ecn1[cluster].complete(now.as_us());
                match self.msgs[id].stage {
                    Stage::Ecn1Forward => {
                        self.msgs[id].stage = Stage::Icn2;
                        if let ServiceDirective::StartService(_) = self.icn2.arrive(now.as_us(), id)
                        {
                            let mean = self.hop_mean(self.layout.means.icn2_us, id);
                            self.schedule_done(now, s, Ev::Icn2Done, mean);
                        }
                    }
                    Stage::Ecn1Feedback => self.finish(now, s, id, true),
                    other => unreachable!("message in ECN1 with stage {other:?}"),
                }
                if let ServiceDirective::StartService(_) = directive {
                    let mean = self.layout.means.ecn1_us[cluster];
                    self.schedule_done(now, s, Ev::Ecn1Done { cluster }, mean);
                }
            }
            Ev::Icn2Done => {
                let (id, directive) = self.icn2.complete(now.as_us());
                debug_assert_eq!(self.msgs[id].stage, Stage::Icn2);
                self.msgs[id].stage = Stage::Ecn1Feedback;
                let dst_cluster = self.source.cluster_of(self.msgs[id].dst);
                if let ServiceDirective::StartService(_) =
                    self.ecn1[dst_cluster].arrive(now.as_us(), id)
                {
                    let mean = self.layout.means.ecn1_us[dst_cluster];
                    self.schedule_done(now, s, Ev::Ecn1Done { cluster: dst_cluster }, mean);
                }
                if let ServiceDirective::StartService(next) = directive {
                    let mean = self.hop_mean(self.layout.means.icn2_us, next);
                    self.schedule_done(now, s, Ev::Icn2Done, mean);
                }
            }
        }
    }
}

/// The flow-level simulator entry point.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlowSimulator;

impl FlowSimulator {
    /// Runs one simulation and returns the sink statistics.
    pub fn run<S: SimSystem>(cfg: &SimConfig<S>) -> Result<SimResult, ModelError> {
        Ok(FlowSimInstance::new(cfg)?.run(cfg.seed))
    }
}

/// A reusable flow-level simulator: build once per system
/// configuration, then [`FlowSimInstance::run`] any number of seeds
/// while the event list, server deques, and message table keep their
/// storage warm. Every run is bit-identical to a fresh
/// [`FlowSimulator::run`] of the same configuration and seed.
#[derive(Debug)]
pub struct FlowSimInstance<'h, S: SimSystem = SystemConfig> {
    engine: Engine<FlowModel<'h, S>>,
}

impl<'h, S: SimSystem> FlowSimInstance<'h, S> {
    /// Builds the simulator for `cfg`'s system.
    pub fn new(cfg: &SimConfig<S>) -> Result<Self, ModelError> {
        Self::with_streams(cfg, S::STREAMS, None)
    }

    /// Builds the simulator for `cfg`'s system with every message's
    /// ICN1 or ICN2 mean modulated by `hops`.
    ///
    /// # Errors
    ///
    /// `InvalidConfig` when the partition does not cover every node
    /// exactly once in clusters of the configured sizes, the source's
    /// node count differs from the system's, or a band centre is not
    /// positive and finite.
    pub fn with_hops(cfg: &SimConfig<S>, hops: HopDelays<'h>) -> Result<Self, ModelError> {
        Self::with_streams(cfg, S::STREAMS, Some(hops))
    }

    /// Builds the simulator with explicit RNG stream ids.
    fn with_streams(
        cfg: &SimConfig<S>,
        streams: [u64; 3],
        hops: Option<HopDelays<'h>>,
    ) -> Result<Self, ModelError> {
        let model = FlowModel::new(cfg, streams, hops)?;
        // Pending-event bound: one Generate per source plus at most one
        // Done per server (per-cluster ICN1 + ECN1 and the global ICN2).
        let capacity = model.source.nodes() + 2 * model.icn1.len() + 1;
        Ok(FlowSimInstance { engine: Engine::with_capacity(model, capacity) })
    }

    /// Runs one replication seeded with `seed` and returns the sink
    /// statistics.
    pub fn run(&mut self, seed: u64) -> SimResult {
        let engine = &mut self.engine;
        engine.reset();
        engine.model_mut().reset(seed);
        // Every processor starts in the thinking state.
        for node in 0..engine.model().source.nodes() {
            let think = engine.model_mut().source.think();
            engine.scheduler_mut().schedule_at(think, Ev::Generate { node });
        }
        let target = engine.model().cfg.messages;
        engine.run_until(None, None, |m| m.sink.measured() >= target);
        let now = engine.now().as_us();
        // Bridge the engine's local counters into the global registry
        // (the DES kernel deliberately knows nothing about hmcs-core).
        if S::FLOW_METRICS {
            metrics::counter(metrics_keys::FLOW_EVENTS).add(engine.events_processed());
            metrics::histogram(metrics_keys::FLOW_PEAK_PENDING)
                .record(engine.scheduler().peak_pending() as u64);
        }
        let model = engine.model();
        SimResult {
            per_cluster_ecn1_utilization: model.ecn1.iter().map(|q| q.utilization(now)).collect(),
            icn1: CenterObservation::average(&model.icn1, now),
            ecn1: CenterObservation::average(&model.ecn1, now),
            icn2: CenterObservation::average(std::slice::from_ref(&model.icn2), now),
            ..model.sink.result(now, model.source.nodes())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmcs_core::config::SystemConfig;
    use hmcs_core::scenario::Scenario;
    use hmcs_topology::transmission::Architecture;

    fn system(clusters: usize, arch: Architecture) -> SystemConfig {
        SystemConfig::paper_preset(Scenario::Case1, clusters, arch).unwrap()
    }

    #[test]
    fn runs_and_counts_messages() {
        let cfg =
            SimConfig::new(system(8, Architecture::NonBlocking)).with_messages(2_000).with_seed(1);
        let r = FlowSimulator::run(&cfg).unwrap();
        assert_eq!(r.messages, 2_000);
        assert!(r.mean_latency_us > 0.0);
        assert!(r.sim_duration_us > 0.0);
        assert!(r.throughput_per_us > 0.0);
    }

    #[test]
    fn reproducible_under_the_same_seed() {
        let cfg =
            SimConfig::new(system(4, Architecture::NonBlocking)).with_messages(1_000).with_seed(77);
        let a = FlowSimulator::run(&cfg).unwrap();
        let b = FlowSimulator::run(&cfg).unwrap();
        assert_eq!(a, b);
        let c = FlowSimulator::run(&cfg.with_seed(78)).unwrap();
        assert_ne!(a.mean_latency_us, c.mean_latency_us);
    }

    #[test]
    fn reset_reuse_is_bit_identical_to_fresh_builds() {
        // The reset-reuse contract: one instance run with
        // seeds s1, s2, s1 must reproduce three fresh builds exactly —
        // including the repeat of s1, which proves the reset leaks no
        // state from the s2 run.
        let cfg =
            SimConfig::new(system(8, Architecture::NonBlocking)).with_messages(1_500).with_seed(7);
        let fresh_a = FlowSimulator::run(&cfg).unwrap();
        let fresh_b = FlowSimulator::run(&cfg.with_seed(8)).unwrap();
        let mut instance = FlowSimInstance::new(&cfg).unwrap();
        assert_eq!(instance.run(7), fresh_a);
        assert_eq!(instance.run(8), fresh_b);
        assert_eq!(instance.run(7), fresh_a);
    }

    #[test]
    fn external_fraction_tracks_eq8() {
        // C=16, N0=16: P = 240/255 ~ 0.941.
        let cfg =
            SimConfig::new(system(16, Architecture::NonBlocking)).with_messages(8_000).with_seed(3);
        let r = FlowSimulator::run(&cfg).unwrap();
        let p = hmcs_core::routing::external_probability(16, 16);
        assert!(
            (r.external_fraction() - p).abs() < 0.02,
            "sim {} vs eq8 {p}",
            r.external_fraction()
        );
    }

    #[test]
    fn single_cluster_has_no_external_traffic() {
        let cfg =
            SimConfig::new(system(1, Architecture::NonBlocking)).with_messages(1_000).with_seed(5);
        let r = FlowSimulator::run(&cfg).unwrap();
        assert_eq!(r.external_latency.count(), 0);
        assert_eq!(r.icn2.arrivals, 0);
        assert_eq!(r.external_fraction(), 0.0);
    }

    #[test]
    fn external_messages_cost_more_than_internal() {
        // External messages traverse three centres instead of one.
        let cfg =
            SimConfig::new(system(8, Architecture::NonBlocking)).with_messages(6_000).with_seed(11);
        let r = FlowSimulator::run(&cfg).unwrap();
        assert!(r.external_latency.mean() > r.internal_latency.mean());
    }

    #[test]
    fn blocking_architecture_is_slower() {
        let nb = FlowSimulator::run(
            &SimConfig::new(system(16, Architecture::NonBlocking))
                .with_messages(3_000)
                .with_seed(13),
        )
        .unwrap();
        let bl = FlowSimulator::run(
            &SimConfig::new(system(16, Architecture::Blocking)).with_messages(3_000).with_seed(13),
        )
        .unwrap();
        assert!(bl.mean_latency_us > nb.mean_latency_us);
    }

    #[test]
    fn blocked_sources_throttle_throughput() {
        // With blocked sources the effective rate must be strictly below
        // the nominal lambda under load.
        let cfg = SimConfig::new(system(32, Architecture::NonBlocking))
            .with_messages(4_000)
            .with_seed(17);
        let r = FlowSimulator::run(&cfg).unwrap();
        assert!(r.effective_lambda_per_us < cfg.system.lambda_per_us);
        assert!(r.effective_lambda_per_us > 0.0);
    }

    #[test]
    fn localized_traffic_reduces_external_fraction() {
        use hmcs_core::routing::TrafficPattern;
        let base =
            SimConfig::new(system(8, Architecture::NonBlocking)).with_messages(4_000).with_seed(19);
        let uniform = FlowSimulator::run(&base).unwrap();
        let local =
            FlowSimulator::run(&base.with_pattern(TrafficPattern::Localized { locality: 0.8 }))
                .unwrap();
        assert!(local.external_fraction() < uniform.external_fraction() * 0.5);
        // Less inter-cluster traffic => lower mean latency in Case 1
        // (slow inter-cluster tiers).
        assert!(local.mean_latency_us < uniform.mean_latency_us);
    }

    #[test]
    fn warmup_messages_are_discarded() {
        let base = SimConfig::new(system(4, Architecture::NonBlocking)).with_seed(23);
        let with_warmup = FlowSimulator::run(&base.with_messages(1_000).with_warmup(500)).unwrap();
        assert_eq!(with_warmup.messages, 1_000);
        // The run had to deliver warmup + measured messages.
        let no_warmup = FlowSimulator::run(&base.with_messages(1_000)).unwrap();
        assert!(with_warmup.sim_duration_us > no_warmup.sim_duration_us);
    }

    #[test]
    fn deterministic_service_reduces_latency_variance() {
        use hmcs_core::config::ServiceTimeModel;
        // Moderate load: at the paper preset λ the ICN2 saturates for
        // C=8 Case 1, and a saturated closed network pins mean latency
        // at population/throughput regardless of service variability —
        // the det-vs-exp mean comparison is then pure seed noise. Below
        // saturation the M/G/1 waiting term (1+SCV)/2 applies, so
        // deterministic service strictly reduces both mean and variance.
        let sys = system(8, Architecture::NonBlocking).with_lambda(1e-5);
        let base = SimConfig::new(sys).with_messages(4_000).with_seed(29);
        let exp = FlowSimulator::run(&base).unwrap();
        let det = {
            let mut cfg = base;
            cfg.system = cfg.system.with_service_model(ServiceTimeModel::Deterministic);
            FlowSimulator::run(&cfg).unwrap()
        };
        assert!(det.latency.variance() < exp.latency.variance());
        assert!(det.mean_latency_us < exp.mean_latency_us);
    }

    #[test]
    fn quantiles_bracket_the_mean() {
        let cfg =
            SimConfig::new(system(8, Architecture::NonBlocking)).with_messages(4_000).with_seed(41);
        let r = FlowSimulator::run(&cfg).unwrap();
        let q = r.quantiles.expect("quantiles present");
        assert!(q.p50_us < q.p95_us && q.p95_us < q.p99_us);
        assert!(q.p50_us > 0.0);
        assert!(q.p99_us <= r.latency.max().unwrap() + 1e-9);
        assert!(q.p50_us >= r.latency.min().unwrap() - 1e-9);
    }

    #[test]
    fn disabling_quantiles_changes_nothing_else() {
        let cfg =
            SimConfig::new(system(8, Architecture::NonBlocking)).with_messages(2_000).with_seed(47);
        let tracked = FlowSimulator::run(&cfg).unwrap();
        let untracked = FlowSimulator::run(&cfg.with_quantiles(false)).unwrap();
        assert!(tracked.quantiles.is_some());
        assert!(untracked.quantiles.is_none());
        let mut masked = tracked.clone();
        masked.quantiles = None;
        assert_eq!(masked, untracked);
    }

    #[test]
    fn disabling_center_stats_keeps_every_delivery_statistic() {
        let cfg =
            SimConfig::new(system(8, Architecture::NonBlocking)).with_messages(2_000).with_seed(47);
        let tracked = FlowSimulator::run(&cfg).unwrap();
        let bare = FlowSimulator::run(&cfg.with_center_stats(false)).unwrap();
        // The sample path is untouched: every latency / throughput
        // statistic is bit-identical.
        assert_eq!(bare.latency, tracked.latency);
        assert_eq!(bare.mean_latency_us.to_bits(), tracked.mean_latency_us.to_bits());
        assert_eq!(bare.throughput_per_us.to_bits(), tracked.throughput_per_us.to_bits());
        assert_eq!(bare.quantiles, tracked.quantiles);
        assert_eq!(bare.messages, tracked.messages);
        assert_eq!(bare.icn1.arrivals, tracked.icn1.arrivals);
        // Only the per-center observations go dark.
        assert!(tracked.icn1.utilization > 0.0);
        assert_eq!(bare.icn1.utilization, 0.0);
        assert_eq!(bare.icn1.mean_number_in_system, 0.0);
        assert!(bare.per_cluster_ecn1_utilization.iter().all(|&u| u == 0.0));
        assert_eq!(bare.internal_latency.count(), 0);
        assert_eq!(bare.external_latency.count(), 0);
    }

    #[test]
    fn hotspot_traffic_adds_locality_for_the_hot_cluster() {
        use hmcs_core::routing::TrafficPattern;
        // With 80% of messages aimed at node 0, the hot node's own
        // cluster sends most of its traffic internally, so the system's
        // external fraction DROPS relative to uniform — which unloads
        // the saturated ICN2 bottleneck and raises the delivered rate.
        // (A counterintuitive closed-network effect the simulator
        // captures and the symmetric model only sees through the mean
        // external probability; see TrafficPattern::Hotspot docs.)
        let base =
            SimConfig::new(system(8, Architecture::NonBlocking)).with_messages(4_000).with_seed(43);
        let uniform = FlowSimulator::run(&base).unwrap();
        let hot = FlowSimulator::run(
            &base.with_pattern(TrafficPattern::Hotspot { node: 0, fraction: 0.8 }),
        )
        .unwrap();
        assert!(hot.external_fraction() < uniform.external_fraction() - 0.05);
        assert!(hot.effective_lambda_per_us > uniform.effective_lambda_per_us);
        // The model hook predicts the same direction for the mean
        // external probability.
        let p_uniform = TrafficPattern::Uniform.external_probability(8, 32);
        let p_hot = TrafficPattern::Hotspot { node: 0, fraction: 0.8 }.external_probability(8, 32);
        assert!(p_hot < p_uniform);
        // The measured fraction sits well BELOW the model's offered-mix
        // prediction: hot-cluster sources cycle faster (their internal
        // messages dodge the throttled ICN2), so delivered messages
        // over-represent internal traffic. This differential throttling
        // is exactly the asymmetry the symmetric model cannot capture.
        assert!(
            hot.external_fraction() < p_hot - 0.05,
            "sim {} vs offered-mix model {p_hot}",
            hot.external_fraction()
        );
    }

    #[test]
    fn hotspot_asymmetry_shows_in_per_cluster_utilizations() {
        use hmcs_core::routing::TrafficPattern;
        // Moderate load so no tier saturates and asymmetry is visible
        // in the raw utilizations.
        let sys = system(8, Architecture::NonBlocking).with_lambda(1e-5);
        let cfg = SimConfig::new(sys)
            .with_messages(6_000)
            .with_seed(51)
            .with_pattern(TrafficPattern::Hotspot { node: 0, fraction: 0.5 });
        let r = FlowSimulator::run(&cfg).unwrap();
        let utils = &r.per_cluster_ecn1_utilization;
        assert_eq!(utils.len(), 8);
        let hot = utils[0];
        let others = utils[1..].iter().sum::<f64>() / 7.0;
        assert!(hot > 2.0 * others, "hot cluster ECN1 should dominate: {hot} vs avg {others}");
        // Uniform traffic keeps them balanced.
        let uniform =
            FlowSimulator::run(&SimConfig::new(sys).with_messages(6_000).with_seed(51)).unwrap();
        let u = &uniform.per_cluster_ecn1_utilization;
        let max = u.iter().cloned().fold(0.0f64, f64::max);
        let min = u.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max < 1.5 * min, "uniform traffic stays balanced: {u:?}");
    }

    #[test]
    fn open_system_matches_mm1_theory_per_tier() {
        // Light open load: each tier behaves as an independent M/M/1.
        let sys = system(16, Architecture::NonBlocking).with_lambda(2e-6);
        let cfg =
            SimConfig::new(sys).with_messages(30_000).with_blocked_sources(false).with_seed(31);
        let r = FlowSimulator::run(&cfg).unwrap();
        // ICN2: lambda = C N0 P lambda.
        let p = hmcs_core::routing::external_probability(16, 16);
        let lam_icn2 = 256.0 * p * 2e-6;
        let t_icn2 = hmcs_core::service::ServiceTimes::compute(&sys).unwrap().icn2_us;
        let rho = lam_icn2 * t_icn2;
        assert!(
            (r.icn2.utilization - rho).abs() < 0.05 * rho.max(0.01),
            "sim {} vs theory {rho}",
            r.icn2.utilization
        );
    }

    /// Latency-matrix hop modulation.
    mod hops {
        use super::*;
        use hmcs_topology::latmatrix::{LatencyBand, SyntheticMatrix, SyntheticSpec};

        /// A two-level matrix of 16-node clusters with LAN
        /// `50 ± intra_std` µs and WAN `400 ± inter_std` µs bands.
        fn two_level(clusters: usize, intra_std: f64, inter_std: f64) -> SyntheticMatrix {
            let intra = LatencyBand::new(50.0, intra_std).unwrap();
            let inter = LatencyBand::new(400.0, inter_std).unwrap();
            SyntheticSpec::uniform(clusters, 16, intra, inter, 5).source().unwrap()
        }

        fn hops<'a>(matrix: &'a SyntheticMatrix, partition: &'a [Vec<usize>]) -> HopDelays<'a> {
            HopDelays { source: matrix, intra_centre_us: 50.0, inter_centre_us: 400.0, partition }
        }

        fn cfg() -> SimConfig {
            let sys = SystemConfig::new(
                4,
                16,
                1024,
                1e-5,
                hmcs_core::scenario::Scenario::Case1,
                Architecture::NonBlocking,
            )
            .unwrap();
            SimConfig::new(sys).with_messages(2_000).with_warmup(300).with_seed(21)
        }

        #[test]
        fn hop_source_modulates_but_centred_matrix_stays_close() {
            // A matrix whose bands are centred exactly on the fitted
            // centres only adds zero-mean jitter: the modulated mean
            // must stay close to the unmodulated one.
            let matrix = two_level(4, 4.0, 30.0);
            let partition = matrix.partition();
            let cfg = cfg();
            let plain = FlowSimulator::run(&cfg).unwrap();
            let modulated =
                FlowSimInstance::with_hops(&cfg, hops(&matrix, &partition)).unwrap().run(cfg.seed);
            let rel =
                (modulated.mean_latency_us - plain.mean_latency_us).abs() / plain.mean_latency_us;
            assert!(rel < 0.15, "modulated {rel:.3} off plain");
            // And the modulated run is genuinely different (the matrix
            // is being consumed).
            assert_ne!(modulated.mean_latency_us, plain.mean_latency_us);
        }

        #[test]
        fn jitter_free_matrix_replays_the_unmodulated_run_bit_for_bit() {
            // Every pair sits on its band centre, so every offset is 0.
            let matrix = two_level(4, 0.0, 0.0);
            let partition = matrix.partition();
            let cfg = cfg();
            let modulated =
                FlowSimInstance::with_hops(&cfg, hops(&matrix, &partition)).unwrap().run(cfg.seed);
            assert_eq!(modulated, FlowSimulator::run(&cfg).unwrap());
        }

        #[test]
        fn rejects_bad_partitions() {
            let matrix = two_level(4, 4.0, 30.0);
            let partition = matrix.partition();
            let cfg = cfg();
            let rejects = |hops: HopDelays<'_>, name: &str| {
                let err = FlowSimInstance::with_hops(&cfg, hops).unwrap_err();
                assert!(
                    matches!(err, ModelError::InvalidConfig { name: n, .. } if n == name),
                    "{err:?}"
                );
            };
            let blocks = |c: usize, n: usize| -> Vec<Vec<usize>> {
                (0..c).map(|k| (k * n..(k + 1) * n).collect()).collect()
            };
            // Wrong cluster count, then a node listed twice, then one
            // left out.
            rejects(hops(&matrix, &blocks(2, 32)), "partition");
            let mut duplicated = blocks(4, 16);
            duplicated[0][0] = 17;
            rejects(hops(&matrix, &duplicated), "partition");
            let mut short = blocks(4, 16);
            short[3].pop();
            rejects(hops(&matrix, &short), "partition");
            let mut outside = blocks(4, 16);
            outside[3][15] = 64;
            rejects(hops(&matrix, &outside), "partition");
            // A source of another node count.
            let small = two_level(2, 4.0, 30.0);
            rejects(HopDelays { source: &small, ..hops(&matrix, &partition) }, "hop.source");
            // Centres that are not positive and finite.
            for bad in [f64::NAN, f64::INFINITY, 0.0, -1.0] {
                let base = hops(&matrix, &partition);
                rejects(HopDelays { intra_centre_us: bad, ..base }, "hop.centre");
                rejects(HopDelays { inter_centre_us: bad, ..base }, "hop.centre");
            }
            // The planted partition itself is accepted.
            assert!(FlowSimInstance::with_hops(&cfg, hops(&matrix, &partition)).is_ok());
        }
    }

    /// Cluster-of-Clusters federations: the same model on clusters of
    /// unequal size and technology.
    mod coc {
        use super::*;
        use crate::config::sealed::Sealed;
        use hmcs_core::cluster_of_clusters::{self, ClusterSpec, CocConfig};
        use hmcs_core::config::QueueAccounting;
        use hmcs_core::error::ModelError;
        use hmcs_core::routing::TrafficPattern;
        use hmcs_topology::switch::SwitchFabric;
        use hmcs_topology::technology::NetworkTechnology;

        fn coc(clusters: Vec<ClusterSpec>) -> CocConfig {
            CocConfig {
                clusters,
                icn2: NetworkTechnology::FAST_ETHERNET,
                switch: SwitchFabric::paper_default(),
                architecture: Architecture::NonBlocking,
                message_bytes: 1024,
                lambda_per_us: 2.5e-4,
                accounting: QueueAccounting::SingleQueue,
                service_model: ServiceTimeModel::Exponential,
            }
        }

        fn homogeneous(c: usize, nodes: usize) -> CocConfig {
            coc(vec![
                ClusterSpec {
                    nodes,
                    icn1: NetworkTechnology::GIGABIT_ETHERNET,
                    ecn1: NetworkTechnology::FAST_ETHERNET,
                };
                c
            ])
        }

        /// The federation of `sc.clusters` identical copies of `sc`'s
        /// cluster.
        fn federation_of(sc: &SystemConfig) -> CocConfig {
            CocConfig {
                clusters: vec![
                    ClusterSpec {
                        nodes: sc.nodes_per_cluster,
                        icn1: sc.icn1,
                        ecn1: sc.ecn1
                    };
                    sc.clusters
                ],
                icn2: sc.icn2,
                switch: sc.switch,
                architecture: sc.architecture,
                message_bytes: sc.message_bytes,
                lambda_per_us: sc.lambda_per_us,
                accounting: sc.accounting,
                service_model: sc.service_model,
            }
        }

        #[test]
        fn runs_and_is_reproducible() {
            let cfg = SimConfig::new(homogeneous(4, 16)).with_messages(1_000).with_seed(5);
            let a = FlowSimulator::run(&cfg).unwrap();
            let b = FlowSimulator::run(&cfg).unwrap();
            assert_eq!(a, b);
            assert_eq!(a.messages, 1_000);
            assert!(a.mean_latency_us > 0.0);
        }

        #[test]
        fn homogeneous_federation_replays_the_super_cluster_run_bit_for_bit() {
            // On the paper-shaped stream ids, a federation of equal
            // clusters is the Super-Cluster run, statistic for statistic.
            for arch in [Architecture::NonBlocking, Architecture::Blocking] {
                for c in [2, 8, 16] {
                    let sc = system(c, arch);
                    let expected =
                        FlowSimulator::run(&SimConfig::new(sc).with_messages(4_000).with_seed(11))
                            .unwrap();
                    let cfg = SimConfig::new(federation_of(&sc)).with_messages(4_000).with_seed(11);
                    let got = FlowSimInstance::with_streams(&cfg, SystemConfig::STREAMS, None)
                        .unwrap()
                        .run(cfg.seed);
                    assert_eq!(got, expected, "C={c} {arch:?}");
                }
            }
        }

        #[test]
        fn zero_message_budget_is_rejected() {
            let cfg = SimConfig::new(homogeneous(4, 16)).with_messages(0);
            assert!(matches!(
                FlowSimulator::run(&cfg),
                Err(ModelError::InvalidConfig { name: "messages", .. })
            ));
        }

        #[test]
        fn localized_destinations_stay_in_the_source_cluster() {
            // Fully local traffic on unequal clusters never leaves home.
            let cfg = SimConfig::new(coc(vec![
                ClusterSpec {
                    nodes: 4,
                    icn1: NetworkTechnology::GIGABIT_ETHERNET,
                    ecn1: NetworkTechnology::FAST_ETHERNET,
                },
                ClusterSpec {
                    nodes: 12,
                    icn1: NetworkTechnology::FAST_ETHERNET,
                    ecn1: NetworkTechnology::FAST_ETHERNET,
                },
            ]))
            .with_pattern(TrafficPattern::Localized { locality: 1.0 })
            .with_messages(2_000)
            .with_seed(8);
            let r = FlowSimulator::run(&cfg).unwrap();
            assert_eq!(r.messages, 2_000);
            assert_eq!(r.icn2.arrivals, 0);
            assert_eq!(r.external_latency.count(), 0);
        }

        #[test]
        fn coc_model_matches_coc_simulation() {
            // The headline validation for the future-work model: analysis
            // vs simulation on a genuinely heterogeneous system.
            let cfg = coc(vec![
                ClusterSpec {
                    nodes: 96,
                    icn1: NetworkTechnology::MYRINET,
                    ecn1: NetworkTechnology::GIGABIT_ETHERNET,
                },
                ClusterSpec {
                    nodes: 64,
                    icn1: NetworkTechnology::GIGABIT_ETHERNET,
                    ecn1: NetworkTechnology::GIGABIT_ETHERNET,
                },
                ClusterSpec {
                    nodes: 32,
                    icn1: NetworkTechnology::FAST_ETHERNET,
                    ecn1: NetworkTechnology::FAST_ETHERNET,
                },
            ]);
            let analysis = cluster_of_clusters::evaluate(&cfg).unwrap();
            let sim = FlowSimulator::run(
                &SimConfig::new(cfg).with_messages(8_000).with_warmup(2_000).with_seed(17),
            )
            .unwrap();
            let rel = (analysis.mean_message_latency_us - sim.mean_latency_us).abs()
                / sim.mean_latency_us;
            assert!(
                rel < 0.10,
                "CoC analysis {:.1} vs sim {:.1} ({:.1}%)",
                analysis.mean_message_latency_us,
                sim.mean_latency_us,
                rel * 100.0
            );
            // Effective rates agree too.
            let rel_rate = (analysis.lambda_eff - sim.effective_lambda_per_us).abs()
                / sim.effective_lambda_per_us;
            assert!(rel_rate < 0.10, "lambda_eff rel err {rel_rate}");
        }

        #[test]
        fn fast_cluster_delivers_internal_messages_faster() {
            // Internal latency in a Myrinet cluster should beat internal
            // latency in an FE cluster; the mixed sink only exposes the
            // aggregate, so compare two single-technology systems.
            let fast = coc(vec![
                ClusterSpec {
                    nodes: 32,
                    icn1: NetworkTechnology::MYRINET,
                    ecn1: NetworkTechnology::GIGABIT_ETHERNET,
                };
                2
            ]);
            let slow = coc(vec![
                ClusterSpec {
                    nodes: 32,
                    icn1: NetworkTechnology::FAST_ETHERNET,
                    ecn1: NetworkTechnology::GIGABIT_ETHERNET,
                };
                2
            ]);
            let f = FlowSimulator::run(&SimConfig::new(fast).with_messages(3_000).with_seed(3))
                .unwrap();
            let s = FlowSimulator::run(&SimConfig::new(slow).with_messages(3_000).with_seed(3))
                .unwrap();
            assert!(f.internal_latency.mean() < s.internal_latency.mean());
        }
    }
}
