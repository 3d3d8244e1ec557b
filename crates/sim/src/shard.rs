//! Per-cluster sharded flow simulation for 10k–100k-node systems.
//!
//! A monolithic [`crate::flow`] run of a 100k-node system carries every
//! node's pending Generate event in one future-event list; wall clock
//! and memory both scale with the whole machine. This module cuts the
//! system along the identified cluster boundaries instead: **one shard
//! simulates one cluster exactly** — its sources, its ICN1 and its ECN1
//! — together with a *private copy of the global ICN2* whose extra load
//! from all the other clusters is injected as a Poisson background
//! stream. Shards then run embarrassingly parallel on the shared
//! bounded pool (`hmcs_core::batch::par_map_init`), exactly like
//! replications.
//!
//! ## The decomposition
//!
//! * **Local traffic is exact.** Every message generated inside the
//!   shard is simulated end to end: source blocking, ICN1 queueing for
//!   internal messages, the ECN1 → ICN2 → ECN1 three-centre path for
//!   external ones.
//! * **The feedback leg uses the local ECN1 as a proxy** for the remote
//!   destination's ECN1. Under the HMCS symmetry the remote ECN1 is
//!   statistically identical, and routing the feedback locally makes
//!   the local ECN1's arrival rate *exactly* right (forward + feedback
//!   = `2·n_c·P_c·λ_eff`) without any ECN1 background process.
//! * **ICN2 background.** The only cross-shard coupling in the paper's
//!   model is the shared ICN2. Each shard's private ICN2 receives, on
//!   top of the exactly-simulated local external stream, background
//!   arrivals at rate `Σ_{j≠c} n_j·P_j·λ_bg` — the superposition of
//!   many independent sparse streams, which Palm–Khintchine makes
//!   near-Poisson in the many-cluster limit. Background jobs occupy
//!   the server and vanish (counted as boundary-in messages; local
//!   externals crossing the ICN2 are boundary-out).
//! * **Throttling fixed point.** Blocked sources make the background
//!   rate depend on the very congestion it creates, so the driver
//!   iterates: pass 1 uses the nominal λ as `λ_bg`, measures the grand
//!   mean effective rate across shards, and pass 2 (default; see
//!   [`ShardOptions::iterations`]) re-runs with the measured value.
//!   This keeps the sharded simulator self-contained — it never reads
//!   the analytical solver, so validating analysis against it stays a
//!   genuine differential test.
//!
//! Per-shard cost is dominated by the background jobs, not by the
//! cluster: each shard replays the whole system's ICN2 load, about
//! `(C−1)·P` background jobs per local message (C clusters, P the
//! external probability) — 7.4 per measured message on the 8×32
//! topology case and 16.9 on the 16×625 one, warm-up included. Each
//! job is two events (arrival, completion), and both, like the three
//! centres' completions, are single-occupancy, so they live in the
//! engine's timer slots; only the N₀ per-source `Generate` events use
//! the event heap. The shards run embarrassingly parallel on the pool.
//!
//! When a [`LatencySource`] accompanies the partition (the
//! latency-matrix pipeline), per-pair residual heterogeneity feeds the
//! shard directly: an internal message's ICN1 service mean is offset by
//! `α(src,dst) − intra_centre` and an external message's ICN2 service
//! mean by `α(src,dst) − inter_centre`, so the simulator consumes the
//! *measured matrix*, not just the fitted two-level abstraction of it.

use crate::config::SimConfig;
use crate::flow::{center, sample_service};
use crate::metrics_keys;
use hmcs_core::batch::{par_map_init, BatchOptions};
use hmcs_core::error::ModelError;
use hmcs_core::metrics;
use hmcs_core::service::ServiceTimes;
use hmcs_des::engine::{Engine, Model, Scheduler};
use hmcs_des::queue::{FcfsServer, ServiceDirective};
use hmcs_des::rng::{RngStream, UniformInt};
use hmcs_des::stats::{confidence_interval, OnlineStats};
use hmcs_des::time::SimTime;
use hmcs_topology::latmatrix::{LatencyMatrix, LatencySource};
use std::time::Instant;

/// Message identifier; [`BG_ID`] marks background ICN2 jobs.
type MsgId = usize;

/// Sentinel id for background ICN2 jobs injected by other shards' load.
const BG_ID: MsgId = usize::MAX;

/// Seed stride between background fixed-point iterations, so pass 2
/// replays none of pass 1's randomness.
const ITERATION_SEED_STRIDE: u64 = 1_000_003;

/// Ceiling on the ICN2 utilization the background stream may offer.
///
/// The background is an *open* Poisson stream, so unlike the closed
/// sources it simulates it would not throttle itself: at the paper's
/// nominal λ the ICN2 saturates and an uncapped pass-1 background
/// would grow the ICN2 queue without bound (the run never completes).
/// A closed system can never sustain more than the saturation
/// throughput, so capping the background's offered rate at this
/// utilization is faithful — the fixed point then pulls the rate down
/// to the measured effective value.
const BG_STABILITY_LIMIT: f64 = 0.9;

/// Per-pair service-mean modulation from a latency matrix.
///
/// `centre` values are subtracted so a perfectly two-level matrix
/// reproduces the fitted means exactly; only the *residual*
/// heterogeneity perturbs the shard.
#[derive(Debug)]
pub struct HopDelays<'a, S: ?Sized> {
    /// The matrix (or implicit source) to sample per-pair latencies from.
    pub source: &'a S,
    /// Centre of the intra-cluster band (µs), usually the identified
    /// intra median.
    pub intra_centre_us: f64,
    /// Centre of the inter-cluster band (µs), usually the identified
    /// inter median.
    pub inter_centre_us: f64,
}

impl<S: ?Sized> Clone for HopDelays<'_, S> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<S: ?Sized> Copy for HopDelays<'_, S> {}

/// Driver options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardOptions {
    /// Background fixed-point passes (≥ 1). The default 2 runs one
    /// nominal-rate pass to measure throttling, then the reported pass
    /// at the measured background rate.
    pub iterations: u32,
    /// Worker policy for the shard batch.
    pub batch: BatchOptions,
}

impl Default for ShardOptions {
    fn default() -> Self {
        ShardOptions { iterations: 2, batch: BatchOptions::default() }
    }
}

/// One shard's outcome (final fixed-point pass).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardRun {
    /// Cluster index in the partition.
    pub cluster: usize,
    /// Nodes simulated by this shard.
    pub nodes: usize,
    /// Mean measured message latency (µs).
    pub mean_latency_us: f64,
    /// Measured messages.
    pub messages: u64,
    /// Per-node effective generation rate (msg/µs).
    pub effective_lambda_per_us: f64,
    /// Background ICN2 jobs absorbed (load entering from other shards).
    pub boundary_in: u64,
    /// Local external messages that crossed the ICN2 (load leaving).
    pub boundary_out: u64,
    /// Simulated time span (µs).
    pub sim_duration_us: f64,
    /// Wall-clock time this shard's simulation took (µs).
    pub wall_us: f64,
}

/// Aggregate over all shards of the final fixed-point pass.
#[derive(Debug, Clone)]
pub struct ShardedSummary {
    /// Per-shard outcomes, in cluster order.
    pub shards: Vec<ShardRun>,
    /// Fixed-point passes run.
    pub iterations: u32,
    /// Background per-node rate used in the reported pass (msg/µs).
    pub background_lambda_per_us: f64,
    latency_means: OnlineStats,
}

impl ShardedSummary {
    /// Throughput-weighted grand mean message latency (µs): shard means
    /// weighted by their delivered-message rate `n_c · λ_eff,c`, which
    /// is how the monolithic simulator's sink would weight them.
    pub fn mean_latency_us(&self) -> f64 {
        let mut num = 0.0;
        let mut den = 0.0;
        for s in &self.shards {
            let w = s.nodes as f64 * s.effective_lambda_per_us;
            num += w * s.mean_latency_us;
            den += w;
        }
        if den > 0.0 {
            num / den
        } else {
            0.0
        }
    }

    /// 95% confidence half-width from the spread of (independent)
    /// shard means, µs. Unweighted, which is exact for equal-size
    /// clusters and conservative otherwise.
    pub fn latency_ci95_us(&self) -> f64 {
        confidence_interval(&self.latency_means, 0.95)
    }

    /// Node-weighted grand mean effective per-node rate (msg/µs).
    pub fn mean_effective_lambda(&self) -> f64 {
        let nodes: usize = self.shards.iter().map(|s| s.nodes).sum();
        let total: f64 =
            self.shards.iter().map(|s| s.nodes as f64 * s.effective_lambda_per_us).sum();
        total / nodes as f64
    }

    /// Total boundary messages (in, out) across shards.
    pub fn boundary_totals(&self) -> (u64, u64) {
        self.shards.iter().fold((0, 0), |(i, o), s| (i + s.boundary_in, o + s.boundary_out))
    }

    /// Total measured messages across shards.
    pub fn total_messages(&self) -> u64 {
        self.shards.iter().map(|s| s.messages).sum()
    }
}

// ---------------------------------------------------------------------------
// The single-cluster shard model
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    Icn1,
    Ecn1Forward,
    Icn2,
    Ecn1Feedback,
}

#[derive(Debug, Clone, Copy)]
struct Msg {
    /// Local index of the (always local) source.
    src_local: u32,
    created_us: f64,
    stage: Stage,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    Generate { local: usize },
    Icn1Done,
    Ecn1Done,
    Icn2Done,
    BgArrive,
}

/// Timer slots of the shard engine: one per single-occupancy event.
const TIMER_SLOTS: usize = 4;

impl Ev {
    /// The event's timer slot. Each centre is one FCFS server, so at
    /// most one completion per centre is pending, and the background
    /// stream has exactly one next arrival pending; only the per-source
    /// `Generate` events share the heap.
    fn timer_slot(self) -> usize {
        match self {
            Ev::Icn1Done => 0,
            Ev::Ecn1Done => 1,
            Ev::Icn2Done => 2,
            Ev::BgArrive => 3,
            Ev::Generate { .. } => unreachable!("Generate events live on the heap"),
        }
    }
}

struct ShardModel<'a, S: ?Sized> {
    cfg: SimConfig,
    /// Total nodes in the *system* (not the shard).
    n: usize,
    /// Global ids of this shard's nodes.
    members: Vec<usize>,
    /// `is_local[g]` — membership bitmap over global ids.
    is_local: Vec<bool>,
    means: ServiceTimes,
    bg_rate_per_us: f64,
    hop: Option<HopDelays<'a, S>>,
    think_rng: RngStream,
    dest_rng: RngStream,
    svc_rng: RngStream,
    bg_rng: RngStream,
    dest_any: UniformInt,
    icn1: FcfsServer<MsgId>,
    ecn1: FcfsServer<MsgId>,
    icn2: FcfsServer<MsgId>,
    msgs: Vec<Msg>,
    /// Per-message ICN1/ICN2 mean offset (µs), indexed like `msgs`;
    /// 0 without a hop source.
    hop_offset: Vec<f64>,
    free_ids: Vec<MsgId>,
    delivered: u64,
    boundary_in: u64,
    boundary_out: u64,
    latency: OnlineStats,
}

impl<S: LatencySource + ?Sized> ShardModel<'_, S> {
    fn alloc_msg(&mut self, msg: Msg, offset: f64) -> MsgId {
        if let Some(id) = self.free_ids.pop() {
            self.msgs[id] = msg;
            self.hop_offset[id] = offset;
            id
        } else {
            self.msgs.push(msg);
            self.hop_offset.push(offset);
            self.msgs.len() - 1
        }
    }

    /// Mean ICN1 service time for a specific internal message: the
    /// fitted mean plus the pair's residual offset, floored at 5% of
    /// the fitted mean so a pathological matrix cannot produce
    /// non-positive service times.
    fn icn1_mean_for(&self, id: MsgId) -> f64 {
        let base = self.means.icn1_us;
        (base + self.hop_offset[id]).max(0.05 * base)
    }

    /// Mean ICN2 service time for a job; background jobs use the
    /// fitted mean.
    fn icn2_mean_for(&self, id: MsgId) -> f64 {
        let base = self.means.icn2_us;
        if id == BG_ID {
            return base;
        }
        (base + self.hop_offset[id]).max(0.05 * base)
    }

    fn schedule_done(&mut self, now: SimTime, s: &mut Scheduler<Ev>, ev: Ev, mean_us: f64) {
        let svc = sample_service(&mut self.svc_rng, self.cfg.system.service_model, mean_us);
        s.schedule_timer_in(ev.timer_slot(), now, SimTime::from_us(svc), ev);
    }

    fn deliver(&mut self, now: SimTime, s: &mut Scheduler<Ev>, id: MsgId) {
        let msg = self.msgs[id];
        self.free_ids.push(id);
        let latency = now.as_us() - msg.created_us;
        self.delivered += 1;
        if self.delivered > self.cfg.warmup_messages {
            self.latency.record(latency);
        }
        if self.cfg.blocked_sources {
            let think = self.think_rng.exponential(self.cfg.system.lambda_per_us);
            s.schedule_in(
                now,
                SimTime::from_us(think),
                Ev::Generate { local: msg.src_local as usize },
            );
        }
    }

    fn measured(&self) -> u64 {
        self.latency.count()
    }
}

impl<S: LatencySource + ?Sized> Model for ShardModel<'_, S> {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, event: Ev, s: &mut Scheduler<Ev>) {
        match event {
            Ev::Generate { local } => {
                let src_global = self.members[local];
                let dst = self.dest_any.sample_excluding(&mut self.dest_rng, src_global);
                let external = !self.is_local[dst];
                let stage = if external { Stage::Ecn1Forward } else { Stage::Icn1 };
                // Residual per-pair offset against the fitted band
                // centre (0 without a matrix): applied at the ICN1 for
                // internal messages, at the ICN2 (the WAN leg) for
                // external ones.
                let offset = match &self.hop {
                    Some(h) => {
                        let alpha = h.source.latency_us(src_global, dst);
                        if external {
                            alpha - h.inter_centre_us
                        } else {
                            alpha - h.intra_centre_us
                        }
                    }
                    None => 0.0,
                };
                let id = self.alloc_msg(
                    Msg { src_local: local as u32, created_us: now.as_us(), stage },
                    offset,
                );
                if external {
                    if let ServiceDirective::StartService(_) = self.ecn1.arrive(now.as_us(), id) {
                        let mean = self.means.ecn1_us;
                        self.schedule_done(now, s, Ev::Ecn1Done, mean);
                    }
                } else if let ServiceDirective::StartService(_) = self.icn1.arrive(now.as_us(), id)
                {
                    let mean = self.icn1_mean_for(id);
                    self.schedule_done(now, s, Ev::Icn1Done, mean);
                }
                if !self.cfg.blocked_sources {
                    let gap = self.think_rng.exponential(self.cfg.system.lambda_per_us);
                    s.schedule_in(now, SimTime::from_us(gap), Ev::Generate { local });
                }
            }
            Ev::Icn1Done => {
                let (id, directive) = self.icn1.complete(now.as_us());
                debug_assert_eq!(self.msgs[id].stage, Stage::Icn1);
                self.deliver(now, s, id);
                if let ServiceDirective::StartService(next) = directive {
                    let mean = self.icn1_mean_for(next);
                    self.schedule_done(now, s, Ev::Icn1Done, mean);
                }
            }
            Ev::Ecn1Done => {
                let (id, directive) = self.ecn1.complete(now.as_us());
                match self.msgs[id].stage {
                    Stage::Ecn1Forward => {
                        self.msgs[id].stage = Stage::Icn2;
                        if let ServiceDirective::StartService(started) =
                            self.icn2.arrive(now.as_us(), id)
                        {
                            let mean = self.icn2_mean_for(started);
                            self.schedule_done(now, s, Ev::Icn2Done, mean);
                        }
                    }
                    Stage::Ecn1Feedback => self.deliver(now, s, id),
                    other => unreachable!("message in ECN1 with stage {other:?}"),
                }
                if let ServiceDirective::StartService(_) = directive {
                    let mean = self.means.ecn1_us;
                    self.schedule_done(now, s, Ev::Ecn1Done, mean);
                }
            }
            Ev::Icn2Done => {
                let (id, directive) = self.icn2.complete(now.as_us());
                if id == BG_ID {
                    // A background job: other shards' load, absorbed.
                    self.boundary_in += 1;
                } else {
                    debug_assert_eq!(self.msgs[id].stage, Stage::Icn2);
                    // The message now crosses to the destination
                    // cluster; its feedback leg queues at the local
                    // ECN1 as the remote ECN1's statistical proxy.
                    self.boundary_out += 1;
                    self.msgs[id].stage = Stage::Ecn1Feedback;
                    if let ServiceDirective::StartService(_) = self.ecn1.arrive(now.as_us(), id) {
                        let mean = self.means.ecn1_us;
                        self.schedule_done(now, s, Ev::Ecn1Done, mean);
                    }
                }
                if let ServiceDirective::StartService(next) = directive {
                    let mean = self.icn2_mean_for(next);
                    self.schedule_done(now, s, Ev::Icn2Done, mean);
                }
            }
            Ev::BgArrive => {
                if let ServiceDirective::StartService(started) =
                    self.icn2.arrive(now.as_us(), BG_ID)
                {
                    let mean = self.icn2_mean_for(started);
                    self.schedule_done(now, s, Ev::Icn2Done, mean);
                }
                let gap = self.bg_rng.exponential(self.bg_rate_per_us);
                s.schedule_timer_in(
                    Ev::BgArrive.timer_slot(),
                    now,
                    SimTime::from_us(gap),
                    Ev::BgArrive,
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Instance + driver
// ---------------------------------------------------------------------------

/// A reusable shard simulator bound to one system configuration and
/// partition; `run` simulates any shard with any seed, keeping the
/// engine's and model's allocations warm between shards.
struct ShardSimInstance<'a, S: LatencySource + ?Sized> {
    engine: Engine<ShardModel<'a, S>>,
    partition: &'a [Vec<usize>],
}

impl<'a, S: LatencySource + ?Sized> ShardSimInstance<'a, S> {
    fn new(
        cfg: &SimConfig,
        partition: &'a [Vec<usize>],
        hop: Option<HopDelays<'a, S>>,
    ) -> Result<Self, ModelError> {
        let means = ServiceTimes::compute(&cfg.system)?;
        let n: usize = partition.iter().map(Vec::len).sum();
        let max_nc = partition.iter().map(Vec::len).max().unwrap_or(0);
        let model = ShardModel {
            cfg: *cfg,
            n,
            members: Vec::with_capacity(max_nc),
            is_local: vec![false; n],
            means,
            bg_rate_per_us: 0.0,
            hop,
            think_rng: RngStream::new(cfg.seed, 1),
            dest_rng: RngStream::new(cfg.seed, 2),
            svc_rng: RngStream::new(cfg.seed, 3),
            bg_rng: RngStream::new(cfg.seed, 4),
            dest_any: UniformInt::new(n - 1),
            // Nothing reads the shard centres' statistics.
            icn1: center(false),
            ecn1: center(false),
            icn2: center(false),
            msgs: Vec::new(),
            hop_offset: Vec::new(),
            free_ids: Vec::new(),
            delivered: 0,
            boundary_in: 0,
            boundary_out: 0,
            latency: OnlineStats::new(),
        };
        // The heap holds one Generate per local source; the servers'
        // completions and the background arrival use the timer slots.
        let engine = Engine::with_timers(model, max_nc, TIMER_SLOTS);
        Ok(ShardSimInstance { engine, partition })
    }

    /// Simulates one shard, bit-identically reproducible from
    /// `(shard, seed, bg_lambda)` regardless of instance reuse.
    fn run(&mut self, shard: usize, seed: u64, bg_lambda_per_us: f64) -> ShardRun {
        let engine = &mut self.engine;
        engine.reset();
        let model = engine.model_mut();
        // Reset per-shard state, keeping allocations warm.
        for i in 0..model.members.len() {
            let g = model.members[i];
            model.is_local[g] = false;
        }
        model.members.clear();
        model.members.extend_from_slice(&self.partition[shard]);
        for i in 0..model.members.len() {
            let g = model.members[i];
            model.is_local[g] = true;
        }
        model.cfg.seed = seed;
        model.think_rng = RngStream::new(seed, 1);
        model.dest_rng = RngStream::new(seed, 2);
        model.svc_rng = RngStream::new(seed, 3);
        model.bg_rng = RngStream::new(seed, 4);
        model.icn1.reset();
        model.ecn1.reset();
        model.icn2.reset();
        model.msgs.clear();
        model.hop_offset.clear();
        model.free_ids.clear();
        model.delivered = 0;
        model.boundary_in = 0;
        model.boundary_out = 0;
        model.latency = OnlineStats::new();
        // Background rate: Σ over *other* clusters of n_j·P_j·λ_bg,
        // where P_j = (n − n_j)/(n − 1) is cluster j's external
        // probability under uniform destinations.
        let n = model.n as f64;
        let mut bg_rate = 0.0;
        for (j, members) in self.partition.iter().enumerate() {
            if j != shard {
                let nj = members.len() as f64;
                bg_rate += nj * ((n - nj) / (n - 1.0)) * bg_lambda_per_us;
            }
        }
        model.bg_rate_per_us = bg_rate;
        let n_local = model.members.len();
        let lambda = model.cfg.system.lambda_per_us;
        for local in 0..n_local {
            let think = engine.model_mut().think_rng.exponential(lambda);
            engine.scheduler_mut().schedule_at(SimTime::from_us(think), Ev::Generate { local });
        }
        if bg_rate > 0.0 {
            let first = SimTime::from_us(engine.model_mut().bg_rng.exponential(bg_rate));
            let slot = Ev::BgArrive.timer_slot();
            engine.scheduler_mut().schedule_timer_in(slot, SimTime::ZERO, first, Ev::BgArrive);
        }
        let target = engine.model().cfg.messages;
        engine.run_until(None, None, |m| m.measured() >= target);
        let now = engine.now().as_us();
        let model = engine.model();
        ShardRun {
            cluster: shard,
            nodes: n_local,
            mean_latency_us: model.latency.mean(),
            messages: model.latency.count(),
            effective_lambda_per_us: model.delivered as f64 / now / n_local as f64,
            boundary_in: model.boundary_in,
            boundary_out: model.boundary_out,
            sim_duration_us: now,
            wall_us: 0.0,
        }
    }
}

/// Runs the sharded simulator without per-pair matrix modulation.
pub fn run_sharded(
    cfg: &SimConfig,
    partition: &[Vec<usize>],
    options: &ShardOptions,
) -> Result<ShardedSummary, ModelError> {
    run_sharded_with::<LatencyMatrix>(cfg, partition, None, options)
}

/// Runs the sharded simulator: one shard per partition cluster, over
/// [`ShardOptions::iterations`] background fixed-point passes, on the
/// shared worker pool. Deterministic in `(cfg.seed, partition)`
/// regardless of worker count.
///
/// # Errors
///
/// `InvalidConfig` when the partition does not cover the configured
/// system (wrong cluster count, node not covered exactly once) or the
/// hop source disagrees with the node count.
pub fn run_sharded_with<S: LatencySource + Sync + ?Sized>(
    cfg: &SimConfig,
    partition: &[Vec<usize>],
    hop: Option<HopDelays<'_, S>>,
    options: &ShardOptions,
) -> Result<ShardedSummary, ModelError> {
    cfg.validate()?;
    validate_partition(cfg, partition)?;
    if let Some(h) = &hop {
        if h.source.nodes() != cfg.system.total_nodes() {
            return Err(ModelError::InvalidConfig {
                name: "hop.source",
                reason: "latency source node count must match the system",
            });
        }
        // NaN centres must be rejected too, hence not `<= 0.0`.
        if !(h.intra_centre_us > 0.0 && h.inter_centre_us > 0.0) {
            return Err(ModelError::InvalidConfig {
                name: "hop.centre",
                reason: "band centres must be positive",
            });
        }
    }
    let iterations = options.iterations.max(1);
    let shards: Vec<usize> = (0..partition.len()).collect();
    let workers = options.batch.resolved_workers();
    // Threads the pool actually runs a pass on (it never spawns more
    // workers than shards).
    let pool = workers.max(1).min(shards.len());
    // Per-node rate above which the *total* external stream (all
    // clusters) would push the ICN2 past [`BG_STABILITY_LIMIT`]:
    // Σ_j n_j·P_j·λ·s_icn2 = limit. Background rates are clamped here
    // so every pass terminates even for saturated systems.
    let icn2_us = ServiceTimes::compute(&cfg.system)?.icn2_us;
    let n = cfg.system.total_nodes() as f64;
    let icn2_load_per_lambda: f64 = partition
        .iter()
        .map(|members| {
            let nj = members.len() as f64;
            nj * ((n - nj) / (n - 1.0)) * icn2_us
        })
        .sum();
    let bg_cap = if icn2_load_per_lambda > 0.0 {
        BG_STABILITY_LIMIT / icn2_load_per_lambda
    } else {
        f64::INFINITY
    };
    let mut bg_lambda = cfg.system.lambda_per_us.min(bg_cap);
    let mut final_runs: Vec<ShardRun> = Vec::new();
    for iter in 0..iterations {
        let iter_seed = cfg.seed.wrapping_add(ITERATION_SEED_STRIDE.wrapping_mul(u64::from(iter)));
        let bg = bg_lambda;
        let pass_started = Instant::now();
        let results = par_map_init(
            &shards,
            workers,
            || None,
            |instance: &mut Option<ShardSimInstance<'_, S>>,
             &shard|
             -> Result<ShardRun, ModelError> {
                let started = Instant::now();
                let instance = match instance {
                    Some(i) => i,
                    None => instance.insert(ShardSimInstance::new(cfg, partition, hop)?),
                };
                let mut run = instance.run(shard, iter_seed.wrapping_add(shard as u64), bg);
                run.wall_us = started.elapsed().as_secs_f64() * 1e6;
                // Observational only: never feeds back into the run, so
                // the summary stays deterministic in shard order.
                metrics::counter(metrics_keys::SHARD_RUNS).incr();
                metrics::counter(metrics_keys::SHARD_BOUNDARY_IN).add(run.boundary_in);
                metrics::counter(metrics_keys::SHARD_BOUNDARY_OUT).add(run.boundary_out);
                metrics::histogram(metrics_keys::SHARD_BUSY_US).record_f64(run.wall_us);
                Ok(run)
            },
        );
        let pass_wall_us = pass_started.elapsed().as_secs_f64() * 1e6;
        let mut runs = Vec::with_capacity(partition.len());
        for r in results {
            runs.push(r?);
        }
        // Worker wall time the pass left unused: pool threads × pass
        // wall, less the time spent inside shards.
        let busy_us: f64 = runs.iter().map(|r| r.wall_us).sum();
        metrics::histogram(metrics_keys::SHARD_IDLE_US)
            .record_f64((pool as f64 * pass_wall_us - busy_us).max(0.0));
        // Grand mean effective rate feeds the next pass's background.
        let nodes: usize = runs.iter().map(|r| r.nodes).sum();
        let measured_lambda =
            runs.iter().map(|r| r.nodes as f64 * r.effective_lambda_per_us).sum::<f64>()
                / nodes as f64;
        final_runs = runs;
        if iter + 1 < iterations {
            bg_lambda = measured_lambda.min(bg_cap);
        }
    }
    let mut latency_means = OnlineStats::new();
    for r in &final_runs {
        latency_means.record(r.mean_latency_us);
    }
    Ok(ShardedSummary {
        shards: final_runs,
        iterations,
        background_lambda_per_us: bg_lambda,
        latency_means,
    })
}

fn validate_partition(cfg: &SimConfig, partition: &[Vec<usize>]) -> Result<(), ModelError> {
    if partition.len() != cfg.system.clusters {
        return Err(ModelError::InvalidConfig {
            name: "partition",
            reason: "cluster count must match the configured system",
        });
    }
    let n = cfg.system.total_nodes();
    let covered: usize = partition.iter().map(Vec::len).sum();
    if covered != n {
        return Err(ModelError::InvalidConfig {
            name: "partition",
            reason: "partition must cover exactly the configured nodes",
        });
    }
    let mut seen = vec![false; n];
    for members in partition {
        if members.is_empty() {
            return Err(ModelError::InvalidConfig {
                name: "partition",
                reason: "clusters must be non-empty",
            });
        }
        for &m in members {
            if m >= n || seen[m] {
                return Err(ModelError::InvalidConfig {
                    name: "partition",
                    reason: "every node must appear exactly once",
                });
            }
            seen[m] = true;
        }
    }
    Ok(())
}

/// Builds the uniform block partition (`cluster c` owns nodes
/// `c·N₀ .. (c+1)·N₀`) matching the monolithic simulator's layout.
pub fn uniform_partition(clusters: usize, nodes_per_cluster: usize) -> Vec<Vec<usize>> {
    (0..clusters).map(|c| (c * nodes_per_cluster..(c + 1) * nodes_per_cluster).collect()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowSimulator;
    use hmcs_core::config::SystemConfig;
    use hmcs_core::scenario::Scenario;
    use hmcs_topology::latmatrix::{LatencyBand, SyntheticSpec};
    use hmcs_topology::transmission::Architecture;

    fn system(clusters: usize, nodes: usize) -> SystemConfig {
        SystemConfig::new(
            clusters,
            nodes,
            1024,
            hmcs_core::scenario::PAPER_LAMBDA_PER_US,
            Scenario::Case1,
            Architecture::NonBlocking,
        )
        .unwrap()
    }

    fn cfg(clusters: usize, nodes: usize) -> SimConfig {
        SimConfig::new(system(clusters, nodes)).with_messages(1_500).with_warmup(300).with_seed(9)
    }

    #[test]
    fn sharded_run_is_deterministic_and_worker_invariant() {
        let cfg = cfg(4, 16);
        let partition = uniform_partition(4, 16);
        let seq = run_sharded(
            &cfg,
            &partition,
            &ShardOptions { iterations: 2, batch: BatchOptions::sequential() },
        )
        .unwrap();
        let par = run_sharded(
            &cfg,
            &partition,
            &ShardOptions { iterations: 2, batch: BatchOptions::with_workers(4) },
        )
        .unwrap();
        // wall_us is wall-clock (observational); everything else must
        // be bit-identical regardless of worker count.
        let strip = |runs: &[ShardRun]| -> Vec<ShardRun> {
            runs.iter().map(|r| ShardRun { wall_us: 0.0, ..r.clone() }).collect()
        };
        assert_eq!(strip(&seq.shards), strip(&par.shards));
        assert_eq!(seq.mean_latency_us().to_bits(), par.mean_latency_us().to_bits());
        assert_eq!(seq.latency_ci95_us().to_bits(), par.latency_ci95_us().to_bits());
    }

    #[test]
    fn shards_exchange_boundary_load_both_ways() {
        let summary =
            run_sharded(&cfg(4, 16), &uniform_partition(4, 16), &ShardOptions::default()).unwrap();
        let (bg_in, ext_out) = summary.boundary_totals();
        assert!(bg_in > 0, "background jobs absorbed");
        assert!(ext_out > 0, "external messages crossed out");
        // With C=4, N0=16: P ≈ 48/63 ≈ 0.76 of messages are external,
        // and each shard's background rate is (C−1)·n_c·P·λ_bg, so
        // boundary-in should be the same order as boundary-out × (C−1),
        // scaled by the duration the shards actually ran.
        for s in &summary.shards {
            assert!(s.boundary_in > s.boundary_out, "{s:?}");
        }
    }

    #[test]
    fn fixed_point_lowers_background_below_nominal() {
        let cfg = cfg(4, 16);
        let summary =
            run_sharded(&cfg, &uniform_partition(4, 16), &ShardOptions::default()).unwrap();
        assert_eq!(summary.iterations, 2);
        // Blocked sources throttle: the measured rate the second pass
        // used must be below the nominal λ.
        assert!(summary.background_lambda_per_us < cfg.system.lambda_per_us);
        assert!(summary.background_lambda_per_us > 0.0);
    }

    #[test]
    fn sharded_agrees_with_monolithic_flow_sim() {
        // Moderate load, C=8×16: the decomposition's only approximation
        // is the Poisson background + local-ECN1 feedback proxy, so the
        // sharded mean should track the monolithic simulator closely.
        let sys = system(8, 16).with_lambda(1e-5);
        let cfg = SimConfig::new(sys).with_messages(4_000).with_warmup(500).with_seed(33);
        let mono = FlowSimulator::run(&cfg).unwrap();
        let sharded =
            run_sharded(&cfg, &uniform_partition(8, 16), &ShardOptions::default()).unwrap();
        let rel = (sharded.mean_latency_us() - mono.mean_latency_us).abs() / mono.mean_latency_us;
        assert!(
            rel < 0.10,
            "sharded {} vs monolithic {} ({:.1}%)",
            sharded.mean_latency_us(),
            mono.mean_latency_us,
            rel * 100.0
        );
    }

    #[test]
    fn hop_source_modulates_but_centred_matrix_stays_close() {
        // A matrix whose bands are centred exactly on the fitted
        // centres only adds zero-mean jitter: the sharded mean with
        // hop modulation must stay close to the unmodulated one.
        let spec = SyntheticSpec::uniform(
            4,
            16,
            LatencyBand::new(50.0, 4.0).unwrap(),
            LatencyBand::new(400.0, 30.0).unwrap(),
            5,
        );
        let src = spec.source().unwrap();
        let partition = src.partition();
        let sys = system(4, 16).with_lambda(1e-5);
        let cfg = SimConfig::new(sys).with_messages(2_000).with_warmup(300).with_seed(21);
        let plain = run_sharded(&cfg, &partition, &ShardOptions::default()).unwrap();
        let hop = HopDelays { source: &src, intra_centre_us: 50.0, inter_centre_us: 400.0 };
        let modulated =
            run_sharded_with(&cfg, &partition, Some(hop), &ShardOptions::default()).unwrap();
        let rel =
            (modulated.mean_latency_us() - plain.mean_latency_us()).abs() / plain.mean_latency_us();
        assert!(rel < 0.15, "modulated {rel:.3} off plain");
        // And the modulated run is genuinely different (the matrix is
        // being consumed).
        assert_ne!(modulated.mean_latency_us(), plain.mean_latency_us());
    }

    #[test]
    fn rejects_bad_partitions() {
        let cfg = cfg(4, 16);
        let wrong_count = uniform_partition(2, 32);
        assert!(run_sharded(&cfg, &wrong_count, &ShardOptions::default()).is_err());
        let mut duplicated = uniform_partition(4, 16);
        duplicated[0][0] = 17; // node 17 now appears twice
        assert!(run_sharded(&cfg, &duplicated, &ShardOptions::default()).is_err());
        let mut short = uniform_partition(4, 16);
        short[3].pop();
        assert!(run_sharded(&cfg, &short, &ShardOptions::default()).is_err());
    }

    #[test]
    fn single_cluster_degenerates_to_pure_local_traffic() {
        let sys = system(1, 32);
        let cfg = SimConfig::new(sys).with_messages(1_000).with_seed(3);
        let summary =
            run_sharded(&cfg, &uniform_partition(1, 32), &ShardOptions::default()).unwrap();
        let (bg_in, ext_out) = summary.boundary_totals();
        assert_eq!(bg_in, 0);
        assert_eq!(ext_out, 0);
        assert!(summary.mean_latency_us() > 0.0);
    }

    /// Bit pins of the sharded simulator's outputs, recorded before its
    /// single-occupancy events moved from the event heap to timer slots:
    /// the summary's mean, CI and background rate, then per shard the
    /// effective rate, boundary in/out and simulated duration. The
    /// deterministic-service run has exact time ties.
    const PINNED_EXPONENTIAL: [u64; 19] = [
        0x40a1fcd533755b73,
        0x4075213ed87b0ff4,
        0x3f1eb7219e0ebc16,
        0x3f2527c19912da4d,
        0xba7,
        0x552,
        0x41254571ca40fb04,
        0x3f24ce8fe0c75435,
        0xbb6,
        0x542,
        0x4125a0a121943fc1,
        0x3f260f7bd8032b36,
        0xad7,
        0x55b,
        0x41246601cda02a93,
        0x3f237c0d4717e8ac,
        0xced,
        0x563,
        0x4127185e4c6f7682,
    ];
    const PINNED_DETERMINISTIC: [u64; 19] = [
        0x40a00f4795f25f26,
        0x4079643d5a09675b,
        0x3f1eb7219e0ebc16,
        0x3f25c4bd63f64f44,
        0xb56,
        0x54b,
        0x4124ac0bfcb9b54c,
        0x3f261758ab2427ab,
        0xb08,
        0x53d,
        0x41245ebf35ebc6bc,
        0x3f27146fdf2f621d,
        0xa5d,
        0x55f,
        0x41237f5eedb9f32b,
        0x3f2442004e6767cb,
        0xc87,
        0x56c,
        0x412636b192226699,
    ];

    #[test]
    fn outputs_match_bit_pins_with_hop_source() {
        use hmcs_core::config::ServiceTimeModel;
        let spec = SyntheticSpec::uniform(
            4,
            16,
            LatencyBand::new(50.0, 4.0).unwrap(),
            LatencyBand::new(400.0, 30.0).unwrap(),
            5,
        );
        let src = spec.source().unwrap();
        let partition = src.partition();
        let hop = HopDelays { source: &src, intra_centre_us: 50.0, inter_centre_us: 400.0 };
        for (model, pinned) in [
            (ServiceTimeModel::Exponential, PINNED_EXPONENTIAL),
            (ServiceTimeModel::Deterministic, PINNED_DETERMINISTIC),
        ] {
            let mut cfg = cfg(4, 16);
            cfg.system = cfg.system.with_service_model(model);
            let s =
                run_sharded_with(&cfg, &partition, Some(hop), &ShardOptions::default()).unwrap();
            let mut got = vec![
                s.mean_latency_us().to_bits(),
                s.latency_ci95_us().to_bits(),
                s.background_lambda_per_us.to_bits(),
            ];
            for r in &s.shards {
                got.extend([
                    r.effective_lambda_per_us.to_bits(),
                    r.boundary_in,
                    r.boundary_out,
                    r.sim_duration_us.to_bits(),
                ]);
            }
            assert_eq!(got, pinned, "{model:?}");
        }
    }
}
