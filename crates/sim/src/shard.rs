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
//! Per-shard cost: a background job's only effect on a local message
//! is the FCFS work it leaves at the ICN2, so the ICN2 is a lazily
//! advanced workload that folds the background in by Lindley's
//! recursion, exactly, at two random draws and no events per job. That
//! is about `(C−1)·P` jobs per local message (C clusters, P the
//! external probability): 7.4 per measured message on the 8×32
//! topology case and 16.9 on the 16×625 one. The centres' completions
//! live in the engine's timer slots; only the N₀ per-source `Generate`
//! events use the event heap.
//!
//! When a [`LatencySource`] accompanies the partition (the
//! latency-matrix pipeline), per-pair residual heterogeneity feeds the
//! shard directly: an internal message's ICN1 service mean is offset by
//! `α(src,dst) − intra_centre` and an external message's ICN2 service
//! mean by `α(src,dst) − inter_centre`, so the simulator consumes the
//! *measured matrix*, not just the fitted two-level abstraction of it.
//!
//! Traffic must be uniform ([`TrafficPattern::Uniform`]): the
//! background rate assumes it, so other patterns are rejected. Sources
//! and the sink are the shared `source` and `sink` modules.

use crate::config::SimConfig;
use crate::flow::{center, sample_service};
use crate::metrics_keys;
use crate::sink::Sink;
use crate::source::Source;
use hmcs_core::batch::{par_map_init, BatchOptions};
use hmcs_core::error::ModelError;
use hmcs_core::metrics;
use hmcs_core::routing::TrafficPattern;
use hmcs_core::service::ServiceTimes;
use hmcs_des::engine::{Engine, Model, Scheduler};
use hmcs_des::queue::{FcfsServer, ServiceDirective};
use hmcs_des::rng::RngStream;
use hmcs_des::stats::{confidence_interval, OnlineStats};
use hmcs_des::time::SimTime;
use hmcs_topology::latmatrix::{LatencyMatrix, LatencySource};
use std::collections::VecDeque;
use std::time::Instant;

/// Message identifier.
type MsgId = usize;

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
}

/// Timer slots of the shard engine: one per single-occupancy event.
const TIMER_SLOTS: usize = 3;
/// The ICN2 completion's slot, armed at a known departure time.
const ICN2_SLOT: usize = 2;

impl Ev {
    /// The event's timer slot: each centre has at most one completion
    /// pending; only the per-source `Generate` events share the heap.
    fn timer_slot(self) -> usize {
        match self {
            Ev::Icn1Done => 0,
            Ev::Ecn1Done => 1,
            Ev::Icn2Done => ICN2_SLOT,
            Ev::Generate { .. } => unreachable!("Generate events live on the heap"),
        }
    }
}

/// The shard's ICN2 as a lazily advanced FCFS workload: Lindley's
/// recursion `free_at = max(free_at, a) + s` gives each job's FCFS
/// departure from arrivals and service times alone, so the background
/// is folded in just before each local arrival instead of simulated.
#[derive(Debug, Default)]
struct LazyIcn2 {
    /// When all work that has arrived so far is finished (µs).
    free_at_us: f64,
    /// Next background arrival (µs); infinite without background.
    next_bg_us: f64,
    /// Local messages in the ICN2 and their departure times, FIFO.
    departures: VecDeque<(f64, MsgId)>,
}

impl LazyIcn2 {
    /// Folds in every background arrival strictly before `t`, so a
    /// local message arriving at a tie goes first; `job` draws a job's
    /// service time and the gap to the next arrival. Returns the count.
    fn fold_background(&mut self, t: f64, mut job: impl FnMut() -> (f64, f64)) -> u64 {
        let mut folded = 0;
        while self.next_bg_us < t {
            let (service, gap) = job();
            self.free_at_us = self.free_at_us.max(self.next_bg_us) + service;
            self.next_bg_us += gap;
            folded += 1;
        }
        folded
    }

    /// A local message arrives at `t`, the background folded up to `t`.
    /// Returns its departure if it is the next one (arm its timer).
    fn arrive(&mut self, t: f64, service: f64, id: MsgId) -> Option<f64> {
        self.free_at_us = self.free_at_us.max(t) + service;
        self.departures.push_back((self.free_at_us, id));
        (self.departures.len() == 1).then_some(self.free_at_us)
    }
}

struct ShardModel<'a, S: ?Sized> {
    cfg: SimConfig,
    /// Global ids of this shard's nodes.
    members: Vec<usize>,
    /// `is_local[g]` — membership bitmap over global ids.
    is_local: Vec<bool>,
    means: ServiceTimes,
    bg_rate_per_us: f64,
    hop: Option<HopDelays<'a, S>>,
    source: Source,
    sink: Sink,
    svc_rng: RngStream,
    bg_rng: RngStream,
    icn1: FcfsServer<MsgId>,
    ecn1: FcfsServer<MsgId>,
    icn2: LazyIcn2,
    msgs: Vec<Msg>,
    /// Per-message ICN1/ICN2 mean offset (µs), indexed like `msgs`;
    /// 0 without a hop source.
    hop_offset: Vec<f64>,
    free_ids: Vec<MsgId>,
    boundary_in: u64,
    boundary_out: u64,
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

    /// Mean ICN1 or ICN2 service time for a message: the fitted `base`
    /// plus the pair's residual offset, floored at 5% of `base` so a
    /// pathological matrix cannot produce non-positive service times.
    fn hop_mean(&self, base: f64, id: MsgId) -> f64 {
        (base + self.hop_offset[id]).max(0.05 * base)
    }

    /// Folds the background arriving before `t` into the ICN2 as
    /// boundary-in load; gaps and service times both draw on `bg_rng`.
    fn fold_background(&mut self, t: f64) {
        let (rng, rate, mean) = (&mut self.bg_rng, self.bg_rate_per_us, self.means.icn2_us);
        let model = self.cfg.system.service_model;
        let job = || (sample_service(rng, model, mean), rng.exponential(rate));
        self.boundary_in += self.icn2.fold_background(t, job);
    }

    fn schedule_done(&mut self, now: SimTime, s: &mut Scheduler<Ev>, ev: Ev, mean_us: f64) {
        let svc = sample_service(&mut self.svc_rng, self.cfg.system.service_model, mean_us);
        s.schedule_timer_in(ev.timer_slot(), now, SimTime::from_us(svc), ev);
    }

    /// Message `id` leaves the network at `now`: the sink records it
    /// and its source resumes.
    fn finish(&mut self, now: SimTime, s: &mut Scheduler<Ev>, id: MsgId, external: bool) {
        let msg = self.msgs[id];
        self.free_ids.push(id);
        self.sink.deliver(now, msg.created_us, external);
        self.source.delivered(now, s, Ev::Generate { local: msg.src_local as usize });
    }
}

impl<S: LatencySource + ?Sized> Model for ShardModel<'_, S> {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, event: Ev, s: &mut Scheduler<Ev>) {
        match event {
            Ev::Generate { local } => {
                let src_global = self.members[local];
                let dst = self.source.destination(src_global);
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
                    let mean = self.hop_mean(self.means.icn1_us, id);
                    self.schedule_done(now, s, Ev::Icn1Done, mean);
                }
                self.source.generated(now, s, Ev::Generate { local });
            }
            Ev::Icn1Done => {
                let (id, directive) = self.icn1.complete(now.as_us());
                debug_assert_eq!(self.msgs[id].stage, Stage::Icn1);
                self.finish(now, s, id, false);
                if let ServiceDirective::StartService(next) = directive {
                    let mean = self.hop_mean(self.means.icn1_us, next);
                    self.schedule_done(now, s, Ev::Icn1Done, mean);
                }
            }
            Ev::Ecn1Done => {
                let (id, directive) = self.ecn1.complete(now.as_us());
                match self.msgs[id].stage {
                    Stage::Ecn1Forward => {
                        self.msgs[id].stage = Stage::Icn2;
                        self.fold_background(now.as_us());
                        let mean = self.hop_mean(self.means.icn2_us, id);
                        let svc =
                            sample_service(&mut self.svc_rng, self.cfg.system.service_model, mean);
                        if let Some(at) = self.icn2.arrive(now.as_us(), svc, id) {
                            s.schedule_timer_at(ICN2_SLOT, SimTime::from_us(at), Ev::Icn2Done);
                        }
                    }
                    Stage::Ecn1Feedback => self.finish(now, s, id, true),
                    other => unreachable!("message in ECN1 with stage {other:?}"),
                }
                if let ServiceDirective::StartService(_) = directive {
                    let mean = self.means.ecn1_us;
                    self.schedule_done(now, s, Ev::Ecn1Done, mean);
                }
            }
            Ev::Icn2Done => {
                let (_, id) = self.icn2.departures.pop_front().expect("ICN2 departure pending");
                debug_assert_eq!(self.msgs[id].stage, Stage::Icn2);
                // The message now crosses to the destination cluster;
                // its feedback leg queues at the local ECN1 as the
                // remote ECN1's statistical proxy.
                self.boundary_out += 1;
                self.msgs[id].stage = Stage::Ecn1Feedback;
                if let ServiceDirective::StartService(_) = self.ecn1.arrive(now.as_us(), id) {
                    let mean = self.means.ecn1_us;
                    self.schedule_done(now, s, Ev::Ecn1Done, mean);
                }
                if let Some(&(at, _)) = self.icn2.departures.front() {
                    s.schedule_timer_at(ICN2_SLOT, SimTime::from_us(at), Ev::Icn2Done);
                }
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
            members: Vec::with_capacity(max_nc),
            is_local: vec![false; n],
            means,
            bg_rate_per_us: 0.0,
            hop,
            // Uniform destinations ignore cluster boundaries, so the
            // source sees one cluster of all `n` nodes.
            source: Source::new(cfg, [1, 2], cfg.system.lambda_per_us, &[n]),
            // The shard reports latency means only.
            sink: Sink::new(&cfg.with_quantiles(false).with_center_stats(false)),
            svc_rng: RngStream::new(cfg.seed, 3),
            bg_rng: RngStream::new(cfg.seed, 4),
            // Nothing reads the shard centres' statistics.
            icn1: center(false),
            ecn1: center(false),
            icn2: LazyIcn2::default(),
            msgs: Vec::new(),
            hop_offset: Vec::new(),
            free_ids: Vec::new(),
            boundary_in: 0,
            boundary_out: 0,
        };
        // The heap holds one Generate per local source; the centres'
        // completions use the timer slots.
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
        for &g in &model.members {
            model.is_local[g] = false;
        }
        model.members.clear();
        model.members.extend_from_slice(&self.partition[shard]);
        for &g in &model.members {
            model.is_local[g] = true;
        }
        model.cfg.seed = seed;
        model.source.reset(seed);
        model.sink.reset();
        model.svc_rng = RngStream::new(seed, 3);
        model.bg_rng = RngStream::new(seed, 4);
        model.icn1.reset();
        model.ecn1.reset();
        model.msgs.clear();
        model.hop_offset.clear();
        model.free_ids.clear();
        model.boundary_in = 0;
        model.boundary_out = 0;
        // Background rate: Σ over *other* clusters of n_j·P_j·λ_bg,
        // where P_j = (n − n_j)/(n − 1) is cluster j's external
        // probability under uniform destinations.
        let n = model.is_local.len() as f64;
        let mut bg_rate = 0.0;
        for (j, members) in self.partition.iter().enumerate() {
            if j != shard {
                let nj = members.len() as f64;
                bg_rate += nj * ((n - nj) / (n - 1.0)) * bg_lambda_per_us;
            }
        }
        model.bg_rate_per_us = bg_rate;
        model.icn2.free_at_us = 0.0;
        model.icn2.next_bg_us =
            if bg_rate > 0.0 { model.bg_rng.exponential(bg_rate) } else { f64::INFINITY };
        model.icn2.departures.clear();
        let n_local = model.members.len();
        for local in 0..n_local {
            let think = engine.model_mut().source.think();
            engine.scheduler_mut().schedule_at(think, Ev::Generate { local });
        }
        let target = engine.model().cfg.messages;
        engine.run_until(None, None, |m| m.sink.measured() >= target);
        let now = engine.now().as_us();
        // Background arriving after the last local ICN2 arrival still
        // counts as boundary-in load.
        engine.model_mut().fold_background(now);
        let model = engine.model();
        let result = model.sink.result(now, n_local);
        ShardRun {
            cluster: shard,
            nodes: n_local,
            mean_latency_us: result.mean_latency_us,
            messages: result.messages,
            effective_lambda_per_us: result.effective_lambda_per_us,
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
/// `InvalidConfig` when the traffic pattern is not uniform, the
/// partition does not cover the configured system (wrong cluster
/// count, node not covered exactly once) or the hop source disagrees
/// with the node count.
pub fn run_sharded_with<S: LatencySource + Sync + ?Sized>(
    cfg: &SimConfig,
    partition: &[Vec<usize>],
    hop: Option<HopDelays<'_, S>>,
    options: &ShardOptions,
) -> Result<ShardedSummary, ModelError> {
    cfg.validate()?;
    if cfg.pattern != TrafficPattern::Uniform {
        return Err(ModelError::InvalidConfig {
            name: "pattern",
            reason: "the sharded simulator's background rate assumes uniform traffic",
        });
    }
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
        // C=8×16 up a load ladder: the decomposition's approximations
        // (Poisson background capped at BG_STABILITY_LIMIT, local-ECN1
        // feedback proxy) show here as the gap to the monolithic
        // simulator. Each bound is the rung's measured gap rounded up:
        // 1.79% at 0.3× saturation, 0.52% at 0.6× and 0.26% at 0.85×.
        // Past saturation the cap binds and the open background can no
        // longer carry the closed system's load: at 1.2× the sharded
        // mean is 40.0% below the monolithic one (1.86 vs 3.10 ms).
        let base = system(8, 16);
        let saturation =
            hmcs_core::solver::saturation_lambda(&base, &ServiceTimes::compute(&base).unwrap());
        for (fraction, bound) in [(0.3, 0.019), (0.6, 0.006), (0.85, 0.003), (1.2, 0.401)] {
            let sys = base.with_lambda(fraction * saturation);
            let cfg = SimConfig::new(sys).with_messages(4_000).with_warmup(500).with_seed(33);
            let mono = FlowSimulator::run(&cfg).unwrap();
            let sharded =
                run_sharded(&cfg, &uniform_partition(8, 16), &ShardOptions::default()).unwrap();
            let rel =
                (sharded.mean_latency_us() - mono.mean_latency_us).abs() / mono.mean_latency_us;
            assert!(
                rel < bound,
                "{fraction}× saturation: sharded {} vs monolithic {} ({:.2}%)",
                sharded.mean_latency_us(),
                mono.mean_latency_us,
                rel * 100.0
            );
        }
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
    fn rejects_non_uniform_traffic() {
        for pattern in [
            TrafficPattern::Localized { locality: 0.5 },
            TrafficPattern::Hotspot { node: 0, fraction: 0.2 },
        ] {
            let cfg = cfg(4, 16).with_pattern(pattern);
            assert!(matches!(
                run_sharded(&cfg, &uniform_partition(4, 16), &ShardOptions::default()),
                Err(ModelError::InvalidConfig { name: "pattern", .. })
            ));
        }
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

    /// Background jobs `(service, gap to the next arrival)` after a
    /// first arrival, drawn until an arrival passes `horizon`.
    fn background_jobs(
        first: f64,
        horizon: f64,
        mut draw: impl FnMut() -> (f64, f64),
    ) -> Vec<(f64, f64)> {
        let (mut at, mut jobs) = (first, Vec::new());
        while at <= horizon {
            let job = draw();
            at += job.1;
            jobs.push(job);
        }
        jobs
    }

    /// Local departures from the event-driven `FcfsServer`: arrivals in
    /// time order (a local one before a background one at the same
    /// instant), a completion before an arrival at the same instant.
    /// `local` holds `(arrival, service)`.
    fn reference_departures(first_bg: f64, bg: &[(f64, f64)], local: &[(f64, f64)]) -> Vec<f64> {
        let mut arrivals: Vec<(f64, bool, usize)> =
            local.iter().enumerate().map(|(i, &(t, _))| (t, false, i)).collect();
        let mut at = first_bg;
        for (i, &(_, gap)) in bg.iter().enumerate() {
            arrivals.push((at, true, i));
            at += gap;
        }
        arrivals.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let service = |(is_bg, i): (bool, usize)| if is_bg { bg[i].0 } else { local[i].1 };
        let mut server = FcfsServer::<(bool, usize)>::new(1);
        let (mut done_at, mut next) = (None, 0);
        let mut departures = vec![f64::NAN; local.len()];
        loop {
            let arrival = arrivals.get(next);
            match done_at {
                Some(done) if arrival.is_none_or(|a| done <= a.0) => {
                    let ((is_bg, i), directive) = server.complete(done);
                    if !is_bg {
                        departures[i] = done;
                    }
                    done_at = match directive {
                        ServiceDirective::StartService(job) => Some(done + service(job)),
                        ServiceDirective::Idle => None,
                    };
                }
                _ => {
                    let Some(&(t, is_bg, i)) = arrival else { break };
                    next += 1;
                    if let ServiceDirective::StartService(job) = server.arrive(t, (is_bg, i)) {
                        done_at = Some(t + service(job));
                    }
                }
            }
        }
        departures
    }

    #[test]
    fn lazy_icn2_departures_match_event_driven_fcfs_bit_for_bit() {
        let mut rng = RngStream::new(18, 0);
        // (local arrival gap, local service, background job) samplers,
        // both at ρ = 0.9: exponential, then an integer grid with unit
        // service where arrivals, completions and both streams tie.
        type Draw = fn(&mut RngStream) -> f64;
        type Job = fn(&mut RngStream) -> (f64, f64);
        let cases: [(Draw, Draw, Job); 2] = [
            (
                |r| r.exponential(0.3),
                |r| r.exponential_mean(1.0),
                |r| (r.exponential_mean(1.0), r.exponential(0.6)),
            ),
            (|r| r.uniform_below(6) as f64, |_| 1.0, |r| (1.0, r.uniform_below(5) as f64)),
        ];
        for (local_gap, local_service, bg_job) in cases {
            let mut t = 0.0;
            let local: Vec<(f64, f64)> = (0..5_000)
                .map(|_| {
                    t += local_gap(&mut rng);
                    (t, local_service(&mut rng))
                })
                .collect();
            let first_bg = local_gap(&mut rng);
            let bg = background_jobs(first_bg, t, || bg_job(&mut rng));
            let mut icn2 = LazyIcn2 { next_bg_us: first_bg, ..LazyIcn2::default() };
            let mut jobs = bg.iter().copied();
            let mut folded = 0;
            for (id, &(t, service)) in local.iter().enumerate() {
                folded += icn2.fold_background(t, || jobs.next().expect("background covers t"));
                icn2.arrive(t, service, id);
            }
            assert!(folded > 1_000, "background folded: {folded}");
            let lazy: Vec<u64> = icn2.departures.iter().map(|&(at, _)| at.to_bits()).collect();
            let reference: Vec<u64> =
                reference_departures(first_bg, &bg, &local).iter().map(|d| d.to_bits()).collect();
            assert_eq!(lazy, reference);
        }
    }

    /// Bit pins of the sharded simulator's outputs: the summary's mean,
    /// CI and background rate, then per shard the effective rate,
    /// boundary in/out and simulated duration. The deterministic-service
    /// run has exact time ties. Re-recorded when the ICN2 became a lazy
    /// workload: background service times moved to the background
    /// stream, a local message's ICN2 service is drawn on arrival, and
    /// boundary-in counts background arrivals up to the end of the run
    /// rather than completions. With deterministic service no service
    /// draw moves, and only the boundary-in counts changed.
    const PINNED_EXPONENTIAL: [u64; 19] = [
        0x40a18b39856ed0eb,
        0x406450b5b68fc7be,
        0x3f1eb7219e0ebc16,
        0x3f251e2655ed60e9,
        0xbc5,
        0x54e,
        0x41254f1eed747413,
        0x3f242626bff1274e,
        0xc75,
        0x535,
        0x41265565aca064f2,
        0x3f24f2acd3830a28,
        0xb7e,
        0x562,
        0x41257b584bac9071,
        0x3f254c9d836cceba,
        0xbc7,
        0x56a,
        0x412520a248ad5683,
    ];
    const PINNED_DETERMINISTIC: [u64; 19] = [
        0x40a00f4795f25f26,
        0x4079643d5a09675b,
        0x3f1eb7219e0ebc16,
        0x3f25c4bd63f64f44,
        0xb59,
        0x54b,
        0x4124ac0bfcb9b54c,
        0x3f261758ab2427ab,
        0xb13,
        0x53d,
        0x41245ebf35ebc6bc,
        0x3f27146fdf2f621d,
        0xa5d,
        0x55f,
        0x41237f5eedb9f32b,
        0x3f2442004e6767cb,
        0xc88,
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
