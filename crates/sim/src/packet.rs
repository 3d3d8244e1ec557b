//! The packet-level simulator — the high-fidelity member of the
//! paper's "set of simulators".
//!
//! Unlike the flow-level simulator (which, like the analysis, treats
//! each network tier as one abstract server), this simulator walks every
//! message **hop by hop** through explicitly constructed switch fabrics:
//!
//! * the fat-tree is represented by its pods (groups of parallel
//!   switches, see `hmcs_topology::fat_tree`), each an
//!   [`FcfsServer`] with one server per member switch;
//! * the linear array is a chain of single-server switch resources —
//!   contention on the shared middle switches produces head-of-line
//!   blocking *naturally*, with no `(N/2)·M·β` model term;
//! * store-and-forward: each switch holds a message for
//!   `α_sw + M·β` (switch latency plus the full payload transmission);
//!   entering a tier costs the link latency `α` once as a pure delay;
//! * inter-cluster messages ride the source ECN1 fabric *up* to its
//!   root/gateway, cross ICN2 between cluster endpoints, and ride the
//!   destination ECN1 *down*.
//!
//! Because of the per-hop payload retransmission, zero-load latencies
//! sit `(hops−1)·M·β` above eq. 11's cut-through-style accounting; the
//! comparison experiments treat the packet simulator as a *referee of
//! trends*, not of absolute values (EXPERIMENTS.md discusses the
//! offsets).
//!
//! Messages are generated and collected by the same shared `source` and
//! `sink` modules as the flow-level simulator; only the networks differ.

use crate::config::SimConfig;
use crate::metrics_keys;
use crate::result::{CenterObservation, SimResult};
use crate::sink::Sink;
use crate::source::Source;
use hmcs_core::error::ModelError;
use hmcs_core::metrics;
use hmcs_des::engine::{Engine, Model, Scheduler};
use hmcs_des::queue::{FcfsServer, ServiceDirective};
use hmcs_des::time::SimTime;
use hmcs_topology::transmission::Architecture;

type MsgId = usize;

/// One step of a message's itinerary.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Step {
    /// Pure (uncontended) delay, e.g. a link latency α.
    Delay(f64),
    /// Queue at the global resource with this index.
    Queue(usize),
}

#[derive(Debug, Clone, Copy)]
struct Msg {
    src: usize,
    dst: usize,
    created_us: f64,
    /// Number of steps this message's arena slot holds.
    len: u32,
    cursor: u32,
}

/// A switch fabric laid out as globally indexed pod resources.
#[derive(Debug, Clone)]
struct TierFabric {
    arch: Architecture,
    endpoints: usize,
    down_radix: usize,
    ports: usize,
    stages: u32,
    /// Global resource index of this fabric's first pod.
    base: usize,
    /// Local offsets of each stage's first pod (fat-tree only).
    stage_offsets: Vec<usize>,
    /// Pods per stage (fat-tree) or `[k]` (linear array).
    pods_per_stage: Vec<usize>,
    /// Tier entry latency α.
    injection_us: f64,
    /// Precomputed routing table (fat-tree only): the **global**
    /// resource index of endpoint `a`'s pod at stage `s`, flattened as
    /// `pod_path[a * stages + (s - 1)]`. Routes become pure table
    /// reads — no division, no allocation — and the per-message
    /// `route()` walk is reduced to emitting slices of this table.
    pod_path: Vec<u32>,
}

impl TierFabric {
    fn new(
        arch: Architecture,
        endpoints: usize,
        ports: usize,
        base: usize,
        injection_us: f64,
    ) -> Self {
        let down_radix = (ports / 2).max(1);
        match arch {
            Architecture::NonBlocking => {
                // Mirror hmcs-topology's fat-tree structure.
                let stages = {
                    let mut d = 1u32;
                    let mut cap = ports as u128;
                    while cap < endpoints as u128 {
                        d += 1;
                        cap = cap.saturating_mul(down_radix as u128);
                    }
                    d
                };
                let mut pods_per_stage = Vec::new();
                let mut block = down_radix;
                for s in 1..=stages {
                    let pods = if s == stages { 1 } else { endpoints.div_ceil(block) };
                    pods_per_stage.push(pods);
                    block = block.saturating_mul(down_radix);
                }
                let mut stage_offsets = Vec::with_capacity(pods_per_stage.len());
                let mut acc = 0;
                for &p in &pods_per_stage {
                    stage_offsets.push(acc);
                    acc += p;
                }
                let mut fabric = TierFabric {
                    arch,
                    endpoints,
                    down_radix,
                    ports,
                    stages,
                    base,
                    stage_offsets,
                    pods_per_stage,
                    injection_us,
                    pod_path: Vec::new(),
                };
                let mut pod_path = Vec::with_capacity(endpoints * stages as usize);
                for a in 0..endpoints {
                    for s in 1..=stages {
                        pod_path.push((fabric.base + fabric.pod_of(a, s)) as u32);
                    }
                }
                fabric.pod_path = pod_path;
                fabric
            }
            Architecture::Blocking => {
                let k = endpoints.div_ceil(ports);
                TierFabric {
                    arch,
                    endpoints,
                    down_radix,
                    ports,
                    stages: 1,
                    base,
                    stage_offsets: vec![0],
                    pods_per_stage: vec![k],
                    injection_us,
                    // The linear array routes by switch arithmetic; no
                    // table is needed.
                    pod_path: Vec::new(),
                }
            }
        }
    }

    fn pod_count(&self) -> usize {
        self.pods_per_stage.iter().sum()
    }

    /// Capacity (parallel switches) of each pod, in local pod order.
    fn pod_capacities(&self) -> Vec<u32> {
        match self.arch {
            Architecture::Blocking => vec![1; self.pod_count()],
            Architecture::NonBlocking => {
                let mut caps = Vec::with_capacity(self.pod_count());
                let mut block = self.down_radix;
                for (idx, &pods) in self.pods_per_stage.iter().enumerate() {
                    let s = idx + 1;
                    for g in 0..pods {
                        let covered = if s as u32 == self.stages {
                            self.endpoints
                        } else {
                            self.endpoints.min((g + 1) * block).saturating_sub(g * block)
                        };
                        let switches = if s as u32 == self.stages {
                            self.endpoints.div_ceil(self.ports)
                        } else {
                            covered.div_ceil(self.down_radix)
                        };
                        caps.push(switches.max(1) as u32);
                    }
                    block = block.saturating_mul(self.down_radix);
                }
                caps
            }
        }
    }

    /// Local pod id of endpoint `a` at stage `s` (1-based).
    fn pod_of(&self, a: usize, s: u32) -> usize {
        if s == self.stages {
            return self.stage_offsets[s as usize - 1];
        }
        let block = self.down_radix.pow(s);
        self.stage_offsets[s as usize - 1] + a / block
    }

    /// Upper bound on the number of hops `emit_route` can produce.
    fn max_route_len(&self) -> usize {
        match self.arch {
            Architecture::Blocking => self.pods_per_stage[0],
            Architecture::NonBlocking => 2 * self.stages as usize - 1,
        }
    }

    /// Upper bound on the number of hops `emit_route_up` /
    /// `emit_route_down` can produce.
    fn max_leg_len(&self) -> usize {
        match self.arch {
            Architecture::Blocking => self.pods_per_stage[0],
            Architecture::NonBlocking => self.stages as usize,
        }
    }

    /// Emits the full route between two endpoints (global resource
    /// indices, in hop order) from the precomputed tables — the
    /// allocation-free counterpart of [`TierFabric::route`].
    #[inline]
    fn emit_route(&self, a: usize, b: usize, emit: &mut impl FnMut(usize)) {
        debug_assert_ne!(a, b, "routing requires distinct endpoints");
        match self.arch {
            Architecture::Blocking => {
                let sa = a / self.ports;
                let sb = b / self.ports;
                if sa <= sb {
                    for s in sa..=sb {
                        emit(self.base + s);
                    }
                } else {
                    for s in (sb..=sa).rev() {
                        emit(self.base + s);
                    }
                }
            }
            Architecture::NonBlocking => {
                let st = self.stages as usize;
                let pa = &self.pod_path[a * st..(a + 1) * st];
                let pb = &self.pod_path[b * st..(b + 1) * st];
                // Meet stage: lowest stage at which the endpoints share
                // a pod (pods are equal exactly when the endpoints fall
                // in the same stage block).
                let mut meet = st;
                for s in 0..st - 1 {
                    if pa[s] == pb[s] {
                        meet = s + 1;
                        break;
                    }
                }
                for &p in &pa[..meet] {
                    emit(p as usize);
                }
                for &p in pb[..meet - 1].iter().rev() {
                    emit(p as usize);
                }
            }
        }
    }

    /// Emits the route from endpoint `a` up to the fabric's
    /// root/gateway — the allocation-free counterpart of
    /// [`TierFabric::route_up`].
    #[inline]
    fn emit_route_up(&self, a: usize, emit: &mut impl FnMut(usize)) {
        match self.arch {
            Architecture::Blocking => {
                let sa = a / self.ports;
                for s in (0..=sa).rev() {
                    emit(self.base + s);
                }
            }
            Architecture::NonBlocking => {
                let st = self.stages as usize;
                for &p in &self.pod_path[a * st..(a + 1) * st] {
                    emit(p as usize);
                }
            }
        }
    }

    /// Emits the route from the root/gateway down to endpoint `b` —
    /// the allocation-free counterpart of [`TierFabric::route_down`].
    #[inline]
    fn emit_route_down(&self, b: usize, emit: &mut impl FnMut(usize)) {
        match self.arch {
            Architecture::Blocking => {
                let sb = b / self.ports;
                for s in 0..=sb {
                    emit(self.base + s);
                }
            }
            Architecture::NonBlocking => {
                let st = self.stages as usize;
                for &p in self.pod_path[b * st..(b + 1) * st].iter().rev() {
                    emit(p as usize);
                }
            }
        }
    }

    /// Full route between two endpoints (global resource indices).
    ///
    /// Retained as the test oracle for the precomputed-table path
    /// (`emit_route`): the property tests assert both produce identical
    /// hop sequences across fuzzed configurations.
    #[cfg(test)]
    fn route(&self, a: usize, b: usize) -> Vec<usize> {
        assert_ne!(a, b, "routing requires distinct endpoints");
        match self.arch {
            Architecture::Blocking => {
                let sa = a / self.ports;
                let sb = b / self.ports;
                let (lo, hi) = (sa.min(sb), sa.max(sb));
                let mut path: Vec<usize> = (lo..=hi).map(|s| self.base + s).collect();
                if sa > sb {
                    path.reverse();
                }
                path
            }
            Architecture::NonBlocking => {
                // Meet stage: lowest stage at which the endpoints share a
                // pod.
                let mut meet = self.stages;
                let mut block = self.down_radix;
                for s in 1..self.stages {
                    if a / block == b / block {
                        meet = s;
                        break;
                    }
                    block = block.saturating_mul(self.down_radix);
                }
                let mut path = Vec::with_capacity(2 * meet as usize - 1);
                for s in 1..=meet {
                    path.push(self.base + self.pod_of(a, s));
                }
                for s in (1..meet).rev() {
                    path.push(self.base + self.pod_of(b, s));
                }
                path
            }
        }
    }

    /// Route from endpoint `a` up to the fabric's root/gateway
    /// (fat-tree: the root pod; linear array: switch 0). Test oracle
    /// for `emit_route_up`.
    #[cfg(test)]
    fn route_up(&self, a: usize) -> Vec<usize> {
        match self.arch {
            Architecture::Blocking => {
                let sa = a / self.ports;
                (0..=sa).rev().map(|s| self.base + s).collect()
            }
            Architecture::NonBlocking => {
                (1..=self.stages).map(|s| self.base + self.pod_of(a, s)).collect()
            }
        }
    }

    /// Route from the root/gateway down to endpoint `b` (excluding a
    /// repeated root visit is the caller's concern — this includes the
    /// root). Test oracle for `emit_route_down`.
    #[cfg(test)]
    fn route_down(&self, b: usize) -> Vec<usize> {
        let mut up = self.route_up(b);
        up.reverse();
        up
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    Generate {
        node: usize,
    },
    /// The message finished a pure-delay step.
    Advance {
        msg: MsgId,
    },
    /// A resource finished its current service.
    HopDone {
        resource: usize,
    },
}

#[derive(Debug)]
struct PacketModel {
    cfg: SimConfig,
    n0: usize,
    icn1: Vec<TierFabric>,
    ecn1: Vec<TierFabric>,
    icn2: TierFabric,
    /// Every fabric's pods in tier order: all ICN1 fabrics, then all
    /// ECN1 fabrics, then the ICN2 one.
    resources: Vec<FcfsServer<MsgId>>,
    resource_service_us: Vec<f64>,
    source: Source,
    sink: Sink,
    msgs: Vec<Msg>,
    /// Flat shared itinerary arena: message `id` owns the fixed-stride
    /// slot `steps[id * stride .. id * stride + msgs[id].len]`. Slots
    /// are recycled through `free_ids` together with the message
    /// table, so steady-state message creation allocates nothing.
    steps: Vec<Step>,
    /// Arena slot width: an upper bound (from the fabric shapes) on
    /// any itinerary's step count.
    stride: usize,
    free_ids: Vec<MsgId>,
}

impl PacketModel {
    fn new(cfg: SimConfig) -> Result<Self, ModelError> {
        cfg.validate()?;
        let sys = cfg.system;
        let n0 = sys.nodes_per_cluster;
        let m = sys.message_bytes as f64;
        let sw_lat = sys.switch.latency_us();
        let ports = sys.switch.ports() as usize;

        let mut resources: Vec<FcfsServer<MsgId>> = Vec::new();
        let mut resource_service_us: Vec<f64> = Vec::new();
        let mut add_fabric =
            |tech: hmcs_topology::technology::NetworkTechnology, endpoints: usize| -> TierFabric {
                let hop = sw_lat + m * tech.byte_time_us();
                let fabric = TierFabric::new(
                    sys.architecture,
                    endpoints,
                    ports,
                    resources.len(),
                    tech.latency_us,
                );
                for cap in fabric.pod_capacities() {
                    let mut pod = FcfsServer::new(cap);
                    pod.set_instrumented(cfg.track_center_stats);
                    resources.push(pod);
                    resource_service_us.push(hop);
                }
                fabric
            };

        let icn1: Vec<TierFabric> = (0..sys.clusters).map(|_| add_fabric(sys.icn1, n0)).collect();
        let ecn1: Vec<TierFabric> = (0..sys.clusters).map(|_| add_fabric(sys.ecn1, n0)).collect();
        let icn2 = add_fabric(sys.icn2, sys.clusters.max(2));

        // Arena slot width: the longest possible itinerary is either an
        // intra-cluster trip (delay + ICN1 route) or an inter-cluster
        // trip (three delays + ECN1 up + ICN2 route + ECN1 down).
        let intra_max = 1 + icn1[0].max_route_len();
        let inter_max = 3 + 2 * ecn1[0].max_leg_len() + icn2.max_route_len();
        let stride = intra_max.max(inter_max);

        Ok(PacketModel {
            n0,
            icn1,
            ecn1,
            icn2,
            resources,
            resource_service_us,
            source: Source::new(&cfg, [11, 12], sys.lambda_per_us, &vec![n0; sys.clusters]),
            sink: Sink::new(&cfg),
            msgs: Vec::new(),
            steps: Vec::new(),
            stride,
            free_ids: Vec::new(),
            cfg,
        })
    }

    /// Returns the model to the state `PacketModel::new` would produce
    /// for the same system with `seed`, keeping the expensive parts —
    /// fabrics, routing tables, resource vector, itinerary arena —
    /// allocated. The RNG streams are rebuilt with the same stream
    /// ids, so a reset model replays a fresh model's sample path bit
    /// for bit.
    fn reset(&mut self, seed: u64) {
        self.cfg.seed = seed;
        self.source.reset(seed);
        self.sink.reset();
        for r in &mut self.resources {
            r.reset();
        }
        self.msgs.clear();
        // The arena is repopulated alongside `msgs`; clearing keeps its
        // capacity.
        self.steps.clear();
        self.free_ids.clear();
    }

    /// Builds a message's itinerary as a fresh `Vec`.
    ///
    /// Retained as the test oracle for the arena path
    /// (`write_itinerary`): the property tests assert both produce
    /// identical step sequences across fuzzed configurations.
    #[cfg(test)]
    fn build_itinerary(&self, src: usize, dst: usize) -> Vec<Step> {
        let sc = src / self.n0;
        let dc = dst / self.n0;
        let (sl, dl) = (src - sc * self.n0, dst - dc * self.n0);
        let mut steps = Vec::new();
        if sc == dc {
            let fabric = &self.icn1[sc];
            steps.push(Step::Delay(fabric.injection_us));
            steps.extend(fabric.route(sl, dl).into_iter().map(Step::Queue));
        } else {
            let up = &self.ecn1[sc];
            steps.push(Step::Delay(up.injection_us));
            steps.extend(up.route_up(sl).into_iter().map(Step::Queue));
            steps.push(Step::Delay(self.icn2.injection_us));
            steps.extend(self.icn2.route(sc, dc).into_iter().map(Step::Queue));
            let down = &self.ecn1[dc];
            steps.push(Step::Delay(down.injection_us));
            steps.extend(down.route_down(dl).into_iter().map(Step::Queue));
        }
        steps
    }

    /// Writes the `src → dst` itinerary into message `id`'s arena slot
    /// from the precomputed routing tables and returns its length.
    fn write_itinerary(&mut self, id: MsgId, src: usize, dst: usize) -> u32 {
        let sc = src / self.n0;
        let dc = dst / self.n0;
        let (sl, dl) = (src - sc * self.n0, dst - dc * self.n0);
        let slot = &mut self.steps[id * self.stride..(id + 1) * self.stride];
        let mut w = 0usize;
        if sc == dc {
            let fabric = &self.icn1[sc];
            slot[w] = Step::Delay(fabric.injection_us);
            w += 1;
            fabric.emit_route(sl, dl, &mut |r| {
                slot[w] = Step::Queue(r);
                w += 1;
            });
        } else {
            let up = &self.ecn1[sc];
            slot[w] = Step::Delay(up.injection_us);
            w += 1;
            up.emit_route_up(sl, &mut |r| {
                slot[w] = Step::Queue(r);
                w += 1;
            });
            slot[w] = Step::Delay(self.icn2.injection_us);
            w += 1;
            self.icn2.emit_route(sc, dc, &mut |r| {
                slot[w] = Step::Queue(r);
                w += 1;
            });
            let down = &self.ecn1[dc];
            slot[w] = Step::Delay(down.injection_us);
            w += 1;
            down.emit_route_down(dl, &mut |r| {
                slot[w] = Step::Queue(r);
                w += 1;
            });
        }
        w as u32
    }

    /// Creates a message (recycling a freed id and its arena slot when
    /// one exists) and writes its itinerary.
    fn alloc_msg(&mut self, src: usize, dst: usize, created_us: f64) -> MsgId {
        let id = match self.free_ids.pop() {
            Some(id) => id,
            None => {
                self.msgs.push(Msg { src: 0, dst: 0, created_us: 0.0, len: 0, cursor: 0 });
                self.steps.resize(self.msgs.len() * self.stride, Step::Delay(0.0));
                self.msgs.len() - 1
            }
        };
        let len = self.write_itinerary(id, src, dst);
        self.msgs[id] = Msg { src, dst, created_us, len, cursor: 0 };
        id
    }

    /// Moves `msg` to its next itinerary step, or hands it to the sink
    /// and resumes its source.
    fn advance(&mut self, now: SimTime, s: &mut Scheduler<Ev>, id: MsgId) {
        let m = self.msgs[id];
        if m.cursor >= m.len {
            self.free_ids.push(id);
            self.sink.deliver(now, m.created_us, m.src / self.n0 != m.dst / self.n0);
            self.source.delivered(now, s, Ev::Generate { node: m.src });
            return;
        }
        self.msgs[id].cursor = m.cursor + 1;
        match self.steps[id * self.stride + m.cursor as usize] {
            Step::Delay(d) => {
                s.schedule_in(now, SimTime::from_us(d), Ev::Advance { msg: id });
            }
            Step::Queue(r) => {
                if let ServiceDirective::StartService(_) = self.resources[r].arrive(now.as_us(), id)
                {
                    let svc = self.resource_service_us[r];
                    s.schedule_in(now, SimTime::from_us(svc), Ev::HopDone { resource: r });
                }
            }
        }
    }
}

impl Model for PacketModel {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, event: Ev, s: &mut Scheduler<Ev>) {
        match event {
            Ev::Generate { node } => {
                let dst = self.source.destination(node);
                let id = self.alloc_msg(node, dst, now.as_us());
                self.advance(now, s, id);
                self.source.generated(now, s, Ev::Generate { node });
            }
            Ev::Advance { msg } => self.advance(now, s, msg),
            Ev::HopDone { resource } => {
                // All services at one resource share a deterministic
                // duration, so the longest-serving message is the one
                // completing now (FcfsServer::complete's contract).
                let (id, directive) = self.resources[resource].complete(now.as_us());
                if let ServiceDirective::StartService(_) = directive {
                    let svc = self.resource_service_us[resource];
                    s.schedule_in(now, SimTime::from_us(svc), Ev::HopDone { resource });
                }
                self.advance(now, s, id);
            }
        }
    }
}

/// The packet-level simulator entry point.
#[derive(Debug, Clone, Copy, Default)]
pub struct PacketSimulator;

impl PacketSimulator {
    /// Runs one packet-level simulation.
    pub fn run(cfg: &SimConfig) -> Result<SimResult, ModelError> {
        Ok(PacketSimInstance::new(cfg)?.run(cfg.seed))
    }
}

/// A reusable packet-level simulator: build once per system
/// configuration (paying the fabric and routing-table construction a
/// single time), then [`PacketSimInstance::run`] any number of seeds
/// while every arena keeps its storage warm. Every run is
/// bit-identical to a fresh [`PacketSimulator::run`] of the same
/// configuration and seed.
#[derive(Debug)]
pub struct PacketSimInstance {
    engine: Engine<PacketModel>,
}

impl PacketSimInstance {
    /// Builds the simulator (fabrics, routing tables, resources) for
    /// `cfg`'s system.
    pub fn new(cfg: &SimConfig) -> Result<Self, ModelError> {
        let model = PacketModel::new(*cfg)?;
        // Pending-event bound: one Generate/Advance per source or
        // in-flight message plus at most one HopDone per resource.
        let capacity = model.source.nodes() + model.resources.len();
        Ok(PacketSimInstance { engine: Engine::with_capacity(model, capacity) })
    }

    /// Runs one replication seeded with `seed` and returns the sink
    /// statistics.
    pub fn run(&mut self, seed: u64) -> SimResult {
        let engine = &mut self.engine;
        engine.reset();
        engine.model_mut().reset(seed);
        for node in 0..engine.model().source.nodes() {
            let think = engine.model_mut().source.think();
            engine.scheduler_mut().schedule_at(think, Ev::Generate { node });
        }
        let target = engine.model().cfg.messages;
        engine.run_until(None, None, |m| m.sink.measured() >= target);
        let now = engine.now().as_us();
        // Bridge the engine's local counters into the global registry.
        metrics::counter(metrics_keys::PACKET_EVENTS).add(engine.events_processed());
        metrics::histogram(metrics_keys::PACKET_PEAK_PENDING)
            .record(engine.scheduler().peak_pending() as u64);
        // Each tier's observation averages over its pods, which sit in
        // tier order.
        let model = engine.model();
        let (ecn1, icn2) = (model.ecn1[0].base, model.icn2.base);
        let tier = |pods: &[FcfsServer<MsgId>]| CenterObservation::average(pods, now);
        SimResult {
            icn1: tier(&model.resources[..ecn1]),
            ecn1: tier(&model.resources[ecn1..icn2]),
            icn2: tier(&model.resources[icn2..]),
            ..model.sink.result(now, model.source.nodes())
        }
    }

    /// Events the engine processed in the last [`Self::run`] (0 before
    /// the first): the run's work count, read from this instance alone
    /// rather than from the process-global metrics registry.
    pub fn events_processed(&self) -> u64 {
        self.engine.events_processed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmcs_core::config::SystemConfig;
    use hmcs_core::Scenario;
    use hmcs_des::rng::RngStream;
    use proptest::prelude::*;

    fn model(sys: SystemConfig) -> PacketModel {
        PacketModel::new(SimConfig::new(sys)).expect("valid config")
    }

    /// Reads back the itinerary the arena path wrote for `src → dst`.
    fn arena_itinerary(m: &mut PacketModel, src: usize, dst: usize) -> Vec<Step> {
        let id = m.alloc_msg(src, dst, 0.0);
        let len = m.msgs[id].len as usize;
        assert!(len <= m.stride, "itinerary overflows its arena slot");
        let steps = m.steps[id * m.stride..id * m.stride + len].to_vec();
        m.free_ids.push(id);
        steps
    }

    /// Every (src, dst) pair of a few small systems: the precomputed
    /// tables reproduce the per-message oracle exactly, covering every
    /// fat-tree meet stage and linear-array direction.
    #[test]
    fn tables_match_oracle_exhaustively_on_small_systems() {
        for arch in [Architecture::NonBlocking, Architecture::Blocking] {
            for (c, n0) in [(1usize, 16usize), (4, 8), (8, 2), (2, 32)] {
                let sys = SystemConfig::new(c, n0, 1024, 2.5e-4, Scenario::Case1, arch)
                    .expect("valid shape");
                let mut m = model(sys);
                let n = c * n0;
                for src in 0..n {
                    for dst in 0..n {
                        if src == dst {
                            continue;
                        }
                        let oracle = m.build_itinerary(src, dst);
                        let got = arena_itinerary(&mut m, src, dst);
                        assert_eq!(got, oracle, "src {src} dst {dst} C={c} N0={n0} {arch:?}");
                    }
                }
            }
        }
    }

    /// Each tier's utilization obeys the utilization law: averaged over
    /// the tier's pods, arrivals × hop time / (servers × simulated
    /// time). The two differ by the work still queued or in service when
    /// the run stops and by the idle time before a pod's first arrival,
    /// which its statistics do not count: at most 0.52% of the tier's
    /// utilization here (ICN1 on the fat-tree), checked against 2%.
    #[test]
    fn tier_utilizations_obey_the_utilization_law() {
        for arch in [Architecture::NonBlocking, Architecture::Blocking] {
            // ICN2 about 60% busy: no queue grows without bound.
            let sys = SystemConfig::paper_preset(Scenario::Case1, 4, arch)
                .expect("valid preset")
                .with_lambda(3e-5);
            let cfg = SimConfig::new(sys).with_messages(10_000).with_seed(5);
            let mut instance = PacketSimInstance::new(&cfg).unwrap();
            let r = instance.run(cfg.seed);
            let m = instance.engine.model();
            let law = |pods: std::ops::Range<usize>| -> f64 {
                let k = pods.len() as f64;
                pods.map(|i| {
                    let pod = &m.resources[i];
                    pod.arrivals() as f64 * m.resource_service_us[i]
                        / (f64::from(pod.servers()) * r.sim_duration_us)
                })
                .sum::<f64>()
                    / k
            };
            let (ecn1, icn2) = (m.ecn1[0].base, m.icn2.base);
            let tiers = [
                ("ICN1", &r.icn1, law(0..ecn1)),
                ("ECN1", &r.ecn1, law(ecn1..icn2)),
                ("ICN2", &r.icn2, law(icn2..m.resources.len())),
            ];
            for (tier, obs, expected) in tiers {
                assert!(obs.utilization > 0.0, "{arch:?} {tier} reports no utilization");
                let rel = (obs.utilization - expected).abs() / expected;
                assert!(rel < 0.02, "{arch:?} {tier}: sim {} vs law {expected}", obs.utilization);
            }
        }
    }

    /// The reset-reuse contract: one instance run with seeds
    /// s1, s2, s1 must reproduce three fresh builds exactly —
    /// including the repeat of s1, which proves the reset leaks no
    /// state from the s2 run.
    #[test]
    fn reset_reuse_is_bit_identical_to_fresh_builds() {
        let sys = SystemConfig::paper_preset(Scenario::Case1, 4, Architecture::NonBlocking)
            .expect("valid preset");
        let cfg = SimConfig::new(sys).with_messages(600).with_seed(21);
        let fresh_a = PacketSimulator::run(&cfg).unwrap();
        let fresh_b = PacketSimulator::run(&cfg.with_seed(22)).unwrap();
        let mut instance = PacketSimInstance::new(&cfg).unwrap();
        assert_eq!(instance.run(21), fresh_a);
        assert_eq!(instance.run(22), fresh_b);
        assert_eq!(instance.run(21), fresh_a);
    }

    /// Recycled arena slots hold exactly the new message's itinerary —
    /// a shorter itinerary written over a longer one must not expose
    /// stale steps.
    #[test]
    fn recycled_slots_do_not_leak_stale_steps() {
        let sys = SystemConfig::new(4, 8, 1024, 2.5e-4, Scenario::Case1, Architecture::Blocking)
            .expect("valid shape");
        let mut m = model(sys);
        // External message (long itinerary), then an internal one
        // (short) reusing the same id.
        let long = arena_itinerary(&mut m, 0, 31);
        let short = arena_itinerary(&mut m, 0, 1);
        assert!(short.len() < long.len());
        assert_eq!(short, m.build_itinerary(0, 1));
    }

    proptest! {
        /// Fuzzed configs across the 16–512-processor validity region:
        /// the precomputed routing tables yield itineraries identical
        /// to the old per-message `route()`/`build_itinerary` oracle.
        #[test]
        fn precomputed_tables_match_per_message_oracle(
            clusters in 1usize..33,
            n0 in 1usize..65,
            nonblocking in any::<bool>(),
            case1 in any::<bool>(),
            pair_seed in 0u64..u64::MAX,
        ) {
            let total = clusters * n0;
            prop_assume!((16..=512).contains(&total));
            let arch =
                if nonblocking { Architecture::NonBlocking } else { Architecture::Blocking };
            let scenario = if case1 { Scenario::Case1 } else { Scenario::Case2 };
            let sys = SystemConfig::new(clusters, n0, 1024, 2.5e-4, scenario, arch)
                .expect("shapes in the validity region are accepted");
            let mut m = model(sys);
            let mut pairs = RngStream::new(pair_seed, 0);
            for _ in 0..64 {
                let src = pairs.uniform_below(total);
                let dst = pairs.uniform_excluding(total, src);
                let oracle = m.build_itinerary(src, dst);
                let got = arena_itinerary(&mut m, src, dst);
                prop_assert_eq!(got, oracle);
            }
        }
    }
}
