//! Capacity-planning design-space optimizer (the inverse problem).
//!
//! The model answers "given a design, what is the latency?"; this
//! module answers the production question "given an SLO and a budget,
//! which design?". It enumerates the discrete design space — cluster
//! count `C`, intra- and inter-cluster technology from the
//! [`NetworkTechnology::PRESETS`] catalogue, switch port count `Pr`,
//! and blocking vs. non-blocking architecture — under one caller-fixed
//! [`Workload`], evaluates every surviving point through
//! the batched kernel ([`crate::kernel`]), and reduces the result to a Pareto frontier of
//! mean latency vs. cost under the [`CatalogCostModel`] price catalogue.
//!
//! The pipeline keeps *binding-constraint diagnostics*: every point
//! eliminated before the frontier is attributed to the constraint that
//! killed it ([`Diagnostics`]), so a caller can tell "the budget is
//! binding" apart from "the workload saturates everything cheap".
//!
//! Determinism: enumeration order is fixed, the sort used for the
//! Pareto reduction is stable, and all evaluations run through the
//! batch engine (bit-identical sequential vs. parallel), so the
//! frontier is byte-for-byte reproducible — `reproduce optimize`, the
//! served `POST /v1/optimize` endpoint and the examples all return
//! identical frontiers for identical specs.

use crate::batch::BatchOptions;
use crate::config::SystemConfig;
use crate::error::ModelError;
use crate::json::json_num;
use crate::kernel::{for_each_outcome_bounded, LaneBounds, LaneOutcome, LaneService};
use crate::rates::TrafficRates;
use crate::scenario::{Scenario, PAPER_LAMBDA_PER_US, PAPER_TOTAL_NODES};
use crate::service::ServiceTimes;
use crate::solver;
use crate::work::{self, Work};
use hmcs_topology::fat_tree::FatTree;
use hmcs_topology::linear_array::LinearArray;
use hmcs_topology::switch::SwitchFabric;
use hmcs_topology::technology::NetworkTechnology;
use hmcs_topology::transmission::Architecture;
use std::fmt;

/// Switch traversal latency α_sw (µs) used for every enumerated
/// fabric; the paper's Table-2 constant.
pub(crate) const SWITCH_LATENCY_US: f64 = 10.0;

/// Errors from design-space optimization.
#[derive(Debug, Clone, PartialEq)]
pub enum OptimizeError {
    /// The cost model has no price for this technology. Unknown
    /// technologies are a hard error by design: a silent fallback
    /// price would quietly misprice every design using a new preset.
    UnknownTechnology(String),
    /// The design space or workload is structurally unusable.
    InvalidSpec(&'static str),
    /// An underlying model error.
    Model(ModelError),
}

impl fmt::Display for OptimizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptimizeError::UnknownTechnology(name) => {
                write!(f, "no cost-catalogue entry for technology {name:?}")
            }
            OptimizeError::InvalidSpec(reason) => write!(f, "invalid optimize spec: {reason}"),
            OptimizeError::Model(e) => write!(f, "model error: {e}"),
        }
    }
}

impl std::error::Error for OptimizeError {}

impl From<ModelError> for OptimizeError {
    fn from(e: ModelError) -> Self {
        OptimizeError::Model(e)
    }
}

/// The workload every candidate design must carry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Table-1 scenario supplying defaults outside the searched axes
    /// (accounting, hop and service models). The searched technology
    /// axes override the scenario's icn1/ecn1/icn2 assignment, so two
    /// workloads differing only in scenario produce identical
    /// frontiers; the field exists so partial spaces (e.g. a
    /// single-technology sweep) stay expressible.
    pub scenario: Scenario,
    /// Total processor count `N = C·N₀`, fixed across the space.
    pub total_nodes: usize,
    /// Fixed message length in bytes.
    pub message_bytes: u64,
    /// Per-processor generation rate λ in messages/µs.
    pub lambda_per_us: f64,
}

impl Workload {
    /// The paper's evaluation platform: 256 nodes, 1 KiB messages,
    /// λ = 0.25 msg/ms.
    pub fn paper_default() -> Self {
        Workload {
            scenario: Scenario::Case1,
            total_nodes: PAPER_TOTAL_NODES,
            message_bytes: 1024,
            lambda_per_us: PAPER_LAMBDA_PER_US,
        }
    }

    fn validate(&self) -> Result<(), OptimizeError> {
        if self.total_nodes < 4 {
            return Err(OptimizeError::InvalidSpec(
                "total_nodes must be at least 4 (two clusters of two)",
            ));
        }
        if self.message_bytes == 0 {
            return Err(OptimizeError::InvalidSpec("message_bytes must be positive"));
        }
        if !self.lambda_per_us.is_finite() || self.lambda_per_us <= 0.0 {
            return Err(OptimizeError::InvalidSpec("lambda_per_us must be positive and finite"));
        }
        Ok(())
    }
}

/// Feasibility constraints; each one eliminates points and is
/// attributed in [`Diagnostics`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Constraints {
    /// Mean-latency SLO in µs; designs above it are infeasible.
    pub slo_latency_us: Option<f64>,
    /// Cost ceiling in USD; designs above it are infeasible.
    pub budget_usd: Option<f64>,
    /// Require λ strictly below each design's `saturation_lambda`.
    /// The finite-population model self-throttles, so saturated
    /// designs still evaluate (the paper's own operating point is
    /// above the open-queue boundary); this flag excludes designs
    /// that cannot keep up with the *offered* load.
    pub require_unsaturated: bool,
}

/// The discrete axes of the search. The full space is the cross
/// product of all five.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignSpace {
    /// Candidate cluster counts `C`. Entries that do not divide the
    /// workload's `total_nodes` are counted as invalid, not errors, so
    /// one space can serve differently-sized workloads.
    pub cluster_counts: Vec<usize>,
    /// Candidate ICN1 technologies.
    pub intra: Vec<NetworkTechnology>,
    /// Candidate ECN1/ICN2 technologies (Table 1 ties those tiers).
    pub inter: Vec<NetworkTechnology>,
    /// Candidate switch port counts `Pr` (must be even, ≥ 2).
    pub switch_ports: Vec<u32>,
    /// Candidate architectures.
    pub architectures: Vec<Architecture>,
}

impl DesignSpace {
    /// The full built-in space for a `total_nodes`-processor system:
    /// every cluster count in `[2, total_nodes/2]` dividing
    /// `total_nodes`, all four technology presets on both axes, five
    /// port counts, both architectures. For 256 nodes: 7·4·4·5·2 =
    /// 1120 points.
    pub fn paper_default(total_nodes: usize) -> Self {
        let cluster_counts =
            (2..=total_nodes / 2).filter(|c| total_nodes.is_multiple_of(*c)).collect::<Vec<_>>();
        DesignSpace {
            cluster_counts,
            intra: NetworkTechnology::PRESETS.to_vec(),
            inter: NetworkTechnology::PRESETS.to_vec(),
            switch_ports: vec![8, 16, 24, 32, 48],
            architectures: vec![Architecture::NonBlocking, Architecture::Blocking],
        }
    }

    /// A much larger space for stress-testing the optimizer: the same
    /// cluster counts and technology presets as
    /// [`DesignSpace::paper_default`], but a dense port axis — every
    /// even port count in `[4, 192]` — so the cross product grows to
    /// 7·4·4·95·2 = 21,280 points for 256 nodes. Intended for
    /// [`optimize_pruned`], which skips points whose certified latency
    /// lower bound cannot reach the frontier.
    pub fn expanded(total_nodes: usize) -> Self {
        let mut space = Self::paper_default(total_nodes);
        space.switch_ports = (4..=192).step_by(2).collect();
        space
    }

    /// Number of points in the cross product.
    pub fn len(&self) -> usize {
        self.cluster_counts.len()
            * self.intra.len()
            * self.inter.len()
            * self.switch_ports.len()
            * self.architectures.len()
    }

    /// True when any axis is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn validate(&self) -> Result<(), OptimizeError> {
        if self.is_empty() {
            return Err(OptimizeError::InvalidSpec("every design-space axis must be non-empty"));
        }
        for &p in &self.switch_ports {
            if SwitchFabric::new(p, SWITCH_LATENCY_US).is_err() {
                return Err(OptimizeError::InvalidSpec(
                    "switch_ports entries must be even and at least 2",
                ));
            }
        }
        if self.cluster_counts.contains(&0) {
            return Err(OptimizeError::InvalidSpec("cluster_counts entries must be positive"));
        }
        Ok(())
    }
}

/// One full optimization request.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeSpec {
    /// The fixed workload.
    pub workload: Workload,
    /// Feasibility constraints.
    pub constraints: Constraints,
    /// The search space.
    pub space: DesignSpace,
}

impl OptimizeSpec {
    /// The paper workload over the full built-in space with the given
    /// constraints.
    pub fn paper_default(constraints: Constraints) -> Self {
        let workload = Workload::paper_default();
        let space = DesignSpace::paper_default(workload.total_nodes);
        OptimizeSpec { workload, constraints, space }
    }
}

/// One candidate design: its model configuration plus the physical
/// switch inventory the cost model prices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Design {
    /// The model configuration for this point.
    pub config: SystemConfig,
    /// Switches across all `C` intra-cluster (ICN1) fabrics.
    pub icn1_switches: usize,
    /// Switches across all `C` inter-access (ECN1) fabrics.
    pub ecn1_switches: usize,
    /// Switches in the single global (ICN2) fabric over `C` clusters.
    pub icn2_switches: usize,
}

impl Design {
    /// Builds the design for one point of the space: the config
    /// carries the workload plus the point's technology/switch/
    /// architecture choices, the switch counts come from the matching
    /// fabric model (fat-tree for non-blocking, linear array for
    /// blocking).
    pub fn build(
        workload: &Workload,
        clusters: usize,
        intra: NetworkTechnology,
        inter: NetworkTechnology,
        ports: u32,
        architecture: Architecture,
    ) -> Result<Self, ModelError> {
        if clusters == 0 || !workload.total_nodes.is_multiple_of(clusters) {
            return Err(ModelError::InvalidConfig {
                name: "clusters",
                reason: "must divide the workload's total_nodes",
            });
        }
        let nodes_per_cluster = workload.total_nodes / clusters;
        let switch = SwitchFabric::new(ports, SWITCH_LATENCY_US).map_err(|_| {
            ModelError::InvalidConfig { name: "switch_ports", reason: "must be even and >= 2" }
        })?;
        let base = base_config(workload, clusters, architecture)?;
        let per_cluster = fabric_switch_count(nodes_per_cluster, switch, architecture)?;
        let global = fabric_switch_count(clusters, switch, architecture)?;
        Ok(Self::assemble(base, intra, inter, switch, per_cluster, global))
    }

    /// The design on `base`'s shape with the given technologies, switch
    /// and per-fabric switch counts (one intra-cluster fabric's and the
    /// global fabric's).
    fn assemble(
        base: SystemConfig,
        intra: NetworkTechnology,
        inter: NetworkTechnology,
        switch: SwitchFabric,
        per_cluster: usize,
        global: usize,
    ) -> Self {
        let mut config = base;
        config.icn1 = intra;
        config.ecn1 = inter;
        config.icn2 = inter;
        config = config.with_switch(switch);
        Design {
            config,
            icn1_switches: config.clusters * per_cluster,
            ecn1_switches: config.clusters * per_cluster,
            icn2_switches: global,
        }
    }

    /// Total physical switches across all tiers.
    pub fn total_switches(&self) -> usize {
        self.icn1_switches + self.ecn1_switches + self.icn2_switches
    }

    /// Stable human-readable identity for CSV keys and logs, e.g.
    /// `C8x32/GigabitEthernet+FastEthernet/Pr24/nonblocking`.
    pub fn key(&self) -> String {
        format!(
            "C{}x{}/{}+{}/Pr{}/{}",
            self.config.clusters,
            self.config.nodes_per_cluster,
            compact_name(&self.config.icn1),
            compact_name(&self.config.ecn1),
            self.config.switch.ports(),
            arch_code(self.config.architecture),
        )
    }
}

fn compact_name(tech: &NetworkTechnology) -> String {
    tech.name.chars().filter(|c| !c.is_whitespace()).collect()
}

/// Short architecture code matching the serve wire names.
pub fn arch_code(architecture: Architecture) -> &'static str {
    match architecture {
        Architecture::NonBlocking => "nonblocking",
        Architecture::Blocking => "blocking",
    }
}

/// The workload's configuration at `clusters` clusters of `architecture`,
/// before the technology and switch axes are applied. `clusters` must
/// divide the workload's `total_nodes`.
fn base_config(
    workload: &Workload,
    clusters: usize,
    architecture: Architecture,
) -> Result<SystemConfig, ModelError> {
    SystemConfig::new(
        clusters,
        workload.total_nodes / clusters,
        workload.message_bytes,
        workload.lambda_per_us,
        workload.scenario,
        architecture,
    )
}

fn fabric_switch_count(
    nodes: usize,
    switch: SwitchFabric,
    architecture: Architecture,
) -> Result<usize, ModelError> {
    let count = match architecture {
        Architecture::NonBlocking => FatTree::new(nodes, switch)
            .map_err(|_| ModelError::InvalidConfig {
                name: "fat_tree",
                reason: "cannot build a fat-tree for this node/port combination",
            })?
            .switch_count(),
        Architecture::Blocking => LinearArray::new(nodes, switch)
            .map_err(|_| ModelError::InvalidConfig {
                name: "linear_array",
                reason: "cannot build a linear array for this node/port combination",
            })?
            .switch_count(),
    };
    Ok(count)
}

/// Per-port/per-NIC unit prices for one technology.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct UnitPrices {
    /// Host adapter price per node, USD.
    pub nic_usd: f64,
    /// Switch price per port, USD.
    pub port_usd: f64,
}

/// The built-in 2005 street-price catalogue. Exhaustive over
/// [`NetworkTechnology::PRESETS`] (unit-tested); any other technology
/// is a hard [`OptimizeError::UnknownTechnology`].
#[derive(Debug, Clone, Copy, Default)]
pub struct CatalogCostModel;

impl CatalogCostModel {
    /// Unit prices for `tech`, or an error for unknown technologies.
    pub(crate) fn unit_prices(tech: &NetworkTechnology) -> Result<UnitPrices, OptimizeError> {
        match tech.name {
            "Fast Ethernet" => Ok(UnitPrices { nic_usd: 15.0, port_usd: 8.0 }),
            "Gigabit Ethernet" => Ok(UnitPrices { nic_usd: 60.0, port_usd: 25.0 }),
            "Myrinet" => Ok(UnitPrices { nic_usd: 500.0, port_usd: 220.0 }),
            "InfiniBand 4x" => Ok(UnitPrices { nic_usd: 700.0, port_usd: 300.0 }),
            other => Err(OptimizeError::UnknownTechnology(other.to_string())),
        }
    }

    /// The acquisition cost of `design` in USD. Every node carries one
    /// NIC per attached tier (ICN1 + ECN1); switches are priced per port
    /// at their tier's technology. A technology outside the catalogue is
    /// an [`OptimizeError::UnknownTechnology`], never a fallback price.
    pub fn cost_usd(&self, design: &Design) -> Result<f64, OptimizeError> {
        let intra = Self::unit_prices(&design.config.icn1)?;
        let inter = Self::unit_prices(&design.config.ecn1)?;
        // ICN2 shares the inter-tier technology by construction; price
        // it explicitly so a future per-tier axis stays correct.
        let global = Self::unit_prices(&design.config.icn2)?;
        Ok(price_usd(
            design.config.total_nodes(),
            design.config.switch.ports(),
            [intra, inter, global],
            [design.icn1_switches, design.ecn1_switches, design.icn2_switches],
        ))
    }
}

/// The catalogue price of `nodes` processors on fabrics of `ports`-port
/// switches, given the ICN1, ECN1 and ICN2 unit prices and switch
/// counts in that order — the one pricing formula behind
/// [`CatalogCostModel::cost_usd`] and the optimizer's enumeration.
fn price_usd(nodes: usize, ports: u32, prices: [UnitPrices; 3], switches: [usize; 3]) -> f64 {
    let [intra, inter, global] = prices;
    let [icn1, ecn1, icn2] = switches.map(|count| count as f64);
    let ports = ports as f64;
    let nodes = nodes as f64;
    nodes * (intra.nic_usd + inter.nic_usd)
        + ports * (icn1 * intra.port_usd + ecn1 * inter.port_usd + icn2 * global.port_usd)
}

/// One fully-evaluated feasible design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvaluatedDesign {
    /// The design itself.
    pub design: Design,
    /// Cost under the [`CatalogCostModel`], USD.
    pub cost_usd: f64,
    /// Mean message latency, µs.
    pub latency_us: f64,
    /// Delivered system throughput, messages/µs.
    pub throughput_per_us: f64,
    /// λ_eff/λ at equilibrium (1.0 = nothing throttled).
    pub retained_fraction: f64,
    /// Utilization of the most loaded service centre.
    pub bottleneck_utilization: f64,
    /// The design's closed-form saturation rate (msg/µs/processor).
    pub saturation_lambda: f64,
}

/// Where the eliminated points went. `invalid` and `failed` are
/// structural (unbuildable point, solver failure); the remaining
/// counters attribute each elimination to the constraint that caused
/// it. A pre-filtered point violating several constraints is counted
/// under each, so `saturated + over_budget` may exceed the number of
/// pruned points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Diagnostics {
    /// Points that could not be built (non-divisor cluster count,
    /// unbuildable fabric).
    pub invalid: usize,
    /// Points pruned by `require_unsaturated` (λ ≥ saturation).
    pub saturated: usize,
    /// Points pruned by the budget ceiling.
    pub over_budget: usize,
    /// Evaluated points whose model evaluation failed.
    pub failed: usize,
    /// Evaluated points above the latency SLO.
    pub above_slo: usize,
    /// Feasible points dominated by a cheaper-and-faster (or equal)
    /// design.
    pub dominated: usize,
    /// Points skipped by [`optimize_pruned`] on a certified
    /// latency lower bound (provably above the SLO or provably
    /// dominated by an already-evaluated cheaper feasible point): the
    /// zero-load latency or the saturation floor before the kernel, or
    /// the kernel's bracket bound mid-solve.
    /// Always zero for the exhaustive [`optimize`] path. In pruned
    /// runs `saturated + evaluated + failed + pruned ==
    /// space_size - invalid` under `require_unsaturated`.
    pub pruned: usize,
}

/// The result of one optimization run.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeOutcome {
    /// Size of the full cross-product space.
    pub space_size: usize,
    /// Points whose model evaluation succeeded.
    pub evaluated: usize,
    /// Evaluated points meeting every constraint.
    pub feasible: usize,
    /// The Pareto frontier, sorted by ascending cost with strictly
    /// decreasing latency. `frontier.len() + diagnostics.dominated ==
    /// feasible`.
    pub frontier: Vec<EvaluatedDesign>,
    /// Binding-constraint attribution for everything not on the
    /// frontier.
    pub diagnostics: Diagnostics,
}

impl OptimizeOutcome {
    /// The cheapest design meeting every constraint (the frontier is
    /// cost-sorted, so its first point).
    pub fn cheapest_feasible(&self) -> Option<&EvaluatedDesign> {
        self.frontier.first()
    }
}

/// One pre-filter survivor, in enumeration order: what the walks read
/// of a design, without the design. Its [`Design`] is assembled from
/// the per-spec tables ([`Candidates::design`]) only where one is
/// needed: a lane's configuration as it is gathered into its kernel
/// block, and a frontier point.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    cost_usd: f64,
    /// A margined lower bound on the latency any evaluation can report:
    /// the larger of the zero-load latency `(1−p)·S_I1 + p·(S_I2 +
    /// 2·S_E1)` (every M/G/1 sojourn is at least its service time) and
    /// the saturation floor ([`saturation_floor_us`]), each shrunk by
    /// its own margin.
    floor_us: f64,
    /// The design's tier service times and saturation rate, handed to
    /// its kernel lane so lane setup skips the topology.
    lane: LaneService,
    /// Ordinal of the candidate's port family — designs sharing every
    /// axis except the switch port count — computed from the
    /// enumeration loop indices, `((C·intra + intra)·inter + inter)·
    /// architectures + architecture`, so grouping by family is an array
    /// index, not a hash, and the family names the design's other axes.
    family: usize,
    /// Index of the design's port count in the space.
    port: usize,
    /// Switches in one cluster's fabric and in the global fabric.
    per_cluster: usize,
    global: usize,
}

/// The pre-filter survivors of one spec, in enumeration order, with the
/// tables their designs are assembled from.
struct Candidates<'s> {
    space: &'s DesignSpace,
    list: Vec<Candidate>,
    /// The base configuration per (`C`, architecture), `None` where `C`
    /// does not divide `N`.
    bases: Vec<Option<SystemConfig>>,
    switches: Vec<SwitchFabric>,
}

impl Candidates<'_> {
    /// Candidate `i`'s design, assembled as [`Design::build`] would
    /// build it.
    fn design(&self, i: usize) -> Design {
        let candidate = &self.list[i];
        let space = self.space;
        let (arch_n, inter_n) = (space.architectures.len(), space.inter.len());
        let ai = candidate.family % arch_n;
        let ji = candidate.family / arch_n % inter_n;
        let rest = candidate.family / arch_n / inter_n;
        let (ci, ii) = (rest / space.intra.len(), rest % space.intra.len());
        let base = self.bases[ci * arch_n + ai].expect("a candidate's shape builds");
        Design::assemble(
            base,
            space.intra[ii],
            space.inter[ji],
            self.switches[candidate.port],
            candidate.per_cluster,
            candidate.global,
        )
    }

    /// Candidate `i`'s switch port count.
    fn ports(&self, i: usize) -> u32 {
        self.space.switch_ports[self.list[i].port]
    }

    /// The frontier point of the feasible `point`.
    fn evaluated(&self, point: &Feasible) -> EvaluatedDesign {
        EvaluatedDesign {
            design: self.design(point.index),
            cost_usd: point.cost_usd,
            latency_us: point.latency_us,
            throughput_per_us: point.throughput_per_us,
            retained_fraction: point.retained_fraction,
            bottleneck_utilization: point.bottleneck_utilization,
            saturation_lambda: self.list[point.index].lane.saturation_lambda,
        }
    }
}

/// One (`C`, architecture) shape of the space: its base configuration,
/// its fabrics' endpoint indices, and what a design's saturation rate
/// and zero-load latency read of its traffic — the arrival rates of
/// eqs. 1–5 per unit offered rate and the external probability `p`.
#[derive(Clone, Copy)]
struct ShapeTraffic {
    base: SystemConfig,
    /// Endpoint indices of the cluster (`N₀`) and global (`C`) fabrics.
    n0: usize,
    c: usize,
    probe: TrafficRates,
    p: f64,
}

/// `x`'s position in [`f64::total_cmp`] order, as an integer: the same
/// bit flip `total_cmp` makes, so sorting on it is sorting by
/// `total_cmp`.
fn total_key(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// Enumerate + pre-filter. Candidate order is the deterministic
/// cross-product order; everything downstream preserves it.
///
/// A design's price and tier times each depend on only some of its
/// five axes (eqs. 10–13, 17–21), so they come from small tables built
/// once per spec: the base configuration, its arrival rates per unit
/// offered rate and its external probability per (`C`, architecture),
/// switch counts per (endpoints, `Pr`, architecture), unit prices per
/// technology, and tier mean times and their reciprocals per
/// (technology, endpoints, `Pr`, architecture). Every design is priced
/// from the tables and counted `invalid`, `over_budget` or `saturated`
/// in the same order as [`Design::build`] →
/// [`CatalogCostModel::cost_usd`] → [`ServiceTimes::compute`] would; its
/// saturation rate is formed from the tables by the formula of
/// [`solver::saturation_lambda`] only when it passes the budget gate
/// (or when `require_unsaturated` must still attribute it). The tables
/// are filled by the functions that one-design path calls, so every
/// value keeps its bits. No [`Design`] is built here.
///
/// Under a budget, a whole port family (the designs sharing `C`, both
/// technologies and the architecture) is skipped before any of its
/// designs is priced when a lower bound on its cheapest price — the
/// NICs plus, per fabric, the least `ports × switches` over the port
/// counts that build — exceeds the budget by more than a rounding
/// margin. Its buildable designs are counted `over_budget` and the rest
/// `invalid`, as the walk would count them, and enumeration order is
/// kept. Nothing is skipped under `require_unsaturated`, which still
/// attributes every design, nor where a technology's price is an
/// error, which must surface at the same design as in the walk. On the
/// benchmark's seed-1 plans this prices 5,320–9,880 of the 21,280
/// designs.
fn enumerate_candidates<'s>(
    spec: &'s OptimizeSpec,
    diagnostics: &mut Diagnostics,
) -> Result<Candidates<'s>, OptimizeError> {
    let (space, workload) = (&spec.space, &spec.workload);
    let (intra_n, inter_n) = (space.intra.len(), space.inter.len());
    let (ports_n, arch_n) = (space.switch_ports.len(), space.architectures.len());
    let switches: Vec<SwitchFabric> = space
        .switch_ports
        .iter()
        .map(|&p| SwitchFabric::new(p, SWITCH_LATENCY_US).expect("DesignSpace::validate ran"))
        .collect();

    // Distinct values of the two axes the tier tables are keyed by, and
    // each axis entry's index into them.
    fn intern<T: Copy + PartialEq>(values: &mut Vec<T>, value: T) -> usize {
        values.iter().position(|v| *v == value).unwrap_or_else(|| {
            values.push(value);
            values.len() - 1
        })
    }
    let mut techs: Vec<NetworkTechnology> = Vec::new();
    let intra_tech: Vec<usize> = space.intra.iter().map(|&t| intern(&mut techs, t)).collect();
    let inter_tech: Vec<usize> = space.inter.iter().map(|&t| intern(&mut techs, t)).collect();
    let prices: Vec<Result<UnitPrices, OptimizeError>> =
        techs.iter().map(CatalogCostModel::unit_prices).collect();

    // Per (C, architecture): the base configuration, the endpoint
    // indices of its cluster (N₀) and global (C) fabrics, and its
    // traffic per unit offered rate; `None` where C does not divide N
    // (or the configuration is otherwise invalid).
    let mut endpoints: Vec<usize> = Vec::new();
    let mut shapes: Vec<Option<ShapeTraffic>> =
        Vec::with_capacity(space.cluster_counts.len() * arch_n);
    for &clusters in &space.cluster_counts {
        for &architecture in &space.architectures {
            let base = if workload.total_nodes.is_multiple_of(clusters) {
                base_config(workload, clusters, architecture).ok()
            } else {
                None
            };
            shapes.push(base.map(|base| ShapeTraffic {
                base,
                n0: intern(&mut endpoints, base.nodes_per_cluster),
                c: intern(&mut endpoints, clusters),
                probe: TrafficRates::compute(&base, 1.0),
                p: crate::routing::external_probability(clusters, base.nodes_per_cluster),
            }));
        }
    }
    // Every base configuration carries the same hop model; with none
    // there are no endpoints, and no tier time is computed.
    let hop_model = shapes.iter().flatten().map(|s| s.base.hop_model).next().unwrap_or_default();

    // Switch count per (endpoints, Pr, architecture), `None` where the
    // fabric cannot be built, and the tier mean time of every
    // technology on each buildable fabric, with its service rate `1/S`.
    let fabric = |e: usize, pi: usize, ai: usize| (e * ports_n + pi) * arch_n + ai;
    let mut switch_count: Vec<Option<usize>> =
        Vec::with_capacity(endpoints.len() * ports_n * arch_n);
    let mut tier_us: Vec<(f64, f64)> = Vec::with_capacity(switch_count.capacity() * techs.len());
    for &nodes in &endpoints {
        for &switch in &switches {
            for &architecture in &space.architectures {
                let mut count = fabric_switch_count(nodes, switch, architecture).ok();
                for &tech in &techs {
                    match crate::service::tier_model(tech, switch, nodes, architecture, hop_model) {
                        Ok(model) => {
                            let mean = model.mean_time_us(workload.message_bytes);
                            tier_us.push((mean, 1.0 / mean));
                        }
                        Err(_) => {
                            count = None;
                            tier_us.push((f64::NAN, f64::NAN));
                        }
                    }
                }
                switch_count.push(count);
            }
        }
    }
    let tier = |f: usize, t: usize| tier_us[f * techs.len() + t];

    // Per (C, architecture): how many port counts build both fabrics,
    // and over those the least `ports × switches` of one cluster fabric
    // and of the global fabric. A family's cheapest design costs at
    // least its NICs plus those least fabric prices, so a budget below
    // that bound rules out the whole family before any design in it is
    // priced. `require_unsaturated` still attributes every design, so
    // it never skips.
    let budget = spec.constraints.budget_usd.filter(|_| !spec.constraints.require_unsaturated);
    let family_floor: Vec<Option<(usize, f64, f64)>> = shapes
        .iter()
        .enumerate()
        .map(|(shape, slot)| {
            let ShapeTraffic { n0, c, .. } = (*slot)?;
            budget?;
            let ai = shape % arch_n;
            let mut floor = (0, f64::INFINITY, f64::INFINITY);
            for (pi, switch) in switches.iter().enumerate() {
                let ports = f64::from(switch.ports());
                if let (Some(per_cluster), Some(global)) =
                    (switch_count[fabric(n0, pi, ai)], switch_count[fabric(c, pi, ai)])
                {
                    floor.0 += 1;
                    floor.1 = floor.1.min(ports * per_cluster as f64);
                    floor.2 = floor.2.min(ports * global as f64);
                }
            }
            Some(floor)
        })
        .collect();

    let mut list: Vec<Candidate> = Vec::new();
    let mut priced = 0u64;
    let mut skip = vec![false; arch_n];
    for (ci, &clusters) in space.cluster_counts.iter().enumerate() {
        for (ii, &ti) in intra_tech.iter().enumerate() {
            for (ji, &tj) in inter_tech.iter().enumerate() {
                // The architectures whose family this budget rules out,
                // with every design counted as the walk would count it.
                for (ai, skip) in skip.iter_mut().enumerate() {
                    *skip = false;
                    let (Some(budget), Some((buildable, cluster_floor, global_floor))) =
                        (budget, family_floor[ci * arch_n + ai])
                    else {
                        continue;
                    };
                    let (Ok(intra_prices), Ok(inter_prices)) = (&prices[ti], &prices[tj]) else {
                        continue;
                    };
                    let floor = workload.total_nodes as f64
                        * (intra_prices.nic_usd + inter_prices.nic_usd)
                        + clusters as f64
                            * (intra_prices.port_usd + inter_prices.port_usd)
                            * cluster_floor
                        + inter_prices.port_usd * global_floor;
                    if floor * (1.0 - 1e-9) > budget {
                        *skip = true;
                        diagnostics.over_budget += buildable;
                        diagnostics.invalid += ports_n - buildable;
                    }
                }
                if skip.iter().all(|&s| s) {
                    continue;
                }
                for (pi, &switch) in switches.iter().enumerate() {
                    for ai in 0..arch_n {
                        if skip[ai] {
                            continue;
                        }
                        priced += 1;
                        let family = ((ci * intra_n + ii) * inter_n + ji) * arch_n + ai;
                        let Some(shape) = &shapes[ci * arch_n + ai] else {
                            diagnostics.invalid += 1;
                            continue;
                        };
                        let (cluster_fabric, global_fabric) =
                            (fabric(shape.n0, pi, ai), fabric(shape.c, pi, ai));
                        let (Some(per_cluster), Some(global)) =
                            (switch_count[cluster_fabric], switch_count[global_fabric])
                        else {
                            diagnostics.invalid += 1;
                            continue;
                        };
                        // Unknown technology is a hard error, not a
                        // skipped point — but only for a buildable one.
                        let intra_prices = prices[ti].clone()?;
                        let inter_prices = prices[tj].clone()?;
                        let cost_usd = price_usd(
                            workload.total_nodes,
                            switch.ports(),
                            [intra_prices, inter_prices, inter_prices],
                            [clusters * per_cluster, clusters * per_cluster, global],
                        );
                        let over_budget =
                            spec.constraints.budget_usd.is_some_and(|budget| cost_usd > budget);
                        if over_budget {
                            diagnostics.over_budget += 1;
                            if !spec.constraints.require_unsaturated {
                                continue;
                            }
                        }
                        let (icn1, ecn1, icn2) = (
                            tier(cluster_fabric, ti),
                            tier(cluster_fabric, tj),
                            tier(global_fabric, tj),
                        );
                        let service =
                            ServiceTimes { icn1_us: icn1.0, ecn1_us: ecn1.0, icn2_us: icn2.0 };
                        let saturation_lambda =
                            solver::saturation_from(&shape.probe, (icn1.1, ecn1.1, icn2.1));
                        if spec.constraints.require_unsaturated
                            && workload.lambda_per_us >= saturation_lambda
                        {
                            diagnostics.saturated += 1;
                            continue;
                        }
                        if over_budget {
                            continue;
                        }
                        let p = shape.p;
                        let zero_load_us = (1.0 - p) * service.icn1_us
                            + p * (service.icn2_us + 2.0 * service.ecn1_us);
                        let floor_us = (zero_load_us * (1.0 - PRUNE_MARGIN)).max(
                            saturation_floor_us(&shape.base, saturation_lambda)
                                * (1.0 - SATURATION_FLOOR_MARGIN),
                        );
                        list.push(Candidate {
                            cost_usd,
                            floor_us,
                            lane: LaneService { service, saturation_lambda },
                            family,
                            port: pi,
                            per_cluster,
                            global,
                        });
                    }
                }
            }
        }
    }
    work::record(Work { designs_priced: priced, ..Work::default() });
    let bases = shapes.iter().map(|shape| shape.map(|s| s.base)).collect();
    Ok(Candidates { space, list, bases, switches })
}

/// One feasible point, compact: its candidate's index and what its
/// solve reported. Only a frontier point becomes an
/// [`EvaluatedDesign`].
struct Feasible {
    index: usize,
    cost_usd: f64,
    latency_us: f64,
    throughput_per_us: f64,
    retained_fraction: f64,
    bottleneck_utilization: f64,
}

/// Pareto staircase: sort by (cost, latency), ties in enumeration order,
/// then keep strictly improving latency.
fn pareto_reduce(
    candidates: &Candidates<'_>,
    mut feasible_points: Vec<Feasible>,
    diagnostics: &mut Diagnostics,
) -> Vec<EvaluatedDesign> {
    feasible_points
        .sort_unstable_by_key(|p| (total_key(p.cost_usd), total_key(p.latency_us), p.index));
    let mut frontier: Vec<EvaluatedDesign> = Vec::new();
    let mut best_latency = f64::INFINITY;
    for point in &feasible_points {
        if point.latency_us < best_latency {
            best_latency = point.latency_us;
            frontier.push(candidates.evaluated(point));
        } else {
            diagnostics.dominated += 1;
        }
    }
    frontier
}

/// Files one candidate's kernel outcome under the right counter:
/// `pruned`, `failed`, `above_slo`, or the feasible set. Shared
/// verbatim by the exhaustive and pruned paths so their feasible sets
/// (and hence frontiers) are built from identical bits.
fn absorb(
    spec: &OptimizeSpec,
    candidate: &Candidate,
    index: usize,
    outcome: LaneOutcome,
    diagnostics: &mut Diagnostics,
    evaluated: &mut usize,
    feasible_points: &mut Vec<Feasible>,
) {
    let report = match outcome {
        LaneOutcome::Solved(report, _) => report,
        LaneOutcome::Failed(_) => {
            diagnostics.failed += 1;
            return;
        }
        LaneOutcome::Pruned { .. } => {
            diagnostics.pruned += 1;
            return;
        }
    };
    *evaluated += 1;
    let latency_us = report.latency.mean_message_latency_us;
    // NaN latencies must count as infeasible, hence is_none_or
    // rather than a bare `latency > slo` comparison.
    let meets_slo = spec.constraints.slo_latency_us.is_none_or(|slo| latency_us <= slo);
    if !meets_slo {
        diagnostics.above_slo += 1;
        return;
    }
    feasible_points.push(Feasible {
        index,
        cost_usd: candidate.cost_usd,
        latency_us,
        throughput_per_us: report.throughput_per_us,
        retained_fraction: report.equilibrium.retained_fraction,
        bottleneck_utilization: report.equilibrium.bottleneck_utilization(),
    });
}

/// Solves the candidates at `indices` as lanes of the bounded kernel,
/// each with its own [`LaneService`] and `bounds` entry, in one kernel
/// batch, and hands each candidate's index and outcome to `each` in
/// `indices` order. Each lane's configuration is assembled straight
/// into the block that solves it.
fn solve_candidates(
    candidates: &Candidates<'_>,
    indices: &[usize],
    bounds: &[LaneBounds],
    workers: usize,
    mut each: impl FnMut(usize, LaneOutcome),
) {
    assert_eq!(indices.len(), bounds.len(), "one LaneBounds per lane");
    let lanes = indices
        .iter()
        .zip(bounds)
        .map(|(&i, &b)| (candidates.design(i).config, candidates.list[i].lane, b));
    let mut next = indices.iter();
    for_each_outcome_bounded(lanes, workers, |outcome| {
        each(*next.next().expect("one outcome per lane"), outcome);
    });
}

/// Runs the exhaustive optimizer, pricing designs with the
/// [`CatalogCostModel`]: enumerate → pre-filter (budget, saturation) →
/// batch-evaluate → SLO filter → Pareto reduction.
pub fn optimize(
    spec: &OptimizeSpec,
    options: BatchOptions,
) -> Result<OptimizeOutcome, OptimizeError> {
    spec.workload.validate()?;
    spec.space.validate()?;
    let mut diagnostics = Diagnostics::default();
    let candidates = enumerate_candidates(spec, &mut diagnostics)?;

    // Evaluate every surviving point through the batched kernel
    // (bit-identical to the scalar per-point path).
    let all: Vec<usize> = (0..candidates.list.len()).collect();
    let unbounded = vec![LaneBounds::NONE; all.len()];
    let mut feasible_points: Vec<Feasible> = Vec::new();
    let mut evaluated = 0usize;
    solve_candidates(&candidates, &all, &unbounded, options.resolved_workers(), |i, outcome| {
        let candidate = &candidates.list[i];
        absorb(spec, candidate, i, outcome, &mut diagnostics, &mut evaluated, &mut feasible_points);
    });
    let feasible = feasible_points.len();
    let frontier = pareto_reduce(&candidates, feasible_points, &mut diagnostics);

    Ok(OptimizeOutcome { space_size: spec.space.len(), evaluated, feasible, frontier, diagnostics })
}

/// Relative safety margin applied to the zero-load latency bound
/// before it is compared against a prune threshold. The zero-load
/// bound is assembled from [`ServiceTimes`] while the solver assembles
/// sojourns from distribution means that can differ by a few ulp
/// (Erlang moment round-trip), so the margin absorbs that slack while
/// staying far below any physically meaningful latency difference.
const PRUNE_MARGIN: f64 = 1e-9;

/// Relative margin applied to [`saturation_floor_us`] before it is
/// compared against a prune threshold.
///
/// The floor is proved for the exact root `x*` of eq. 7, while a solve
/// reports the latency at its bisection's last midpoint, within
/// [`solver::BISECT_REL_TOL`] of `x*` relative. Under a single queue
/// the floor's only slack is the gap between `x*` and the bracket top,
/// which shrinks like `1/N`, and near saturation the latency is steep
/// enough that the rounding of the reported value grows like `1e-13·N`
/// relative. On 153,120 saturated lanes (16 to 2²⁰ processors, 1 to
/// 1,024 clusters, 16 B to 64 KiB messages, both cases, architectures
/// and accountings, four service models, λ from just above to 1e8×
/// saturation) the smallest ratio of reported latency to floor was
/// 1.00000042, at N = 2²⁰; 1e-3 keeps the floor sound far past that
/// population.
const SATURATION_FLOOR_MARGIN: f64 = 1e-3;

/// A lower bound on the mean latency of `config` — whose closed-form
/// saturation rate is `saturation_lambda` — when its offered rate λ
/// exceeds the kernel's bracket top `hi0 = min(λ, sat·(1−1e-12))`
/// ([`solver::bracket_top`]); 0 otherwise.
///
/// Proof. Flow blocking (eqs. 6–7) settles at `x* = λ·(N − L(x*))/N`
/// with `0 < x* ≤ hi0`, so `L(x*) < N` and `L(x*) = N·(1 − x*/λ)`.
/// Little's law at each M/G/1 centre gives `L(x) = N·x·[(1−p)·W_I1 +
/// p·W_I2 + 2w·p·W_E1] ≤ w·N·x·T(x)`, where `T` is the mean message
/// latency (eq. 15) and `w` the ECN1 weight of eq. 6
/// ([`solver::ecn1_weight`]: 2 under the paper's accounting, 1 for a
/// single queue). Hence `T(x*) ≥ (1/x* − 1/λ)/w ≥ (λ − hi0)/(w·hi0·λ)`.
///
/// The floor is 0 unless `0 < hi0 < λ` and both are finite, so a
/// design whose solve would fail (a zero saturation rate, say) is never
/// pruned on it.
fn saturation_floor_us(config: &SystemConfig, saturation_lambda: f64) -> f64 {
    let lambda = config.lambda_per_us;
    let hi0 = solver::bracket_top(lambda, saturation_lambda);
    if !(hi0 > 0.0 && hi0 < lambda && lambda.is_finite()) {
        return 0.0;
    }
    (lambda - hi0) / (solver::ecn1_weight(config.accounting) * hi0 * lambda)
}

/// Sliding dominance staircase over the feasible points evaluated so
/// far: `(cost, latency)` pairs with non-decreasing cost and strictly
/// decreasing latency. `best_latency_cheaper(c)` answers "what is the
/// best latency achieved by any evaluated feasible point strictly
/// cheaper than `c`?" — the threshold below which a certified latency
/// lower bound proves a point can never reach the frontier.
#[derive(Default)]
struct DominanceMap {
    points: Vec<(f64, f64)>,
}

impl DominanceMap {
    fn best_latency_cheaper(&self, cost: f64) -> f64 {
        let k = self.points.partition_point(|e| e.0 < cost);
        if k == 0 {
            f64::INFINITY
        } else {
            self.points[k - 1].1
        }
    }

    fn insert(&mut self, cost: f64, latency: f64) {
        if !cost.is_finite() || !latency.is_finite() {
            return;
        }
        let k = self.points.partition_point(|e| e.0 < cost);
        // A cheaper (or equal-cost) point with no worse latency already
        // answers every query this one could.
        if k > 0 && self.points[k - 1].1 <= latency {
            return;
        }
        if k < self.points.len() && self.points[k].0 == cost && self.points[k].1 <= latency {
            return;
        }
        let mut end = k;
        while end < self.points.len() && self.points[end].1 >= latency {
            end += 1;
        }
        self.points.splice(k..end, [(cost, latency)]);
    }
}

/// Runs the optimizer with gradient-guided pruning: identical
/// enumeration and pre-filters to [`optimize`], but instead of
/// evaluating every survivor it
///
/// 1. solves a coarse port-grid probe (lowest / median / highest port
///    count) per design family as one unbounded kernel batch,
/// 2. orders the remaining candidates by the family's best probed
///    latency, extrapolated down the port axis by the secant slope
///    between its first and last solved probe and tie-broken by
///    saturation headroom and cost, and
/// 3. walks them in fixed-size waves through the bounded kernel,
///    handing each lane the SLO and the best latency among *already
///    evaluated* feasible points that are strictly cheaper.
///
/// A candidate is skipped only on a *certified* latency lower bound, so
/// every skipped point provably could not have joined the frontier.
/// Before it becomes a lane, that bound is the larger of its zero-load
/// latency and, when it is offered more than it can carry, its
/// saturation floor `(λ − hi0)/(w·hi0·λ)`, which Little's law and eq.
/// 7's flow blocking give from the bracket top `hi0` and the ECN1
/// weight `w`; inside the kernel it is the sojourn mix at the bracket's
/// low edge, once the high edge has moved inside the saturation clamp.
/// Probe/wave ordering is pure guidance: it affects how many points get
/// pruned (`diagnostics.pruned`), never the result.
///
/// The returned frontier (and therefore [`OptimizeOutcome::
/// cheapest_feasible`]) is bit-identical to the exhaustive
/// [`optimize`] frontier: surviving lanes run the exact scalar
/// FP schedule, the feasible set is rebuilt in enumeration order, and
/// dominated points never shape the Pareto staircase. `evaluated`,
/// `above_slo`, and `dominated` count only the points actually
/// evaluated, so they are smaller than their exhaustive counterparts;
/// the difference is `diagnostics.pruned`.
pub fn optimize_pruned(
    spec: &OptimizeSpec,
    options: BatchOptions,
) -> Result<OptimizeOutcome, OptimizeError> {
    spec.workload.validate()?;
    spec.space.validate()?;
    let mut diagnostics = Diagnostics::default();
    let candidates = enumerate_candidates(spec, &mut diagnostics)?;
    let list = &candidates.list;
    let workers = options.resolved_workers();
    let slo = spec.constraints.slo_latency_us.unwrap_or(f64::INFINITY);

    let n = list.len();
    let mut evaluated = 0usize;
    let mut feasible_points: Vec<Feasible> = Vec::new();
    let mut dominance = DominanceMap::default();
    let mut decided = vec![false; n];

    // Group candidates into port families with one counting pass: family
    // `f`'s members are `members[starts[f]..starts[f + 1]]`, in
    // enumeration order, then sorted along the port axis. Then pick the
    // coarse probe grid: lowest, median, and highest port count per
    // family.
    let family_count = spec.space.cluster_counts.len()
        * spec.space.intra.len()
        * spec.space.inter.len()
        * spec.space.architectures.len();
    let mut starts = vec![0usize; family_count + 1];
    for candidate in list {
        starts[candidate.family + 1] += 1;
    }
    for f in 0..family_count {
        starts[f + 1] += starts[f];
    }
    let mut members = vec![0usize; n];
    let mut next = starts.clone();
    for (i, candidate) in list.iter().enumerate() {
        members[next[candidate.family]] = i;
        next[candidate.family] += 1;
    }
    let family = |f: usize| starts[f]..starts[f + 1];
    for f in 0..family_count {
        members[family(f)].sort_unstable_by_key(|&i| (candidates.ports(i), i));
    }
    // A probe is decided by the probe batch; marking it there lists the
    // probes in enumeration order without a sort.
    for f in 0..family_count {
        let members = &members[family(f)];
        if members.is_empty() {
            continue;
        }
        for j in [0, members.len() / 2, members.len() - 1] {
            decided[members[j]] = true;
        }
    }
    let probe_idx: Vec<usize> = (0..n).filter(|&i| decided[i]).collect();

    // Solve the probes in one unbounded kernel batch. Probe results
    // are real evaluations: they are absorbed, never re-solved.
    let unbounded = vec![LaneBounds::NONE; probe_idx.len()];
    let mut solved_latency: Vec<Option<f64>> = vec![None; n];
    solve_candidates(&candidates, &probe_idx, &unbounded, workers, |i, outcome| {
        if let LaneOutcome::Solved(report, _) = &outcome {
            solved_latency[i] = Some(report.latency.mean_message_latency_us);
        }
        absorb(spec, &list[i], i, outcome, &mut diagnostics, &mut evaluated, &mut feasible_points);
    });
    for point in &feasible_points {
        dominance.insert(point.cost_usd, point.latency_us);
    }

    // Gradient guidance: per family, take the best probed latency and
    // extrapolate it down the port axis with the probed d-latency/
    // d-ports slope to get an optimistic estimate of the family's best
    // latency. Evaluating likely-low-latency families first tightens
    // the dominance map early, which is what makes later waves prune.
    let mut family_rank: Vec<(f64, f64)> = vec![(f64::INFINITY, f64::INFINITY); family_count];
    for (f, rank) in family_rank.iter_mut().enumerate() {
        let members = &members[family(f)];
        let (Some(&lowest), Some(&highest)) = (members.first(), members.last()) else {
            continue;
        };
        // The first and last solved probe along the port axis, and the
        // best probed latency, in one pass.
        let mut first: Option<(f64, f64)> = None;
        let mut last: Option<(f64, f64)> = None;
        let mut best = f64::INFINITY;
        for &i in members {
            if let Some(lat) = solved_latency[i] {
                let probe = (f64::from(candidates.ports(i)), lat);
                first.get_or_insert(probe);
                last = Some(probe);
                best = best.min(lat);
            }
        }
        let optimistic = match (first, last) {
            (Some((p0, l0)), Some((p1, l1))) if p1 > p0 => {
                let gradient = (l1 - l0) / (p1 - p0);
                let span = f64::from(candidates.ports(highest) - candidates.ports(lowest));
                best - gradient.abs() * span
            }
            _ => best,
        };
        let headroom = members
            .iter()
            .map(|&i| list[i].lane.saturation_lambda - spec.workload.lambda_per_us)
            .fold(f64::NEG_INFINITY, f64::max);
        *rank = (optimistic, -headroom);
    }

    // Families are walked best-rank-first; within a family, members go
    // cheapest-first so the dominance staircase tightens before the
    // expensive end of the port axis is reached. Every tie ends at a
    // distinct ordinal or enumeration index, so the sorts on these
    // integer keys are fully deterministic.
    let mut family_order: Vec<usize> =
        (0..family_count).filter(|&f| !family(f).is_empty()).collect();
    family_order
        .sort_unstable_by_key(|&f| (total_key(family_rank[f].0), total_key(family_rank[f].1), f));
    // Each pending candidate carries its sort key, (cost, index), so the
    // sorts compare contiguous integers.
    let mut pending: Vec<(i64, usize)> = Vec::with_capacity(n);
    for &f in &family_order {
        let start = pending.len();
        let undecided = members[family(f)].iter().filter(|&&i| !decided[i]);
        pending.extend(undecided.map(|&i| (total_key(list[i].cost_usd), i)));
        pending[start..].sort_unstable();
    }

    // Walk the remaining candidates in fixed-size waves. The wave size
    // is deliberately independent of the worker count so the prune
    // decisions — and hence the whole outcome — are identical for
    // sequential and parallel runs.
    const WAVE: usize = 1024;
    let mut wave_idx: Vec<usize> = Vec::with_capacity(WAVE);
    let mut wave_bounds: Vec<LaneBounds> = Vec::with_capacity(WAVE);
    // Feasible points below this index are already in the dominance
    // map (the probe seed); each wave folds in only what it appended.
    let mut folded = feasible_points.len();
    for wave in pending.chunks(WAVE) {
        wave_idx.clear();
        wave_bounds.clear();
        for &(_, i) in wave {
            let candidate = &list[i];
            let dominated_at_us = dominance.best_latency_cheaper(candidate.cost_usd);
            // Static prune: the zero-load or saturation floor already
            // proves the point is above the SLO or strictly dominated.
            if candidate.floor_us > slo || candidate.floor_us >= dominated_at_us {
                diagnostics.pruned += 1;
                continue;
            }
            wave_idx.push(i);
            wave_bounds.push(LaneBounds { slo_us: slo, dominated_at_us });
        }
        solve_candidates(&candidates, &wave_idx, &wave_bounds, workers, |i, outcome| {
            absorb(
                spec,
                &list[i],
                i,
                outcome,
                &mut diagnostics,
                &mut evaluated,
                &mut feasible_points,
            );
        });
        // Fold this wave's new feasible points into the dominance map
        // for the next wave.
        for point in &feasible_points[folded..] {
            dominance.insert(point.cost_usd, point.latency_us);
        }
        folded = feasible_points.len();
    }

    // The Pareto sort keys ties by enumeration index, so it sees exactly
    // the order the exhaustive path does.
    let feasible = feasible_points.len();
    let frontier = pareto_reduce(&candidates, feasible_points, &mut diagnostics);

    Ok(OptimizeOutcome { space_size: spec.space.len(), evaluated, feasible, frontier, diagnostics })
}

/// Column headers of the frontier CSV/JSON rendering shared by
/// `reproduce optimize`, `/v1/optimize` and the examples.
pub const FRONTIER_COLUMNS: [&str; 14] = [
    "design",
    "clusters",
    "nodes_per_cluster",
    "intra",
    "inter",
    "ports",
    "architecture",
    "switches",
    "cost_usd",
    "latency_us",
    "throughput_per_us",
    "retained_fraction",
    "bottleneck_utilization",
    "saturation_lambda",
];

/// Renders one frontier point as CSV/table cells matching
/// [`FRONTIER_COLUMNS`]. Floats use the shortest-round-trip rendering
/// ([`json_num`]) so the row is byte-stable and bit-faithful.
pub fn frontier_row(point: &EvaluatedDesign) -> Vec<String> {
    let cfg = &point.design.config;
    vec![
        point.design.key(),
        cfg.clusters.to_string(),
        cfg.nodes_per_cluster.to_string(),
        cfg.icn1.name.to_string(),
        cfg.ecn1.name.to_string(),
        cfg.switch.ports().to_string(),
        arch_code(cfg.architecture).to_string(),
        point.design.total_switches().to_string(),
        json_num(point.cost_usd),
        json_num(point.latency_us),
        json_num(point.throughput_per_us),
        json_num(point.retained_fraction),
        json_num(point.bottleneck_utilization),
        json_num(point.saturation_lambda),
    ]
}

/// Latency derivatives of one frontier point, from
/// [`frontier_sensitivity`].
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierSensitivity {
    /// The design key ([`Design::key`]) this row annotates.
    pub key: String,
    /// `∂T_W/∂λ` at the workload's operating point (µs²) — how
    /// fragile the design's latency is to offered-load growth.
    pub dlatency_dlambda: f64,
    /// `∂T_W/∂M` — µs per payload byte.
    pub dlatency_dbyte: f64,
    /// The design's closed-form saturation rate (msg/µs/processor).
    pub saturation_lambda: f64,
    /// Offered-rate headroom `saturation_lambda − λ`.
    pub lambda_headroom: f64,
    /// Largest λ keeping mean latency within `slo_latency_us`
    /// (Newton-polished, [`crate::sensitivity::lambda_for_latency`]);
    /// `None` when no SLO was given or no rate fits.
    pub max_lambda_at_slo: Option<f64>,
}

/// Annotates every frontier point of `outcome` with its latency
/// derivatives — the "which knob moves latency fastest" follow-up to
/// an optimization run. Rows are in frontier order (ascending cost).
///
/// When `slo_latency_us` is given, each row also carries the largest
/// per-processor rate that still meets that SLO, so a planner can read
/// growth headroom straight off the frontier instead of re-running the
/// optimizer at hypothetical future loads. The frontier is annotated
/// as one batch: every point's probes are one kernel solve
/// ([`crate::sensitivity::evaluate_batch`]), and each stage of the
/// λ-for-latency searches is one more
/// ([`crate::sensitivity::lambda_for_latency_batch`]). The first error
/// in frontier order is returned, a point's derivative error before its
/// λ search's.
pub fn frontier_sensitivity(
    outcome: &OptimizeOutcome,
    slo_latency_us: Option<f64>,
) -> Result<Vec<FrontierSensitivity>, OptimizeError> {
    let configs: Vec<SystemConfig> = outcome.frontier.iter().map(|p| p.design.config).collect();
    let derivatives = crate::sensitivity::evaluate_batch(&configs);
    let at_slo =
        slo_latency_us.map(|budget| crate::sensitivity::lambda_for_latency_batch(&configs, budget));
    let mut rows = Vec::with_capacity(outcome.frontier.len());
    for (k, (point, s)) in outcome.frontier.iter().zip(derivatives).enumerate() {
        let s = s?;
        let max_lambda_at_slo = match &at_slo {
            Some(answers) => answers[k].clone()?,
            None => None,
        };
        rows.push(FrontierSensitivity {
            key: point.design.key(),
            dlatency_dlambda: s.dlatency_dlambda,
            dlatency_dbyte: s.dlatency_dbyte,
            saturation_lambda: s.saturation_lambda,
            lambda_headroom: s.lambda_headroom,
            max_lambda_at_slo,
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::AnalyticalModel;

    fn small_space() -> DesignSpace {
        DesignSpace {
            cluster_counts: vec![4, 16],
            intra: vec![NetworkTechnology::GIGABIT_ETHERNET, NetworkTechnology::FAST_ETHERNET],
            inter: vec![NetworkTechnology::FAST_ETHERNET],
            switch_ports: vec![8, 24],
            architectures: vec![Architecture::NonBlocking],
        }
    }

    fn spec(constraints: Constraints, space: DesignSpace) -> OptimizeSpec {
        OptimizeSpec { workload: Workload::paper_default(), constraints, space }
    }

    #[test]
    fn paper_default_space_size() {
        let space = DesignSpace::paper_default(256);
        assert_eq!(space.cluster_counts, vec![2, 4, 8, 16, 32, 64, 128]);
        assert_eq!(space.len(), 7 * 4 * 4 * 5 * 2);
    }

    #[test]
    fn catalogue_prices_every_preset() {
        for tech in NetworkTechnology::PRESETS {
            let prices = CatalogCostModel::unit_prices(&tech).unwrap();
            assert!(prices.nic_usd > 0.0 && prices.port_usd > 0.0, "{}", tech.name);
        }
    }

    #[test]
    fn unknown_technology_is_a_hard_error() {
        let custom = NetworkTechnology::new("Quadrics QsNet", 2.0, 900.0).unwrap();
        assert_eq!(
            CatalogCostModel::unit_prices(&custom),
            Err(OptimizeError::UnknownTechnology("Quadrics QsNet".to_string()))
        );
        let mut space = small_space();
        space.intra = vec![custom];
        let err =
            optimize(&spec(Constraints::default(), space), BatchOptions::sequential()).unwrap_err();
        assert!(matches!(err, OptimizeError::UnknownTechnology(_)));
    }

    /// The first pricing error of the one-design path: the first design
    /// in enumeration order that builds and that the catalogue cannot
    /// price.
    fn first_pricing_error(request: &OptimizeSpec) -> Option<OptimizeError> {
        let space = &request.space;
        for &clusters in &space.cluster_counts {
            for &intra in &space.intra {
                for &inter in &space.inter {
                    for &ports in &space.switch_ports {
                        for &arch in &space.architectures {
                            let built = Design::build(
                                &request.workload,
                                clusters,
                                intra,
                                inter,
                                ports,
                                arch,
                            );
                            if let Ok(design) = built {
                                if let Err(e) = CatalogCostModel.cost_usd(&design) {
                                    return Some(e);
                                }
                            }
                        }
                    }
                }
            }
        }
        None
    }

    #[test]
    fn unknown_technology_errors_only_where_a_design_is_buildable() {
        let custom = NetworkTechnology::new("Quadrics QsNet", 2.0, 900.0).unwrap();
        let other = NetworkTechnology::new("SCI", 1.5, 400.0).unwrap();
        // 2-port switches cannot form a multi-stage fat-tree, so no
        // non-blocking design of the 256-node workload builds: the
        // custom technology is never priced, and every design counts
        // as invalid.
        let mut space = small_space();
        space.intra = vec![NetworkTechnology::FAST_ETHERNET, custom];
        space.switch_ports = vec![2];
        let request = spec(Constraints::default(), space);
        assert_eq!(first_pricing_error(&request), None);
        for outcome in [
            optimize(&request, BatchOptions::sequential()).unwrap(),
            optimize_pruned(&request, BatchOptions::sequential()).unwrap(),
        ] {
            assert_eq!(outcome.diagnostics.invalid, request.space.len());
            assert!(outcome.frontier.is_empty());
        }
        // With a linear array and a non-divisor cluster count in the
        // mix, the first buildable design is C = 16, Fast Ethernet
        // intra, `other` inter, 2 ports, blocking: the error names
        // `other`, not `custom`, which only later designs use.
        let request = spec(
            Constraints::default(),
            DesignSpace {
                cluster_counts: vec![3, 16],
                intra: vec![NetworkTechnology::FAST_ETHERNET, custom],
                inter: vec![other, NetworkTechnology::FAST_ETHERNET],
                switch_ports: vec![2, 8],
                architectures: vec![Architecture::NonBlocking, Architecture::Blocking],
            },
        );
        let expected = OptimizeError::UnknownTechnology("SCI".to_string());
        assert_eq!(first_pricing_error(&request), Some(expected.clone()));
        assert_eq!(optimize(&request, BatchOptions::sequential()), Err(expected.clone()));
        assert_eq!(optimize_pruned(&request, BatchOptions::sequential()), Err(expected));
    }

    #[test]
    fn frontier_sensitivity_annotates_every_point() {
        let outcome =
            optimize(&spec(Constraints::default(), small_space()), BatchOptions::sequential())
                .unwrap();
        let rows = frontier_sensitivity(&outcome, Some(30_000.0)).unwrap();
        assert_eq!(rows.len(), outcome.frontier.len());
        for (row, point) in rows.iter().zip(&outcome.frontier) {
            assert_eq!(row.key, point.design.key());
            assert_eq!(row.saturation_lambda.to_bits(), point.saturation_lambda.to_bits());
            assert!(row.dlatency_dlambda > 0.0);
            assert!(row.dlatency_dbyte > 0.0);
            let at_slo = row.max_lambda_at_slo.expect("30 ms is feasible for every point");
            assert!(at_slo > 0.0);
        }
        let bare = frontier_sensitivity(&outcome, None).unwrap();
        assert!(bare.iter().all(|r| r.max_lambda_at_slo.is_none()));
    }

    #[test]
    fn frontier_is_a_strict_staircase() {
        let outcome =
            optimize(&spec(Constraints::default(), small_space()), BatchOptions::sequential())
                .unwrap();
        assert!(!outcome.frontier.is_empty());
        for pair in outcome.frontier.windows(2) {
            assert!(pair[0].cost_usd <= pair[1].cost_usd);
            assert!(pair[0].latency_us > pair[1].latency_us);
        }
        assert_eq!(outcome.frontier.len() + outcome.diagnostics.dominated, outcome.feasible);
    }

    #[test]
    fn frontier_points_are_bit_identical_to_direct_evaluation() {
        let outcome =
            optimize(&spec(Constraints::default(), small_space()), BatchOptions::sequential())
                .unwrap();
        for point in &outcome.frontier {
            let direct = AnalyticalModel::evaluate(&point.design.config).unwrap();
            assert_eq!(
                point.latency_us.to_bits(),
                direct.latency.mean_message_latency_us.to_bits()
            );
            assert_eq!(point.throughput_per_us.to_bits(), direct.throughput_per_us.to_bits());
        }
    }

    #[test]
    fn budget_constraint_is_attributed() {
        let unconstrained =
            optimize(&spec(Constraints::default(), small_space()), BatchOptions::sequential())
                .unwrap();
        let all_costs_max =
            unconstrained.frontier.iter().map(|p| p.cost_usd).fold(0.0f64, f64::max);
        let capped = Constraints { budget_usd: Some(all_costs_max - 1.0), ..Default::default() };
        let outcome = optimize(&spec(capped, small_space()), BatchOptions::sequential()).unwrap();
        assert!(outcome.diagnostics.over_budget > 0);
        for point in &outcome.frontier {
            assert!(point.cost_usd <= all_costs_max - 1.0);
        }
    }

    #[test]
    fn slo_constraint_is_attributed() {
        let open =
            optimize(&spec(Constraints::default(), small_space()), BatchOptions::sequential())
                .unwrap();
        let best = open.frontier.last().unwrap().latency_us;
        let slo = Constraints { slo_latency_us: Some(best * 1.0001), ..Default::default() };
        let outcome = optimize(&spec(slo, small_space()), BatchOptions::sequential()).unwrap();
        assert!(outcome.diagnostics.above_slo > 0);
        assert!(!outcome.frontier.is_empty());
        for point in &outcome.frontier {
            assert!(point.latency_us <= best * 1.0001);
        }
    }

    #[test]
    fn saturation_prefilter_prunes_slow_fabrics() {
        // At the paper's λ the open-queue boundary sits below the
        // offered rate for every preset fabric shape, so the strict
        // mode prunes — it must attribute those points, not fail.
        let strict = Constraints { require_unsaturated: true, ..Default::default() };
        let outcome = optimize(&spec(strict, small_space()), BatchOptions::sequential()).unwrap();
        assert_eq!(
            outcome.diagnostics.saturated + outcome.evaluated + outcome.diagnostics.failed,
            outcome.space_size - outcome.diagnostics.invalid
        );
        for point in &outcome.frontier {
            assert!(point.design.config.lambda_per_us < point.saturation_lambda);
        }
    }

    #[test]
    fn a_design_over_budget_and_saturated_counts_under_both() {
        // At the paper's λ every preset fabric shape is saturated, and
        // no design costs under a dollar.
        let both =
            Constraints { budget_usd: Some(1.0), require_unsaturated: true, ..Default::default() };
        for walk in [optimize, optimize_pruned] {
            let outcome = walk(&spec(both, small_space()), BatchOptions::sequential()).unwrap();
            let d = outcome.diagnostics;
            assert_eq!(d.invalid, 0);
            assert_eq!(d.over_budget, outcome.space_size);
            assert_eq!(d.saturated, outcome.space_size);
            assert_eq!(outcome.evaluated, 0);
        }
    }

    #[test]
    fn cheapest_feasible_is_first_frontier_point() {
        let outcome =
            optimize(&spec(Constraints::default(), small_space()), BatchOptions::sequential())
                .unwrap();
        let cheapest = outcome.cheapest_feasible().unwrap();
        assert_eq!(cheapest.cost_usd.to_bits(), outcome.frontier[0].cost_usd.to_bits());
        for point in &outcome.frontier {
            assert!(cheapest.cost_usd <= point.cost_usd);
        }
    }

    /// `walk`'s outcome and the blocks it sent to kernel helpers.
    fn with_helper_blocks(
        walk: impl FnOnce() -> Result<OptimizeOutcome, OptimizeError>,
    ) -> (OptimizeOutcome, u64) {
        let before = work::tally();
        let outcome = walk().unwrap();
        (outcome, (work::tally() - before).helper_blocks)
    }

    #[test]
    fn parallel_matches_sequential_bitwise() {
        // The paper space's 1,120 designs: enough lanes for four workers
        // to cut the batch into four blocks.
        let request = OptimizeSpec::paper_default(Constraints::default());
        let seq = optimize(&request, BatchOptions::sequential()).unwrap();
        let (par, sent) = with_helper_blocks(|| optimize(&request, BatchOptions::with_workers(4)));
        assert_eq!(sent, 3);
        assert_eq!(seq, par);
    }

    #[test]
    fn non_divisor_cluster_counts_count_as_invalid() {
        let mut space = small_space();
        space.cluster_counts = vec![3, 16];
        let outcome =
            optimize(&spec(Constraints::default(), space), BatchOptions::sequential()).unwrap();
        // The whole C=3 slab (2 intra × 1 inter × 2 ports × 1 arch).
        assert_eq!(outcome.diagnostics.invalid, 4);
        assert!(outcome.evaluated > 0);
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let mut bad_ports = small_space();
        bad_ports.switch_ports = vec![7];
        assert!(matches!(
            optimize(&spec(Constraints::default(), bad_ports), BatchOptions::sequential()),
            Err(OptimizeError::InvalidSpec(_))
        ));
        let mut empty = small_space();
        empty.architectures.clear();
        assert!(matches!(
            optimize(&spec(Constraints::default(), empty), BatchOptions::sequential()),
            Err(OptimizeError::InvalidSpec(_))
        ));
        let mut wl = Workload::paper_default();
        wl.lambda_per_us = -1.0;
        let bad = OptimizeSpec {
            workload: wl,
            constraints: Constraints::default(),
            space: small_space(),
        };
        assert!(matches!(
            optimize(&bad, BatchOptions::sequential()),
            Err(OptimizeError::InvalidSpec(_))
        ));
    }

    #[test]
    fn frontier_row_matches_columns() {
        let outcome =
            optimize(&spec(Constraints::default(), small_space()), BatchOptions::sequential())
                .unwrap();
        let row = frontier_row(&outcome.frontier[0]);
        assert_eq!(row.len(), FRONTIER_COLUMNS.len());
        assert!(row[0].starts_with('C'));
    }

    fn assert_frontiers_bit_identical(pruned: &OptimizeOutcome, exhaustive: &OptimizeOutcome) {
        assert_eq!(pruned.frontier.len(), exhaustive.frontier.len());
        for (a, b) in pruned.frontier.iter().zip(&exhaustive.frontier) {
            assert_eq!(a.design, b.design);
            assert_eq!(a.cost_usd.to_bits(), b.cost_usd.to_bits());
            assert_eq!(a.latency_us.to_bits(), b.latency_us.to_bits());
            assert_eq!(a.throughput_per_us.to_bits(), b.throughput_per_us.to_bits());
            assert_eq!(a.retained_fraction.to_bits(), b.retained_fraction.to_bits());
            assert_eq!(a.bottleneck_utilization.to_bits(), b.bottleneck_utilization.to_bits());
            assert_eq!(a.saturation_lambda.to_bits(), b.saturation_lambda.to_bits());
        }
        assert_eq!(pruned.space_size, exhaustive.space_size);
        assert_eq!(pruned.feasible, pruned.frontier.len() + pruned.diagnostics.dominated);
    }

    #[test]
    fn pruned_frontier_is_bit_identical_on_the_paper_space() {
        let constraints = Constraints {
            slo_latency_us: Some(30_000.0),
            budget_usd: None,
            require_unsaturated: true,
        };
        let request = OptimizeSpec::paper_default(constraints);
        let exhaustive = optimize(&request, BatchOptions::sequential()).unwrap();
        let pruned = optimize_pruned(&request, BatchOptions::sequential()).unwrap();
        assert_frontiers_bit_identical(&pruned, &exhaustive);
        assert!(pruned.diagnostics.pruned > 0, "paper space should prune some points");
        assert!(pruned.evaluated < exhaustive.evaluated);
        let d = pruned.diagnostics;
        assert_eq!(
            d.saturated + pruned.evaluated + d.failed + d.pruned,
            pruned.space_size - d.invalid
        );
        assert_eq!(exhaustive.diagnostics.pruned, 0);
    }

    #[test]
    fn pruned_frontier_is_bit_identical_without_an_slo() {
        // No SLO: only dominance prunes. The frontier must still match.
        let request = OptimizeSpec::paper_default(Constraints::default());
        let exhaustive = optimize(&request, BatchOptions::sequential()).unwrap();
        let pruned = optimize_pruned(&request, BatchOptions::sequential()).unwrap();
        assert_frontiers_bit_identical(&pruned, &exhaustive);
    }

    #[test]
    fn pruned_walk_reads_an_unsorted_port_axis_in_port_order() {
        // A space may list its port counts in any order. The pruned walk
        // still probes and ranks each family along the port axis, so it
        // decides exactly what it decides on the ascending axis, and its
        // frontier is the exhaustive walk's over the same space.
        let constraints = Constraints { slo_latency_us: Some(30_000.0), ..Constraints::default() };
        let ascending = OptimizeSpec::paper_default(constraints);
        let sorted = optimize_pruned(&ascending, BatchOptions::sequential()).unwrap();
        for ports in [vec![48, 32, 24, 16, 8], vec![24, 48, 8, 32, 16]] {
            let mut request = ascending.clone();
            request.space.switch_ports = ports;
            let exhaustive = optimize(&request, BatchOptions::sequential()).unwrap();
            let pruned = optimize_pruned(&request, BatchOptions::sequential()).unwrap();
            assert_frontiers_bit_identical(&pruned, &exhaustive);
            assert_eq!(pruned.diagnostics, sorted.diagnostics);
            assert_eq!((pruned.evaluated, pruned.feasible), (sorted.evaluated, sorted.feasible));
        }
    }

    #[test]
    fn pruned_parallel_matches_sequential_bitwise() {
        let constraints = Constraints { slo_latency_us: Some(20_000.0), ..Constraints::default() };
        let request = OptimizeSpec::paper_default(constraints);
        let sequential = optimize_pruned(&request, BatchOptions::sequential()).unwrap();
        for workers in [2, 8] {
            let (parallel, sent) = with_helper_blocks(|| {
                optimize_pruned(&request, BatchOptions::with_workers(workers))
            });
            // The probe batch is two blocks' worth of lanes; the waves
            // are smaller.
            assert_eq!(sent, 1, "workers={workers}");
            assert_eq!(sequential, parallel);
        }
    }

    #[test]
    fn pruned_walk_counts_are_pinned_on_the_expanded_space() {
        // Every counter of the pruned walk over the 21,280-design space
        // under a budget, pinned: a change to which designs the
        // enumeration drops or the kernel prunes shows here even when
        // the frontier does not move.
        let request = OptimizeSpec {
            workload: Workload::paper_default(),
            constraints: Constraints {
                slo_latency_us: Some(30_000.0),
                budget_usd: Some(200_000.0),
                require_unsaturated: false,
            },
            space: DesignSpace::expanded(256),
        };
        let outcome = optimize_pruned(&request, BatchOptions::with_workers(2)).unwrap();
        assert_eq!(
            outcome.diagnostics,
            Diagnostics {
                invalid: 0,
                saturated: 0,
                over_budget: 16_909,
                failed: 0,
                above_slo: 145,
                dominated: 197,
                pruned: 4_020,
            }
        );
        assert_eq!((outcome.evaluated, outcome.feasible, outcome.frontier.len()), (351, 206, 9));
    }

    #[test]
    fn expanded_space_prunes_most_of_the_dense_port_axis() {
        // 64 nodes keeps the runtime down: 5·4·4·95·2 = 3040 points.
        let mut wl = Workload::paper_default();
        wl.total_nodes = 64;
        let constraints = Constraints {
            slo_latency_us: Some(30_000.0),
            budget_usd: None,
            require_unsaturated: true,
        };
        let space = DesignSpace::expanded(64);
        assert_eq!(space.len(), 5 * 4 * 4 * 95 * 2);
        let request = OptimizeSpec { workload: wl, constraints, space };
        let exhaustive = optimize(&request, BatchOptions::with_workers(4)).unwrap();
        let pruned = optimize_pruned(&request, BatchOptions::with_workers(4)).unwrap();
        assert_frontiers_bit_identical(&pruned, &exhaustive);
        assert!(
            pruned.diagnostics.pruned * 2 > pruned.evaluated,
            "dense port axis should mostly prune: pruned {} evaluated {}",
            pruned.diagnostics.pruned,
            pruned.evaluated
        );
    }
}
