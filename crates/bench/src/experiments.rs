//! One runner per paper artefact.
//!
//! Every figure of the paper plots **average message latency (ms)
//! versus number of clusters** for `C ∈ {1, 2, 4, …, 256}` on a 256-node
//! platform, with message sizes 512 and 1024 bytes, showing an analysis
//! curve and a simulation curve:
//!
//! * Figure 4 — non-blocking, Case 1;
//! * Figure 5 — non-blocking, Case 2;
//! * Figure 6 — blocking, Case 1;
//! * Figure 7 — blocking, Case 2.
//!
//! [`run_figure`] regenerates one of them; the remaining runners cover
//! Tables 1–2, the §6 blocking/non-blocking ratio claim and the
//! reproduction's ablations.

use crate::simcache;
use hmcs_core::batch::{self, BatchOptions, EvalStats, EvalStatsSummary};
use hmcs_core::config::{QueueAccounting, ServiceTimeModel, SystemConfig};
use hmcs_core::error::ModelError;
use hmcs_core::kernel;
use hmcs_core::model::AnalyticalModel;
use hmcs_core::scenario::{
    Scenario, PAPER_CLUSTER_COUNTS, PAPER_LAMBDA_PER_US, PAPER_MESSAGE_SIZES, PAPER_SIM_MESSAGES,
};
use hmcs_core::sweep;
use hmcs_sim::config::SimConfig;
use hmcs_topology::technology::NetworkTechnology;
use hmcs_topology::transmission::{Architecture, HopModel};

/// Identification of one of the paper's four latency figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FigureSpec {
    /// Figure id ("fig4" … "fig7").
    pub id: &'static str,
    /// Network scenario (Table 1 case).
    pub scenario: Scenario,
    /// Interconnect architecture.
    pub architecture: Architecture,
    /// The paper's caption.
    pub caption: &'static str,
}

/// Figure 4: non-blocking networks, Case 1.
pub const FIG4: FigureSpec = FigureSpec {
    id: "fig4",
    scenario: Scenario::Case1,
    architecture: Architecture::NonBlocking,
    caption: "Average Message Latency vs. Number of Clusters for Non-blocking Networks in Case-1",
};

/// Figure 5: non-blocking networks, Case 2.
pub const FIG5: FigureSpec = FigureSpec {
    id: "fig5",
    scenario: Scenario::Case2,
    architecture: Architecture::NonBlocking,
    caption: "Average Message Latency vs. Number of Clusters for Non-blocking Networks in Case-2",
};

/// Figure 6: blocking networks, Case 1.
pub const FIG6: FigureSpec = FigureSpec {
    id: "fig6",
    scenario: Scenario::Case1,
    architecture: Architecture::Blocking,
    caption: "Average Message Latency vs. Number of Clusters for Blocking Networks in Case-1",
};

/// Figure 7: blocking networks, Case 2.
pub const FIG7: FigureSpec = FigureSpec {
    id: "fig7",
    scenario: Scenario::Case2,
    architecture: Architecture::Blocking,
    caption: "Average Message Latency vs. Number of Clusters for Blocking Networks in Case-2",
};

/// All four figures in paper order.
pub const ALL_FIGURES: [FigureSpec; 4] = [FIG4, FIG5, FIG6, FIG7];

/// Common experiment-control options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOptions {
    /// Measured messages per simulation run (paper: 10,000).
    pub messages: u64,
    /// Warm-up messages discarded before measuring.
    pub warmup: u64,
    /// Master seed.
    pub seed: u64,
    /// Per-processor generation rate (events/µs).
    pub lambda_per_us: f64,
    /// Whether to run the simulation column (analysis is always run).
    pub with_simulation: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            messages: PAPER_SIM_MESSAGES,
            warmup: 2_000,
            seed: 2005,
            lambda_per_us: PAPER_LAMBDA_PER_US,
            with_simulation: true,
        }
    }
}

/// One figure row: latencies (ms) at a cluster count for both message
/// sizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FigureRow {
    /// Cluster count (x-axis).
    pub clusters: usize,
    /// Analysis latency, M = 512 B.
    pub analysis_512_ms: f64,
    /// Simulation latency, M = 512 B (None when simulation disabled).
    pub sim_512_ms: Option<f64>,
    /// Analysis latency, M = 1024 B.
    pub analysis_1024_ms: f64,
    /// Simulation latency, M = 1024 B.
    pub sim_1024_ms: Option<f64>,
}

impl FigureRow {
    /// Largest relative |analysis − sim|/sim across the two message
    /// sizes (`None` when simulation was disabled).
    pub fn worst_relative_error(&self) -> Option<f64> {
        let e512 = self.sim_512_ms.map(|s| (self.analysis_512_ms - s).abs() / s);
        let e1024 = self.sim_1024_ms.map(|s| (self.analysis_1024_ms - s).abs() / s);
        match (e512, e1024) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        }
    }
}

/// A regenerated figure: spec + rows over the cluster-count axis.
#[derive(Debug, Clone)]
pub struct FigureData {
    /// Which figure this is.
    pub spec: FigureSpec,
    /// One row per cluster count.
    pub rows: Vec<FigureRow>,
    /// Aggregate cost of the analytical evaluations behind the figure.
    pub analysis_stats: EvalStatsSummary,
    /// Per-point evaluation cost, M=512 sweep then M=1024 sweep (the
    /// run manifest builds its solver-iteration and wall-clock
    /// histograms from these).
    pub point_stats: Vec<EvalStats>,
    /// Wall-clock time of the whole figure run (µs), analysis and
    /// simulation columns included.
    pub wall_clock_us: f64,
}

fn system_for(
    spec: FigureSpec,
    clusters: usize,
    bytes: u64,
    opts: &RunOptions,
) -> Result<SystemConfig, ModelError> {
    Ok(SystemConfig::paper_preset(spec.scenario, clusters, spec.architecture)?
        .with_message_bytes(bytes)
        .with_lambda(opts.lambda_per_us))
}

/// Regenerates one of Figures 4–7 on the shared worker pool. The
/// analysis column runs as two batch cluster sweeps (one per message
/// size); the simulation column fans the 18 runs out over the same
/// pool.
pub fn run_figure(spec: FigureSpec, opts: &RunOptions) -> Result<FigureData, ModelError> {
    let started = std::time::Instant::now();
    let sweep_for = |bytes: u64| -> Result<Vec<sweep::SweepPoint<usize>>, ModelError> {
        let base = SystemConfig::paper_preset(spec.scenario, 1, spec.architecture)?
            .with_message_bytes(bytes)
            .with_lambda(opts.lambda_per_us);
        sweep::cluster_sweep(&base, hmcs_core::scenario::PAPER_TOTAL_NODES, &PAPER_CLUSTER_COUNTS)
    };
    let analysis_512 = sweep_for(PAPER_MESSAGE_SIZES[0])?;
    let analysis_1024 = sweep_for(PAPER_MESSAGE_SIZES[1])?;
    let point_stats: Vec<EvalStats> =
        analysis_512.iter().chain(&analysis_1024).map(|p| p.stats).collect();
    let analysis_stats = EvalStatsSummary::collect(point_stats.iter().copied());

    // Simulation column: one run per (cluster count, message size),
    // flattened in row-major order and fanned out on the pool.
    let sims: Vec<Option<f64>> = if opts.with_simulation {
        let mut sim_configs = Vec::with_capacity(2 * PAPER_CLUSTER_COUNTS.len());
        for &c in &PAPER_CLUSTER_COUNTS {
            for &bytes in &PAPER_MESSAGE_SIZES[..2] {
                let sys = system_for(spec, c, bytes, opts)?;
                sim_configs.push(
                    SimConfig::new(sys)
                        .with_messages(opts.messages)
                        .with_warmup(opts.warmup)
                        .with_seed(opts.seed)
                        // The figure only plots means; skip the P²
                        // marker updates and the per-event center
                        // statistics neither the CSVs nor the summary
                        // read.
                        .with_quantiles(false)
                        .with_center_stats(false),
                );
            }
        }
        batch::par_map(&sim_configs, BatchOptions::default().resolved_workers(), |cfg| {
            simcache::flow_run(cfg).map(|r| r.mean_latency_ms())
        })
        .into_iter()
        .map(|r| r.map(Some))
        .collect::<Result<Vec<_>, ModelError>>()?
    } else {
        vec![None; 2 * PAPER_CLUSTER_COUNTS.len()]
    };

    let rows = PAPER_CLUSTER_COUNTS
        .iter()
        .enumerate()
        .map(|(i, &c)| FigureRow {
            clusters: c,
            analysis_512_ms: analysis_512[i].report.latency.mean_message_latency_ms(),
            sim_512_ms: sims[2 * i],
            analysis_1024_ms: analysis_1024[i].report.latency.mean_message_latency_ms(),
            sim_1024_ms: sims[2 * i + 1],
        })
        .collect();
    Ok(FigureData {
        spec,
        rows,
        analysis_stats,
        point_stats,
        wall_clock_us: started.elapsed().as_secs_f64() * 1e6,
    })
}

/// One row of the §6 ratio claim ("the average message latency of
/// blocking network is larger, something between 1.4 to 3.1 times").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClaimRow {
    /// Scenario the ratio was computed in.
    pub scenario: Scenario,
    /// Cluster count.
    pub clusters: usize,
    /// Non-blocking analysis latency (ms), M = 1024.
    pub nonblocking_ms: f64,
    /// Blocking analysis latency (ms), M = 1024.
    pub blocking_ms: f64,
}

impl ClaimRow {
    /// blocking / non-blocking latency ratio.
    pub fn ratio(&self) -> f64 {
        self.blocking_ms / self.nonblocking_ms
    }
}

/// Evaluates the blocking/non-blocking latency ratio over the grid.
/// The 36 evaluations (2 scenarios × 9 counts × 2 architectures) run
/// as one batch on the shared pool.
pub fn run_claims(opts: &RunOptions) -> Result<Vec<ClaimRow>, ModelError> {
    let mut keys = Vec::new();
    let mut configs = Vec::new();
    for scenario in [Scenario::Case1, Scenario::Case2] {
        for &c in &PAPER_CLUSTER_COUNTS {
            keys.push((scenario, c));
            for arch in [Architecture::NonBlocking, Architecture::Blocking] {
                configs.push(
                    SystemConfig::paper_preset(scenario, c, arch)?.with_lambda(opts.lambda_per_us),
                );
            }
        }
    }
    let results = kernel::evaluate_batch(&configs, BatchOptions::default().resolved_workers());
    keys.into_iter()
        .zip(results.chunks_exact(2))
        .map(|((scenario, clusters), pair)| {
            let latency_ms = |r: &Result<(hmcs_core::model::PerformanceReport, _), ModelError>| {
                r.as_ref()
                    .map(|(report, _stats)| report.latency.mean_message_latency_ms())
                    .map_err(Clone::clone)
            };
            Ok(ClaimRow {
                scenario,
                clusters,
                nonblocking_ms: latency_ms(&pair[0])?,
                blocking_ms: latency_ms(&pair[1])?,
            })
        })
        .collect()
}

/// One row of the ECN1-accounting ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccountingRow {
    /// Cluster count.
    pub clusters: usize,
    /// Analysis with the paper-literal `2·L_E1` counting (ms).
    pub literal_ms: f64,
    /// Analysis with single-queue counting (ms).
    pub single_ms: f64,
    /// Flow simulation (ms).
    pub sim_ms: f64,
}

impl AccountingRow {
    /// Relative error of the literal reading vs simulation.
    pub fn literal_error(&self) -> f64 {
        (self.literal_ms - self.sim_ms).abs() / self.sim_ms
    }

    /// Relative error of the single-queue reading vs simulation.
    pub fn single_error(&self) -> f64 {
        (self.single_ms - self.sim_ms).abs() / self.sim_ms
    }
}

/// The `ablation-accounting` experiment (Case 1, non-blocking,
/// M = 1024).
pub fn run_ablation_accounting(opts: &RunOptions) -> Result<Vec<AccountingRow>, ModelError> {
    let mut rows = Vec::new();
    for &c in &PAPER_CLUSTER_COUNTS {
        let sys = SystemConfig::paper_preset(Scenario::Case1, c, Architecture::NonBlocking)?
            .with_lambda(opts.lambda_per_us);
        let literal =
            AnalyticalModel::evaluate(&sys.with_accounting(QueueAccounting::PaperLiteral))?
                .latency
                .mean_message_latency_ms();
        let single = AnalyticalModel::evaluate(&sys.with_accounting(QueueAccounting::SingleQueue))?
            .latency
            .mean_message_latency_ms();
        let sim = simcache::flow_run(
            &SimConfig::new(sys)
                .with_messages(opts.messages)
                .with_warmup(opts.warmup)
                .with_seed(opts.seed)
                .with_quantiles(false)
                .with_center_stats(false),
        )?
        .mean_latency_ms();
        rows.push(AccountingRow {
            clusters: c,
            literal_ms: literal,
            single_ms: single,
            sim_ms: sim,
        });
    }
    Ok(rows)
}

/// One row of the hop-model ablation (blocking architecture).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HopsRow {
    /// Cluster count.
    pub clusters: usize,
    /// Analysis with the paper's `(k+1)/3` hop average (ms).
    pub paper_analysis_ms: f64,
    /// Analysis with the exact mean hop count (ms).
    pub exact_analysis_ms: f64,
    /// Simulation with the paper hop model (ms).
    pub paper_sim_ms: f64,
    /// Simulation with the exact hop model (ms).
    pub exact_sim_ms: f64,
}

/// The `ablation-hops` experiment (Case 1, blocking, M = 1024).
pub fn run_ablation_hops(opts: &RunOptions) -> Result<Vec<HopsRow>, ModelError> {
    let mut rows = Vec::new();
    for &c in &PAPER_CLUSTER_COUNTS {
        let base = SystemConfig::paper_preset(Scenario::Case1, c, Architecture::Blocking)?
            .with_lambda(opts.lambda_per_us);
        let mut row = HopsRow {
            clusters: c,
            paper_analysis_ms: 0.0,
            exact_analysis_ms: 0.0,
            paper_sim_ms: 0.0,
            exact_sim_ms: 0.0,
        };
        for (hop, analysis_slot, sim_slot) in
            [(HopModel::PaperAverage, 0usize, 0usize), (HopModel::ExactMean, 1, 1)]
        {
            let sys = base.with_hop_model(hop);
            let analysis = AnalyticalModel::evaluate(&sys)?.latency.mean_message_latency_ms();
            let sim = simcache::flow_run(
                &SimConfig::new(sys)
                    .with_messages(opts.messages)
                    .with_warmup(opts.warmup)
                    .with_seed(opts.seed)
                    .with_quantiles(false)
                    .with_center_stats(false),
            )?
            .mean_latency_ms();
            if analysis_slot == 0 {
                row.paper_analysis_ms = analysis;
            } else {
                row.exact_analysis_ms = analysis;
            }
            if sim_slot == 0 {
                row.paper_sim_ms = sim;
            } else {
                row.exact_sim_ms = sim;
            }
        }
        rows.push(row);
    }
    Ok(rows)
}

/// One row of the service-distribution ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceRow {
    /// Human-readable service-model name.
    pub model: &'static str,
    /// Squared coefficient of variation of the model.
    pub scv: f64,
    /// Analysis latency (ms).
    pub analysis_ms: f64,
    /// Simulation latency (ms).
    pub sim_ms: f64,
}

/// The `ablation-service` experiment: how the exponential-service
/// assumption (§5.2) affects latency, at C = 16, Case 1, non-blocking.
pub fn run_ablation_service(opts: &RunOptions) -> Result<Vec<ServiceRow>, ModelError> {
    let models: [(&'static str, ServiceTimeModel); 4] = [
        ("deterministic", ServiceTimeModel::Deterministic),
        ("erlang-4", ServiceTimeModel::Erlang(4)),
        ("exponential (paper)", ServiceTimeModel::Exponential),
        ("hyper-exp scv=4", ServiceTimeModel::HyperExponential(4.0)),
    ];
    let mut rows = Vec::new();
    for (name, model) in models {
        let sys = SystemConfig::paper_preset(Scenario::Case1, 16, Architecture::NonBlocking)?
            .with_lambda(opts.lambda_per_us)
            .with_service_model(model);
        let analysis = AnalyticalModel::evaluate(&sys)?.latency.mean_message_latency_ms();
        let sim = simcache::flow_run(
            &SimConfig::new(sys)
                .with_messages(opts.messages)
                .with_warmup(opts.warmup)
                .with_seed(opts.seed)
                .with_quantiles(false)
                .with_center_stats(false),
        )?
        .mean_latency_ms();
        rows.push(ServiceRow { model: name, scv: model.scv(), analysis_ms: analysis, sim_ms: sim });
    }
    Ok(rows)
}

/// One row of the packet-level validation experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketRow {
    /// Cluster count.
    pub clusters: usize,
    /// Analysis latency (ms).
    pub analysis_ms: f64,
    /// Flow-level simulation latency (ms).
    pub flow_ms: f64,
    /// Packet-level simulation latency (ms).
    pub packet_ms: f64,
}

/// The `packet-validation` experiment: all three fidelity levels side
/// by side (Case 1, non-blocking, M = 1024).
pub fn run_packet_validation(opts: &RunOptions) -> Result<Vec<PacketRow>, ModelError> {
    let mut rows = Vec::new();
    for &c in &[1usize, 4, 16, 64, 256] {
        let sys = SystemConfig::paper_preset(Scenario::Case1, c, Architecture::NonBlocking)?
            .with_lambda(opts.lambda_per_us);
        let analysis = AnalyticalModel::evaluate(&sys)?.latency.mean_message_latency_ms();
        let sim_cfg = SimConfig::new(sys)
            .with_messages(opts.messages)
            .with_warmup(opts.warmup)
            .with_seed(opts.seed)
            .with_quantiles(false)
            .with_center_stats(false);
        let flow = simcache::flow_run(&sim_cfg)?.mean_latency_ms();
        let packet = simcache::packet_run(&sim_cfg)?.mean_latency_ms();
        rows.push(PacketRow {
            clusters: c,
            analysis_ms: analysis,
            flow_ms: flow,
            packet_ms: packet,
        });
    }
    Ok(rows)
}

/// One row of the Cluster-of-Clusters validation experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct CocValidationRow {
    /// Human-readable system description.
    pub system: &'static str,
    /// Analysis latency (ms).
    pub analysis_ms: f64,
    /// Simulation latency (ms).
    pub sim_ms: f64,
    /// Analysis effective per-processor rate (msg/µs).
    pub analysis_lambda_eff: f64,
    /// Simulated effective per-processor rate (msg/µs).
    pub sim_lambda_eff: f64,
}

impl CocValidationRow {
    /// Relative latency error of the analysis vs simulation.
    pub fn latency_error(&self) -> f64 {
        (self.analysis_ms - self.sim_ms).abs() / self.sim_ms
    }
}

/// The `coc` experiment: validates the Cluster-of-Clusters future-work
/// model against the flow-level simulator on three federations.
pub fn run_coc_validation(opts: &RunOptions) -> Result<Vec<CocValidationRow>, ModelError> {
    use hmcs_core::cluster_of_clusters::{self, ClusterSpec, CocConfig};
    use hmcs_core::config::{QueueAccounting, ServiceTimeModel};
    use hmcs_sim::flow::FlowSimulator;
    use hmcs_topology::switch::SwitchFabric;

    let mk = |clusters: Vec<ClusterSpec>| CocConfig {
        clusters,
        icn2: NetworkTechnology::GIGABIT_ETHERNET,
        switch: SwitchFabric::paper_default(),
        architecture: Architecture::NonBlocking,
        message_bytes: 1024,
        lambda_per_us: opts.lambda_per_us,
        accounting: QueueAccounting::SingleQueue,
        service_model: ServiceTimeModel::Exponential,
    };
    let systems: [(&'static str, CocConfig); 3] = [
        (
            "2 equal GE clusters (128+128)",
            mk(vec![
                ClusterSpec {
                    nodes: 128,
                    icn1: NetworkTechnology::GIGABIT_ETHERNET,
                    ecn1: NetworkTechnology::GIGABIT_ETHERNET,
                };
                2
            ]),
        ),
        (
            "asymmetric sizes (192+64)",
            mk(vec![
                ClusterSpec {
                    nodes: 192,
                    icn1: NetworkTechnology::GIGABIT_ETHERNET,
                    ecn1: NetworkTechnology::GIGABIT_ETHERNET,
                },
                ClusterSpec {
                    nodes: 64,
                    icn1: NetworkTechnology::FAST_ETHERNET,
                    ecn1: NetworkTechnology::FAST_ETHERNET,
                },
            ]),
        ),
        (
            "LLNL-like 4 clusters (128/96/64/16)",
            mk(vec![
                ClusterSpec {
                    nodes: 128,
                    icn1: NetworkTechnology::MYRINET,
                    ecn1: NetworkTechnology::GIGABIT_ETHERNET,
                },
                ClusterSpec {
                    nodes: 96,
                    icn1: NetworkTechnology::MYRINET,
                    ecn1: NetworkTechnology::GIGABIT_ETHERNET,
                },
                ClusterSpec {
                    nodes: 64,
                    icn1: NetworkTechnology::INFINIBAND,
                    ecn1: NetworkTechnology::GIGABIT_ETHERNET,
                },
                ClusterSpec {
                    nodes: 16,
                    icn1: NetworkTechnology::FAST_ETHERNET,
                    ecn1: NetworkTechnology::FAST_ETHERNET,
                },
            ]),
        ),
    ];
    let mut rows = Vec::new();
    for (name, cfg) in systems {
        let analysis = cluster_of_clusters::evaluate(&cfg)?;
        let sim = FlowSimulator::run(
            &SimConfig::new(cfg)
                .with_messages(opts.messages)
                .with_warmup(opts.warmup)
                .with_seed(opts.seed)
                .with_quantiles(false)
                .with_center_stats(false),
        )?;
        rows.push(CocValidationRow {
            system: name,
            analysis_ms: analysis.mean_message_latency_us / 1e3,
            sim_ms: sim.mean_latency_ms(),
            analysis_lambda_eff: analysis.lambda_eff,
            sim_lambda_eff: sim.effective_lambda_per_us,
        });
    }
    Ok(rows)
}

/// One row of the operational-bounds experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundsRow {
    /// Cluster count.
    pub clusters: usize,
    /// Total service demand per message cycle (µs).
    pub d_total_us: f64,
    /// Bottleneck station demand (µs).
    pub d_max_us: f64,
    /// Saturation population N* = (d_total + Z)/d_max.
    pub saturation_population: f64,
    /// Operational upper bound on the effective per-processor rate.
    pub bound_lambda_eff: f64,
    /// The paper model's effective rate (eq. 7).
    pub model_lambda_eff: f64,
    /// Simulated effective rate.
    pub sim_lambda_eff: f64,
}

/// The `bounds` experiment: distribution-free operational bounds
/// (asymptotic bound analysis) versus the paper's fixed point and the
/// simulator, Case 1 non-blocking.
pub fn run_bounds(opts: &RunOptions) -> Result<Vec<BoundsRow>, ModelError> {
    use hmcs_core::routing::external_probability;
    use hmcs_core::service::ServiceTimes;
    use hmcs_queueing::operational;

    let mut rows = Vec::new();
    for &c in &PAPER_CLUSTER_COUNTS {
        let sys = SystemConfig::paper_preset(Scenario::Case1, c, Architecture::NonBlocking)?
            .with_lambda(opts.lambda_per_us);
        let st = ServiceTimes::compute(&sys)?;
        let p = external_probability(sys.clusters, sys.nodes_per_cluster);
        let n = sys.total_nodes() as f64;
        let cf = sys.clusters as f64;
        // Per-station demands (symmetric stations share the per-class
        // load evenly across the C clusters).
        let d_icn1 = (1.0 - p) * st.icn1_us / cf;
        let d_ecn1 = 2.0 * p * st.ecn1_us / cf;
        let d_icn2 = p * st.icn2_us;
        let d_total = cf * (d_icn1 + d_ecn1) + d_icn2;
        let d_max = d_icn1.max(d_ecn1).max(d_icn2);
        let z = 1.0 / sys.lambda_per_us;
        let x_bound = operational::throughput_upper_bound(n, d_total, d_max, z);
        let model = AnalyticalModel::evaluate(&sys)?;
        let sim_lambda = if opts.with_simulation {
            simcache::flow_run(
                &SimConfig::new(sys)
                    .with_messages(opts.messages)
                    .with_warmup(opts.warmup)
                    .with_seed(opts.seed)
                    .with_quantiles(false)
                    .with_center_stats(false),
            )?
            .effective_lambda_per_us
        } else {
            f64::NAN
        };
        rows.push(BoundsRow {
            clusters: c,
            d_total_us: d_total,
            d_max_us: d_max,
            saturation_population: operational::saturation_population(d_total, d_max, z),
            bound_lambda_eff: x_bound / n,
            model_lambda_eff: model.equilibrium.lambda_eff,
            sim_lambda_eff: sim_lambda,
        });
    }
    Ok(rows)
}

/// One row of Table 1 (network scenarios).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Table1Row {
    /// Case label.
    pub case: &'static str,
    /// ICN1 technology name.
    pub icn1: &'static str,
    /// ECN1/ICN2 technology name.
    pub ecn1_icn2: &'static str,
}

/// Regenerates Table 1 from the scenario presets.
pub fn table1() -> Vec<Table1Row> {
    [Scenario::Case1, Scenario::Case2]
        .iter()
        .map(|s| Table1Row { case: s.label(), icn1: s.icn1().name, ecn1_icn2: s.ecn1().name })
        .collect()
}

/// One row of Table 2 (model parameters).
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Parameter name.
    pub item: &'static str,
    /// Value as rendered in the paper.
    pub quantity: String,
    /// Unit.
    pub unit: &'static str,
}

/// Regenerates Table 2 from the presets actually used by the code.
pub fn table2() -> Vec<Table2Row> {
    let ge = NetworkTechnology::GIGABIT_ETHERNET;
    let fe = NetworkTechnology::FAST_ETHERNET;
    let sw = hmcs_topology::switch::SwitchFabric::paper_default();
    vec![
        Table2Row { item: "GE Latency", quantity: format!("{}", ge.latency_us), unit: "µs" },
        Table2Row {
            item: "GE Bandwidth",
            quantity: format!("{}", ge.bandwidth_mb_s),
            unit: "MB/s",
        },
        Table2Row { item: "FE Latency", quantity: format!("{}", fe.latency_us), unit: "µs" },
        Table2Row {
            item: "FE Bandwidth",
            quantity: format!("{}", fe.bandwidth_mb_s),
            unit: "MB/s",
        },
        Table2Row {
            item: "# of Ports in Switch Fabric (Pr)",
            quantity: format!("{}", sw.ports()),
            unit: "Port",
        },
        Table2Row { item: "Switch Latency", quantity: format!("{}", sw.latency_us()), unit: "µs" },
        Table2Row {
            item: "Msg. Generation rate (lambda)",
            quantity: "0.25".to_string(),
            unit: "/ms (figure-scale reading; Table 2 prints /s)",
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast() -> RunOptions {
        RunOptions { messages: 1_500, warmup: 300, ..Default::default() }
    }

    fn analysis_only() -> RunOptions {
        RunOptions { with_simulation: false, ..Default::default() }
    }

    #[test]
    fn figure_runner_covers_the_axis() {
        let data = run_figure(FIG4, &analysis_only()).unwrap();
        assert_eq!(data.rows.len(), 9);
        assert_eq!(data.rows[0].clusters, 1);
        assert_eq!(data.rows[8].clusters, 256);
        for row in &data.rows {
            assert!(row.analysis_512_ms > 0.0);
            assert!(row.analysis_1024_ms > row.analysis_512_ms);
            assert!(row.sim_512_ms.is_none());
        }
    }

    #[test]
    fn figure_with_simulation_fills_both_columns() {
        let data = run_figure(FIG4, &fast()).unwrap();
        for row in &data.rows {
            assert!(row.sim_512_ms.unwrap() > 0.0);
            assert!(row.sim_1024_ms.unwrap() > 0.0);
            assert!(row.worst_relative_error().unwrap() < 0.30);
        }
    }

    #[test]
    fn blocking_figures_dominate_nonblocking_figures() {
        let nb = run_figure(FIG4, &analysis_only()).unwrap();
        let bl = run_figure(FIG6, &analysis_only()).unwrap();
        for (a, b) in nb.rows.iter().zip(&bl.rows) {
            assert!(b.analysis_1024_ms > a.analysis_1024_ms, "C={}", a.clusters);
        }
    }

    #[test]
    fn claims_blocking_always_slower_and_mostly_in_paper_band() {
        let rows = run_claims(&analysis_only()).unwrap();
        assert_eq!(rows.len(), 18);
        for row in &rows {
            assert!(
                row.ratio() > 1.0,
                "{:?} C={}: blocking must be slower, ratio {}",
                row.scenario,
                row.clusters,
                row.ratio()
            );
        }
        // The paper reports 1.4x-3.1x; under our throttled equilibrium
        // the spread is wider (saturation amplifies the blocking
        // penalty at large C), but the bulk of the grid clears the
        // paper's 1.4x floor.
        let above_floor = rows.iter().filter(|r| r.ratio() >= 1.4).count();
        assert!(above_floor >= 16, "expected most ratios above 1.4x, got {above_floor}/18");
        let max = rows.iter().map(|r| r.ratio()).fold(0.0f64, f64::max);
        assert!(max > 3.0, "the upper end should reach the paper's 3.1x, got {max}");
    }

    #[test]
    fn accounting_ablation_shows_the_finding() {
        let opts = RunOptions { messages: 2_500, warmup: 500, ..Default::default() };
        let rows = run_ablation_accounting(&opts).unwrap();
        let c2 = rows.iter().find(|r| r.clusters == 2).unwrap();
        assert!(c2.literal_error() > 0.25, "literal should diverge at C=2");
        assert!(c2.single_error() < 0.10, "single-queue should track simulation");
    }

    #[test]
    fn coc_validation_agrees() {
        let opts = RunOptions { messages: 3_000, warmup: 600, ..Default::default() };
        let rows = run_coc_validation(&opts).unwrap();
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(
                r.latency_error() < 0.10,
                "{}: analysis {} vs sim {}",
                r.system,
                r.analysis_ms,
                r.sim_ms
            );
        }
    }

    #[test]
    fn bounds_envelope_model_and_simulation() {
        let opts = RunOptions { messages: 2_000, warmup: 400, ..Default::default() };
        let rows = run_bounds(&opts).unwrap();
        assert_eq!(rows.len(), 9);
        for r in &rows {
            assert!(
                r.model_lambda_eff <= r.bound_lambda_eff * 1.001,
                "C={}: model {:.3e} exceeds bound {:.3e}",
                r.clusters,
                r.model_lambda_eff,
                r.bound_lambda_eff
            );
            // Finite runs start from an empty system, so the ramp-up
            // window inflates delivered/time a few percent above the
            // steady-state bound (the paper's own 10,000-message runs
            // share this bias); allow 10%.
            assert!(
                r.sim_lambda_eff <= r.bound_lambda_eff * 1.10,
                "C={}: sim {:.3e} exceeds bound {:.3e}",
                r.clusters,
                r.sim_lambda_eff,
                r.bound_lambda_eff
            );
            assert!(r.d_max_us > 0.0 && r.d_total_us >= r.d_max_us);
        }
        // At saturation (large C) the bound is nearly tight for the
        // model.
        let last = rows.last().unwrap();
        assert!(last.model_lambda_eff > 0.9 * last.bound_lambda_eff);
    }

    #[test]
    fn table_rows_match_the_paper() {
        let t1 = table1();
        assert_eq!(t1[0].icn1, "Gigabit Ethernet");
        assert_eq!(t1[0].ecn1_icn2, "Fast Ethernet");
        assert_eq!(t1[1].icn1, "Fast Ethernet");
        let t2 = table2();
        assert_eq!(t2.len(), 7);
        assert_eq!(t2[0].quantity, "80");
        assert_eq!(t2[4].quantity, "24");
    }

    #[test]
    fn service_ablation_orders_by_scv() {
        let opts = RunOptions { messages: 2_000, warmup: 400, ..Default::default() };
        let rows = run_ablation_service(&opts).unwrap();
        assert_eq!(rows.len(), 4);
        for w in rows.windows(2) {
            assert!(w[0].scv < w[1].scv);
            assert!(w[0].analysis_ms < w[1].analysis_ms, "analysis latency must grow with SCV");
        }
    }
}
