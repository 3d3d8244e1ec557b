//! Independent replications with confidence intervals.
//!
//! The paper reports single 10,000-message runs; for tighter output
//! analysis this module runs `R` replications with different seeds and
//! summarises the replication means, the textbook method for
//! simulation output analysis. Replications are embarrassingly
//! parallel, but rather than one thread per replication they run on
//! the shared bounded pool ([`hmcs_core::batch`]), so asking for 200
//! replications on a 4-core box spawns 4 workers, not 200 threads.
//! Each replication's seed is fixed by its index, so the summary is
//! deterministic regardless of the worker count.

use crate::config::SimConfig;
use crate::flow::{FlowSimInstance, HopDelays};
use crate::metrics_keys;
use crate::packet::PacketSimInstance;
use crate::result::SimResult;
use hmcs_core::batch::{par_map_init, BatchOptions};
use hmcs_core::error::ModelError;
use hmcs_core::metrics;
use hmcs_des::stats::{confidence_interval, OnlineStats};
use std::time::Instant;

/// A named simulation budget: how many messages (and replications,
/// where applicable) validation runs spend per point.
///
/// The paper's budget (10,000 measured messages after 2,000 warm-up)
/// is the default everywhere. CI gates run the same experiments under
/// the reduced [`SimBudget::Ci`] budget so the whole golden-artefact
/// job finishes in minutes; the tolerances in `results/GOLDEN.toml`
/// are calibrated against the extra sampling noise this introduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimBudget {
    /// The paper's budget: 10,000 measured messages, 2,000 warm-up,
    /// 5 replications where replication is used.
    #[default]
    Paper,
    /// Reduced CI budget: 2,500 measured messages, 500 warm-up,
    /// 3 replications. Sim columns get ~2–8% noisier than under
    /// [`SimBudget::Paper`].
    Ci,
}

/// The concrete run sizes a [`SimBudget`] stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicationPlan {
    /// Independent replications per point.
    pub replications: u32,
    /// Measured messages per replication.
    pub messages: u64,
    /// Warm-up messages discarded per replication.
    pub warmup: u64,
}

impl SimBudget {
    /// Reads `HMCS_SIM_BUDGET` (`paper` | `ci`, case-insensitive;
    /// unset or empty means `paper`). Unknown values fall back to
    /// `paper` with a warn-once note in the metrics registry, so a
    /// typo in a CI workflow degrades to the *more* rigorous budget.
    pub fn from_env() -> SimBudget {
        match std::env::var("HMCS_SIM_BUDGET") {
            Err(_) => SimBudget::Paper,
            Ok(v) => match v.trim().to_ascii_lowercase().as_str() {
                "" | "paper" | "full" => SimBudget::Paper,
                "ci" | "reduced" => SimBudget::Ci,
                other => {
                    metrics::warn_once(
                        "sim.budget.env",
                        format!("HMCS_SIM_BUDGET={other:?} not recognised; using paper budget"),
                    );
                    SimBudget::Paper
                }
            },
        }
    }

    /// The replication plan for this budget.
    pub fn plan(self) -> ReplicationPlan {
        match self {
            SimBudget::Paper => {
                ReplicationPlan { replications: 5, messages: 10_000, warmup: 2_000 }
            }
            SimBudget::Ci => ReplicationPlan { replications: 3, messages: 2_500, warmup: 500 },
        }
    }

    /// `(messages, warmup)` for single-run (non-replicated)
    /// experiments, e.g. the `reproduce` figure sims.
    pub fn single_run(self) -> (u64, u64) {
        let plan = self.plan();
        (plan.messages, plan.warmup)
    }
}

/// Which simulator to replicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Simulator {
    /// The flow-level simulator ([`crate::flow`]).
    Flow,
    /// The packet-level simulator ([`crate::packet`]).
    Packet,
}

/// One worker's reusable simulator instance.
#[derive(Debug)]
enum Instance<'h> {
    Flow(FlowSimInstance<'h>),
    Packet(PacketSimInstance),
}

impl Instance<'_> {
    fn run(&mut self, seed: u64) -> SimResult {
        match self {
            Instance::Flow(i) => i.run(seed),
            Instance::Packet(i) => i.run(seed),
        }
    }
}

/// Summary over independent replications.
#[derive(Debug, Clone)]
pub struct ReplicationSummary {
    /// Per-replication results, in seed order.
    pub replications: Vec<SimResult>,
    /// Statistics of the replication mean latencies (µs).
    pub latency_means: OnlineStats,
    /// Statistics of the replication effective rates (msg/µs per node).
    pub effective_lambdas: OnlineStats,
}

impl ReplicationSummary {
    /// Grand mean latency across replications (µs).
    pub fn mean_latency_us(&self) -> f64 {
        self.latency_means.mean()
    }

    /// 95% confidence half-width of the grand mean (µs), from the
    /// replication means.
    pub fn latency_ci95_us(&self) -> f64 {
        confidence_interval(&self.latency_means, 0.95)
    }

    /// Grand mean effective per-processor rate.
    pub fn mean_effective_lambda(&self) -> f64 {
        self.effective_lambdas.mean()
    }
}

/// Runs `replications` independent runs of `simulator`, seeding
/// replication `i` with `base.seed + i`, on the shared worker pool.
pub fn run_replications(
    base: &SimConfig,
    simulator: Simulator,
    replications: u32,
) -> Result<ReplicationSummary, ModelError> {
    run_replications_with(base, simulator, replications, BatchOptions::default())
}

/// [`run_replications`] with an explicit worker policy.
pub(crate) fn run_replications_with(
    base: &SimConfig,
    simulator: Simulator,
    replications: u32,
    options: BatchOptions,
) -> Result<ReplicationSummary, ModelError> {
    replicate(base, replications, options, || {
        Ok(match simulator {
            Simulator::Flow => Instance::Flow(FlowSimInstance::new(base)?),
            Simulator::Packet => Instance::Packet(PacketSimInstance::new(base)?),
        })
    })
}

/// `run_replications_with` on the flow simulator with every message's
/// ICN1 or ICN2 mean modulated by a latency matrix's per-pair residuals
/// (see [`FlowSimInstance::with_hops`] for the errors `hops` can raise).
pub fn run_modulated_replications(
    base: &SimConfig,
    hops: HopDelays<'_>,
    replications: u32,
    options: BatchOptions,
) -> Result<ReplicationSummary, ModelError> {
    replicate(base, replications, options, || {
        FlowSimInstance::with_hops(base, hops).map(Instance::Flow)
    })
}

/// Runs `replications` seeds of the instances `new_instance` builds,
/// one per worker, seeding replication `i` with `base.seed + i`.
fn replicate<'h>(
    base: &SimConfig,
    replications: u32,
    options: BatchOptions,
    new_instance: impl Fn() -> Result<Instance<'h>, ModelError> + Sync,
) -> Result<ReplicationSummary, ModelError> {
    if replications == 0 {
        return Err(ModelError::InvalidConfig {
            name: "replications",
            reason: "need at least one replication",
        });
    }
    base.validate()?;
    metrics::counter(metrics_keys::REPLICATION_BATCHES).incr();
    let seeds: Vec<u64> = (0..replications).map(|i| base.seed.wrapping_add(u64::from(i))).collect();
    // Each worker builds one simulator instance lazily on its first
    // replication and reuses it (via the bit-identical `reset(seed)`
    // path) for every further replication it claims, so fabric and
    // routing-table construction is paid once per worker, not once per
    // replication.
    let results = par_map_init(
        &seeds,
        options.resolved_workers(),
        || None,
        |instance: &mut Option<Instance>, &seed| -> Result<SimResult, ModelError> {
            let started = Instant::now();
            let instance = match instance {
                Some(i) => i,
                None => instance.insert(new_instance()?),
            };
            let result = instance.run(seed);
            // Wall-clock only: observes the run, never feeds back into
            // it, so the summary stays deterministic in seed order.
            metrics::counter(metrics_keys::REPLICATION_RUNS).incr();
            metrics::histogram(metrics_keys::REPLICATION_WALL_US)
                .record_f64(started.elapsed().as_secs_f64() * 1e6);
            Ok(result)
        },
    );
    let mut replication_results = Vec::with_capacity(replications as usize);
    let mut latency_means = OnlineStats::new();
    let mut effective_lambdas = OnlineStats::new();
    for result in results {
        let result = result?;
        latency_means.record(result.mean_latency_us);
        effective_lambdas.record(result.effective_lambda_per_us);
        replication_results.push(result);
    }
    Ok(ReplicationSummary { replications: replication_results, latency_means, effective_lambdas })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmcs_core::config::SystemConfig;
    use hmcs_core::scenario::Scenario;
    use hmcs_topology::transmission::Architecture;

    fn base() -> SimConfig {
        let system =
            SystemConfig::paper_preset(Scenario::Case1, 8, Architecture::NonBlocking).unwrap();
        SimConfig::new(system).with_messages(800).with_seed(100)
    }

    #[test]
    fn replications_differ_but_agree_statistically() {
        let summary = run_replications(&base(), Simulator::Flow, 4).unwrap();
        assert_eq!(summary.replications.len(), 4);
        // Different seeds produce different sample paths...
        let mean0 = summary.replications[0].mean_latency_us;
        let mean1 = summary.replications[1].mean_latency_us;
        assert_ne!(mean0, mean1);
        // ...but the replication spread is moderate.
        let ci = summary.latency_ci95_us();
        assert!(ci < summary.mean_latency_us(), "CI {ci} vs mean {}", summary.mean_latency_us());
        assert!(summary.mean_effective_lambda() > 0.0);
    }

    #[test]
    fn reused_instances_match_independent_runs_exactly() {
        // The pool reuses one simulator per worker through
        // `reset(seed)`; every replication must still equal a fresh
        // standalone run of the same seed, bit for bit.
        use crate::flow::FlowSimulator;
        use crate::packet::PacketSimulator;
        let base = base();
        for (simulator, n) in [(Simulator::Flow, 3u32), (Simulator::Packet, 2u32)] {
            let summary =
                run_replications_with(&base, simulator, n, BatchOptions::with_workers(2)).unwrap();
            for (i, rep) in summary.replications.iter().enumerate() {
                let cfg = base.with_seed(base.seed.wrapping_add(i as u64));
                let fresh = match simulator {
                    Simulator::Flow => FlowSimulator::run(&cfg).unwrap(),
                    Simulator::Packet => PacketSimulator::run(&cfg).unwrap(),
                };
                assert_eq!(rep, &fresh, "{simulator:?} replication {i}");
            }
        }
    }

    #[test]
    fn replication_summary_is_deterministic() {
        let a = run_replications(&base(), Simulator::Flow, 3).unwrap();
        let b = run_replications(&base(), Simulator::Flow, 3).unwrap();
        assert_eq!(a.mean_latency_us(), b.mean_latency_us());
    }

    #[test]
    fn worker_count_does_not_change_the_summary() {
        // Seeds are fixed by replication index, so the pool size (and
        // hence scheduling order) must not affect any reported number.
        let seq =
            run_replications_with(&base(), Simulator::Flow, 4, BatchOptions::sequential()).unwrap();
        let par = run_replications_with(&base(), Simulator::Flow, 4, BatchOptions::with_workers(4))
            .unwrap();
        assert_eq!(seq.mean_latency_us(), par.mean_latency_us());
        assert_eq!(seq.latency_ci95_us(), par.latency_ci95_us());
        for (a, b) in seq.replications.iter().zip(&par.replications) {
            assert_eq!(a.mean_latency_us, b.mean_latency_us);
            assert_eq!(a.effective_lambda_per_us, b.effective_lambda_per_us);
        }
    }

    #[test]
    fn zero_replications_rejected() {
        assert!(run_replications(&base(), Simulator::Flow, 0).is_err());
    }

    #[test]
    fn budget_presets_are_ordered() {
        let paper = SimBudget::Paper.plan();
        let ci = SimBudget::Ci.plan();
        assert!(ci.messages < paper.messages);
        assert!(ci.warmup < paper.warmup);
        assert!(ci.replications <= paper.replications);
        assert_eq!(SimBudget::Paper.single_run(), (10_000, 2_000));
        assert_eq!(SimBudget::Ci.single_run(), (2_500, 500));
        assert_eq!(SimBudget::default(), SimBudget::Paper);
    }

    #[test]
    fn packet_simulator_replicates_too() {
        let cfg = base().with_messages(300);
        let summary = run_replications(&cfg, Simulator::Packet, 2).unwrap();
        assert_eq!(summary.replications.len(), 2);
        assert!(summary.mean_latency_us() > 0.0);
    }
}
