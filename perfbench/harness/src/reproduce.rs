//! The `reproduce` workload's in-process half.
//!
//! `reproduce-layers` runs every artefact of `reproduce all` through the
//! `hmcs_bench` drivers in one fresh process, twice per artefact: first
//! as `reproduce all` runs it, then with `with_simulation: false` (the
//! analysis share). The simulation share is the difference. Sim cache
//! and simulator counters are read as before/after deltas of the
//! process-global metrics registry around the first legs only.
//!
//! `reproduce-check` judges a `reproduce all --csv` directory: the
//! golden diff and the claims registry. Goldens were recorded at
//! simulation seed 2005; at any other seed the two tables that describe
//! the seed-generated latency matrix itself (`topology_matrix`,
//! `topology_partition`) are expected to differ and are not counted.

use crate::sys::since;
use crate::trace::Tracer;
use crate::{Args, Obj};
use hmcs_bench::experiments::{self, RunOptions, ALL_FIGURES};
use hmcs_bench::topology::{self, TopologyOptions};
use hmcs_bench::{claims, golden};
use hmcs_core::batch::BatchOptions;
use hmcs_core::metrics::{self, MetricsSnapshot};
use hmcs_core::optimize::{self, Constraints, DesignSpace, OptimizeSpec, Workload};
use hmcs_core::scenario::{Scenario, PAPER_CLUSTER_COUNTS};
use hmcs_core::{sensitivity, SystemConfig};
use hmcs_sim::replication::SimBudget;
use hmcs_topology::transmission::Architecture;
use std::path::Path;
use std::time::Instant;

/// The seed the committed goldens were generated with.
const GOLDEN_SEED: u64 = 2005;

/// Artefacts whose golden tables describe the seed-generated topology.
const SEED_GENERATED: [&str; 2] = ["topology_matrix", "topology_partition"];

/// The optimize artefact's three variants, as `reproduce optimize`
/// builds them with its default SLO (30 ms) and budget ($60,000).
fn optimize_variants(lambda_per_us: f64) -> Vec<OptimizeSpec> {
    let mut workload = Workload::paper_default();
    workload.lambda_per_us = lambda_per_us;
    let mut strict = workload;
    strict.lambda_per_us = lambda_per_us / 10.0;
    let slo = Some(30_000.0);
    let spec = |workload, constraints| OptimizeSpec {
        workload,
        constraints,
        space: DesignSpace::paper_default(workload.total_nodes),
    };
    vec![
        spec(workload, Constraints { slo_latency_us: slo, ..Default::default() }),
        spec(
            workload,
            Constraints { slo_latency_us: slo, budget_usd: Some(60_000.0), ..Default::default() },
        ),
        spec(
            strict,
            Constraints { slo_latency_us: slo, require_unsaturated: true, ..Default::default() },
        ),
    ]
}

fn optimize_artefact(opts: &RunOptions) -> Result<(), String> {
    for spec in optimize_variants(opts.lambda_per_us) {
        optimize::optimize(&spec, BatchOptions::default()).map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn sensitivity_artefact(opts: &RunOptions) -> Result<(), String> {
    for arch in [Architecture::NonBlocking, Architecture::Blocking] {
        for &clusters in &PAPER_CLUSTER_COUNTS {
            let config = SystemConfig::paper_preset(Scenario::Case1, clusters, arch)
                .map_err(|e| e.to_string())?
                .with_lambda(opts.lambda_per_us);
            sensitivity::evaluate(&config).map_err(|e| e.to_string())?;
            sensitivity::lambda_for_latency(&config, 30_000.0).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// Runs one artefact's driver call; `Ok(())` or the driver's error.
fn drive(artefact: &str, opts: &RunOptions) -> Result<(), String> {
    let e = |e: hmcs_core::ModelError| e.to_string();
    match artefact {
        "table1" => drop(experiments::table1()),
        "table2" => drop(experiments::table2()),
        "claims" => drop(experiments::run_claims(opts).map_err(e)?),
        "ablation-accounting" => drop(experiments::run_ablation_accounting(opts).map_err(e)?),
        "ablation-hops" => drop(experiments::run_ablation_hops(opts).map_err(e)?),
        "ablation-service" => drop(experiments::run_ablation_service(opts).map_err(e)?),
        "packet" => drop(experiments::run_packet_validation(opts).map_err(e)?),
        "coc" => drop(experiments::run_coc_validation(opts).map_err(e)?),
        "bounds" => drop(experiments::run_bounds(opts).map_err(e)?),
        "optimize" => optimize_artefact(opts)?,
        "sensitivity" => sensitivity_artefact(opts)?,
        fig => {
            let spec = ALL_FIGURES
                .into_iter()
                .find(|s| s.id == fig)
                .ok_or_else(|| format!("unknown artefact {fig}"))?;
            drop(experiments::run_figure(spec, opts).map_err(e)?);
        }
    }
    Ok(())
}

/// `reproduce all`'s artefacts in its order; `topology` runs last.
const ARTEFACTS: [&str; 15] = [
    "table1",
    "table2",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "claims",
    "ablation-accounting",
    "ablation-hops",
    "ablation-service",
    "packet",
    "coc",
    "bounds",
    "optimize",
    "sensitivity",
];

/// Artefacts with no simulation column: one call is all the analysis.
const ANALYSIS_ONLY: [&str; 4] = ["table1", "table2", "optimize", "sensitivity"];

/// Registry counters and histogram sums read around the legs that run
/// as `reproduce all` runs them.
const COUNTERS: [&str; 4] = [
    "bench.sim_cache.hits",
    "bench.sim_cache.misses",
    "sim.flow.events_processed",
    "sim.packet.events_processed",
];
const HISTOGRAMS: [&str; 2] = ["sim.shard.busy_us", "sim.shard.idle_us"];

/// Before/after deltas of [`COUNTERS`] then [`HISTOGRAMS`], summed.
#[derive(Default)]
struct Deltas([u64; 6]);

impl Deltas {
    fn around<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let before = metrics::global().snapshot();
        let out = f();
        let after = metrics::global().snapshot();
        let counter = |s: &MetricsSnapshot, k: &str| s.counters.get(k).copied().unwrap_or(0);
        let sum = |s: &MetricsSnapshot, k: &str| s.histograms.get(k).map_or(0, |h| h.sum);
        for (i, k) in COUNTERS.iter().enumerate() {
            self.0[i] += counter(&after, k) - counter(&before, k);
        }
        for (i, k) in HISTOGRAMS.iter().enumerate() {
            self.0[COUNTERS.len() + i] += sum(&after, k) - sum(&before, k);
        }
        out
    }
}

pub fn layers(args: &Args) -> Result<String, String> {
    let seed: u64 = args.num("sim-seed")?;
    let budget = SimBudget::from_env();
    let (messages, warmup) = budget.single_run();
    let full = RunOptions { messages, warmup, seed, ..RunOptions::default() };
    // Drivers that simulate regardless of `with_simulation` (the CoC
    // validation) get a two-message budget in the analysis leg, so that
    // leg stays analysis.
    let analysis = RunOptions { with_simulation: false, messages: 2, warmup: 0, ..full };
    let mut tracer = Tracer::new(args.flag("trace"));
    let mut deltas = Deltas::default();

    let start = Instant::now();
    let mut rows = Vec::new();
    for artefact in ARTEFACTS {
        let name = |leg: &str| format!("reproduce.{artefact}.{leg}");
        let t = Instant::now();
        deltas.around(|| tracer.span(name("full"), 1, |_| drive(artefact, &full)))?;
        let full_s = since(t);
        if ANALYSIS_ONLY.contains(&artefact) {
            rows.push(Obj::default().num("analysis_s", full_s).num("sim_s", 0.0));
            continue;
        }
        // Every simulation the artefact asks for is in the sim cache by
        // now, so this leg costs its analysis plus cache lookups.
        let t = Instant::now();
        tracer.span(name("analysis"), 1, |_| drive(artefact, &analysis))?;
        let analysis_s = since(t);
        let sim_s = (full_s - analysis_s).max(0.0);
        rows.push(Obj::default().num("analysis_s", analysis_s).num("sim_s", sim_s));
    }
    // The topology pipeline times its own identify and sharded-sim
    // stages; everything else in it (generate, fit, analytic) is
    // analysis.
    let t = Instant::now();
    let cases = deltas
        .around(|| {
            tracer.span("reproduce.topology.full", 1, |_| {
                topology::run_topology(&TopologyOptions { seed, budget })
            })
        })
        .map_err(|e| e.to_string())?;
    let topology_s = since(t);
    let sim_s: f64 = cases.iter().map(|c| c.sim_wall_s).sum();
    let identify_s: f64 = cases.iter().map(|c| c.identify_wall_s).sum();
    let nodes: usize = cases.iter().map(|c| c.nodes).sum();
    rows.push(Obj::default().num("analysis_s", topology_s - sim_s).num("sim_s", sim_s));
    let total_s = since(start);

    let mut artefacts = Obj::default();
    for (name, row) in ARTEFACTS.iter().chain(&["topology"]).zip(rows) {
        artefacts = artefacts.raw(name, row.finish());
    }
    let [hits, misses, flow, packet, busy, idle] = deltas.0;
    Ok(Obj::default()
        .num("total_s", total_s)
        .int("sim_seed", seed)
        .raw("artefacts", artefacts.finish())
        .int("simcache_hits", hits)
        .int("simcache_misses", misses)
        .int("flow_events", flow)
        .int("packet_events", packet)
        .int("shard_busy_us", busy)
        .int("shard_idle_us", idle)
        .int("identify_nodes", nodes as u64)
        .num("identify_s", identify_s)
        .finish())
}

pub fn check(args: &Args) -> Result<String, String> {
    let dir = Path::new(args.str("dir")?);
    let golden_dir = Path::new(args.str("golden")?);
    let all_goldens = args.num::<u64>("sim-seed")? == GOLDEN_SEED;
    let report = golden::check_dir(golden_dir, dir)?;
    let (mut counted, mut ignored) = (0u64, 0u64);
    for artefact in &report.artefacts {
        let seed_generated =
            SEED_GENERATED.iter().any(|a| artefact.artefact.trim_end_matches(".csv") == *a);
        let diffs = artefact.diffs.len() as u64;
        if all_goldens || !seed_generated {
            counted += diffs;
        } else {
            ignored += diffs;
        }
    }
    let claims = claims::evaluate_dir(dir)?;
    let claims_failed = claims.iter().filter(|c| !c.passed).count() as u64;
    Ok(Obj::default()
        .int("artefacts", report.artefacts.len() as u64)
        .int("golden_diffs", counted)
        .int("golden_diffs_ignored", ignored)
        .int("claims", claims.len() as u64)
        .int("claims_failed", claims_failed)
        .finish())
}
