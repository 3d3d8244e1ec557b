//! `reproduce` — regenerates every table and figure of the paper,
//! and checks generated artefacts against the committed goldens.
//!
//! ```text
//! reproduce <artefact>... [options]      regenerate artefacts
//! reproduce check DIR [--golden GDIR]    diff DIR against goldens and
//!                                        evaluate the claims registry
//! reproduce fuzz [--cases N] [--seed N]  differential model-vs-sim fuzz
//!
//! Options:
//!   --messages N      measured messages per simulation run   [10000]
//!   --warmup N        warm-up messages discarded             [2000]
//!   --seed N          master RNG seed                        [2005]
//!   --lambda-literal  use Table 2's literal 0.25 msg/s
//!                     (default: 0.25 msg/ms, the figure-scale reading)
//!   --no-sim          analysis only (skip simulation columns)
//!   --csv DIR         also write CSV files into DIR, each with a
//!                     sibling manifest_<artefact>.json recording run
//!                     provenance (seed, λ-unit mode, solver histograms)
//!   --metrics         print the process-global metrics snapshot at the
//!                     end (also: HMCS_METRICS=1)
//!
//! `HMCS_SIM_BUDGET=ci` shrinks the default simulation budget (messages,
//! warm-up, fuzz replications) to the reduced CI preset; explicit
//! `--messages`/`--warmup` flags still win.
//! ```
//!
//! Every artefact is one entry of the ordered [`ARTEFACTS`] registry: a
//! name and a function from the parsed options to the [`Table`]s it
//! produces. The registry alone drives `reproduce NAME`, the `figs` and
//! `all` selectors, the artefact line of `--help` and the up-front
//! rejection of unknown names. One emitter, [`emit`], prints every
//! table, writes each as `<stem>.csv` under `--csv` together with the
//! artefact's `manifest_<artefact>.json`, and then runs the artefact's
//! `--opt-bench`/`--topo-bench` summary if one was asked for.

use hmcs_bench::experiments::{self, FigureData, FigureSpec, RunOptions, FIG4, FIG5, FIG6, FIG7};
use hmcs_bench::manifest;
use hmcs_bench::report::{
    eval_stats_line, ms, opt_ms, ratio, render_table, write_atomic, write_csv,
};
use hmcs_bench::topology::{self, TopologyOptions};
use hmcs_bench::{claims, differential, golden, identfuzz};
use hmcs_core::batch::BatchOptions;
use hmcs_core::json::json_num;
use hmcs_core::optimize::{self, Constraints, DesignSpace, OptimizeSpec, Workload};
use hmcs_core::scenario::{Scenario, PAPER_CLUSTER_COUNTS, PAPER_LAMBDA_LITERAL_PER_US};
use hmcs_core::sensitivity;
use hmcs_core::SystemConfig;
use hmcs_sim::replication::SimBudget;
use hmcs_topology::transmission::Architecture;
use std::error::Error;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Cli {
    artefacts: Vec<Artefact>,
    opts: RunOptions,
    budget: SimBudget,
    csv_dir: Option<PathBuf>,
    print_metrics: bool,
    slo_ms: Option<f64>,
    budget_usd: Option<f64>,
    opt_bench: Option<PathBuf>,
    topo_bench: Option<PathBuf>,
}

enum Command {
    /// Regenerate artefacts (the original mode).
    Emit(Cli),
    /// Diff a candidate directory against the goldens + claims registry.
    Check { candidate: PathBuf, golden: PathBuf },
    /// Differential model-vs-simulation fuzzing.
    Fuzz(differential::FuzzOptions),
    /// Seeded round-trip fuzzing of the cluster-identification pass.
    IdentFuzz(identfuzz::IdentFuzzOptions),
}

fn metrics_env_requested() -> bool {
    std::env::var("HMCS_METRICS")
        .map(|v| matches!(v.trim(), "1" | "true" | "yes" | "on"))
        .unwrap_or(false)
}

/// Parses the value that follows `flag` on the command line.
fn flag_value<T>(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<T, String>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
    value.parse().map_err(|e| format!("{flag}: {e}"))
}

fn parse_args() -> Result<Command, String> {
    let mut artefacts = Vec::new();
    let mut opts = RunOptions::default();
    // The env-selected budget seeds the defaults; explicit flags win.
    let budget = SimBudget::from_env();
    let (messages, warmup) = budget.single_run();
    opts.messages = messages;
    opts.warmup = warmup;
    let mut csv_dir: Option<PathBuf> = None;
    let mut golden_dir: Option<PathBuf> = None;
    let mut fuzz_cases: Option<u32> = None;
    let mut slo_ms: Option<f64> = None;
    let mut budget_usd: Option<f64> = None;
    let mut opt_bench: Option<PathBuf> = None;
    let mut topo_bench: Option<PathBuf> = None;
    let mut print_metrics = metrics_env_requested();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--messages" => opts.messages = flag_value(&mut args, &arg)?,
            "--warmup" => opts.warmup = flag_value(&mut args, &arg)?,
            "--seed" => opts.seed = flag_value(&mut args, &arg)?,
            "--lambda-literal" => opts.lambda_per_us = PAPER_LAMBDA_LITERAL_PER_US,
            "--no-sim" => opts.with_simulation = false,
            "--csv" => csv_dir = Some(flag_value(&mut args, &arg)?),
            "--golden" => golden_dir = Some(flag_value(&mut args, &arg)?),
            "--cases" => fuzz_cases = Some(flag_value(&mut args, &arg)?),
            "--slo-ms" => slo_ms = Some(flag_value(&mut args, &arg)?),
            "--budget-usd" => budget_usd = Some(flag_value(&mut args, &arg)?),
            "--opt-bench" => opt_bench = Some(flag_value(&mut args, &arg)?),
            "--topo-bench" => topo_bench = Some(flag_value(&mut args, &arg)?),
            "--metrics" => print_metrics = true,
            "--help" | "-h" => {
                println!("{}", help());
                std::process::exit(0);
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown option {other}"));
            }
            other => artefacts.push(other.to_string()),
        }
    }
    match artefacts.first().map(String::as_str) {
        Some("check") => {
            let candidate = match artefacts.as_slice() {
                [_, dir] => PathBuf::from(dir),
                _ => return Err("usage: reproduce check DIR [--golden GDIR]".to_string()),
            };
            let golden = golden_dir.unwrap_or_else(|| PathBuf::from("results"));
            return Ok(Command::Check { candidate, golden });
        }
        Some("fuzz") => {
            if artefacts.len() > 1 {
                return Err("usage: reproduce fuzz [--cases N] [--seed N]".to_string());
            }
            let defaults = differential::FuzzOptions::default();
            return Ok(Command::Fuzz(differential::FuzzOptions {
                cases: fuzz_cases.unwrap_or(defaults.cases),
                seed: opts.seed,
                budget,
            }));
        }
        Some("identfuzz") => {
            if artefacts.len() > 1 {
                return Err("usage: reproduce identfuzz [--cases N] [--seed N]".to_string());
            }
            let defaults = identfuzz::IdentFuzzOptions::default();
            return Ok(Command::IdentFuzz(identfuzz::IdentFuzzOptions {
                cases: fuzz_cases.unwrap_or(defaults.cases),
                seed: opts.seed,
            }));
        }
        _ => {}
    }
    if golden_dir.is_some() {
        return Err("--golden only applies to `reproduce check`".to_string());
    }
    if fuzz_cases.is_some() {
        return Err("--cases only applies to `reproduce fuzz`/`identfuzz`".to_string());
    }
    if artefacts.is_empty() {
        return Err("no artefact given; try --help".to_string());
    }
    let mut selected = Vec::new();
    for name in &artefacts {
        let len = selected.len();
        selected.extend(select(name));
        if selected.len() == len {
            return Err(format!("unknown artefact {name}"));
        }
    }
    let runs = |name: &str| selected.iter().any(|(n, _)| *n == name);
    if opt_bench.is_some() && !runs("optimize") {
        return Err("--opt-bench only applies to `reproduce optimize`/`all`".to_string());
    }
    if topo_bench.is_some() && !runs("topology") {
        return Err("--topo-bench only applies to `reproduce topology`/`all`".to_string());
    }
    Ok(Command::Emit(Cli {
        artefacts: selected,
        opts,
        budget,
        csv_dir,
        print_metrics,
        slo_ms,
        budget_usd,
        opt_bench,
        topo_bench,
    }))
}

/// The `--help` text; its artefact line lists the registry.
fn help() -> String {
    let mut lines = vec![String::from("  artefacts:")];
    for name in ARTEFACTS.iter().map(|(name, _)| *name).chain(["figs", "all"]) {
        if lines.last().is_some_and(|line| line.len() + 1 + name.len() > 80) {
            lines.push(" ".repeat(12));
        }
        let line = lines.last_mut().expect("at least one line");
        line.push(' ');
        line.push_str(name);
    }
    format!(
        "reproduce — regenerate the ICPPW'05 paper's tables and figures\n{}\n{HELP_TAIL}",
        lines.join("\n")
    )
}

/// `--help` after the artefact line; kept as one literal so the column
/// indentation survives.
const HELP_TAIL: &str =
    "  checking:  check DIR [--golden GDIR]   diff DIR against the goldens (default results/)
             fuzz [--cases N] [--seed N] differential model-vs-sim fuzzing
             identfuzz [--cases N] [--seed N] latency-matrix identify round-trip fuzzing
  options:   --messages N --warmup N --seed N --lambda-literal --no-sim --csv DIR
             --metrics (or HMCS_METRICS=1); HMCS_SIM_BUDGET=ci shrinks sim budgets
  optimize:  --slo-ms X (default 30) --budget-usd Y (default 60000)
             --opt-bench PATH (write an hmcs-optimize-bench/1 throughput summary)
  topology:  --topo-bench PATH (write an hmcs-topology-bench/1 pipeline summary)";

/// An artefact: its name (also its manifest's) and the function that
/// computes its tables.
type Artefact = (&'static str, fn(&Cli) -> Result<Output, Box<dyn Error>>);

/// Every artefact, in the order `all` runs them.
const ARTEFACTS: &[Artefact] = &[
    ("table1", table1),
    ("table2", table2),
    ("fig4", |cli| figure(FIG4, cli)),
    ("fig5", |cli| figure(FIG5, cli)),
    ("fig6", |cli| figure(FIG6, cli)),
    ("fig7", |cli| figure(FIG7, cli)),
    ("claims", claims_ratio),
    ("ablation-accounting", ablation_accounting),
    ("ablation-hops", ablation_hops),
    ("ablation-service", ablation_service),
    ("packet", packet),
    ("coc", coc),
    ("bounds", bounds),
    ("optimize", optimize_frontiers),
    ("sensitivity", sensitivity_sweep),
    ("topology", topology_pipeline),
];

/// The registry entries one requested name selects: `all` selects
/// every artefact, `figs` every figure, any other name itself.
fn select(name: &str) -> impl Iterator<Item = &'static Artefact> + '_ {
    ARTEFACTS.iter().filter(move |(artefact, _)| match name {
        "all" => true,
        "figs" => artefact.starts_with("fig"),
        _ => *artefact == name,
    })
}

/// One table of an artefact: printed under `title`, written as
/// `<stem>.csv`, and followed on stdout by `note` and a blank line.
struct Table {
    stem: &'static str,
    title: String,
    headers: &'static [&'static str],
    rows: Vec<Vec<String>>,
    note: Option<String>,
}

impl Table {
    fn new(
        stem: &'static str,
        title: impl Into<String>,
        headers: &'static [&'static str],
        rows: Vec<Vec<String>>,
    ) -> Self {
        Table { stem, title: title.into(), headers, rows, note: None }
    }

    fn with_note(self, note: String) -> Self {
        Table { note: Some(note), ..self }
    }
}

/// A deferred bench-summary writer.
type Bench = Box<dyn FnOnce() -> Result<(), String>>;

/// What an artefact hands to [`emit`].
#[derive(Default)]
struct Output {
    tables: Vec<Table>,
    /// A figure's data, whose solver histograms go into the manifest.
    figure: Option<FigureData>,
    /// The `--opt-bench`/`--topo-bench` summary, run after the manifest.
    bench: Option<Bench>,
}

impl From<Table> for Output {
    fn from(table: Table) -> Self {
        Output { tables: vec![table], ..Output::default() }
    }
}

/// Runs one artefact, prints its tables, writes their CSVs and the
/// artefact's manifest under `--csv`, then runs its bench summary.
fn emit(cli: &Cli, (name, artefact): &Artefact) -> Result<(), String> {
    let output = artefact(cli).map_err(|e| e.to_string())?;
    for table in &output.tables {
        println!("{}", render_table(&table.title, table.headers, &table.rows));
        if let Some(note) = &table.note {
            println!("{note}\n");
        }
    }
    if let Some(dir) = &cli.csv_dir {
        for table in &output.tables {
            write_csv(&dir.join(format!("{}.csv", table.stem)), table.headers, &table.rows)
                .map_err(|e| e.to_string())?;
        }
        let workers = BatchOptions::default().resolved_workers();
        manifest::write_manifest(dir, name, &cli.opts, workers, output.figure.as_ref())
            .map_err(|e| format!("manifest_{name}.json: {e}"))?;
    }
    output.bench.map_or(Ok(()), |bench| bench())
}

fn table1(_: &Cli) -> Result<Output, Box<dyn Error>> {
    let rows = experiments::table1()
        .iter()
        .map(|r| vec![r.case.to_string(), r.icn1.to_string(), r.ecn1_icn2.to_string()])
        .collect();
    let title = "Table 1 — Two Scenarios of Communication Networks";
    Ok(Table::new("table1", title, &["Cases", "ICN1", "ECN1 and ICN2"], rows).into())
}

fn table2(_: &Cli) -> Result<Output, Box<dyn Error>> {
    let rows = experiments::table2()
        .iter()
        .map(|r| vec![r.item.to_string(), r.quantity.clone(), r.unit.to_string()])
        .collect();
    let title = "Table 2 — Model Parameters";
    Ok(Table::new("table2", title, &["Items", "Quantity", "Unit"], rows).into())
}

fn figure(spec: FigureSpec, cli: &Cli) -> Result<Output, Box<dyn Error>> {
    let data = experiments::run_figure(spec, &cli.opts)?;
    let headers = &[
        "clusters",
        "analysis M=512 (ms)",
        "sim M=512 (ms)",
        "analysis M=1024 (ms)",
        "sim M=1024 (ms)",
        "worst err",
    ];
    let rows = data
        .rows
        .iter()
        .map(|r| {
            vec![
                r.clusters.to_string(),
                ms(r.analysis_512_ms),
                opt_ms(r.sim_512_ms),
                ms(r.analysis_1024_ms),
                opt_ms(r.sim_1024_ms),
                r.worst_relative_error()
                    .map(|e| format!("{:.1}%", e * 100.0))
                    .unwrap_or_else(|| "-".to_string()),
            ]
        })
        .collect();
    let title = format!("{} — {}", spec.id, spec.caption);
    let table =
        Table::new(spec.id, title, headers, rows).with_note(eval_stats_line(&data.analysis_stats));
    Ok(Output { tables: vec![table], figure: Some(data), ..Output::default() })
}

fn claims_ratio(cli: &Cli) -> Result<Output, Box<dyn Error>> {
    let data = experiments::run_claims(&cli.opts)?;
    let rows = data
        .iter()
        .map(|r| {
            vec![
                r.scenario.label().to_string(),
                r.clusters.to_string(),
                ms(r.nonblocking_ms),
                ms(r.blocking_ms),
                ratio(r.ratio()),
            ]
        })
        .collect();
    let min = data.iter().map(|r| r.ratio()).fold(f64::INFINITY, f64::min);
    let max = data.iter().map(|r| r.ratio()).fold(0.0f64, f64::max);
    let title = format!(
        "Claim (§6): blocking/non-blocking latency ratio — measured {min:.2}x to \
         {max:.2}x (paper: 1.4x to 3.1x)"
    );
    let headers = &["scenario", "clusters", "non-blocking (ms)", "blocking (ms)", "ratio"];
    Ok(Table::new("claims", title, headers, rows).into())
}

fn ablation_accounting(cli: &Cli) -> Result<Output, Box<dyn Error>> {
    let rows = experiments::run_ablation_accounting(&cli.opts)?
        .iter()
        .map(|r| {
            vec![
                r.clusters.to_string(),
                ms(r.literal_ms),
                ms(r.single_ms),
                ms(r.sim_ms),
                format!("{:.1}%", r.literal_error() * 100.0),
                format!("{:.1}%", r.single_error() * 100.0),
            ]
        })
        .collect();
    let title = "Ablation: eq. 6 ECN1 accounting (paper-literal 2*L_E1 vs single queue)";
    let headers =
        &["clusters", "literal (ms)", "single (ms)", "sim (ms)", "literal err", "single err"];
    Ok(Table::new("ablation_accounting", title, headers, rows).into())
}

fn ablation_hops(cli: &Cli) -> Result<Output, Box<dyn Error>> {
    let rows = experiments::run_ablation_hops(&cli.opts)?
        .iter()
        .map(|r| {
            vec![
                r.clusters.to_string(),
                ms(r.paper_analysis_ms),
                ms(r.exact_analysis_ms),
                ms(r.paper_sim_ms),
                ms(r.exact_sim_ms),
            ]
        })
        .collect();
    let title = "Ablation: blocking hop model (eq. 19 average vs exact mean)";
    let headers = &[
        "clusters",
        "analysis (k+1)/3 (ms)",
        "analysis exact (ms)",
        "sim (k+1)/3 (ms)",
        "sim exact (ms)",
    ];
    Ok(Table::new("ablation_hops", title, headers, rows).into())
}

fn ablation_service(cli: &Cli) -> Result<Output, Box<dyn Error>> {
    let rows = experiments::run_ablation_service(&cli.opts)?
        .iter()
        .map(|r| {
            vec![r.model.to_string(), format!("{:.2}", r.scv), ms(r.analysis_ms), ms(r.sim_ms)]
        })
        .collect();
    let title = "Ablation: network service-time distribution (C=16, Case 1, non-blocking)";
    let headers = &["service model", "SCV", "analysis (ms)", "sim (ms)"];
    Ok(Table::new("ablation_service", title, headers, rows).into())
}

fn packet(cli: &Cli) -> Result<Output, Box<dyn Error>> {
    let rows = experiments::run_packet_validation(&cli.opts)?
        .iter()
        .map(|r| vec![r.clusters.to_string(), ms(r.analysis_ms), ms(r.flow_ms), ms(r.packet_ms)])
        .collect();
    let title = "Packet-level validation (Case 1, non-blocking, M=1024)";
    let headers = &["clusters", "analysis (ms)", "flow sim (ms)", "packet sim (ms)"];
    Ok(Table::new("packet_validation", title, headers, rows).into())
}

fn coc(cli: &Cli) -> Result<Output, Box<dyn Error>> {
    let rows = experiments::run_coc_validation(&cli.opts)?
        .iter()
        .map(|r| {
            vec![
                r.system.to_string(),
                ms(r.analysis_ms),
                ms(r.sim_ms),
                format!("{:.1}%", r.latency_error() * 100.0),
                format!("{:.3e}", r.analysis_lambda_eff),
                format!("{:.3e}", r.sim_lambda_eff),
            ]
        })
        .collect();
    let title = "Cluster-of-Clusters validation (the paper's §7 future work, implemented)";
    let headers =
        &["system", "analysis (ms)", "sim (ms)", "err", "lambda_eff analysis", "lambda_eff sim"];
    Ok(Table::new("coc_validation", title, headers, rows).into())
}

fn bounds(cli: &Cli) -> Result<Output, Box<dyn Error>> {
    let rows = experiments::run_bounds(&cli.opts)?
        .iter()
        .map(|r| {
            vec![
                r.clusters.to_string(),
                format!("{:.1}", r.d_total_us),
                format!("{:.1}", r.d_max_us),
                format!("{:.1}", r.saturation_population),
                format!("{:.3e}", r.bound_lambda_eff),
                format!("{:.3e}", r.model_lambda_eff),
                format!("{:.3e}", r.sim_lambda_eff),
            ]
        })
        .collect();
    let title = "Operational bounds (asymptotic bound analysis) vs model vs simulation";
    let headers = &[
        "clusters",
        "d_total (µs)",
        "d_max (µs)",
        "N*",
        "bound λ_eff",
        "model λ_eff",
        "sim λ_eff",
    ];
    Ok(Table::new("bounds", title, headers, rows).into())
}

/// The sensitivity artefact: central finite-difference derivatives of
/// the mean latency over the paper's cluster sweep (Case 1, M = 1024,
/// both architectures), plus the Newton-polished largest λ meeting the
/// optimize SLO. All probes run through the batched kernel; floats use
/// the shortest-round-trip rendering so the CSV is byte-stable.
fn sensitivity_sweep(cli: &Cli) -> Result<Output, Box<dyn Error>> {
    let slo_us = cli.slo_ms.unwrap_or(DEFAULT_OPTIMIZE_SLO_MS) * 1000.0;
    let mut rows: Vec<Vec<String>> = Vec::new();
    for arch in [Architecture::NonBlocking, Architecture::Blocking] {
        for &clusters in &PAPER_CLUSTER_COUNTS {
            let config = SystemConfig::paper_preset(Scenario::Case1, clusters, arch)?
                .with_lambda(cli.opts.lambda_per_us);
            let s = sensitivity::evaluate(&config)?;
            let at_slo = sensitivity::lambda_for_latency(&config, slo_us)?;
            rows.push(vec![
                format!("{}/C{}", optimize::arch_code(arch), clusters),
                clusters.to_string(),
                config.nodes_per_cluster.to_string(),
                optimize::arch_code(arch).to_string(),
                json_num(s.latency_us),
                json_num(s.dlatency_dlambda),
                json_num(s.dlatency_dbyte),
                json_num(s.dlatency_dnode),
                json_num(s.saturation_lambda),
                json_num(s.lambda_headroom),
                at_slo.map_or("-".to_string(), json_num),
            ]);
        }
    }
    let title = format!(
        "sensitivity — dT_W/d(lambda, M, N) over the cluster sweep \
         (Case 1, M=1024, lambda={}, SLO={:.0}ms)",
        json_num(cli.opts.lambda_per_us),
        slo_us / 1000.0
    );
    let headers = &[
        "key",
        "clusters",
        "nodes_per_cluster",
        "architecture",
        "latency_us",
        "dlatency_dlambda",
        "dlatency_dbyte",
        "dlatency_dnode",
        "saturation_lambda",
        "lambda_headroom",
        "max_lambda_slo",
    ];
    Ok(Table::new("sensitivity", title, headers, rows).into())
}

/// Default mean-latency SLO for the optimize artefact (ms).
const DEFAULT_OPTIMIZE_SLO_MS: f64 = 30.0;
/// Default cost ceiling for the budget-capped optimize variant (USD).
const DEFAULT_OPTIMIZE_BUDGET_USD: f64 = 60_000.0;

/// The three committed optimize variants: the SLO-only frontier, the
/// budget-capped frontier, and a strict-saturation frontier at λ/10
/// (at the paper's λ every preset design sits above the open-queue
/// boundary — the finite-population model self-throttles there — so
/// the strict variant runs at a tenth of the offered rate, where the
/// saturation constraint discriminates between fabrics instead of
/// pruning everything).
fn optimize_variants(cli: &Cli) -> [(&'static str, OptimizeSpec); 3] {
    let slo_us = cli.slo_ms.unwrap_or(DEFAULT_OPTIMIZE_SLO_MS) * 1000.0;
    let budget = cli.budget_usd.unwrap_or(DEFAULT_OPTIMIZE_BUDGET_USD);
    let mut workload = Workload::paper_default();
    workload.lambda_per_us = cli.opts.lambda_per_us;
    let space = DesignSpace::paper_default(workload.total_nodes);
    let spec = |workload: Workload, constraints: Constraints| OptimizeSpec {
        workload,
        constraints,
        space: space.clone(),
    };
    let mut strict_workload = workload;
    strict_workload.lambda_per_us = workload.lambda_per_us / 10.0;
    [
        (
            "optimize_frontier",
            spec(workload, Constraints { slo_latency_us: Some(slo_us), ..Default::default() }),
        ),
        (
            "optimize_budget",
            spec(
                workload,
                Constraints {
                    slo_latency_us: Some(slo_us),
                    budget_usd: Some(budget),
                    ..Default::default()
                },
            ),
        ),
        (
            "optimize_strict",
            spec(
                strict_workload,
                Constraints {
                    slo_latency_us: Some(slo_us),
                    require_unsaturated: true,
                    ..Default::default()
                },
            ),
        ),
    ]
}

fn optimize_frontiers(cli: &Cli) -> Result<Output, Box<dyn Error>> {
    let variants = optimize_variants(cli);
    let mut tables = Vec::new();
    let mut diag_rows: Vec<Vec<String>> = Vec::new();
    for (name, spec) in &variants {
        let outcome = optimize::optimize(spec, BatchOptions::default())?;
        let rows = outcome.frontier.iter().map(optimize::frontier_row).collect();
        let constraint_note = format!(
            "λ={} SLO={} budget={} unsaturated={}",
            json_num(spec.workload.lambda_per_us),
            spec.constraints
                .slo_latency_us
                .map_or("-".to_string(), |v| format!("{:.0}ms", v / 1000.0)),
            spec.constraints.budget_usd.map_or("-".to_string(), |v| format!("${v:.0}")),
            spec.constraints.require_unsaturated,
        );
        let d = outcome.diagnostics;
        let title = format!("{name} — Pareto frontier ({constraint_note})");
        tables.push(Table::new(name, title, &optimize::FRONTIER_COLUMNS, rows).with_note(format!(
            "  space {} | invalid {} | saturated {} | over budget {} | failed {} | \
             evaluated {} | above SLO {} | feasible {} | dominated {} | frontier {}",
            outcome.space_size,
            d.invalid,
            d.saturated,
            d.over_budget,
            d.failed,
            outcome.evaluated,
            d.above_slo,
            outcome.feasible,
            d.dominated,
            outcome.frontier.len(),
        )));
        let cheapest = outcome.cheapest_feasible();
        diag_rows.push(vec![
            name.to_string(),
            json_num(spec.workload.lambda_per_us),
            outcome.space_size.to_string(),
            d.invalid.to_string(),
            d.saturated.to_string(),
            d.over_budget.to_string(),
            d.failed.to_string(),
            outcome.evaluated.to_string(),
            d.above_slo.to_string(),
            outcome.feasible.to_string(),
            d.dominated.to_string(),
            d.pruned.to_string(),
            outcome.frontier.len().to_string(),
            cheapest.map_or("-".to_string(), |p| p.design.key()),
            cheapest.map_or("-".to_string(), |p| json_num(p.cost_usd)),
        ]);
    }
    let diag_headers = &[
        "variant",
        "lambda_per_us",
        "space",
        "invalid",
        "saturated",
        "over_budget",
        "failed",
        "evaluated",
        "above_slo",
        "feasible",
        "dominated",
        "pruned",
        "frontier",
        "cheapest_design",
        "cheapest_cost_usd",
    ];
    let title = "optimize — binding-constraint diagnostics";
    tables.push(Table::new("optimize_diagnostics", title, diag_headers, diag_rows));
    let [(_, frontier_spec), ..] = variants;
    let bench = cli
        .opt_bench
        .clone()
        .map(|path| -> Bench { Box::new(move || write_optimize_bench(&path, &frontier_spec)) });
    Ok(Output { tables, figure: None, bench })
}

/// Repeats a timed optimizer leg until both minima are met, returning
/// the last outcome, the iteration count and the elapsed wall time.
fn timed_optimize_leg<F>(
    mut run: F,
    min_iters: u64,
    min_wall_s: f64,
) -> Result<(optimize::OptimizeOutcome, u64, f64), String>
where
    F: FnMut() -> Result<optimize::OptimizeOutcome, String>,
{
    let start = std::time::Instant::now();
    let mut iterations = 0u64;
    loop {
        let outcome = run()?;
        iterations += 1;
        if iterations >= min_iters && start.elapsed().as_secs_f64() >= min_wall_s {
            return Ok((outcome, iterations, start.elapsed().as_secs_f64()));
        }
    }
}

/// Times the gradient-pruned optimizer against the exhaustive one on
/// the *expanded* design space (dense port axis, ~20–50k points for
/// the paper's 256 nodes) and writes an `hmcs-optimize-bench/1`
/// summary for `benchgate` to judge (`evals_per_s`, `speedup`, …).
///
/// The headline `evals_per_s` counts design points *decided* per
/// second — every buildable point the run classifies (evaluated,
/// failed, saturated, over budget, or certificate-pruned) — so both
/// legs are measured against the same denominator and `speedup` is
/// exactly the exhaustive-vs-pruned mean wall-time ratio.
/// `frontier_identical` records a per-field `f64::to_bits` comparison
/// of the two frontiers; CI gates it with `--min frontier_identical=1`.
fn write_optimize_bench(path: &Path, spec: &OptimizeSpec) -> Result<(), String> {
    let options = BatchOptions::default();
    let workers = options.resolved_workers();
    let mut spec = spec.clone();
    spec.space = DesignSpace::expanded(spec.workload.total_nodes);
    let (min_iters, min_wall_s) = match SimBudget::from_env() {
        SimBudget::Ci => (2u64, 0.2f64),
        _ => (3, 0.4),
    };

    let (exhaustive, ex_iters, ex_wall_s) = timed_optimize_leg(
        || optimize::optimize(&spec, options).map_err(|e| e.to_string()),
        min_iters,
        min_wall_s,
    )?;
    let (pruned, iterations, wall_s) = timed_optimize_leg(
        || optimize::optimize_pruned(&spec, options).map_err(|e| e.to_string()),
        min_iters,
        min_wall_s,
    )?;

    let frontier_identical = exhaustive.frontier.len() == pruned.frontier.len()
        && exhaustive.frontier.iter().zip(&pruned.frontier).all(|(a, b)| {
            a.design.key() == b.design.key()
                && a.cost_usd.to_bits() == b.cost_usd.to_bits()
                && a.latency_us.to_bits() == b.latency_us.to_bits()
        });
    let decided = (pruned.space_size - pruned.diagnostics.invalid) as u64;
    let evaluated = pruned.evaluated as u64 * iterations;
    let evals_per_s = (decided * iterations) as f64 / wall_s;
    let exhaustive_evals_per_s = (decided * ex_iters) as f64 / ex_wall_s;
    let speedup = (ex_wall_s / ex_iters as f64) / (wall_s / iterations as f64);
    let body = format!(
        "{{\"schema\":\"hmcs-optimize-bench/1\",\"space_size\":{},\"iterations\":{},\
         \"evaluated\":{},\"pruned_points\":{},\"wall_s\":{},\"evals_per_s\":{},\
         \"exhaustive_iterations\":{},\"exhaustive_wall_s\":{},\"exhaustive_evals_per_s\":{},\
         \"speedup\":{},\"frontier_identical\":{},\"frontier_len\":{},\"workers\":{}}}\n",
        spec.space.len(),
        iterations,
        evaluated,
        pruned.diagnostics.pruned,
        json_num(wall_s),
        json_num(evals_per_s),
        ex_iters,
        json_num(ex_wall_s),
        json_num(exhaustive_evals_per_s),
        json_num(speedup),
        frontier_identical,
        pruned.frontier.len(),
        workers,
    );
    write_atomic(path, body.as_bytes()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "optimize bench: {} points decided/iter on the expanded space, pruned {:.0} evals/s \
         vs exhaustive {:.0} ({speedup:.2}x, frontiers identical: {frontier_identical}, \
         {} worker(s)) -> {}",
        decided,
        evals_per_s,
        exhaustive_evals_per_s,
        workers,
        path.display()
    );
    if !frontier_identical {
        return Err("pruned frontier diverged from the exhaustive frontier".to_string());
    }
    Ok(())
}

/// The latency-matrix topology artefact: generate → identify → fit →
/// analytic-vs-sharded-simulation agreement, including the 10k-node
/// scale case. Writes three CSVs: `topology_matrix.csv` (deterministic
/// identification columns), `topology_partition.csv` (the identified
/// partition fingerprint, one row per cluster) and
/// `topology_agreement.csv` (the differential validation).
fn topology_pipeline(cli: &Cli) -> Result<Output, Box<dyn Error>> {
    let options = TopologyOptions { seed: cli.opts.seed, budget: cli.budget };
    let results = topology::run_topology(&options)?;

    let opt_num = |v: Option<f64>| v.map_or("-".to_string(), json_num);
    let matrix_rows = results
        .iter()
        .map(|r| {
            vec![
                r.case.name.to_string(),
                r.nodes.to_string(),
                r.planted_clusters.to_string(),
                r.identified_clusters.to_string(),
                u8::from(r.roundtrip).to_string(),
                opt_num(r.threshold_us),
                json_num(r.intra_median_us),
                opt_num(r.inter_median_us),
                json_num(r.residual_score),
            ]
        })
        .collect();
    let matrix = Table::new(
        "topology_matrix",
        "topology — latency-matrix cluster identification round-trip",
        &[
            "case",
            "nodes",
            "planted",
            "identified",
            "roundtrip",
            "threshold_us",
            "intra_median_us",
            "inter_median_us",
            "residual",
        ],
        matrix_rows,
    );

    let partition_rows = results
        .iter()
        .flat_map(|r| {
            r.cluster_sizes.iter().zip(&r.cluster_leads).enumerate().map(|(c, (size, lead))| {
                vec![
                    format!("{}/{c}", r.case.name),
                    r.case.name.to_string(),
                    c.to_string(),
                    size.to_string(),
                    lead.to_string(),
                ]
            })
        })
        .collect();
    let partition = Table::new(
        "topology_partition",
        "topology — identified partitions",
        &["key", "case", "cluster", "size", "lead"],
        partition_rows,
    );

    let agreement_rows = results
        .iter()
        .map(|r| {
            vec![
                r.case.name.to_string(),
                r.nodes.to_string(),
                r.shards.to_string(),
                json_num(r.analysis_ms),
                json_num(r.sim_ms),
                json_num(r.ci95_ms),
                u8::from(r.agrees).to_string(),
                json_num(r.boundary_out_frac()),
                json_num(r.boundary_in_per_msg()),
            ]
        })
        .collect();
    let timings: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "  {}: identify {:.2}s, sharded sim {:.2}s ({} messages across {} shards)",
                r.case.name, r.identify_wall_s, r.sim_wall_s, r.messages, r.shards
            )
        })
        .collect();
    let agreement = Table::new(
        "topology_agreement",
        "topology — analytic vs sharded-simulation agreement",
        &[
            "case",
            "nodes",
            "shards",
            "analysis (ms)",
            "sim (ms)",
            "ci95 (ms)",
            "agrees",
            "boundary_out_frac",
            "boundary_in_per_msg",
        ],
        agreement_rows,
    )
    .with_note(timings.join("\n"));

    let bench = cli
        .topo_bench
        .clone()
        .map(|path| -> Bench { Box::new(move || write_topology_bench(&path, &results)) });
    Ok(Output { tables: vec![matrix, partition, agreement], figure: None, bench })
}

/// Writes an `hmcs-topology-bench/1` summary for `benchgate` to
/// judge: pipeline scale, round-trip and agreement
/// outcomes, and identification throughput.
fn write_topology_bench(
    path: &Path,
    results: &[hmcs_bench::topology::TopologyCaseResult],
) -> Result<(), String> {
    let total_nodes: usize = results.iter().map(|r| r.nodes).sum();
    let max_nodes = results.iter().map(|r| r.nodes).max().unwrap_or(0);
    let shards: usize = results.iter().map(|r| r.shards).sum();
    let messages: u64 = results.iter().map(|r| r.messages).sum();
    let roundtrip_failures = results.iter().filter(|r| !r.roundtrip).count();
    let agreement_failures = results.iter().filter(|r| !r.agrees).count();
    let identify_wall_s: f64 = results.iter().map(|r| r.identify_wall_s).sum();
    let sim_wall_s: f64 = results.iter().map(|r| r.sim_wall_s).sum();
    let workers = BatchOptions::default().resolved_workers();
    let body = format!(
        "{{\"schema\":\"hmcs-topology-bench/1\",\"cases\":{},\"total_nodes\":{},\
         \"max_nodes\":{},\"shards\":{},\"messages\":{},\"roundtrip_failures\":{},\
         \"agreement_failures\":{},\"identify_wall_s\":{},\"identify_nodes_per_s\":{},\
         \"sim_wall_s\":{},\"workers\":{}}}\n",
        results.len(),
        total_nodes,
        max_nodes,
        shards,
        messages,
        roundtrip_failures,
        agreement_failures,
        json_num(identify_wall_s),
        json_num(total_nodes as f64 / identify_wall_s.max(1e-9)),
        json_num(sim_wall_s),
        workers,
    );
    write_atomic(path, body.as_bytes()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "topology bench: {} nodes over {} case(s), {} round-trip / {} agreement failure(s), \
         identify {:.2}s + sharded sim {:.2}s -> {}",
        total_nodes,
        results.len(),
        roundtrip_failures,
        agreement_failures,
        identify_wall_s,
        sim_wall_s,
        path.display()
    );
    Ok(())
}

/// Creates the `--csv` directory up front and proves it is writable,
/// so a bad path fails with one clean message instead of a mid-run
/// error after minutes of simulation.
fn prepare_csv_dir(dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir)
        .map_err(|e| format!("--csv {}: cannot create directory: {e}", dir.display()))?;
    let probe = dir.join(".hmcs-write-probe");
    std::fs::write(&probe, b"probe")
        .map_err(|e| format!("--csv {}: directory not writable: {e}", dir.display()))?;
    std::fs::remove_file(&probe).ok();
    Ok(())
}

/// `reproduce check`: golden diff + claims registry; non-zero exit on
/// any drift or broken claim.
fn run_check(candidate: &Path, golden_dir: &Path) -> Result<bool, String> {
    let diff_report = golden::check_dir(golden_dir, candidate)?;
    print!("{}", diff_report.render(10));
    let claim_results = claims::evaluate_dir(candidate)?;
    print!("{}", claims::render(&claim_results));
    let report_path = candidate.join("claims_report.csv");
    claims::write_report(&report_path, &claim_results)
        .map_err(|e| format!("{}: {e}", report_path.display()))?;
    println!("claims report written to {}", report_path.display());
    let claims_ok = claim_results.iter().all(|r| r.passed);
    Ok(diff_report.passed() && claims_ok)
}

fn run_fuzz(options: differential::FuzzOptions) -> Result<bool, String> {
    let report = differential::run_fuzz(options).map_err(|e| e.to_string())?;
    print!("{}", differential::render(&report));
    Ok(report.disagreements.is_empty())
}

fn run_identfuzz(options: identfuzz::IdentFuzzOptions) -> Result<bool, String> {
    let report = identfuzz::run_identfuzz(options).map_err(|e| e.to_string())?;
    print!("{}", identfuzz::render(&report));
    Ok(report.failures.is_empty())
}

fn run(cli: &Cli) -> Result<(), String> {
    if let Some(dir) = &cli.csv_dir {
        prepare_csv_dir(dir)?;
    }
    for artefact in &cli.artefacts {
        emit(cli, artefact)?;
    }
    if cli.print_metrics {
        println!("{}", hmcs_core::metrics::global().snapshot().render());
    }
    Ok(())
}

fn main() -> ExitCode {
    let command = match parse_args() {
        Ok(command) => command,
        Err(e) => {
            eprintln!("error: {e}\n{}", help());
            return ExitCode::FAILURE;
        }
    };
    let outcome = match command {
        Command::Emit(cli) => run(&cli).map(|()| true),
        Command::Check { candidate, golden } => run_check(&candidate, &golden),
        Command::Fuzz(options) => run_fuzz(options),
        Command::IdentFuzz(options) => run_identfuzz(options),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
