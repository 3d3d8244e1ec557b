//! The `plan` workload: capacity planning in-process. One plan is
//! `optimize::optimize_pruned` over `DesignSpace::expanded(256)`
//! followed by `optimize::frontier_sensitivity` on its frontier; one
//! unit of work is the seed's [`PLANS`] plans in turn.
//!
//! Set-up (building the specs plus one untimed walk of each, which
//! fills the kernel arenas) is timed on its own, in wall and CPU
//! seconds. Units then repeat until the run's seconds are spent.
//! Outside the timed region every pruned frontier is compared bit for
//! bit with the exhaustive `optimize` frontier of the same spec. The
//! traced run adds spans
//! around each call, replays the first plan's lanes through
//! `BatchKernel::new` and `solve()`, and times units with spans off and
//! on for the tracing overhead.

use crate::sys::{self_cpu_s, self_peak_rss_mb, since};
use crate::trace::Tracer;
use crate::{Args, Obj};
use hmcs_core::batch::BatchOptions;
use hmcs_core::kernel::BatchKernel;
use hmcs_core::optimize::{
    self, Constraints, Design, DesignSpace, EvaluatedDesign, OptimizeOutcome, OptimizeSpec,
    Workload,
};
use hmcs_core::scenario::{PAPER_LAMBDA_PER_US, PAPER_TOTAL_NODES};
use hmcs_core::{Scenario, SystemConfig};
use hmcs_serve::loadgen::SplitMix64;
use std::time::Instant;

/// Uniform draw in `[lo, hi)`.
pub fn uniform(rng: &mut SplitMix64, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Plans per unit of work.
pub const PLANS: usize = 6;

/// The plans the seed asks for. Each of the three message sizes is
/// used twice; offered rate, latency SLO and budget are each stratified
/// over `PLANS` equal slices of their range around the paper's
/// operating point, with the slice order and the draw inside each slice
/// taken from the seed, so every seed covers the ranges alike.
pub fn plan_specs(seed: u64) -> Vec<OptimizeSpec> {
    let mut rng = SplitMix64::new(seed ^ 0x9_1A4E);
    let mut strata = |lo: f64, hi: f64| -> Vec<f64> {
        let mut order: Vec<usize> = (0..PLANS).collect();
        for i in (1..PLANS).rev() {
            order.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
        order
            .into_iter()
            .map(|k| lo + (hi - lo) * (k as f64 + uniform(&mut rng, 0.0, 1.0)) / PLANS as f64)
            .collect()
    };
    let (bytes, lambda) = (strata(0.0, PLANS as f64), strata(0.8, 1.2));
    let (slo_ms, budget) = (strata(25.0, 35.0), strata(150_000.0, 250_000.0));
    (0..PLANS)
        .map(|k| OptimizeSpec {
            workload: Workload {
                scenario: Scenario::Case1,
                total_nodes: PAPER_TOTAL_NODES,
                message_bytes: [512, 1024, 2048][bytes[k] as usize % 3],
                lambda_per_us: PAPER_LAMBDA_PER_US * lambda[k],
            },
            constraints: Constraints {
                slo_latency_us: Some(slo_ms[k] * 1000.0),
                budget_usd: Some(budget[k]),
                require_unsaturated: false,
            },
            space: DesignSpace::expanded(PAPER_TOTAL_NODES),
        })
        .collect()
}

fn same_bits(a: &[EvaluatedDesign], b: &[EvaluatedDesign]) -> bool {
    let bits = |p: &EvaluatedDesign| {
        (
            p.design.key(),
            [
                p.cost_usd,
                p.latency_us,
                p.throughput_per_us,
                p.retained_fraction,
                p.bottleneck_utilization,
                p.saturation_lambda,
            ]
            .map(f64::to_bits),
        )
    };
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| bits(x) == bits(y))
}

/// Every buildable design of the space: the plan's kernel lanes.
fn lanes(spec: &OptimizeSpec) -> Vec<SystemConfig> {
    let s = &spec.space;
    let mut configs = Vec::with_capacity(s.len());
    for &clusters in &s.cluster_counts {
        for &intra in &s.intra {
            for &inter in &s.inter {
                for &ports in &s.switch_ports {
                    for &arch in &s.architectures {
                        if let Ok(d) =
                            Design::build(&spec.workload, clusters, intra, inter, ports, arch)
                        {
                            configs.push(d.config);
                        }
                    }
                }
            }
        }
    }
    configs
}

/// One plan. Returns the outcome and whether sensitivity succeeded.
fn plan(
    tracer: &mut Tracer,
    spec: &OptimizeSpec,
    options: BatchOptions,
) -> Result<(OptimizeOutcome, bool), String> {
    let outcome = tracer
        .span("optimize.pruned", spec.space.len() as u64, |_| {
            optimize::optimize_pruned(spec, options)
        })
        .map_err(|e| e.to_string())?;
    let rows = tracer.span("sensitivity", outcome.frontier.len() as u64, |_| {
        optimize::frontier_sensitivity(&outcome, spec.constraints.slo_latency_us)
    });
    Ok((outcome, rows.is_ok()))
}

pub fn run(args: &Args) -> Result<String, String> {
    let seed: u64 = args.num("seed")?;
    let seconds: f64 = args.num("seconds")?;
    let options = BatchOptions::with_workers(args.num("workers")?);
    let traced = args.flag("trace");

    let (t0, c0) = (Instant::now(), self_cpu_s());
    let specs = plan_specs(seed);
    let reference = specs
        .iter()
        .map(|spec| optimize::optimize_pruned(spec, options))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let (setup_s, setup_cpu_s) = (since(t0), self_cpu_s() - c0);
    if args.flag("setup-only") {
        return Ok(Obj::default().num("setup_s", setup_s).num("setup_cpu_s", setup_cpu_s).finish());
    }

    let mut tracer = Tracer::new(traced);
    let (mut unit_wall, mut unit_cpu, mut plan_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut wall_untraced, mut wall_traced) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let start = Instant::now();
    // At least 1,000 plans, so their p99 has ten samples beyond it.
    while since(start) < seconds || plan_us.len() < 1_000 {
        // The traced run alternates spans off and on, so both sides of
        // the overhead see the same machine state.
        tracer.enabled = traced && unit_wall.len() % 2 == 1;
        let (c0, w0) = (self_cpu_s(), Instant::now());
        for (spec, expected) in specs.iter().zip(&reference) {
            let p0 = Instant::now();
            let result = plan(&mut tracer, spec, options);
            plan_us.push(since(p0) * 1e6);
            attempted += 1;
            match result {
                Ok((outcome, true)) if same_bits(&outcome.frontier, &expected.frontier) => {}
                _ => failed += 1,
            }
        }
        let w = since(w0);
        unit_cpu.push(self_cpu_s() - c0);
        unit_wall.push(w);
        if tracer.enabled { &mut wall_traced } else { &mut wall_untraced }.push(w);
    }

    // Correctness outside the timed region: pruning must not change a
    // single bit of any frontier.
    for (spec, expected) in specs.iter().zip(&reference) {
        attempted += 1;
        match optimize::optimize(spec, options) {
            Ok(exhaustive) if same_bits(&exhaustive.frontier, &expected.frontier) => {}
            _ => failed += 1,
        }
    }

    let sum = |f: &dyn Fn(&OptimizeOutcome) -> usize| reference.iter().map(f).sum::<usize>() as u64;
    let mut out = Obj::default()
        .num("setup_s", setup_s)
        .num("setup_cpu_s", setup_cpu_s)
        .nums("wall_s", &unit_wall)
        .nums("cpu_s", &unit_cpu)
        .nums("plan_us", &plan_us)
        .num("peak_rss_mb", self_peak_rss_mb())
        .int("attempted", attempted)
        .int("failed", failed)
        .int("plans", PLANS as u64)
        .int("space_size", sum(&|o| o.space_size))
        .int("decided", sum(&|o| o.space_size - o.diagnostics.invalid))
        .int("pruned", sum(&|o| o.diagnostics.pruned))
        .int("frontier", sum(&|o| o.frontier.len()));

    if traced {
        tracer.enabled = true;
        let configs = lanes(&specs[0]);
        let mut iterations = (0usize, 0usize);
        for _ in 0..2 {
            let kernel =
                tracer.span("kernel.setup", configs.len() as u64, |_| BatchKernel::new(&configs));
            let results = tracer.span("kernel.solve", configs.len() as u64, |_| kernel.solve());
            for (_, stats) in results.iter().flatten() {
                iterations.0 += stats.solver_iterations;
                iterations.1 += 1;
            }
        }
        out = out
            .nums("wall_untraced_s", &wall_untraced)
            .nums("wall_traced_s", &wall_traced)
            .num("kernel_iterations_mean", iterations.0 as f64 / iterations.1.max(1) as f64);
        if let Some(path) = args.spans_path() {
            tracer.write_jsonl(path).map_err(|e| format!("{path}: {e}"))?;
        }
    }
    Ok(out.finish())
}
