//! Request parsing and response building for the `/v1/*` endpoints.
//!
//! Requests and responses are plain JSON handled by the workspace's
//! shared [`hmcs_core::json`] module. Parsing is strict: unknown fields
//! are rejected (catching typos like `lambda_per_ms` before they
//! silently fall back to a default), enum fields must match an
//! allow-list, and numeric fields are range-checked by
//! [`SystemConfig`]'s own validation.
//!
//! **Error payloads never echo raw request bytes unescaped.** Every
//! error message — including ones that quote a client-supplied field
//! name — passes through [`json_str`] in [`error_body`], so a body full
//! of quotes and control characters still produces a valid JSON error
//! document.
//!
//! Numbers are appended in place with [`push_num`], which prints the
//! shortest round-tripping decimal: a client that parses
//! `mean_latency_us` back with `str::parse::<f64>()` recovers the
//! model's output **bit for bit**, which is what lets the suite assert
//! served results are identical to in-process `reproduce` output.

use hmcs_core::batch::BatchOptions;
use hmcs_core::config::SystemConfig;
use hmcs_core::error::ModelError;
use hmcs_core::json::{json_num, json_str, parse_json, push_num, JsonValue};
use hmcs_core::kernel;
use hmcs_core::model::{AnalyticalModel, PerformanceReport};
use hmcs_core::optimize::{self, Constraints, DesignSpace, OptimizeError, OptimizeSpec, Workload};
use hmcs_core::scenario::{Scenario, PAPER_LAMBDA_PER_US, PAPER_TOTAL_NODES};
use hmcs_core::service::ServiceTimes;
use hmcs_core::solver;
use hmcs_topology::transmission::Architecture;
use std::fmt::Write as _;

/// Hard cap on sweep points per request; larger sweeps must be split
/// (or run offline through `reproduce`), keeping one request from
/// monopolising a worker for minutes.
pub const MAX_SWEEP_POINTS: usize = 4096;

/// A structured API error: HTTP status plus a machine-readable code,
/// a human-readable message and optional structured numeric fields for
/// the JSON error body (e.g. the computed `saturation_lambda` on a
/// `workload_saturated` rejection).
#[derive(Debug, Clone, PartialEq)]
pub struct ApiError {
    /// HTTP status to answer with.
    pub status: u16,
    /// Stable machine-readable error code.
    pub code: &'static str,
    /// Human-readable detail. May embed client-supplied text; it is
    /// escaped at serialisation time by [`error_body`].
    pub message: String,
    /// Extra numeric fields rendered into the error object so clients
    /// can act on the rejection without parsing the message.
    pub data: Vec<(&'static str, f64)>,
}

impl ApiError {
    fn bad_request(code: &'static str, message: impl Into<String>) -> Self {
        ApiError { status: 400, code, message: message.into(), data: Vec::new() }
    }

    /// Renders this error as its JSON body.
    pub fn body(&self) -> String {
        error_body_with(self.code, &self.message, &self.data)
    }
}

/// Builds the canonical error document. `message` is escaped here —
/// this is the single choke point that keeps client bytes from
/// reaching the wire unescaped.
pub fn error_body(code: &str, message: &str) -> String {
    error_body_with(code, message, &[])
}

/// [`error_body`] plus structured numeric fields. Keys come from the
/// server (static strings) but are escaped anyway; values use the
/// shortest round-trip rendering so clients recover them bit-exactly.
pub fn error_body_with(code: &str, message: &str, data: &[(&'static str, f64)]) -> String {
    let mut out =
        format!(r#"{{"error":{{"code":{},"message":{}"#, json_str(code), json_str(message));
    for (key, value) in data {
        out.push(',');
        out.push_str(&json_str(key));
        out.push(':');
        push_num(&mut out, *value);
    }
    out.push_str("}}");
    out
}

/// Which parameter `POST /v1/sweep` varies.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepSpec {
    /// Sweep λ (messages/µs) at a fixed shape.
    Lambda(Vec<f64>),
    /// Sweep the cluster count at fixed total nodes.
    Clusters(Vec<usize>),
    /// Sweep the message size in bytes.
    MessageBytes(Vec<u64>),
}

/// Parses a `POST /v1/evaluate` body into a validated [`SystemConfig`]
/// plus the request's `require_unsaturated` flag (default `false`).
pub fn parse_evaluate(body: &str) -> Result<(SystemConfig, bool), ApiError> {
    let value = parse_json(body).map_err(|e| ApiError::bad_request("invalid_json", e))?;
    let obj = as_request_object(&value)?;
    check_fields(obj, &ALLOWED_CONFIG_FIELDS)?;
    let strict = get_bool(obj, "require_unsaturated")?.unwrap_or(false);
    Ok((config_from(obj)?, strict))
}

/// Parses a `POST /v1/sweep` body into a base config plus sweep spec
/// plus the request's `require_unsaturated` flag (default `false`).
pub fn parse_sweep(body: &str) -> Result<(SystemConfig, SweepSpec, bool), ApiError> {
    let value = parse_json(body).map_err(|e| ApiError::bad_request("invalid_json", e))?;
    let obj = as_request_object(&value)?;
    let mut allowed: Vec<&str> = ALLOWED_CONFIG_FIELDS.to_vec();
    allowed.extend_from_slice(&["parameter", "values"]);
    check_fields(obj, &allowed)?;

    let parameter = get_str(obj, "parameter")?
        .ok_or_else(|| ApiError::bad_request("missing_field", "'parameter' is required"))?;
    let values = match obj.iter().find(|(k, _)| k == "values") {
        Some((_, JsonValue::Arr(items))) => items,
        Some(_) => return Err(ApiError::bad_request("invalid_field", "'values' must be an array")),
        None => return Err(ApiError::bad_request("missing_field", "'values' is required")),
    };
    if values.is_empty() {
        return Err(ApiError::bad_request("invalid_field", "'values' must be non-empty"));
    }
    if values.len() > MAX_SWEEP_POINTS {
        return Err(ApiError::bad_request(
            "sweep_too_large",
            format!("'values' has {} points; the cap is {MAX_SWEEP_POINTS}", values.len()),
        ));
    }

    let spec = match parameter.as_str() {
        "lambda" => SweepSpec::Lambda(numeric_values(values, "values")?),
        "clusters" => SweepSpec::Clusters(
            integer_values(values, "values")?.into_iter().map(|v| v as usize).collect(),
        ),
        "message_bytes" => SweepSpec::MessageBytes(integer_values(values, "values")?),
        other => {
            return Err(ApiError::bad_request(
                "invalid_field",
                format!(
                    "unknown sweep parameter '{other}'; expected lambda, clusters or message_bytes"
                ),
            ))
        }
    };
    let config = config_from(obj)?;
    let strict = get_bool(obj, "require_unsaturated")?.unwrap_or(false);
    Ok((config, spec, strict))
}

/// The saturation rate of a config's bottleneck tier, or `None` when
/// the config cannot even produce service times (that failure surfaces
/// through the normal evaluation path instead).
fn saturation_of(config: &SystemConfig) -> Option<f64> {
    let service = ServiceTimes::compute(config).ok()?;
    Some(solver::saturation_lambda(config, &service))
}

/// The structured 422 for a workload at or above saturation. The body
/// carries both the offered rate and the computed boundary so clients
/// can back off without parsing prose.
fn saturated_error(lambda_per_us: f64, saturation_lambda: f64, context: &str) -> ApiError {
    ApiError {
        status: 422,
        code: "workload_saturated",
        message: format!(
            "offered lambda_per_us {} is at or above the saturation rate {}{context}; \
             the finite-population model still converges there, but the request \
             asked for require_unsaturated",
            json_num(lambda_per_us),
            json_num(saturation_lambda),
        ),
        data: vec![("lambda_per_us", lambda_per_us), ("saturation_lambda", saturation_lambda)],
    }
}

/// Rejects a strict (`require_unsaturated`) evaluate request whose λ is
/// at or above the bottleneck saturation rate.
pub fn check_unsaturated(config: &SystemConfig) -> Result<(), ApiError> {
    if let Some(sat) = saturation_of(config) {
        if config.lambda_per_us >= sat {
            return Err(saturated_error(config.lambda_per_us, sat, ""));
        }
    }
    Ok(())
}

/// Rejects a strict sweep request if **any** point would run at or
/// above saturation. Per-point configs mirror the constructions in
/// [`hmcs_core::sweep`]; shape errors (e.g. a cluster count that does
/// not divide the node total) are left for the sweep itself to report.
pub fn check_sweep_unsaturated(config: &SystemConfig, spec: &SweepSpec) -> Result<(), ApiError> {
    match spec {
        SweepSpec::Lambda(values) => {
            // Saturation is λ-independent: one boundary covers every point.
            if let Some(sat) = saturation_of(config) {
                for &lambda in values {
                    if lambda >= sat {
                        return Err(sweep_point_error(saturated_error(lambda, sat, ""), lambda));
                    }
                }
            }
        }
        SweepSpec::Clusters(values) => {
            let total = config.total_nodes();
            for &c in values {
                if c == 0 || !total.is_multiple_of(c) {
                    continue;
                }
                let mut cfg = *config;
                cfg.clusters = c;
                cfg.nodes_per_cluster = total / c;
                check_unsaturated(&cfg).map_err(|e| sweep_point_error(e, c as f64))?;
            }
        }
        SweepSpec::MessageBytes(values) => {
            for &m in values {
                let cfg = config.with_message_bytes(m);
                check_unsaturated(&cfg).map_err(|e| sweep_point_error(e, m as f64))?;
            }
        }
    }
    Ok(())
}

/// Tags a per-point saturation rejection with the sweep x-value.
fn sweep_point_error(mut err: ApiError, x: f64) -> ApiError {
    err.message.push_str(" (sweep point)");
    err.data.push(("sweep_x", x));
    err
}

/// Maps a model failure to its API error. If the config's service
/// times are computable and the offered λ is at or above saturation,
/// the failure is reported as the structured `workload_saturated`
/// error (with the boundary in the body) rather than an opaque
/// `evaluation_failed` — this is the diagnosis a capacity planner
/// actually needs.
fn evaluation_failure(config: &SystemConfig, e: ModelError) -> ApiError {
    if let Some(sat) = saturation_of(config) {
        if config.lambda_per_us >= sat {
            return saturated_error(config.lambda_per_us, sat, "");
        }
    }
    ApiError { status: 422, code: "evaluation_failed", message: e.to_string(), data: Vec::new() }
}

/// Result of one kernel lane, as produced by
/// [`hmcs_core::kernel::evaluate_batch`] — the unit the server's
/// micro-batcher transports between requests and the shared window
/// solve.
pub type PointResult = Result<(PerformanceReport, hmcs_core::batch::EvalStats), ModelError>;

/// Evaluates one config and renders the response document: the
/// in-process reference for served `/v1/evaluate` bodies, which the
/// server builds from a micro-batch lane instead
/// ([`evaluate_response_from`]); tests and the benchmark harness compare
/// the two byte for byte.
pub fn evaluate_response(config: &SystemConfig) -> Result<String, ApiError> {
    let report = AnalyticalModel::evaluate(config).map_err(|e| evaluation_failure(config, e))?;
    Ok(render_evaluate(config, &report))
}

/// Renders the evaluate response from an already-solved kernel lane.
/// Lanes never exchange information and each is bit-identical to
/// [`hmcs_core::solver::solve`] (same FP schedule, same error
/// variants), so a response assembled from a shared micro-batch window
/// is byte-identical to the unbatched [`evaluate_response`].
pub fn evaluate_response_from(
    config: &SystemConfig,
    result: PointResult,
) -> Result<String, ApiError> {
    let (report, _stats) = result.map_err(|e| evaluation_failure(config, e))?;
    Ok(render_evaluate(config, &report))
}

/// Builds the per-point configs a sweep evaluates: one config per λ,
/// per cluster count at the config's total node count (a count that
/// does not divide it fails with the same error as
/// [`hmcs_core::sweep::cluster_sweep`]) or per message size. Each point
/// is solved as its own kernel lane, so any batch that contains these
/// configs reproduces the sweep bit for bit.
pub fn sweep_configs(
    config: &SystemConfig,
    spec: &SweepSpec,
) -> Result<Vec<SystemConfig>, ApiError> {
    let failed = |e: ModelError| evaluation_failure(config, e);
    match spec {
        SweepSpec::Lambda(values) => {
            config.validate().map_err(failed)?;
            Ok(values.iter().map(|&l| config.with_lambda(l)).collect())
        }
        SweepSpec::Clusters(values) => {
            let total = config.total_nodes();
            values
                .iter()
                .map(|&c| {
                    if c == 0 || !total.is_multiple_of(c) {
                        return Err(failed(ModelError::InvalidConfig {
                            name: "cluster_counts",
                            reason: "every cluster count must divide the total node count",
                        }));
                    }
                    let mut cfg = *config;
                    cfg.clusters = c;
                    cfg.nodes_per_cluster = total / c;
                    Ok(cfg)
                })
                .collect()
        }
        SweepSpec::MessageBytes(values) => {
            Ok(values.iter().map(|&m| config.with_message_bytes(m)).collect())
        }
    }
}

/// Runs the requested sweep **sequentially** (the worker pool provides
/// request-level parallelism; nesting the batch engine's own pool
/// inside each request would oversubscribe the host) and renders the
/// response document: the in-process reference for served `/v1/sweep`
/// bodies, which the server assembles from micro-batch lanes instead
/// ([`sweep_response_from`]).
pub fn sweep_response(config: &SystemConfig, spec: &SweepSpec) -> Result<String, ApiError> {
    let configs = sweep_configs(config, spec)?;
    let results = kernel::evaluate_batch(&configs, 1);
    sweep_response_from(config, spec, results)
}

/// Renders the sweep response from already-solved kernel lanes, one
/// per [`sweep_configs`] point in order. This is the reassembly half of
/// the serving micro-batch: the window solves every gathered point in
/// one kernel call, and each sweep request renders its own slice. The
/// first failed lane aborts the whole sweep with the same error the
/// in-process [`hmcs_core::sweep`] functions would surface.
pub fn sweep_response_from(
    config: &SystemConfig,
    spec: &SweepSpec,
    results: Vec<PointResult>,
) -> Result<String, ApiError> {
    let failed = |e: ModelError| evaluation_failure(config, e);
    let (parameter, xs): (&str, Vec<f64>) = match spec {
        SweepSpec::Lambda(values) => ("lambda", values.clone()),
        SweepSpec::Clusters(values) => ("clusters", values.iter().map(|&c| c as f64).collect()),
        SweepSpec::MessageBytes(values) => {
            ("message_bytes", values.iter().map(|&m| m as f64).collect())
        }
    };
    debug_assert_eq!(xs.len(), results.len(), "one lane per sweep point");
    let points: Vec<(f64, PerformanceReport)> = xs
        .into_iter()
        .zip(results)
        .map(|(x, r)| r.map(|(report, _stats)| (x, report)).map_err(failed))
        .collect::<Result<_, _>>()?;

    let mut out = String::with_capacity(256 + points.len() * 160);
    out.push_str("{\"schema\":\"hmcs-serve-sweep/1\",\"parameter\":");
    out.push_str(&json_str(parameter));
    out.push_str(",\"config\":");
    push_config(&mut out, config);
    out.push_str(",\"points\":[");
    for (i, (x, report)) in points.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"x\":");
        push_num(&mut out, *x);
        out.push_str(",\"mean_latency_us\":");
        push_num(&mut out, report.latency.mean_message_latency_us);
        out.push_str(",\"throughput_per_us\":");
        push_num(&mut out, report.throughput_per_us);
        out.push_str(",\"bottleneck_utilization\":");
        push_num(&mut out, report.equilibrium.bottleneck_utilization());
        out.push_str(",\"retained_fraction\":");
        push_num(&mut out, report.equilibrium.retained_fraction);
        out.push('}');
    }
    out.push_str("]}");
    Ok(out)
}

/// Renders the full evaluate response document.
pub fn render_evaluate(config: &SystemConfig, report: &PerformanceReport) -> String {
    let eq = &report.equilibrium;
    let lat = &report.latency;
    let mut out = String::with_capacity(640);
    out.push_str("{\"schema\":\"hmcs-serve-evaluate/1\",\"config\":");
    push_config(&mut out, config);
    out.push_str(",\"latency_us\":{\"mean\":");
    push_num(&mut out, lat.mean_message_latency_us);
    out.push_str(",\"internal\":");
    push_num(&mut out, lat.internal_latency_us);
    out.push_str(",\"external\":");
    push_num(&mut out, lat.external_latency_us);
    out.push_str(",\"sojourn_icn1\":");
    push_num(&mut out, lat.sojourn_icn1_us);
    out.push_str(",\"sojourn_ecn1\":");
    push_num(&mut out, lat.sojourn_ecn1_us);
    out.push_str(",\"sojourn_icn2\":");
    push_num(&mut out, lat.sojourn_icn2_us);
    out.push_str("},\"external_probability\":");
    push_num(&mut out, lat.external_probability);
    out.push_str(",\"utilization\":{\"icn1\":");
    push_num(&mut out, eq.icn1.utilization);
    out.push_str(",\"ecn1\":");
    push_num(&mut out, eq.ecn1.utilization);
    out.push_str(",\"icn2\":");
    push_num(&mut out, eq.icn2.utilization);
    out.push_str(",\"bottleneck\":");
    push_num(&mut out, eq.bottleneck_utilization());
    out.push_str("},\"throughput_per_us\":");
    push_num(&mut out, report.throughput_per_us);
    out.push_str(",\"solver\":{\"iterations\":");
    let _ = write!(out, "{}", eq.solver_iterations);
    out.push_str(",\"lambda_eff\":");
    push_num(&mut out, eq.lambda_eff);
    out.push_str(",\"retained_fraction\":");
    push_num(&mut out, eq.retained_fraction);
    out.push_str(",\"total_waiting\":");
    push_num(&mut out, eq.total_waiting);
    out.push_str("}}");
    out
}

/// An optimize request: the spec plus whether to run the
/// gradient-pruned walk instead of the exhaustive one. The two produce
/// bit-identical frontiers; `prune` only changes how much of the space
/// is actually solved (reported in the `pruned` diagnostic).
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeRequest {
    /// The parsed optimization spec.
    pub spec: OptimizeSpec,
    /// Run [`optimize::optimize_pruned`] instead of the exhaustive
    /// [`optimize::optimize`].
    pub prune: bool,
}

/// Parses a `POST /v1/optimize` body into an [`OptimizeRequest`] over
/// the paper's preset design space.
///
/// Accepted fields: `slo_ms` (number, > 0), `budget_usd` (number, > 0),
/// `require_unsaturated` (boolean), `prune` (boolean — walk the space
/// with certified-lower-bound pruning; same frontier, less work) and
/// `workload` (object with `scenario`, `total_nodes`, `message_bytes`,
/// `lambda_per_us`). All are optional; the defaults are the paper's
/// Case-1 workload with no constraints, exhaustively evaluated.
pub fn parse_optimize(body: &str) -> Result<OptimizeRequest, ApiError> {
    let value = parse_json(body).map_err(|e| ApiError::bad_request("invalid_json", e))?;
    let obj = as_request_object(&value)?;
    check_fields(obj, &["slo_ms", "budget_usd", "require_unsaturated", "prune", "workload"])?;

    let slo_ms = get_f64(obj, "slo_ms")?;
    if let Some(v) = slo_ms {
        if !(v.is_finite() && v > 0.0) {
            return Err(ApiError::bad_request("invalid_field", "'slo_ms' must be finite and > 0"));
        }
    }
    let budget_usd = get_f64(obj, "budget_usd")?;
    if let Some(v) = budget_usd {
        if !(v.is_finite() && v > 0.0) {
            return Err(ApiError::bad_request(
                "invalid_field",
                "'budget_usd' must be finite and > 0",
            ));
        }
    }
    let require_unsaturated = get_bool(obj, "require_unsaturated")?.unwrap_or(false);
    let prune = get_bool(obj, "prune")?.unwrap_or(false);

    let mut workload = Workload::paper_default();
    match obj.iter().find(|(k, _)| k == "workload") {
        None => {}
        Some((_, JsonValue::Obj(wl))) => {
            check_fields(wl, &["scenario", "total_nodes", "message_bytes", "lambda_per_us"])?;
            workload.scenario = match get_str(wl, "scenario")?.as_deref() {
                None | Some("case1") => Scenario::Case1,
                Some("case2") => Scenario::Case2,
                Some(other) => {
                    return Err(ApiError::bad_request(
                        "invalid_field",
                        format!("unknown scenario '{other}'; expected case1 or case2"),
                    ))
                }
            };
            if let Some(n) = get_u64(wl, "total_nodes")? {
                workload.total_nodes = n as usize;
            }
            if let Some(m) = get_u64(wl, "message_bytes")? {
                workload.message_bytes = m;
            }
            if let Some(l) = get_f64(wl, "lambda_per_us")? {
                workload.lambda_per_us = l;
            }
        }
        Some(_) => {
            return Err(ApiError::bad_request("invalid_field", "'workload' must be an object"))
        }
    }

    let space = DesignSpace::paper_default(workload.total_nodes);
    Ok(OptimizeRequest {
        spec: OptimizeSpec {
            workload,
            constraints: Constraints {
                slo_latency_us: slo_ms.map(|v| v * 1000.0),
                budget_usd,
                require_unsaturated,
            },
            space,
        },
        prune,
    })
}

/// Runs the optimizer **sequentially** (same reasoning as
/// [`sweep_response`]: the worker pool already provides request-level
/// parallelism) and renders the response document. With
/// `request.prune` the certified-pruning walk runs instead; its
/// frontier is bit-identical, only the work-accounting diagnostics
/// (`evaluated`, `above_slo`, `dominated`, `pruned`) reflect the
/// skipped points.
pub fn optimize_response(request: &OptimizeRequest) -> Result<String, ApiError> {
    let spec = &request.spec;
    let run = if request.prune { optimize::optimize_pruned } else { optimize::optimize };
    let outcome = run(spec, BatchOptions::sequential()).map_err(|e| match e {
        OptimizeError::Model(inner) => ApiError {
            status: 422,
            code: "evaluation_failed",
            message: inner.to_string(),
            data: Vec::new(),
        },
        other => ApiError::bad_request("invalid_config", other.to_string()),
    })?;

    let mut out = String::with_capacity(512 + outcome.frontier.len() * 320);
    out.push_str("{\"schema\":\"hmcs-serve-optimize/1\",\"workload\":{\"scenario\":");
    out.push_str(&json_str(match spec.workload.scenario {
        Scenario::Case1 => "case1",
        Scenario::Case2 => "case2",
    }));
    out.push_str(",\"total_nodes\":");
    let _ = write!(out, "{}", spec.workload.total_nodes);
    out.push_str(",\"message_bytes\":");
    let _ = write!(out, "{}", spec.workload.message_bytes);
    out.push_str(",\"lambda_per_us\":");
    push_num(&mut out, spec.workload.lambda_per_us);
    out.push_str("},\"constraints\":{\"slo_ms\":");
    push_opt_num(&mut out, spec.constraints.slo_latency_us.map(|v| v / 1000.0));
    out.push_str(",\"budget_usd\":");
    push_opt_num(&mut out, spec.constraints.budget_usd);
    out.push_str(",\"require_unsaturated\":");
    out.push_str(if spec.constraints.require_unsaturated { "true" } else { "false" });
    out.push_str("},\"space_size\":");
    let _ = write!(out, "{}", outcome.space_size);
    out.push_str(",\"evaluated\":");
    let _ = write!(out, "{}", outcome.evaluated);
    out.push_str(",\"feasible\":");
    let _ = write!(out, "{}", outcome.feasible);
    let d = &outcome.diagnostics;
    out.push_str(",\"diagnostics\":{\"invalid\":");
    let _ = write!(out, "{}", d.invalid);
    out.push_str(",\"saturated\":");
    let _ = write!(out, "{}", d.saturated);
    out.push_str(",\"over_budget\":");
    let _ = write!(out, "{}", d.over_budget);
    out.push_str(",\"failed\":");
    let _ = write!(out, "{}", d.failed);
    out.push_str(",\"above_slo\":");
    let _ = write!(out, "{}", d.above_slo);
    out.push_str(",\"dominated\":");
    let _ = write!(out, "{}", d.dominated);
    out.push_str(",\"pruned\":");
    let _ = write!(out, "{}", d.pruned);
    out.push_str("},\"frontier\":[");
    for (i, point) in outcome.frontier.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_frontier_point(&mut out, point);
    }
    out.push_str("],\"cheapest_feasible\":");
    match outcome.cheapest_feasible() {
        Some(point) => push_frontier_point(&mut out, point),
        None => out.push_str("null"),
    }
    out.push('}');
    Ok(out)
}

fn push_opt_num(out: &mut String, value: Option<f64>) {
    match value {
        Some(v) => push_num(out, v),
        None => out.push_str("null"),
    }
}

/// Renders one frontier point with the same field names (and, for
/// floats, the same shortest-round-trip digits) as the columns of the
/// `reproduce optimize` CSVs — this is what makes served frontiers
/// byte-comparable to the offline artefacts.
fn push_frontier_point(out: &mut String, point: &optimize::EvaluatedDesign) {
    let cfg = &point.design.config;
    out.push_str("{\"design\":");
    out.push_str(&json_str(&point.design.key()));
    out.push_str(",\"clusters\":");
    let _ = write!(out, "{}", cfg.clusters);
    out.push_str(",\"nodes_per_cluster\":");
    let _ = write!(out, "{}", cfg.nodes_per_cluster);
    out.push_str(",\"intra\":");
    out.push_str(&json_str(cfg.icn1.name));
    out.push_str(",\"inter\":");
    out.push_str(&json_str(cfg.ecn1.name));
    out.push_str(",\"ports\":");
    let _ = write!(out, "{}", cfg.switch.ports());
    out.push_str(",\"architecture\":");
    out.push_str(&json_str(optimize::arch_code(cfg.architecture)));
    out.push_str(",\"switches\":");
    let _ = write!(out, "{}", point.design.total_switches());
    out.push_str(",\"cost_usd\":");
    push_num(out, point.cost_usd);
    out.push_str(",\"latency_us\":");
    push_num(out, point.latency_us);
    out.push_str(",\"throughput_per_us\":");
    push_num(out, point.throughput_per_us);
    out.push_str(",\"retained_fraction\":");
    push_num(out, point.retained_fraction);
    out.push_str(",\"bottleneck_utilization\":");
    push_num(out, point.bottleneck_utilization);
    out.push_str(",\"saturation_lambda\":");
    push_num(out, point.saturation_lambda);
    out.push('}');
}

const ALLOWED_CONFIG_FIELDS: [&str; 7] = [
    "scenario",
    "architecture",
    "clusters",
    "nodes_per_cluster",
    "message_bytes",
    "lambda_per_us",
    "require_unsaturated",
];

fn as_request_object(value: &JsonValue) -> Result<&[(String, JsonValue)], ApiError> {
    match value {
        JsonValue::Obj(fields) => Ok(fields),
        _ => Err(ApiError::bad_request("invalid_json", "request body must be a JSON object")),
    }
}

/// Rejects fields outside `allowed`. The offending name is quoted in
/// the message — client bytes — and is escaped downstream by
/// [`error_body`].
fn check_fields(obj: &[(String, JsonValue)], allowed: &[&str]) -> Result<(), ApiError> {
    for (key, _) in obj {
        if !allowed.contains(&key.as_str()) {
            return Err(ApiError::bad_request(
                "unknown_field",
                format!("unknown field '{key}'; expected one of {}", allowed.join(", ")),
            ));
        }
    }
    Ok(())
}

fn get_str(obj: &[(String, JsonValue)], key: &str) -> Result<Option<String>, ApiError> {
    match obj.iter().find(|(k, _)| k == key) {
        None => Ok(None),
        Some((_, JsonValue::Str(s))) => Ok(Some(s.clone())),
        Some(_) => Err(ApiError::bad_request("invalid_field", format!("'{key}' must be a string"))),
    }
}

fn get_u64(obj: &[(String, JsonValue)], key: &str) -> Result<Option<u64>, ApiError> {
    match obj.iter().find(|(k, _)| k == key) {
        None => Ok(None),
        Some((_, v)) => match v.as_u64() {
            Some(n) => Ok(Some(n)),
            None => Err(ApiError::bad_request(
                "invalid_field",
                format!("'{key}' must be a non-negative integer"),
            )),
        },
    }
}

fn get_f64(obj: &[(String, JsonValue)], key: &str) -> Result<Option<f64>, ApiError> {
    match obj.iter().find(|(k, _)| k == key) {
        None => Ok(None),
        Some((_, JsonValue::Num(x))) => Ok(Some(*x)),
        Some(_) => Err(ApiError::bad_request("invalid_field", format!("'{key}' must be a number"))),
    }
}

fn get_bool(obj: &[(String, JsonValue)], key: &str) -> Result<Option<bool>, ApiError> {
    match obj.iter().find(|(k, _)| k == key) {
        None => Ok(None),
        Some((_, JsonValue::Bool(b))) => Ok(Some(*b)),
        Some(_) => {
            Err(ApiError::bad_request("invalid_field", format!("'{key}' must be a boolean")))
        }
    }
}

fn numeric_values(items: &[JsonValue], key: &str) -> Result<Vec<f64>, ApiError> {
    items
        .iter()
        .map(|v| match v {
            JsonValue::Num(x) => Ok(*x),
            _ => Err(ApiError::bad_request(
                "invalid_field",
                format!("'{key}' entries must be numbers"),
            )),
        })
        .collect()
}

fn integer_values(items: &[JsonValue], key: &str) -> Result<Vec<u64>, ApiError> {
    items
        .iter()
        .map(|v| {
            v.as_u64().ok_or_else(|| {
                ApiError::bad_request(
                    "invalid_field",
                    format!("'{key}' entries must be non-negative integers"),
                )
            })
        })
        .collect()
}

fn config_from(obj: &[(String, JsonValue)]) -> Result<SystemConfig, ApiError> {
    let scenario = match get_str(obj, "scenario")?.as_deref() {
        None | Some("case1") => Scenario::Case1,
        Some("case2") => Scenario::Case2,
        Some(other) => {
            return Err(ApiError::bad_request(
                "invalid_field",
                format!("unknown scenario '{other}'; expected case1 or case2"),
            ))
        }
    };
    let architecture = match get_str(obj, "architecture")?.as_deref() {
        None | Some("nonblocking") => Architecture::NonBlocking,
        Some("blocking") => Architecture::Blocking,
        Some(other) => {
            return Err(ApiError::bad_request(
                "invalid_field",
                format!("unknown architecture '{other}'; expected nonblocking or blocking"),
            ))
        }
    };
    let clusters = get_u64(obj, "clusters")?
        .ok_or_else(|| ApiError::bad_request("missing_field", "'clusters' is required"))?
        as usize;
    let nodes_per_cluster = match get_u64(obj, "nodes_per_cluster")? {
        Some(n) => n as usize,
        None => {
            if clusters == 0 || !PAPER_TOTAL_NODES.is_multiple_of(clusters) {
                return Err(ApiError::bad_request(
                    "invalid_field",
                    format!(
                        "'clusters' = {clusters} does not divide the default \
                         {PAPER_TOTAL_NODES} total nodes; pass nodes_per_cluster explicitly"
                    ),
                ));
            }
            PAPER_TOTAL_NODES / clusters
        }
    };
    let message_bytes = get_u64(obj, "message_bytes")?.unwrap_or(1024);
    let lambda_per_us = get_f64(obj, "lambda_per_us")?.unwrap_or(PAPER_LAMBDA_PER_US);

    SystemConfig::new(
        clusters,
        nodes_per_cluster,
        message_bytes,
        lambda_per_us,
        scenario,
        architecture,
    )
    .map_err(|e| ApiError::bad_request("invalid_config", e.to_string()))
}

fn push_config(out: &mut String, config: &SystemConfig) {
    out.push_str("{\"clusters\":");
    let _ = write!(out, "{}", config.clusters);
    out.push_str(",\"nodes_per_cluster\":");
    let _ = write!(out, "{}", config.nodes_per_cluster);
    out.push_str(",\"message_bytes\":");
    let _ = write!(out, "{}", config.message_bytes);
    out.push_str(",\"lambda_per_us\":");
    push_num(out, config.lambda_per_us);
    out.push_str(",\"architecture\":");
    out.push_str(&json_str(match config.architecture {
        Architecture::NonBlocking => "nonblocking",
        Architecture::Blocking => "blocking",
    }));
    out.push_str(",\"icn1\":");
    out.push_str(&json_str(config.icn1.name));
    out.push_str(",\"ecn1\":");
    out.push_str(&json_str(config.ecn1.name));
    out.push_str(",\"icn2\":");
    out.push_str(&json_str(config.icn2.name));
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmcs_core::model::AnalyticalModel;

    #[test]
    fn evaluate_accepts_minimal_and_full_requests() {
        let (cfg, strict) = parse_evaluate(r#"{"clusters": 16}"#).unwrap();
        assert_eq!(cfg.clusters, 16);
        assert_eq!(cfg.nodes_per_cluster, 16);
        assert_eq!(cfg.message_bytes, 1024);
        assert_eq!(cfg.lambda_per_us, PAPER_LAMBDA_PER_US);
        assert_eq!(cfg.architecture, Architecture::NonBlocking);
        assert!(!strict, "require_unsaturated defaults to false");

        let (cfg, strict) = parse_evaluate(
            r#"{"scenario":"case2","architecture":"blocking","clusters":8,
                "nodes_per_cluster":4,"message_bytes":512,"lambda_per_us":1e-4,
                "require_unsaturated":true}"#,
        )
        .unwrap();
        assert_eq!(cfg.clusters, 8);
        assert_eq!(cfg.nodes_per_cluster, 4);
        assert_eq!(cfg.message_bytes, 512);
        assert_eq!(cfg.lambda_per_us, 1e-4);
        assert_eq!(cfg.architecture, Architecture::Blocking);
        assert_eq!(cfg.icn1.name, "Fast Ethernet");
        assert!(strict);

        let err = parse_evaluate(r#"{"clusters":16,"require_unsaturated":1}"#).unwrap_err();
        assert_eq!(err.code, "invalid_field");
    }

    #[test]
    fn evaluate_rejects_unknown_fields_and_bad_values() {
        let err = parse_evaluate(r#"{"clusters":4,"lambda_per_ms":0.25}"#).unwrap_err();
        assert_eq!(err.code, "unknown_field");
        assert!(err.message.contains("lambda_per_ms"));

        let err = parse_evaluate(r#"{"clusters":0}"#).unwrap_err();
        assert_eq!(err.status, 400);

        let err = parse_evaluate(r#"{"clusters":3}"#).unwrap_err();
        assert!(err.message.contains("does not divide"), "{}", err.message);

        let err = parse_evaluate(r#"{"clusters":4,"scenario":"case9"}"#).unwrap_err();
        assert_eq!(err.code, "invalid_field");

        let err = parse_evaluate(r#"not json"#).unwrap_err();
        assert_eq!(err.code, "invalid_json");

        // Duplicate keys are a parse error (RFC 8259 strictness lives
        // in the shared parser).
        let err = parse_evaluate(r#"{"clusters":4,"clusters":8}"#).unwrap_err();
        assert_eq!(err.code, "invalid_json");
    }

    #[test]
    fn error_bodies_escape_client_bytes() {
        // A field name full of quotes, backslashes and control bytes
        // must still serialise to a valid JSON document.
        let body = "{\"evil\\\"}{\\u0001\": 1, \"clusters\": 4}";
        let err = parse_evaluate(body).unwrap_err();
        assert_eq!(err.code, "unknown_field");
        let rendered = err.body();
        let reparsed = parse_json(&rendered).expect("error body must be valid JSON");
        let msg = reparsed.get("error").and_then(|e| e.get("message")).and_then(|m| m.as_str());
        let msg = msg.expect("error.message present");
        assert!(msg.contains("evil\"}{\u{1}"), "raw bytes preserved in the decoded message");
        assert!(rendered.contains("\\u0001"), "control byte escaped on the wire: {rendered}");
        assert!(!rendered.contains('\u{1}'), "no raw control bytes on the wire");
    }

    #[test]
    fn sweep_parses_all_three_parameters_and_caps_size() {
        let (cfg, spec, strict) =
            parse_sweep(r#"{"clusters":16,"parameter":"lambda","values":[1e-4,2e-4]}"#).unwrap();
        assert_eq!(cfg.clusters, 16);
        assert_eq!(spec, SweepSpec::Lambda(vec![1e-4, 2e-4]));
        assert!(!strict);

        let (_, spec, _) =
            parse_sweep(r#"{"clusters":16,"parameter":"clusters","values":[4,16,64]}"#).unwrap();
        assert_eq!(spec, SweepSpec::Clusters(vec![4, 16, 64]));

        let (_, spec, strict) = parse_sweep(
            r#"{"clusters":16,"parameter":"message_bytes","values":[256,1024],
                "require_unsaturated":true}"#,
        )
        .unwrap();
        assert_eq!(spec, SweepSpec::MessageBytes(vec![256, 1024]));
        assert!(strict);

        let err = parse_sweep(r#"{"clusters":16,"parameter":"lambda","values":[]}"#).unwrap_err();
        assert_eq!(err.code, "invalid_field");

        let big: Vec<String> = (0..=MAX_SWEEP_POINTS).map(|i| format!("{}e-6", i + 1)).collect();
        let body =
            format!(r#"{{"clusters":16,"parameter":"lambda","values":[{}]}}"#, big.join(","));
        let err = parse_sweep(&body).unwrap_err();
        assert_eq!(err.code, "sweep_too_large");
    }

    #[test]
    fn evaluate_response_is_bit_identical_to_in_process_evaluation() {
        let (cfg, _) = parse_evaluate(r#"{"clusters":16,"architecture":"blocking"}"#).unwrap();
        let body = evaluate_response(&cfg).unwrap();
        let doc = parse_json(&body).unwrap();
        let served = doc
            .get("latency_us")
            .and_then(|l| l.get("mean"))
            .and_then(|m| m.as_num())
            .expect("latency_us.mean present");
        let direct = AnalyticalModel::evaluate(&cfg).unwrap();
        assert_eq!(
            served.to_bits(),
            direct.latency.mean_message_latency_us.to_bits(),
            "served latency must round-trip bit-identically"
        );
    }

    #[test]
    fn sweep_response_matches_individual_evaluations() {
        let (cfg, spec, _) =
            parse_sweep(r#"{"clusters":16,"parameter":"clusters","values":[4,64]}"#).unwrap();
        let body = sweep_response(&cfg, &spec).unwrap();
        let doc = parse_json(&body).unwrap();
        let points = doc.get("points").and_then(|p| p.as_arr()).unwrap();
        assert_eq!(points.len(), 2);
        for (point, clusters) in points.iter().zip([4usize, 64]) {
            let x = point.get("x").and_then(|x| x.as_num()).unwrap();
            assert_eq!(x as usize, clusters);
            let served = point.get("mean_latency_us").and_then(|m| m.as_num()).unwrap();
            let (direct_cfg, _) = parse_evaluate(&format!(r#"{{"clusters":{clusters}}}"#)).unwrap();
            let direct = AnalyticalModel::evaluate(&direct_cfg).unwrap();
            assert_eq!(served.to_bits(), direct.latency.mean_message_latency_us.to_bits());
        }
    }

    #[test]
    fn strict_saturated_workload_is_a_structured_422() {
        // The paper's default λ is far above the open-queue saturation
        // rate of every preset shape, so a strict request must bounce
        // with the boundary in the body.
        let (cfg, strict) =
            parse_evaluate(r#"{"clusters":16,"require_unsaturated":true}"#).unwrap();
        assert!(strict);
        let err = check_unsaturated(&cfg).unwrap_err();
        assert_eq!(err.status, 422);
        assert_eq!(err.code, "workload_saturated");
        let sat = err
            .data
            .iter()
            .find(|(k, _)| *k == "saturation_lambda")
            .map(|(_, v)| *v)
            .expect("saturation_lambda present");
        let service = ServiceTimes::compute(&cfg).unwrap();
        assert_eq!(
            sat.to_bits(),
            solver::saturation_lambda(&cfg, &service).to_bits(),
            "reported boundary matches the solver's bit for bit"
        );
        let doc = parse_json(&err.body()).expect("error body is valid JSON");
        let reported =
            doc.get("error").and_then(|e| e.get("saturation_lambda")).and_then(|v| v.as_num());
        assert_eq!(reported.unwrap().to_bits(), sat.to_bits());

        // A λ safely under the boundary passes the strict check.
        let under = cfg.with_lambda(sat * 0.5);
        assert!(check_unsaturated(&under).is_ok());

        // Non-strict evaluation of the same saturated workload still
        // succeeds: the finite-population model self-throttles.
        assert!(evaluate_response(&cfg).is_ok());
    }

    #[test]
    fn strict_sweep_rejects_saturated_points_with_the_x_value() {
        let (cfg, spec, strict) = parse_sweep(
            r#"{"clusters":16,"lambda_per_us":1e-5,"parameter":"message_bytes",
                "values":[256,65536],"require_unsaturated":true}"#,
        )
        .unwrap();
        assert!(strict);
        // 64 KiB messages push Fast Ethernet past saturation even at
        // this low λ; the rejection names the offending sweep point.
        let err = check_sweep_unsaturated(&cfg, &spec).unwrap_err();
        assert_eq!(err.code, "workload_saturated");
        let x = err.data.iter().find(|(k, _)| *k == "sweep_x").map(|(_, v)| *v);
        assert_eq!(x, Some(65536.0));

        // A lambda sweep below saturation passes.
        let (cfg, spec, _) = parse_sweep(
            r#"{"clusters":16,"parameter":"lambda","values":[1e-6,2e-6],
                "require_unsaturated":true}"#,
        )
        .unwrap();
        assert!(check_sweep_unsaturated(&cfg, &spec).is_ok());
    }

    #[test]
    fn optimize_parses_defaults_and_rejects_bad_fields() {
        let request = parse_optimize(r#"{}"#).unwrap();
        assert_eq!(request.spec.workload.total_nodes, PAPER_TOTAL_NODES);
        assert_eq!(request.spec.workload.lambda_per_us, PAPER_LAMBDA_PER_US);
        assert_eq!(request.spec.constraints.slo_latency_us, None);
        assert_eq!(request.spec.constraints.budget_usd, None);
        assert!(!request.spec.constraints.require_unsaturated);
        assert!(!request.prune, "pruning is opt-in");
        assert_eq!(request.spec.space.len(), 1120);

        let request = parse_optimize(
            r#"{"slo_ms":30,"budget_usd":60000,"require_unsaturated":true,"prune":true,
                "workload":{"scenario":"case2","total_nodes":64,
                            "message_bytes":512,"lambda_per_us":1e-5}}"#,
        )
        .unwrap();
        assert_eq!(request.spec.constraints.slo_latency_us, Some(30_000.0));
        assert_eq!(request.spec.constraints.budget_usd, Some(60_000.0));
        assert!(request.spec.constraints.require_unsaturated);
        assert!(request.prune);
        assert_eq!(request.spec.workload.total_nodes, 64);
        assert_eq!(request.spec.workload.message_bytes, 512);

        let err = parse_optimize(r#"{"slo_ms":-1}"#).unwrap_err();
        assert_eq!(err.code, "invalid_field");
        let err = parse_optimize(r#"{"budget":1}"#).unwrap_err();
        assert_eq!(err.code, "unknown_field");
        let err = parse_optimize(r#"{"workload":{"lambda_per_ms":1}}"#).unwrap_err();
        assert_eq!(err.code, "unknown_field");
        let err = parse_optimize(r#"{"workload":3}"#).unwrap_err();
        assert_eq!(err.code, "invalid_field");
    }

    #[test]
    fn optimize_response_rejects_unusable_workloads_as_400() {
        // A prime node count has no divisors in [2, N/2]: the design
        // space is empty and the spec is rejected up front.
        let request = parse_optimize(r#"{"workload":{"total_nodes":7}}"#).unwrap();
        let err = optimize_response(&request).unwrap_err();
        assert_eq!(err.status, 400);
        assert_eq!(err.code, "invalid_config");
    }
}
