//! Assembles a machine-readable benchmark report and gates CI on it.
//!
//! Input is the JSON-lines file the vendored criterion harness appends
//! to when `HMCS_BENCH_JSON` is set (one `{"id", "min_s", "mean_s",
//! "max_s"}` object per line). The tool:
//!
//! 1. parses every row,
//! 2. computes the observability overhead from the `batch_sweep`
//!    bench's `instrumentation/metrics_on` vs
//!    `instrumentation/metrics_off` rows and **fails** (exit 1) when it
//!    exceeds the budget (`--max-overhead-pct`, default 10),
//! 3. optionally folds in the per-figure `wall_clock_us` recorded by
//!    `reproduce` manifests (`--manifests DIR`),
//! 4. writes everything as one JSON document (`--out`, default
//!    `BENCH_PR4.json`).
//!
//! The report is written before the gate verdict so a failing run still
//! uploads a complete artefact.
//!
//! A second mode, `benchgate serve SUMMARY.json`, gates the
//! `hmcs-loadgen/1` document produced by the load generator instead:
//! it checks achieved throughput against `--min-rps` (and optionally
//! P99 against `--max-p99-us`), requires zero error responses, and
//! writes a `hmcs-serve-bench/1` report embedding the validated
//! summary verbatim — the committed `BENCH_SERVE.json` artefact.
//!
//! `benchgate kernel` gates the batched-kernel speedup instead: input
//! is either fresh `kernel_grid` criterion rows or a previously
//! committed `hmcs-kernel-bench/1` report (so CI re-judges the
//! committed `BENCH_KERNEL.json` without re-measuring), the verdict is
//! `scalar_per_point mean / batched mean >= --min-speedup`.

use hmcs_bench::manifest::{parse_json, JsonValue};
use hmcs_bench::report::write_atomic;
use hmcs_core::json::json_str;
use std::process::ExitCode;

/// Default overhead budget (%). The bench itself documents a ≤2%
/// target on quiet machines; shared CI runners need headroom for
/// scheduler noise, so the gate only catches real regressions.
const DEFAULT_MAX_OVERHEAD_PCT: f64 = 10.0;

/// One parsed benchmark row.
#[derive(Debug, Clone, PartialEq)]
struct BenchRow {
    id: String,
    min_s: f64,
    mean_s: f64,
    max_s: f64,
}

/// The instrumentation-overhead verdict.
#[derive(Debug, Clone, PartialEq)]
struct GateVerdict {
    metrics_on_mean_s: f64,
    metrics_off_mean_s: f64,
    overhead_pct: f64,
    max_overhead_pct: f64,
    pass: bool,
}

fn parse_rows(body: &str) -> Result<Vec<BenchRow>, String> {
    let mut rows = Vec::new();
    for (i, line) in body.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = parse_json(line).map_err(|e| format!("row {}: {e}", i + 1))?;
        let field = |k: &str| -> Result<f64, String> {
            v.get(k)
                .and_then(JsonValue::as_num)
                .ok_or_else(|| format!("row {}: missing numeric \"{k}\"", i + 1))
        };
        rows.push(BenchRow {
            id: v
                .get("id")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("row {}: missing \"id\"", i + 1))?
                .to_string(),
            min_s: field("min_s")?,
            mean_s: field("mean_s")?,
            max_s: field("max_s")?,
        });
    }
    Ok(rows)
}

/// Judges the instrumentation rows. The on/off pair measures the same
/// 72-point grid, so their ratio isolates the metrics layer's cost.
fn judge(rows: &[BenchRow], max_overhead_pct: f64) -> Result<GateVerdict, String> {
    let mean_of = |id: &str| -> Result<f64, String> {
        rows.iter()
            .find(|r| r.id == id)
            .map(|r| r.mean_s)
            .ok_or_else(|| format!("no \"{id}\" row — did the batch_sweep bench run?"))
    };
    let on = mean_of("instrumentation/metrics_on")?;
    let off = mean_of("instrumentation/metrics_off")?;
    if off <= 0.0 {
        return Err("metrics_off mean is not positive".to_string());
    }
    let overhead_pct = (on / off - 1.0) * 100.0;
    Ok(GateVerdict {
        metrics_on_mean_s: on,
        metrics_off_mean_s: off,
        overhead_pct,
        max_overhead_pct,
        pass: overhead_pct <= max_overhead_pct,
    })
}

/// Pulls `(artefact, figure wall_clock_us)` out of every
/// `manifest_*.json` in `dir` that carries a figure section.
fn figure_wall_clocks(dir: &std::path::Path) -> Vec<(String, f64)> {
    let mut clocks = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return clocks;
    };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let Some(artefact) = name.strip_prefix("manifest_").and_then(|n| n.strip_suffix(".json"))
        else {
            continue;
        };
        let Ok(body) = std::fs::read_to_string(entry.path()) else {
            continue;
        };
        let Ok(doc) = parse_json(&body) else {
            continue;
        };
        if let Some(us) =
            doc.get("figure").and_then(|f| f.get("wall_clock_us")).and_then(JsonValue::as_num)
        {
            clocks.push((artefact.to_string(), us));
        }
    }
    clocks.sort_by(|a, b| a.0.cmp(&b.0));
    clocks
}

/// Renders `--meta` pairs as a JSON object.
fn meta_json(meta: &[(String, String)]) -> String {
    let items: Vec<String> =
        meta.iter().map(|(k, v)| format!("{}: {}", json_str(k), json_str(v))).collect();
    format!("{{{}}}", items.join(", "))
}

fn report_json(
    rows: &[BenchRow],
    verdict: &GateVerdict,
    clocks: &[(String, f64)],
    meta: &[(String, String)],
) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": \"hmcs-bench-gate/1\",");
    let _ = writeln!(out, "  \"meta\": {},", meta_json(meta));
    let _ = writeln!(out, "  \"gate\": {{");
    let _ = writeln!(out, "    \"metrics_on_mean_s\": {},", verdict.metrics_on_mean_s);
    let _ = writeln!(out, "    \"metrics_off_mean_s\": {},", verdict.metrics_off_mean_s);
    let _ = writeln!(out, "    \"overhead_pct\": {},", verdict.overhead_pct);
    let _ = writeln!(out, "    \"max_overhead_pct\": {},", verdict.max_overhead_pct);
    let _ = writeln!(out, "    \"pass\": {}", verdict.pass);
    let _ = writeln!(out, "  }},");
    let clock_items: Vec<String> =
        clocks.iter().map(|(k, v)| format!("{}: {v}", json_str(k))).collect();
    let _ = writeln!(out, "  \"figure_wall_clock_us\": {{{}}},", clock_items.join(", "));
    let _ = writeln!(out, "  \"benches\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"id\": {}, \"min_s\": {}, \"mean_s\": {}, \"max_s\": {}}}{comma}",
            json_str(&r.id),
            r.min_s,
            r.mean_s,
            r.max_s
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

/// The serving-throughput verdict extracted from a loadgen summary.
#[derive(Debug, Clone, PartialEq)]
struct ServeVerdict {
    achieved_rps: f64,
    min_rps: f64,
    p99_us: f64,
    max_p99_us: Option<f64>,
    errors: u64,
    pass: bool,
}

/// Validates an `hmcs-loadgen/1` document against the thresholds.
/// Throughput below `min_rps`, any error response, or (when bounded) a
/// P99 above `max_p99_us` fails the gate.
fn judge_serve(
    doc: &JsonValue,
    min_rps: f64,
    max_p99_us: Option<f64>,
) -> Result<ServeVerdict, String> {
    if doc.get("schema").and_then(JsonValue::as_str) != Some("hmcs-loadgen/1") {
        return Err("not an hmcs-loadgen/1 document".to_string());
    }
    let measured = doc.get("measured").ok_or("missing \"measured\" section")?;
    let achieved_rps = measured
        .get("achieved_rps")
        .and_then(JsonValue::as_num)
        .ok_or("missing numeric \"measured.achieved_rps\"")?;
    let p99_us = measured
        .get("latency_us")
        .and_then(|l| l.get("p99"))
        .and_then(JsonValue::as_num)
        .ok_or("missing numeric \"measured.latency_us.p99\"")?;
    let errors = doc
        .get("requests")
        .and_then(|r| r.get("errors"))
        .and_then(JsonValue::as_u64)
        .ok_or("missing integer \"requests.errors\"")?;
    let pass =
        achieved_rps >= min_rps && errors == 0 && max_p99_us.is_none_or(|budget| p99_us <= budget);
    Ok(ServeVerdict { achieved_rps, min_rps, p99_us, max_p99_us, errors, pass })
}

/// Renders the committed `hmcs-serve-bench/1` artefact: the gate
/// verdict plus the loadgen summary embedded verbatim (it is already
/// validated JSON, so embedding keeps every measured number).
fn serve_report_json(
    verdict: &ServeVerdict,
    summary_raw: &str,
    meta: &[(String, String)],
) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": \"hmcs-serve-bench/1\",");
    let _ = writeln!(out, "  \"meta\": {},", meta_json(meta));
    let _ = writeln!(out, "  \"gate\": {{");
    let _ = writeln!(out, "    \"min_rps\": {},", verdict.min_rps);
    let _ = writeln!(out, "    \"achieved_rps\": {},", verdict.achieved_rps);
    let _ = writeln!(out, "    \"p99_us\": {},", verdict.p99_us);
    let _ = writeln!(
        out,
        "    \"max_p99_us\": {},",
        verdict.max_p99_us.map_or("null".to_string(), |v| v.to_string())
    );
    let _ = writeln!(out, "    \"errors\": {},", verdict.errors);
    let _ = writeln!(out, "    \"pass\": {}", verdict.pass);
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"loadgen\": {}", summary_raw.trim());
    let _ = writeln!(out, "}}");
    out
}

fn serve_main(args: Vec<String>) -> ExitCode {
    let mut summary_path: Option<String> = None;
    let mut out_path = "BENCH_SERVE.json".to_string();
    let mut min_rps: Option<f64> = None;
    let mut max_p99_us: Option<f64> = None;
    let mut meta: Vec<(String, String)> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out_path = it.next().unwrap_or_else(|| usage()),
            "--min-rps" => {
                min_rps = Some(it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage()));
            }
            "--max-p99-us" => {
                max_p99_us =
                    Some(it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage()));
            }
            "--meta" => {
                let kv = it.next().unwrap_or_else(|| usage());
                let (k, v) = kv.split_once('=').unwrap_or_else(|| usage());
                meta.push((k.to_string(), v.to_string()));
            }
            _ if summary_path.is_none() && !arg.starts_with('-') => summary_path = Some(arg),
            _ => usage(),
        }
    }
    let (Some(summary_path), Some(min_rps)) = (summary_path, min_rps) else { usage() };

    let raw = match std::fs::read_to_string(&summary_path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: cannot read {summary_path}: {e}");
            return ExitCode::from(2);
        }
    };
    let doc = match parse_json(&raw) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {summary_path} is not valid JSON: {e}");
            return ExitCode::from(2);
        }
    };
    let verdict = match judge_serve(&doc, min_rps, max_p99_us) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    let report = serve_report_json(&verdict, &raw, &meta);
    if let Err(e) = write_atomic(std::path::Path::new(&out_path), report.as_bytes()) {
        eprintln!("error: cannot write {out_path}: {e}");
        return ExitCode::from(2);
    }
    println!(
        "benchgate serve: {:.0} req/s (floor {:.0}), p99 {:.0} µs{}, {} error(s) — {}",
        verdict.achieved_rps,
        verdict.min_rps,
        verdict.p99_us,
        verdict.max_p99_us.map_or(String::new(), |budget| format!(" (budget {budget:.0} µs)")),
        verdict.errors,
        if verdict.pass { "PASS" } else { "FAIL" }
    );
    println!("report written to {out_path}");
    if verdict.pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The optimizer-throughput verdict extracted from an
/// `hmcs-optimize-bench/1` summary (written by `reproduce optimize
/// --opt-bench`).
#[derive(Debug, Clone, PartialEq)]
struct OptimizeVerdict {
    evals_per_s: f64,
    min_eps: f64,
    evaluated: u64,
    speedup: Option<f64>,
    min_speedup: Option<f64>,
    pass: bool,
}

/// Validates an `hmcs-optimize-bench/1` document: the measured
/// evaluations/second must meet the floor, the run must have evaluated
/// at least one point, and — when `--min-speedup` is given — the
/// summary's pruned-vs-exhaustive `speedup` must meet its floor too
/// (along with the recorded frontier bit-identity check).
fn judge_optimize(
    doc: &JsonValue,
    min_eps: f64,
    min_speedup: Option<f64>,
) -> Result<OptimizeVerdict, String> {
    if doc.get("schema").and_then(JsonValue::as_str) != Some("hmcs-optimize-bench/1") {
        return Err("not an hmcs-optimize-bench/1 document".to_string());
    }
    let evals_per_s = doc
        .get("evals_per_s")
        .and_then(JsonValue::as_num)
        .ok_or("missing numeric \"evals_per_s\"")?;
    let evaluated =
        doc.get("evaluated").and_then(JsonValue::as_u64).ok_or("missing integer \"evaluated\"")?;
    let speedup = doc.get("speedup").and_then(JsonValue::as_num);
    let mut pass = evals_per_s >= min_eps && evaluated > 0;
    if let Some(floor) = min_speedup {
        let measured = speedup.ok_or("missing numeric \"speedup\" (--min-speedup given)")?;
        let identical = doc.get("frontier_identical").and_then(|v| match v {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        });
        if identical != Some(true) {
            return Err("summary does not record \"frontier_identical\": true".to_string());
        }
        pass = pass && measured >= floor;
    }
    Ok(OptimizeVerdict { evals_per_s, min_eps, evaluated, speedup, min_speedup, pass })
}

/// Renders the committed `hmcs-optimize-gate/1` artefact with the
/// validated summary embedded verbatim.
fn optimize_report_json(
    verdict: &OptimizeVerdict,
    summary_raw: &str,
    meta: &[(String, String)],
) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": \"hmcs-optimize-gate/1\",");
    let _ = writeln!(out, "  \"meta\": {},", meta_json(meta));
    let _ = writeln!(out, "  \"gate\": {{");
    let _ = writeln!(out, "    \"min_evals_per_s\": {},", verdict.min_eps);
    let _ = writeln!(out, "    \"evals_per_s\": {},", verdict.evals_per_s);
    let _ = writeln!(out, "    \"evaluated\": {},", verdict.evaluated);
    if let Some(speedup) = verdict.speedup {
        let _ = writeln!(out, "    \"speedup\": {speedup},");
    }
    if let Some(min_speedup) = verdict.min_speedup {
        let _ = writeln!(out, "    \"min_speedup\": {min_speedup},");
    }
    let _ = writeln!(out, "    \"pass\": {}", verdict.pass);
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"optimize\": {}", summary_raw.trim());
    let _ = writeln!(out, "}}");
    out
}

fn optimize_main(args: Vec<String>) -> ExitCode {
    let mut summary_path: Option<String> = None;
    let mut out_path = "BENCH_OPTIMIZE.json".to_string();
    let mut min_eps: Option<f64> = None;
    let mut min_speedup: Option<f64> = None;
    let mut meta: Vec<(String, String)> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out_path = it.next().unwrap_or_else(|| usage()),
            "--min-eps" => {
                min_eps = Some(it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage()));
            }
            "--min-speedup" => {
                min_speedup =
                    Some(it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage()));
            }
            "--meta" => {
                let kv = it.next().unwrap_or_else(|| usage());
                let (k, v) = kv.split_once('=').unwrap_or_else(|| usage());
                meta.push((k.to_string(), v.to_string()));
            }
            _ if summary_path.is_none() && !arg.starts_with('-') => summary_path = Some(arg),
            _ => usage(),
        }
    }
    let (Some(summary_path), Some(min_eps)) = (summary_path, min_eps) else { usage() };

    let raw = match std::fs::read_to_string(&summary_path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: cannot read {summary_path}: {e}");
            return ExitCode::from(2);
        }
    };
    let doc = match parse_json(&raw) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {summary_path} is not valid JSON: {e}");
            return ExitCode::from(2);
        }
    };
    let verdict = match judge_optimize(&doc, min_eps, min_speedup) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    let report = optimize_report_json(&verdict, &raw, &meta);
    if let Err(e) = write_atomic(std::path::Path::new(&out_path), report.as_bytes()) {
        eprintln!("error: cannot write {out_path}: {e}");
        return ExitCode::from(2);
    }
    let speedup_note = match (verdict.speedup, verdict.min_speedup) {
        (Some(s), Some(floor)) => format!(", {s:.2}x pruning speedup (floor {floor:.2}x)"),
        (Some(s), None) => format!(", {s:.2}x pruning speedup"),
        _ => String::new(),
    };
    println!(
        "benchgate optimize: {:.0} evals/s (floor {:.0}), {} evaluation(s){} — {}",
        verdict.evals_per_s,
        verdict.min_eps,
        verdict.evaluated,
        speedup_note,
        if verdict.pass { "PASS" } else { "FAIL" }
    );
    println!("report written to {out_path}");
    if verdict.pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The topology-pipeline verdict extracted from an
/// `hmcs-topology-bench/1` summary (written by `reproduce topology
/// --topo-bench`).
#[derive(Debug, Clone, PartialEq)]
struct TopologyVerdict {
    cases: u64,
    max_nodes: u64,
    min_nodes: u64,
    roundtrip_failures: u64,
    agreement_failures: u64,
    pass: bool,
}

/// Validates an `hmcs-topology-bench/1` document: the run must cover
/// at least one case, recover every planted partition (zero round-trip
/// failures), agree with the analytical model in every case, and its
/// largest matrix must reach the `--min-nodes` scale floor.
fn judge_topology(doc: &JsonValue, min_nodes: u64) -> Result<TopologyVerdict, String> {
    if doc.get("schema").and_then(JsonValue::as_str) != Some("hmcs-topology-bench/1") {
        return Err("not an hmcs-topology-bench/1 document".to_string());
    }
    let int = |k: &str| -> Result<u64, String> {
        doc.get(k).and_then(JsonValue::as_u64).ok_or_else(|| format!("missing integer {k:?}"))
    };
    let cases = int("cases")?;
    let max_nodes = int("max_nodes")?;
    let roundtrip_failures = int("roundtrip_failures")?;
    let agreement_failures = int("agreement_failures")?;
    let pass =
        cases > 0 && roundtrip_failures == 0 && agreement_failures == 0 && max_nodes >= min_nodes;
    Ok(TopologyVerdict {
        cases,
        max_nodes,
        min_nodes,
        roundtrip_failures,
        agreement_failures,
        pass,
    })
}

/// Renders the committed `hmcs-topology-gate/1` artefact with the
/// validated summary embedded verbatim.
fn topology_report_json(
    verdict: &TopologyVerdict,
    summary_raw: &str,
    meta: &[(String, String)],
) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": \"hmcs-topology-gate/1\",");
    let _ = writeln!(out, "  \"meta\": {},", meta_json(meta));
    let _ = writeln!(out, "  \"gate\": {{");
    let _ = writeln!(out, "    \"cases\": {},", verdict.cases);
    let _ = writeln!(out, "    \"max_nodes\": {},", verdict.max_nodes);
    let _ = writeln!(out, "    \"min_nodes\": {},", verdict.min_nodes);
    let _ = writeln!(out, "    \"roundtrip_failures\": {},", verdict.roundtrip_failures);
    let _ = writeln!(out, "    \"agreement_failures\": {},", verdict.agreement_failures);
    let _ = writeln!(out, "    \"pass\": {}", verdict.pass);
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"topology\": {}", summary_raw.trim());
    let _ = writeln!(out, "}}");
    out
}

fn topology_main(args: Vec<String>) -> ExitCode {
    let mut summary_path: Option<String> = None;
    let mut out_path = "BENCH_TOPOLOGY.json".to_string();
    let mut min_nodes: Option<u64> = None;
    let mut meta: Vec<(String, String)> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out_path = it.next().unwrap_or_else(|| usage()),
            "--min-nodes" => {
                min_nodes = Some(it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage()));
            }
            "--meta" => {
                let kv = it.next().unwrap_or_else(|| usage());
                let (k, v) = kv.split_once('=').unwrap_or_else(|| usage());
                meta.push((k.to_string(), v.to_string()));
            }
            _ if summary_path.is_none() && !arg.starts_with('-') => summary_path = Some(arg),
            _ => usage(),
        }
    }
    let (Some(summary_path), Some(min_nodes)) = (summary_path, min_nodes) else { usage() };

    let raw = match std::fs::read_to_string(&summary_path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: cannot read {summary_path}: {e}");
            return ExitCode::from(2);
        }
    };
    let doc = match parse_json(&raw) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {summary_path} is not valid JSON: {e}");
            return ExitCode::from(2);
        }
    };
    let verdict = match judge_topology(&doc, min_nodes) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    let report = topology_report_json(&verdict, &raw, &meta);
    if let Err(e) = write_atomic(std::path::Path::new(&out_path), report.as_bytes()) {
        eprintln!("error: cannot write {out_path}: {e}");
        return ExitCode::from(2);
    }
    println!(
        "benchgate topology: {} case(s), largest {} nodes (floor {}), {} round-trip / {} \
         agreement failure(s) — {}",
        verdict.cases,
        verdict.max_nodes,
        verdict.min_nodes,
        verdict.roundtrip_failures,
        verdict.agreement_failures,
        if verdict.pass { "PASS" } else { "FAIL" }
    );
    println!("report written to {out_path}");
    if verdict.pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The kernel-speedup verdict: the batched SoA kernel's mean time on
/// the `kernel_grid` bench versus the scalar per-point path's.
#[derive(Debug, Clone, PartialEq)]
struct KernelVerdict {
    scalar_mean_s: f64,
    batched_mean_s: f64,
    speedup: f64,
    min_speedup: f64,
    pass: bool,
}

/// Judges a pair of `kernel_grid` means against the speedup floor.
fn judge_kernel(
    scalar_mean_s: f64,
    batched_mean_s: f64,
    min_speedup: f64,
) -> Result<KernelVerdict, String> {
    if !(batched_mean_s > 0.0 && scalar_mean_s > 0.0) {
        return Err("kernel_grid means must be positive".to_string());
    }
    let speedup = scalar_mean_s / batched_mean_s;
    Ok(KernelVerdict {
        scalar_mean_s,
        batched_mean_s,
        speedup,
        min_speedup,
        pass: speedup >= min_speedup,
    })
}

/// Extracts the scalar/batched mean pair from either input shape:
/// fresh criterion JSONL rows (`kernel_grid/scalar_per_point` +
/// `kernel_grid/batched`), or a previously committed
/// `hmcs-kernel-bench/1` report — so CI can re-judge the committed
/// `BENCH_KERNEL.json` at the quiet-host floor without re-measuring.
fn kernel_means(raw: &str) -> Result<(f64, f64), String> {
    if let Ok(doc) = parse_json(raw) {
        if doc.get("schema").and_then(JsonValue::as_str) == Some("hmcs-kernel-bench/1") {
            let num = |k: &str| -> Result<f64, String> {
                doc.get("gate")
                    .and_then(|g| g.get(k))
                    .and_then(JsonValue::as_num)
                    .ok_or_else(|| format!("missing numeric \"gate.{k}\""))
            };
            return Ok((num("scalar_mean_s")?, num("batched_mean_s")?));
        }
    }
    let rows = parse_rows(raw)?;
    let mean_of = |id: &str| -> Result<f64, String> {
        rows.iter()
            .find(|r| r.id == id)
            .map(|r| r.mean_s)
            .ok_or_else(|| format!("no \"{id}\" row — did the kernel_grid bench run?"))
    };
    Ok((mean_of("kernel_grid/scalar_per_point")?, mean_of("kernel_grid/batched")?))
}

/// Renders the committed `hmcs-kernel-bench/1` artefact. The gate
/// section carries the raw means, so the report is itself a valid
/// input for a later re-judge at a different floor.
fn kernel_report_json(verdict: &KernelVerdict, meta: &[(String, String)]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": \"hmcs-kernel-bench/1\",");
    let _ = writeln!(out, "  \"meta\": {},", meta_json(meta));
    let _ = writeln!(out, "  \"gate\": {{");
    let _ = writeln!(out, "    \"scalar_mean_s\": {},", verdict.scalar_mean_s);
    let _ = writeln!(out, "    \"batched_mean_s\": {},", verdict.batched_mean_s);
    let _ = writeln!(out, "    \"speedup\": {},", verdict.speedup);
    let _ = writeln!(out, "    \"min_speedup\": {},", verdict.min_speedup);
    let _ = writeln!(out, "    \"pass\": {}", verdict.pass);
    let _ = writeln!(out, "  }}");
    let _ = writeln!(out, "}}");
    out
}

fn kernel_main(args: Vec<String>) -> ExitCode {
    let mut input_path: Option<String> = None;
    let mut out_path: Option<String> = None;
    let mut min_speedup: Option<f64> = None;
    let mut meta: Vec<(String, String)> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out_path = Some(it.next().unwrap_or_else(|| usage())),
            "--min-speedup" => {
                min_speedup =
                    Some(it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage()));
            }
            "--meta" => {
                let kv = it.next().unwrap_or_else(|| usage());
                let (k, v) = kv.split_once('=').unwrap_or_else(|| usage());
                meta.push((k.to_string(), v.to_string()));
            }
            _ if input_path.is_none() && !arg.starts_with('-') => input_path = Some(arg),
            _ => usage(),
        }
    }
    let (Some(input_path), Some(min_speedup)) = (input_path, min_speedup) else { usage() };

    let raw = match std::fs::read_to_string(&input_path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: cannot read {input_path}: {e}");
            return ExitCode::from(2);
        }
    };
    let (scalar_mean_s, batched_mean_s) = match kernel_means(&raw) {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let verdict = match judge_kernel(scalar_mean_s, batched_mean_s, min_speedup) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(out_path) = &out_path {
        let report = kernel_report_json(&verdict, &meta);
        if let Err(e) = write_atomic(std::path::Path::new(out_path), report.as_bytes()) {
            eprintln!("error: cannot write {out_path}: {e}");
            return ExitCode::from(2);
        }
        println!("report written to {out_path}");
    }
    println!(
        "benchgate kernel: {:.2}x speedup (floor {:.2}x) — scalar {:.3e} s vs batched {:.3e} s — {}",
        verdict.speedup,
        verdict.min_speedup,
        verdict.scalar_mean_s,
        verdict.batched_mean_s,
        if verdict.pass { "PASS" } else { "FAIL" }
    );
    if verdict.pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: benchgate ROWS.jsonl [--manifests DIR] [--out PATH] \
         [--max-overhead-pct X] [--meta key=value]...\n\
         \x20      benchgate serve SUMMARY.json --min-rps X [--max-p99-us Y] \
         [--out PATH] [--meta key=value]...\n\
         \x20      benchgate optimize SUMMARY.json --min-eps X [--min-speedup Y] \
         [--out PATH] [--meta key=value]...\n\
         \x20      benchgate kernel ROWS.jsonl|REPORT.json --min-speedup X \
         [--out PATH] [--meta key=value]...\n\
         \x20      benchgate topology SUMMARY.json --min-nodes N \
         [--out PATH] [--meta key=value]..."
    );
    std::process::exit(2)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        args.remove(0);
        return serve_main(args);
    }
    if args.first().map(String::as_str) == Some("optimize") {
        args.remove(0);
        return optimize_main(args);
    }
    if args.first().map(String::as_str) == Some("kernel") {
        args.remove(0);
        return kernel_main(args);
    }
    if args.first().map(String::as_str) == Some("topology") {
        args.remove(0);
        return topology_main(args);
    }
    let mut rows_path: Option<String> = None;
    let mut manifests: Option<String> = None;
    let mut out_path = "BENCH_PR4.json".to_string();
    let mut max_overhead_pct = DEFAULT_MAX_OVERHEAD_PCT;
    let mut meta: Vec<(String, String)> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--manifests" => manifests = Some(it.next().unwrap_or_else(|| usage())),
            "--out" => out_path = it.next().unwrap_or_else(|| usage()),
            "--max-overhead-pct" => {
                max_overhead_pct =
                    it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
            }
            "--meta" => {
                let kv = it.next().unwrap_or_else(|| usage());
                let (k, v) = kv.split_once('=').unwrap_or_else(|| usage());
                meta.push((k.to_string(), v.to_string()));
            }
            _ if rows_path.is_none() && !arg.starts_with('-') => rows_path = Some(arg),
            _ => usage(),
        }
    }
    let Some(rows_path) = rows_path else { usage() };

    let body = match std::fs::read_to_string(&rows_path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: cannot read {rows_path}: {e}");
            return ExitCode::from(2);
        }
    };
    let rows = match parse_rows(&body) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let verdict = match judge(&rows, max_overhead_pct) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let clocks = manifests
        .as_deref()
        .map(|d| figure_wall_clocks(std::path::Path::new(d)))
        .unwrap_or_default();

    let report = report_json(&rows, &verdict, &clocks, &meta);
    if let Err(e) = write_atomic(std::path::Path::new(&out_path), report.as_bytes()) {
        eprintln!("error: cannot write {out_path}: {e}");
        return ExitCode::from(2);
    }
    println!(
        "benchgate: {} row(s), instrumentation overhead {:.2}% (budget {:.2}%) — {}",
        rows.len(),
        verdict.overhead_pct,
        verdict.max_overhead_pct,
        if verdict.pass { "PASS" } else { "FAIL" }
    );
    println!("report written to {out_path}");
    if verdict.pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<BenchRow> {
        parse_rows(concat!(
            "{\"id\": \"instrumentation/metrics_on\", \"min_s\": 0.010, \"mean_s\": 0.0104, \"max_s\": 0.011}\n",
            "{\"id\": \"instrumentation/metrics_off\", \"min_s\": 0.010, \"mean_s\": 0.0100, \"max_s\": 0.011}\n",
            "{\"id\": \"figure_grid/workers/1\", \"min_s\": 0.02, \"mean_s\": 0.021, \"max_s\": 0.022}\n",
        ))
        .unwrap()
    }

    #[test]
    fn rows_parse_with_ids_and_times() {
        let rows = rows();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2].id, "figure_grid/workers/1");
        assert_eq!(rows[0].mean_s, 0.0104);
    }

    #[test]
    fn gate_passes_inside_budget_and_fails_outside() {
        let rows = rows();
        // 4% overhead: passes a 10% budget, fails a 2% budget.
        let ok = judge(&rows, 10.0).unwrap();
        assert!(ok.pass);
        assert!((ok.overhead_pct - 4.0).abs() < 1e-9);
        let bad = judge(&rows, 2.0).unwrap();
        assert!(!bad.pass);
    }

    #[test]
    fn gate_requires_both_instrumentation_rows() {
        let only_on = parse_rows(
            "{\"id\": \"instrumentation/metrics_on\", \"min_s\": 1, \"mean_s\": 1, \"max_s\": 1}",
        )
        .unwrap();
        assert!(judge(&only_on, 10.0).is_err());
    }

    #[test]
    fn meta_values_round_trip_through_the_report() {
        let rows = rows();
        let verdict = judge(&rows, 10.0).unwrap();
        let value = "say \"hi\"\\path\nnext line";
        let meta = vec![("note".to_string(), value.to_string())];
        let doc = parse_json(&report_json(&rows, &verdict, &[], &meta)).unwrap();
        assert_eq!(
            doc.get("meta").and_then(|m| m.get("note")).and_then(JsonValue::as_str),
            Some(value)
        );
    }

    #[test]
    fn report_is_valid_json_carrying_the_verdict() {
        let rows = rows();
        let verdict = judge(&rows, 10.0).unwrap();
        let clocks = vec![("fig4".to_string(), 28583.8)];
        let meta = vec![("budget".to_string(), "ci".to_string())];
        let doc = parse_json(&report_json(&rows, &verdict, &clocks, &meta)).unwrap();
        assert_eq!(doc.get("schema").and_then(JsonValue::as_str), Some("hmcs-bench-gate/1"));
        assert_eq!(
            doc.get("meta").and_then(|m| m.get("budget")).and_then(JsonValue::as_str),
            Some("ci")
        );
        assert_eq!(doc.get("gate").and_then(|g| g.get("pass")), Some(&JsonValue::Bool(true)));
        assert_eq!(
            doc.get("figure_wall_clock_us").and_then(|c| c.get("fig4")).and_then(JsonValue::as_num),
            Some(28583.8)
        );
        match doc.get("benches") {
            Some(JsonValue::Arr(items)) => assert_eq!(items.len(), 3),
            other => panic!("benches should be an array, got {other:?}"),
        }
    }

    fn loadgen_summary(rps: f64, p99: u64, errors: u64) -> String {
        format!(
            concat!(
                r#"{{"schema":"hmcs-loadgen/1","mode":"closed","addr":"127.0.0.1:1","#,
                r#""connections":2,"pipeline":16,"target_rps":null,"duration_s":3,"warmup_s":1,"#,
                r#""mix":{{"sweep_permille":0,"clusters":16,"message_bytes":[1024]}},"#,
                r#""requests":{{"sent":10,"completed":10,"errors":{errors},"dropped":0,"reconnects":0}},"#,
                r#""measured":{{"requests":10,"achieved_rps":{rps},"#,
                r#""latency_us":{{"p50":50,"p90":80,"p99":{p99},"p999":{p99},"mean":60,"max":{p99}}}}}}}"#,
            ),
            rps = rps,
            p99 = p99,
            errors = errors,
        )
    }

    #[test]
    fn serve_gate_enforces_throughput_errors_and_tail() {
        let doc = parse_json(&loadgen_summary(120000.0, 400, 0)).unwrap();
        let ok = judge_serve(&doc, 100000.0, None).unwrap();
        assert!(ok.pass);
        assert_eq!(ok.achieved_rps, 120000.0);

        let slow = judge_serve(&doc, 150000.0, None).unwrap();
        assert!(!slow.pass, "throughput below the floor must fail");

        let tail = judge_serve(&doc, 100000.0, Some(100.0)).unwrap();
        assert!(!tail.pass, "p99 above the budget must fail");

        let errored = parse_json(&loadgen_summary(120000.0, 400, 3)).unwrap();
        assert!(!judge_serve(&errored, 100000.0, None).unwrap().pass, "errors must fail");

        let wrong_schema = parse_json(r#"{"schema":"nope/1"}"#).unwrap();
        assert!(judge_serve(&wrong_schema, 1.0, None).is_err());
    }

    fn optimize_summary(eps: f64, evaluated: u64) -> String {
        format!(
            "{{\"schema\":\"hmcs-optimize-bench/1\",\"space_size\":1120,\"iterations\":5,\
             \"evaluated\":{evaluated},\"wall_s\":0.5,\"evals_per_s\":{eps},\"workers\":2}}"
        )
    }

    fn pruned_summary(eps: f64, speedup: f64, identical: bool) -> String {
        format!(
            "{{\"schema\":\"hmcs-optimize-bench/1\",\"space_size\":21280,\"iterations\":5,\
             \"evaluated\":9000,\"wall_s\":0.5,\"evals_per_s\":{eps},\"workers\":2,\
             \"speedup\":{speedup},\"frontier_identical\":{identical}}}"
        )
    }

    #[test]
    fn optimize_gate_enforces_throughput_floor() {
        let doc = parse_json(&optimize_summary(400000.0, 5600)).unwrap();
        let ok = judge_optimize(&doc, 100000.0, None).unwrap();
        assert!(ok.pass);
        assert_eq!(ok.evaluated, 5600);

        let slow = judge_optimize(&doc, 500000.0, None).unwrap();
        assert!(!slow.pass, "throughput below the floor must fail");

        let empty = parse_json(&optimize_summary(400000.0, 0)).unwrap();
        assert!(!judge_optimize(&empty, 1.0, None).unwrap().pass, "zero evaluations must fail");

        let wrong_schema = parse_json(r#"{"schema":"hmcs-loadgen/1"}"#).unwrap();
        assert!(judge_optimize(&wrong_schema, 1.0, None).is_err());
    }

    #[test]
    fn optimize_gate_enforces_pruning_speedup_and_bit_identity() {
        let doc = parse_json(&pruned_summary(400000.0, 4.2, true)).unwrap();
        let ok = judge_optimize(&doc, 100000.0, Some(3.0)).unwrap();
        assert!(ok.pass);
        assert_eq!(ok.speedup, Some(4.2));

        let slow = judge_optimize(&doc, 100000.0, Some(5.0)).unwrap();
        assert!(!slow.pass, "speedup below the floor must fail");

        let drifted = parse_json(&pruned_summary(400000.0, 4.2, false)).unwrap();
        assert!(
            judge_optimize(&drifted, 100000.0, Some(3.0)).is_err(),
            "a summary without frontier bit-identity must be rejected outright"
        );

        let legacy = parse_json(&optimize_summary(400000.0, 5600)).unwrap();
        assert!(
            judge_optimize(&legacy, 100000.0, Some(3.0)).is_err(),
            "--min-speedup against a summary with no speedup field must be rejected"
        );
        assert!(
            judge_optimize(&legacy, 100000.0, None).unwrap().pass,
            "without --min-speedup the legacy summary still judges on evals/s alone"
        );
    }

    #[test]
    fn optimize_report_embeds_the_summary_verbatim() {
        let raw = pruned_summary(400000.0, 4.2, true);
        let verdict = judge_optimize(&parse_json(&raw).unwrap(), 100000.0, Some(3.0)).unwrap();
        let report = optimize_report_json(&verdict, &raw, &[("host".into(), "ci".into())]);
        let doc = parse_json(&report).expect("report is valid JSON");
        assert_eq!(doc.get("schema").and_then(JsonValue::as_str), Some("hmcs-optimize-gate/1"));
        assert_eq!(doc.get("gate").and_then(|g| g.get("pass")), Some(&JsonValue::Bool(true)));
        assert_eq!(
            doc.get("optimize").and_then(|o| o.get("schema")).and_then(JsonValue::as_str),
            Some("hmcs-optimize-bench/1"),
            "the optimize summary rides along inside the report"
        );
        assert_eq!(
            doc.get("gate").and_then(|g| g.get("min_evals_per_s")).and_then(JsonValue::as_num),
            Some(100000.0)
        );
        assert_eq!(
            doc.get("gate").and_then(|g| g.get("speedup")).and_then(JsonValue::as_num),
            Some(4.2)
        );
        assert_eq!(
            doc.get("gate").and_then(|g| g.get("min_speedup")).and_then(JsonValue::as_num),
            Some(3.0)
        );
    }

    #[test]
    fn kernel_gate_reads_rows_and_its_own_report() {
        let rows = concat!(
            "{\"id\": \"kernel_grid/scalar_per_point\", \"min_s\": 0.009, \"mean_s\": 0.010, \"max_s\": 0.011}\n",
            "{\"id\": \"kernel_grid/batched\", \"min_s\": 0.0009, \"mean_s\": 0.001, \"max_s\": 0.0011}\n",
        );
        let (scalar, batched) = kernel_means(rows).unwrap();
        let ok = judge_kernel(scalar, batched, 5.0).unwrap();
        assert!(ok.pass);
        assert!((ok.speedup - 10.0).abs() < 1e-9);
        let slow = judge_kernel(scalar, batched, 20.0).unwrap();
        assert!(!slow.pass, "speedup below the floor must fail");

        // The emitted report round-trips as an input: same means, so a
        // re-judge at a different floor works off the committed file.
        let report = kernel_report_json(&ok, &[("host".into(), "ci".into())]);
        let doc = parse_json(&report).expect("report is valid JSON");
        assert_eq!(doc.get("schema").and_then(JsonValue::as_str), Some("hmcs-kernel-bench/1"));
        assert_eq!(doc.get("gate").and_then(|g| g.get("pass")), Some(&JsonValue::Bool(true)));
        let (rs, rb) = kernel_means(&report).unwrap();
        assert_eq!(rs, scalar);
        assert_eq!(rb, batched);

        assert!(
            kernel_means("{\"id\": \"other\", \"min_s\": 1, \"mean_s\": 1, \"max_s\": 1}").is_err()
        );
        assert!(judge_kernel(0.0, 1.0, 5.0).is_err());
    }

    #[test]
    fn serve_report_embeds_the_summary_verbatim() {
        let raw = loadgen_summary(120000.0, 400, 0);
        let verdict = judge_serve(&parse_json(&raw).unwrap(), 100000.0, Some(1000.0)).unwrap();
        let report = serve_report_json(&verdict, &raw, &[("host".into(), "ci".into())]);
        let doc = parse_json(&report).expect("report is valid JSON");
        assert_eq!(doc.get("schema").and_then(JsonValue::as_str), Some("hmcs-serve-bench/1"));
        assert_eq!(doc.get("gate").and_then(|g| g.get("pass")), Some(&JsonValue::Bool(true)));
        assert_eq!(
            doc.get("gate").and_then(|g| g.get("max_p99_us")).and_then(JsonValue::as_num),
            Some(1000.0)
        );
        assert_eq!(
            doc.get("loadgen").and_then(|l| l.get("schema")).and_then(JsonValue::as_str),
            Some("hmcs-loadgen/1"),
            "the loadgen document rides along inside the report"
        );
        assert_eq!(
            doc.get("meta").and_then(|m| m.get("host")).and_then(JsonValue::as_str),
            Some("ci")
        );
    }

    fn topology_summary(
        max_nodes: u64,
        roundtrip_failures: u64,
        agreement_failures: u64,
    ) -> String {
        format!(
            "{{\"schema\":\"hmcs-topology-bench/1\",\"cases\":2,\"total_nodes\":10256,\
             \"max_nodes\":{max_nodes},\"shards\":24,\"messages\":200000,\
             \"roundtrip_failures\":{roundtrip_failures},\
             \"agreement_failures\":{agreement_failures},\"identify_wall_s\":0.02,\
             \"identify_nodes_per_s\":500000.0,\"sim_wall_s\":1.2,\"workers\":4}}\n"
        )
    }

    #[test]
    fn topology_gate_enforces_scale_and_failure_counts() {
        let ok =
            judge_topology(&parse_json(&topology_summary(10000, 0, 0)).unwrap(), 10000).unwrap();
        assert!(ok.pass);
        let small =
            judge_topology(&parse_json(&topology_summary(9999, 0, 0)).unwrap(), 10000).unwrap();
        assert!(!small.pass, "largest case under the node floor must fail");
        let missed =
            judge_topology(&parse_json(&topology_summary(10000, 1, 0)).unwrap(), 10000).unwrap();
        assert!(!missed.pass, "a round-trip failure must fail the gate");
        let drifted =
            judge_topology(&parse_json(&topology_summary(10000, 0, 1)).unwrap(), 10000).unwrap();
        assert!(!drifted.pass, "an agreement failure must fail the gate");
        let wrong_schema = parse_json("{\"schema\": \"other/1\"}").unwrap();
        assert!(judge_topology(&wrong_schema, 1).is_err());
    }

    #[test]
    fn topology_report_embeds_the_summary_verbatim() {
        let raw = topology_summary(10000, 0, 0);
        let verdict = judge_topology(&parse_json(&raw).unwrap(), 10000).unwrap();
        let report = topology_report_json(&verdict, &raw, &[("host".into(), "ci".into())]);
        let doc = parse_json(&report).expect("report is valid JSON");
        assert_eq!(doc.get("schema").and_then(JsonValue::as_str), Some("hmcs-topology-gate/1"));
        assert_eq!(doc.get("gate").and_then(|g| g.get("pass")), Some(&JsonValue::Bool(true)));
        assert_eq!(
            doc.get("topology").and_then(|t| t.get("schema")).and_then(JsonValue::as_str),
            Some("hmcs-topology-bench/1"),
            "the topology summary rides along inside the report"
        );
    }
}
