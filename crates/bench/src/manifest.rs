//! Machine-readable run manifests.
//!
//! Every `reproduce … --csv DIR` invocation drops a
//! `manifest_<artefact>.json` next to the CSVs it writes, so a results
//! directory is self-describing: which code produced it (`git
//! describe`), with which options (seed, λ and its unit mode, message
//! budget), on how many workers, how long it took, how the solver
//! behaved (iteration and wall-clock histograms), and the full
//! process-global metrics snapshot. Cross-validation data without this
//! provenance is not trustworthy — the CSVs alone cannot tell a
//! figure-scale run from a literal-λ run.
//!
//! The workspace has no JSON dependency (offline, vendored-only
//! builds); the writer primitives and the minimal recursive-descent
//! parser [`validate`] uses to schema-check a manifest live in the
//! shared [`hmcs_core::json`] module (re-exported here for existing
//! callers). The parser accepts general JSON; the validator then
//! checks the manifest schema proper.

use crate::experiments::{FigureData, RunOptions};
use hmcs_core::json::{json_num, json_str};
use hmcs_core::metrics::{self, HistogramSnapshot};
use hmcs_core::scenario::{PAPER_LAMBDA_LITERAL_PER_US, PAPER_LAMBDA_PER_US};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

pub use hmcs_core::json::{parse_json, JsonValue};

/// Schema identifier stamped into (and required from) every manifest.
pub(crate) const MANIFEST_SCHEMA: &str = "hmcs-run-manifest/1";

/// Builds the manifest JSON document for one artefact run.
///
/// `figure` is present for fig4–fig7 runs and adds the per-figure
/// block: row count, wall clock, and solver-iteration / per-point
/// wall-clock histograms built from [`FigureData::point_stats`].
pub fn manifest_json(
    artefact: &str,
    opts: &RunOptions,
    workers: usize,
    figure: Option<&FigureData>,
) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": {},", json_str(MANIFEST_SCHEMA));
    let _ = writeln!(out, "  \"artefact\": {},", json_str(artefact));
    let _ = writeln!(
        out,
        "  \"git_describe\": {},",
        git_describe().map_or("null".to_string(), |d| json_str(&d))
    );
    let _ = writeln!(out, "  \"created_unix_s\": {},", unix_time_s());
    let _ = writeln!(out, "  \"workers\": {workers},");
    out.push_str("  \"options\": {\n");
    let _ = writeln!(out, "    \"messages\": {},", opts.messages);
    let _ = writeln!(out, "    \"warmup\": {},", opts.warmup);
    let _ = writeln!(out, "    \"seed\": {},", opts.seed);
    let _ = writeln!(out, "    \"lambda_per_us\": {},", json_num(opts.lambda_per_us));
    let _ = writeln!(out, "    \"lambda_unit_mode\": {},", json_str(lambda_unit_mode(opts)));
    let _ = writeln!(out, "    \"with_simulation\": {}", opts.with_simulation);
    out.push_str("  },\n");
    match figure {
        None => out.push_str("  \"figure\": null,\n"),
        Some(data) => {
            out.push_str("  \"figure\": {\n");
            let _ = writeln!(out, "    \"id\": {},", json_str(data.spec.id));
            let _ = writeln!(out, "    \"caption\": {},", json_str(data.spec.caption));
            let _ = writeln!(out, "    \"rows\": {},", data.rows.len());
            let clusters: Vec<String> = data.rows.iter().map(|r| r.clusters.to_string()).collect();
            let _ = writeln!(out, "    \"clusters\": [{}],", clusters.join(","));
            let _ = writeln!(out, "    \"wall_clock_us\": {},", json_num(data.wall_clock_us));
            let iters = HistogramSnapshot::from_values(
                data.point_stats.iter().map(|s| s.solver_iterations as u64),
            );
            let times = HistogramSnapshot::from_values(
                data.point_stats.iter().map(|s| s.eval_time_us.round().max(0.0) as u64),
            );
            let _ = writeln!(out, "    \"solver_iterations\": {},", histogram_json(&iters));
            let _ = writeln!(out, "    \"eval_time_us\": {}", histogram_json(&times));
            out.push_str("  },\n");
        }
    }
    let snapshot = metrics::global().snapshot();
    out.push_str("  \"metrics\": {\n    \"counters\": {");
    let counters: Vec<String> =
        snapshot.counters.iter().map(|(k, v)| format!("{}:{v}", json_str(k))).collect();
    out.push_str(&counters.join(","));
    out.push_str("},\n    \"histograms\": {");
    let histograms: Vec<String> = snapshot
        .histograms
        .iter()
        .map(|(k, h)| format!("{}:{}", json_str(k), histogram_json(h)))
        .collect();
    out.push_str(&histograms.join(","));
    out.push_str("},\n    \"warnings\": {");
    let warnings: Vec<String> =
        snapshot.warnings.iter().map(|(k, v)| format!("{}:{}", json_str(k), json_str(v))).collect();
    out.push_str(&warnings.join(","));
    out.push_str("}\n  }\n}\n");
    out
}

/// Writes `manifest_<artefact>.json` into `dir`, returning its path.
pub fn write_manifest(
    dir: &Path,
    artefact: &str,
    opts: &RunOptions,
    workers: usize,
    figure: Option<&FigureData>,
) -> std::io::Result<PathBuf> {
    let path = dir.join(format!("manifest_{artefact}.json"));
    crate::report::write_atomic(&path, manifest_json(artefact, opts, workers, figure).as_bytes())?;
    Ok(path)
}

/// The λ-unit mode of a run, derived from the configured rate: the
/// figure-scale reading (0.25 msg/ms), Table 2's literal value
/// (0.25 msg/s), or a custom override.
pub fn lambda_unit_mode(opts: &RunOptions) -> &'static str {
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * b.abs();
    if close(opts.lambda_per_us, PAPER_LAMBDA_PER_US) {
        "figure-scale"
    } else if close(opts.lambda_per_us, PAPER_LAMBDA_LITERAL_PER_US) {
        "literal"
    } else {
        "custom"
    }
}

fn histogram_json(h: &HistogramSnapshot) -> String {
    let buckets: Vec<String> =
        h.buckets.iter().map(|b| format!("[{},{},{}]", b.lo, b.hi, b.count)).collect();
    format!(
        "{{\"count\":{},\"sum\":{},\"max\":{},\"mean\":{},\"buckets\":[{}]}}",
        h.count,
        h.sum,
        h.max,
        json_num(h.mean()),
        buckets.join(",")
    )
}

fn git_describe() -> Option<String> {
    // `git describe --dirty` stats the entire working tree; at one
    // subprocess per manifest it dominated `reproduce all`'s non-sim
    // time. The description cannot change mid-process, so run it once.
    static DESCRIBE: std::sync::OnceLock<Option<String>> = std::sync::OnceLock::new();
    DESCRIBE
        .get_or_init(|| {
            let out = std::process::Command::new("git")
                .args(["describe", "--always", "--dirty"])
                .output()
                .ok()?;
            if !out.status.success() {
                return None;
            }
            let s = String::from_utf8(out.stdout).ok()?;
            let s = s.trim();
            (!s.is_empty()).then(|| s.to_string())
        })
        .clone()
}

fn unix_time_s() -> u64 {
    std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).map_or(0, |d| d.as_secs())
}

// ---------------------------------------------------------------------
// Validation: manifest schema checks over the shared JSON parser.
// ---------------------------------------------------------------------

fn check_histogram(h: &JsonValue, what: &str) -> Result<(), String> {
    for field in ["count", "sum", "max", "mean"] {
        h.get(field)
            .and_then(JsonValue::as_num)
            .ok_or_else(|| format!("{what}: missing numeric \"{field}\""))?;
    }
    match h.get("buckets") {
        Some(JsonValue::Arr(buckets)) => {
            for b in buckets {
                match b {
                    JsonValue::Arr(triple) if triple.len() == 3 => {}
                    _ => return Err(format!("{what}: bucket is not a [lo,hi,count] triple")),
                }
            }
            Ok(())
        }
        _ => Err(format!("{what}: missing \"buckets\" array")),
    }
}

/// Schema-checks a manifest document. Returns the parsed value so
/// callers can make further content assertions.
pub fn validate(json: &str) -> Result<JsonValue, String> {
    let doc = parse_json(json)?;
    let schema = doc.get("schema").and_then(JsonValue::as_str).ok_or("missing \"schema\"")?;
    if schema != MANIFEST_SCHEMA {
        return Err(format!("schema {schema:?}, expected {MANIFEST_SCHEMA:?}"));
    }
    doc.get("artefact").and_then(JsonValue::as_str).ok_or("missing \"artefact\"")?;
    match doc.get("git_describe") {
        Some(JsonValue::Str(_)) | Some(JsonValue::Null) => {}
        _ => return Err("\"git_describe\" must be a string or null".to_string()),
    }
    doc.get("created_unix_s").and_then(JsonValue::as_num).ok_or("missing \"created_unix_s\"")?;
    doc.get("workers").and_then(JsonValue::as_num).ok_or("missing \"workers\"")?;

    let options = doc.get("options").ok_or("missing \"options\"")?;
    for field in ["messages", "warmup", "seed", "lambda_per_us"] {
        options
            .get(field)
            .and_then(JsonValue::as_num)
            .ok_or_else(|| format!("options: missing numeric \"{field}\""))?;
    }
    let mode = options
        .get("lambda_unit_mode")
        .and_then(JsonValue::as_str)
        .ok_or("options: missing \"lambda_unit_mode\"")?;
    if !matches!(mode, "figure-scale" | "literal" | "custom") {
        return Err(format!("options: bad lambda_unit_mode {mode:?}"));
    }
    match options.get("with_simulation") {
        Some(JsonValue::Bool(_)) => {}
        _ => return Err("options: missing boolean \"with_simulation\"".to_string()),
    }

    match doc.get("figure") {
        Some(JsonValue::Null) => {}
        Some(figure @ JsonValue::Obj(_)) => {
            figure.get("id").and_then(JsonValue::as_str).ok_or("figure: missing \"id\"")?;
            figure.get("rows").and_then(JsonValue::as_num).ok_or("figure: missing \"rows\"")?;
            figure
                .get("wall_clock_us")
                .and_then(JsonValue::as_num)
                .ok_or("figure: missing \"wall_clock_us\"")?;
            match figure.get("clusters") {
                Some(JsonValue::Arr(_)) => {}
                _ => return Err("figure: missing \"clusters\" array".to_string()),
            }
            check_histogram(
                figure.get("solver_iterations").ok_or("figure: missing \"solver_iterations\"")?,
                "figure.solver_iterations",
            )?;
            check_histogram(
                figure.get("eval_time_us").ok_or("figure: missing \"eval_time_us\"")?,
                "figure.eval_time_us",
            )?;
        }
        _ => return Err("\"figure\" must be an object or null".to_string()),
    }

    let m = doc.get("metrics").ok_or("missing \"metrics\"")?;
    for field in ["counters", "histograms", "warnings"] {
        match m.get(field) {
            Some(JsonValue::Obj(_)) => {}
            _ => return Err(format!("metrics: missing \"{field}\" object")),
        }
    }
    if let Some(JsonValue::Obj(pairs)) = m.get("histograms") {
        for (name, h) in pairs {
            check_histogram(h, &format!("metrics.histograms.{name}"))?;
        }
    }
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_rejects_truncated_manifest() {
        // A partially written manifest (interrupted run, full disk)
        // must fail loudly at every truncation point, not just a few.
        let json = manifest_json("fig4", &RunOptions::default(), 2, None);
        let json = json.trim_end();
        for cut in [1, json.len() / 4, json.len() / 2, json.len() - 1] {
            assert!(parse_json(&json[..cut]).is_err(), "truncation at byte {cut} parsed");
        }
    }

    #[test]
    fn reexported_parser_keeps_duplicate_key_rejection() {
        // The parser moved to hmcs_core::json (where its full test
        // suite lives); manifests rely on the RFC 8259 duplicate-key
        // rejection through this re-export, so pin it here too.
        assert!(parse_json("{\"a\":1,\"a\":2}").is_err());
        let err = parse_json("{\"outer\":{\"k\":1,\"k\":1}}").unwrap_err();
        assert!(err.contains("duplicate key \"k\""), "unexpected error: {err}");
    }

    #[test]
    fn lambda_unit_mode_detection() {
        let figure = RunOptions::default();
        assert_eq!(lambda_unit_mode(&figure), "figure-scale");
        let literal =
            RunOptions { lambda_per_us: PAPER_LAMBDA_LITERAL_PER_US, ..RunOptions::default() };
        assert_eq!(lambda_unit_mode(&literal), "literal");
        let custom = RunOptions { lambda_per_us: 1e-3, ..RunOptions::default() };
        assert_eq!(lambda_unit_mode(&custom), "custom");
    }

    #[test]
    fn non_figure_manifest_validates() {
        let json = manifest_json("table1", &RunOptions::default(), 4, None);
        let doc = validate(&json).expect("manifest must validate");
        assert_eq!(doc.get("artefact").unwrap().as_str(), Some("table1"));
        assert_eq!(doc.get("figure"), Some(&JsonValue::Null));
    }

    #[test]
    fn validate_rejects_wrong_schema() {
        let json = manifest_json("table1", &RunOptions::default(), 1, None)
            .replace(MANIFEST_SCHEMA, "other-schema/9");
        assert!(validate(&json).is_err());
    }
}
