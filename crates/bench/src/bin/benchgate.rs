//! Judges a benchmark artefact against numeric rules and gates CI on it.
//!
//! ```text
//! benchgate INPUT [--schema NAME] [--min KEY=X]... [--max KEY=X]...
//!                 [--min-ratio NUM_KEY:DEN_KEY=X]... [--out PATH] [--meta k=v]...
//! ```
//!
//! One judge serves every artefact. It reads `INPUT` into a flat map
//! from key to number, in either of two shapes:
//!
//! - **a JSON document** (`hmcs-loadgen/1`, `hmcs-optimize-bench/1`, a
//!   committed `BENCH_*.json`, …): keys are dotted object paths such as
//!   `measured.achieved_rps` or `loadgen.requests.errors`; `true` and
//!   `false` read as 1 and 0, while strings, `null` and arrays are
//!   present but not numeric;
//! - **criterion rows**, the JSON lines the vendored criterion appends
//!   to `HMCS_BENCH_JSON` (objects with a string `id`): keys are
//!   `<id>.<field>`, such as `kernel_grid/batched.mean_s`. An id that
//!   appears twice is an input error, so rows left behind by an earlier
//!   run are never judged in place of the fresh ones.
//!
//! Rules: `--min KEY=X` passes when the value is `>= X`, `--max KEY=X`
//! when it is `<= X`, and `--min-ratio NUM:DEN=X` when `NUM / DEN >= X`.
//! `--schema NAME` requires the document's top-level `schema` string to
//! be `NAME`. At least one rule is required.
//!
//! Exit codes: **0** when every rule passes, **1** when any rule fails,
//! **2** on an input error: an unreadable file, invalid JSON, a
//! `--schema` mismatch, a rule naming a missing or non-numeric key, a
//! ratio whose denominator is not finite and > 0, or a malformed command
//! line. A typo'd key therefore never passes.
//!
//! With `--out PATH` the judge writes one `hmcs-bench-gate/2` report:
//! the `--meta` pairs, each rule with its value, bound and pass flag, the
//! overall pass flag, and the input embedded verbatim (criterion rows as
//! an object keyed by id, so a report re-judges with the same keys under
//! `input.`). The report is written before the verdict, so a failing run
//! still uploads it. Without `--out` no file is written.

use hmcs_bench::manifest::{parse_json, JsonValue};
use hmcs_bench::report::write_atomic;
use hmcs_core::json::json_str;
use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;

const USAGE: &str = "usage: benchgate INPUT [--schema NAME] [--min KEY=X]... [--max KEY=X]... \
                     [--min-ratio NUM_KEY:DEN_KEY=X]... [--out PATH] [--meta k=v]...";

/// Every key of an input; `None` marks a leaf that is not a number.
type Flat = BTreeMap<String, Option<f64>>;

/// An input read into the judge's one shape.
#[derive(Debug)]
struct Input {
    flat: Flat,
    /// The top-level `schema` string (JSON documents only).
    schema: Option<String>,
    /// The JSON the report embeds verbatim under `input`.
    embed: String,
}

/// One `--min` / `--max` / `--min-ratio` rule.
struct Rule {
    /// `"min"`, `"max"` or `"min-ratio"`.
    kind: &'static str,
    key: String,
    /// The denominator key of a ratio rule.
    den: Option<String>,
    bound: f64,
}

/// A rule after judging, as the report records it.
#[derive(Debug)]
struct Checked {
    kind: &'static str,
    /// `KEY`, or `NUM_KEY:DEN_KEY` for a ratio.
    key: String,
    value: f64,
    bound: f64,
    pass: bool,
}

#[derive(Default)]
struct Args {
    input: String,
    schema: Option<String>,
    rules: Vec<Rule>,
    out: Option<String>,
    meta: Vec<(String, String)>,
}

impl Rule {
    fn parse(flag: &str, spec: &str) -> Result<Rule, String> {
        let kind = match flag {
            "--min" => "min",
            "--max" => "max",
            _ => "min-ratio",
        };
        let (key, bound) =
            spec.rsplit_once('=').ok_or_else(|| format!("{flag} {spec:?}: expected KEY=X"))?;
        let bound = bound
            .parse::<f64>()
            .ok()
            .filter(|b| b.is_finite())
            .ok_or_else(|| format!("{flag} {spec:?}: bound is not a finite number"))?;
        let (key, den) = if kind == "min-ratio" {
            let (num, den) = key
                .split_once(':')
                .ok_or_else(|| format!("{flag} {spec:?}: expected NUM_KEY:DEN_KEY=X"))?;
            (num, Some(den.to_string()))
        } else {
            (key, None)
        };
        Ok(Rule { kind, key: key.to_string(), den, bound })
    }
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    fn value(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    }
    let mut parsed = Args::default();
    let mut input = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--schema" => parsed.schema = Some(value(&mut it, &arg)?),
            "--out" => parsed.out = Some(value(&mut it, &arg)?),
            "--meta" => {
                let kv = value(&mut it, &arg)?;
                let (k, v) =
                    kv.split_once('=').ok_or_else(|| format!("--meta {kv:?}: expected k=v"))?;
                parsed.meta.push((k.to_string(), v.to_string()));
            }
            "--min" | "--max" | "--min-ratio" => {
                let spec = value(&mut it, &arg)?;
                parsed.rules.push(Rule::parse(&arg, &spec)?);
            }
            _ if input.is_none() && !arg.starts_with('-') => input = Some(arg),
            _ => return Err(format!("unexpected argument {arg:?}")),
        }
    }
    parsed.input = input.ok_or("no INPUT given")?;
    if parsed.rules.is_empty() {
        return Err("no rule given (--min, --max or --min-ratio)".to_string());
    }
    Ok(parsed)
}

/// Adds every leaf under `v` to `flat`, keyed by its dotted path.
fn flatten(path: &str, v: &JsonValue, flat: &mut Flat) {
    match v {
        JsonValue::Obj(pairs) => {
            for (k, child) in pairs {
                let child_path = if path.is_empty() { k.clone() } else { format!("{path}.{k}") };
                flatten(&child_path, child, flat);
            }
        }
        JsonValue::Num(x) => {
            flat.insert(path.to_string(), Some(*x));
        }
        JsonValue::Bool(b) => {
            flat.insert(path.to_string(), Some(f64::from(u8::from(*b))));
        }
        _ => {
            flat.insert(path.to_string(), None);
        }
    }
}

/// Reads a JSON document, or criterion rows when the input is not one
/// document or is a single row (an object with a string `id`).
fn read_input(raw: &str) -> Result<Input, String> {
    match parse_json(raw) {
        Ok(doc) if doc.get("id").and_then(JsonValue::as_str).is_none() => {
            let mut flat = Flat::new();
            flatten("", &doc, &mut flat);
            let schema = doc.get("schema").and_then(JsonValue::as_str).map(str::to_string);
            Ok(Input { flat, schema, embed: raw.trim().to_string() })
        }
        Ok(_) => read_rows(raw),
        Err(e) => match raw.lines().find(|l| !l.trim().is_empty()).map(parse_json) {
            Some(Ok(_)) => read_rows(raw),
            _ => Err(format!("invalid JSON: {e}")),
        },
    }
}

fn read_rows(raw: &str) -> Result<Input, String> {
    let mut flat = Flat::new();
    let mut ids = BTreeSet::new();
    let mut embedded = Vec::new();
    for (i, line) in raw.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let row = parse_json(line).map_err(|e| format!("line {}: invalid JSON: {e}", i + 1))?;
        let id = row
            .get("id")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("line {}: no string \"id\"", i + 1))?;
        if !ids.insert(id.to_string()) {
            return Err(format!(
                "row id {id:?} appears twice: the file holds rows from more than one run \
                 (delete it before re-running the bench)"
            ));
        }
        flatten(id, &row, &mut flat);
        embedded.push(format!("{}: {}", json_str(id), line.trim()));
    }
    Ok(Input { flat, schema: None, embed: format!("{{\n    {}\n  }}", embedded.join(",\n    ")) })
}

fn lookup(flat: &Flat, key: &str) -> Result<f64, String> {
    match flat.get(key) {
        Some(Some(x)) => Ok(*x),
        Some(None) => Err(format!("key {key:?} is not numeric")),
        None => Err(format!("no key {key:?} in the input")),
    }
}

/// Checks every rule; any rule that cannot be evaluated is an error.
fn judge(flat: &Flat, rules: &[Rule]) -> Result<Vec<Checked>, String> {
    rules
        .iter()
        .map(|r| {
            let (key, value) = match &r.den {
                None => (r.key.clone(), lookup(flat, &r.key)?),
                Some(den) => {
                    let d = lookup(flat, den)?;
                    if !(d.is_finite() && d > 0.0) {
                        return Err(format!(
                            "ratio denominator {den:?} is {d}, not finite and > 0"
                        ));
                    }
                    (format!("{}:{den}", r.key), lookup(flat, &r.key)? / d)
                }
            };
            let pass = if r.kind == "max" { value <= r.bound } else { value >= r.bound };
            Ok(Checked { kind: r.kind, key, value, bound: r.bound, pass })
        })
        .collect()
}

/// Reads `raw`, applies the `--schema` check and judges every rule.
fn evaluate(raw: &str, args: &Args) -> Result<(Input, Vec<Checked>), String> {
    let input = read_input(raw)?;
    if let Some(want) = &args.schema {
        if input.schema.as_deref() != Some(want.as_str()) {
            return Err(format!("input schema is {:?}, expected {want:?}", input.schema));
        }
    }
    let checked = judge(&input.flat, &args.rules)?;
    Ok((input, checked))
}

/// A JSON number, or `null` for a value JSON cannot hold.
fn num(x: f64) -> String {
    if x.is_finite() {
        x.to_string()
    } else {
        "null".to_string()
    }
}

/// Renders the `hmcs-bench-gate/2` report.
fn report_json(meta: &[(String, String)], checked: &[Checked], embed: &str) -> String {
    let meta: Vec<String> =
        meta.iter().map(|(k, v)| format!("{}: {}", json_str(k), json_str(v))).collect();
    let rules: Vec<String> = checked
        .iter()
        .map(|c| {
            format!(
                "{{\"rule\": \"{}\", \"key\": {}, \"value\": {}, \"bound\": {}, \"pass\": {}}}",
                c.kind,
                json_str(&c.key),
                num(c.value),
                num(c.bound),
                c.pass
            )
        })
        .collect();
    format!(
        "{{\n  \"schema\": \"hmcs-bench-gate/2\",\n  \"meta\": {{{}}},\n  \"rules\": [\n    {}\n  ],\n  \
         \"pass\": {},\n  \"input\": {embed}\n}}\n",
        meta.join(", "),
        rules.join(",\n    "),
        checked.iter().all(|c| c.pass)
    )
}

/// Judges the input and writes the report; `Ok` carries the verdict.
fn run(args: &Args) -> Result<bool, String> {
    let raw = std::fs::read_to_string(&args.input)
        .map_err(|e| format!("cannot read {}: {e}", args.input))?;
    let (input, checked) = evaluate(&raw, args)?;
    for c in &checked {
        let op = if c.kind == "max" { "<=" } else { ">=" };
        let verdict = if c.pass { "pass" } else { "FAIL" };
        println!("{} {} = {} {op} {}: {verdict}", c.kind, c.key, c.value, c.bound);
    }
    if let Some(out) = &args.out {
        let report = report_json(&args.meta, &checked, &input.embed);
        write_atomic(std::path::Path::new(out), report.as_bytes())
            .map_err(|e| format!("cannot write {out}: {e}"))?;
        println!("report written to {out}");
    }
    let pass = checked.iter().all(|c| c.pass);
    println!(
        "benchgate {}: {} rule(s), {}",
        args.input,
        checked.len(),
        if pass { "PASS" } else { "FAIL" }
    );
    Ok(pass)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Judges `raw` under the rule flags in `flags`.
    fn gate(raw: &str, flags: &[&str]) -> Result<(Input, Vec<Checked>), String> {
        let args = parse_args(
            std::iter::once("input.json").chain(flags.iter().copied()).map(str::to_string),
        )?;
        evaluate(raw, &args)
    }

    fn passes(raw: &str, flags: &[&str]) -> bool {
        gate(raw, flags).unwrap().1.iter().all(|c| c.pass)
    }

    /// The report `gate` would write, parsed back.
    fn report(raw: &str, flags: &[&str], meta: &[(&str, &str)]) -> (String, JsonValue) {
        let (input, checked) = gate(raw, flags).unwrap();
        let meta: Vec<(String, String)> =
            meta.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        let text = report_json(&meta, &checked, &input.embed);
        let doc = parse_json(&text).expect("report is valid JSON");
        (text, doc)
    }

    const ROWS: &str = concat!(
        "{\"id\": \"instrumentation/metrics_on\", \"min_s\": 0.010, \"mean_s\": 0.0104, \"max_s\": 0.011}\n",
        "{\"id\": \"instrumentation/metrics_off\", \"min_s\": 0.010, \"mean_s\": 0.0100, \"max_s\": 0.011}\n",
        "{\"id\": \"figure_grid/workers/1\", \"min_s\": 0.02, \"mean_s\": 0.021, \"max_s\": 0.022}\n",
    );

    /// Metrics-on may cost at most `pct` percent: off/on >= 1/(1 + pct/100).
    fn overhead_rule(pct: f64) -> String {
        format!(
            "instrumentation/metrics_off.mean_s:instrumentation/metrics_on.mean_s={}",
            1.0 / (1.0 + pct / 100.0)
        )
    }

    #[test]
    fn rows_parse_with_ids_and_times() {
        let input = read_input(ROWS).unwrap();
        assert_eq!(input.schema, None);
        assert_eq!(input.flat.get("instrumentation/metrics_on.mean_s"), Some(&Some(0.0104)));
        assert_eq!(input.flat.get("figure_grid/workers/1.max_s"), Some(&Some(0.022)));
        assert_eq!(input.flat.get("figure_grid/workers/1.id"), Some(&None));
        assert_eq!(input.flat.len(), 3 * 4);
        // A lone row is still read as a row, not as a document.
        let one = read_input(ROWS.lines().next().unwrap()).unwrap();
        assert_eq!(one.flat.get("instrumentation/metrics_on.min_s"), Some(&Some(0.010)));
    }

    #[test]
    fn duplicate_row_id_is_an_input_error() {
        // The criterion harness appends, so a rerun without deleting the
        // file leaves the old run's row ahead of the new one.
        let rerun = format!(
            "{ROWS}{{\"id\": \"instrumentation/metrics_on\", \"min_s\": 1, \"mean_s\": 1, \"max_s\": 1}}\n"
        );
        let err = gate(&rerun, &["--min-ratio", &overhead_rule(10.0)]).unwrap_err();
        assert!(err.contains("\"instrumentation/metrics_on\" appears twice"), "{err}");
    }

    #[test]
    fn gate_passes_inside_budget_and_fails_outside() {
        // 4% overhead: passes a 10% budget, fails a 2% budget.
        let (_, checked) = gate(ROWS, &["--min-ratio", &overhead_rule(10.0)]).unwrap();
        assert!(checked[0].pass);
        assert!((1.0 / checked[0].value - 1.04).abs() < 1e-9);
        assert!(!passes(ROWS, &["--min-ratio", &overhead_rule(2.0)]));
    }

    #[test]
    fn gate_requires_both_instrumentation_rows() {
        let only_on =
            "{\"id\": \"instrumentation/metrics_on\", \"min_s\": 1, \"mean_s\": 1, \"max_s\": 1}";
        let err = gate(only_on, &["--min-ratio", &overhead_rule(10.0)]).unwrap_err();
        assert!(err.contains("no key \"instrumentation/metrics_off.mean_s\""), "{err}");
    }

    #[test]
    fn meta_values_round_trip_through_the_report() {
        let value = "say \"hi\"\\path\nnext line";
        let (_, doc) = report(ROWS, &["--min-ratio", &overhead_rule(10.0)], &[("note", value)]);
        assert_eq!(
            doc.get("meta").and_then(|m| m.get("note")).and_then(JsonValue::as_str),
            Some(value)
        );
    }

    #[test]
    fn report_is_valid_json_carrying_the_verdict() {
        let flags =
            ["--min-ratio", &overhead_rule(10.0), "--max", "figure_grid/workers/1.mean_s=1"];
        let (_, doc) = report(ROWS, &flags, &[("budget", "ci")]);
        assert_eq!(doc.get("schema").and_then(JsonValue::as_str), Some("hmcs-bench-gate/2"));
        assert_eq!(
            doc.get("meta").and_then(|m| m.get("budget")).and_then(JsonValue::as_str),
            Some("ci")
        );
        assert_eq!(doc.get("pass"), Some(&JsonValue::Bool(true)));
        let rules = doc.get("rules").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(rules.len(), 2);
        assert_eq!(rules[1].get("rule").and_then(JsonValue::as_str), Some("max"));
        assert_eq!(
            rules[1].get("key").and_then(JsonValue::as_str),
            Some("figure_grid/workers/1.mean_s")
        );
        assert_eq!(rules[1].get("value").and_then(JsonValue::as_num), Some(0.021));
        assert_eq!(rules[1].get("bound").and_then(JsonValue::as_num), Some(1.0));
        assert_eq!(rules[1].get("pass"), Some(&JsonValue::Bool(true)));
        // Rows ride along keyed by id, each row verbatim.
        assert_eq!(
            doc.get("input")
                .and_then(|i| i.get("figure_grid/workers/1"))
                .and_then(|r| r.get("mean_s"))
                .and_then(JsonValue::as_num),
            Some(0.021)
        );
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

    const SERVE: [&str; 6] = [
        "--schema",
        "hmcs-loadgen/1",
        "--min",
        "measured.achieved_rps=100000",
        "--max",
        "requests.errors=0",
    ];

    #[test]
    fn serve_gate_enforces_throughput_errors_and_tail() {
        let ok = loadgen_summary(120000.0, 400, 0);
        let (_, checked) = gate(&ok, &SERVE).unwrap();
        assert!(checked.iter().all(|c| c.pass));
        assert_eq!(checked[0].value, 120000.0);

        let slow = ["--min", "measured.achieved_rps=150000"];
        assert!(!passes(&ok, &slow), "throughput below the floor must fail");
        let tail = ["--max", "measured.latency_us.p99=100"];
        assert!(!passes(&ok, &tail), "p99 above the budget must fail");
        assert!(!passes(&loadgen_summary(120000.0, 400, 3), &SERVE), "errors must fail");

        let err = gate(r#"{"schema":"nope/1","requests":{"errors":0}}"#, &SERVE).unwrap_err();
        assert!(err.contains("expected \"hmcs-loadgen/1\""), "{err}");
        assert!(gate(ROWS, &SERVE).is_err(), "rows carry no schema");
    }

    #[test]
    fn serve_report_embeds_the_summary_verbatim() {
        let raw = loadgen_summary(120000.0, 400, 0);
        let mut flags = SERVE.to_vec();
        flags.extend(["--max", "measured.latency_us.p99=1000"]);
        let (text, doc) = report(&raw, &flags, &[("host", "ci")]);
        assert!(text.contains(&format!("\"input\": {raw}")), "summary is embedded verbatim");
        assert_eq!(doc.get("pass"), Some(&JsonValue::Bool(true)));
        assert_eq!(
            doc.get("input").and_then(|l| l.get("schema")).and_then(JsonValue::as_str),
            Some("hmcs-loadgen/1")
        );
        assert_eq!(
            doc.get("meta").and_then(|m| m.get("host")).and_then(JsonValue::as_str),
            Some("ci")
        );
        // The report re-judges under `input.` with the same numbers.
        let rejudge =
            ["--min", "input.measured.achieved_rps=100000", "--max", "input.requests.errors=0"];
        assert!(passes(&text, &rejudge));
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

    const OPTIMIZE: [&str; 6] = [
        "--schema",
        "hmcs-optimize-bench/1",
        "--min",
        "evals_per_s=100000",
        "--min",
        "evaluated=1",
    ];

    fn with_speedup(floor: &str) -> Vec<&str> {
        let mut flags = OPTIMIZE.to_vec();
        flags.extend(["--min", floor, "--min", "frontier_identical=1"]);
        flags
    }

    #[test]
    fn optimize_gate_enforces_throughput_floor() {
        let doc = optimize_summary(400000.0, 5600);
        let (_, checked) = gate(&doc, &OPTIMIZE).unwrap();
        assert!(checked.iter().all(|c| c.pass));
        assert_eq!(checked[1].value, 5600.0);

        assert!(!passes(&doc, &["--min", "evals_per_s=500000"]), "below the floor must fail");
        assert!(!passes(&optimize_summary(400000.0, 0), &OPTIMIZE), "zero evaluations must fail");
        assert!(gate(r#"{"schema":"hmcs-loadgen/1"}"#, &OPTIMIZE).is_err());
    }

    #[test]
    fn optimize_gate_enforces_pruning_speedup_and_bit_identity() {
        let doc = pruned_summary(400000.0, 4.2, true);
        let (_, checked) = gate(&doc, &with_speedup("speedup=3")).unwrap();
        assert!(checked.iter().all(|c| c.pass));
        assert_eq!(checked[2].value, 4.2);

        assert!(!passes(&doc, &with_speedup("speedup=5")), "speedup below the floor must fail");
        assert!(
            !passes(&pruned_summary(400000.0, 4.2, false), &with_speedup("speedup=3")),
            "a summary without frontier bit-identity must fail"
        );
        let legacy = optimize_summary(400000.0, 5600);
        let err = gate(&legacy, &with_speedup("speedup=3")).unwrap_err();
        assert!(err.contains("no key \"speedup\""), "{err}");
        assert!(passes(&legacy, &OPTIMIZE), "without a speedup rule it judges on evals/s");
    }

    #[test]
    fn optimize_report_embeds_the_summary_verbatim() {
        let raw = pruned_summary(400000.0, 4.2, true);
        let (text, doc) = report(&raw, &with_speedup("speedup=3"), &[("host", "ci")]);
        assert!(text.contains(&format!("\"input\": {raw}")), "summary is embedded verbatim");
        assert_eq!(doc.get("pass"), Some(&JsonValue::Bool(true)));
        let rules = doc.get("rules").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(rules[0].get("bound").and_then(JsonValue::as_num), Some(100000.0));
        assert_eq!(rules[2].get("value").and_then(JsonValue::as_num), Some(4.2));
        assert_eq!(rules[2].get("bound").and_then(JsonValue::as_num), Some(3.0));
    }

    #[test]
    fn kernel_gate_reads_rows_and_its_own_report() {
        let rows = concat!(
            "{\"id\": \"kernel_grid/scalar_per_point\", \"min_s\": 0.009, \"mean_s\": 0.010, \"max_s\": 0.011}\n",
            "{\"id\": \"kernel_grid/batched\", \"min_s\": 0.0009, \"mean_s\": 0.001, \"max_s\": 0.0011}\n",
        );
        let ratio = "kernel_grid/scalar_per_point.mean_s:kernel_grid/batched.mean_s";
        let (_, checked) = gate(rows, &["--min-ratio", &format!("{ratio}=5")]).unwrap();
        assert!(checked[0].pass);
        assert!((checked[0].value - 10.0).abs() < 1e-9);
        assert!(!passes(rows, &["--min-ratio", &format!("{ratio}=20")]), "below the floor");

        // The report round-trips as an input under `input.`, so a
        // re-judge at a different floor works off the committed file.
        let (text, _) = report(rows, &["--min-ratio", &format!("{ratio}=5")], &[]);
        let rejudge = "input.kernel_grid/scalar_per_point.mean_s:input.kernel_grid/batched.mean_s";
        let (_, again) = gate(&text, &["--min-ratio", &format!("{rejudge}=5")]).unwrap();
        assert_eq!(again[0].value, checked[0].value);
        // The committed `hmcs-kernel-bench/1` shape keeps its own keys.
        let v1 = r#"{"schema": "hmcs-kernel-bench/1", "gate": {"scalar_mean_s": 0.01, "batched_mean_s": 0.001}}"#;
        assert!(passes(v1, &["--min-ratio", "gate.scalar_mean_s:gate.batched_mean_s=5"]));

        let other = "{\"id\": \"other\", \"min_s\": 1, \"mean_s\": 1, \"max_s\": 1}";
        assert!(gate(other, &["--min-ratio", &format!("{ratio}=5")]).is_err());
        let zero = r#"{"a": 1, "b": 0}"#;
        let err = gate(zero, &["--min-ratio", "a:b=1"]).unwrap_err();
        assert!(err.contains("denominator \"b\""), "{err}");
    }

    fn topology_summary(
        max_nodes: u64,
        roundtrip_failures: u64,
        agreement_failures: u64,
    ) -> String {
        format!(
            "{{\"schema\":\"hmcs-topology-bench/1\",\"cases\":2,\"total_nodes\":10256,\
             \"max_nodes\":{max_nodes},\"messages\":200000,\
             \"roundtrip_failures\":{roundtrip_failures},\
             \"agreement_failures\":{agreement_failures},\"identify_wall_s\":0.02,\
             \"identify_nodes_per_s\":500000.0,\"sim_wall_s\":1.2,\"workers\":4}}\n"
        )
    }

    const TOPOLOGY: [&str; 10] = [
        "--schema",
        "hmcs-topology-bench/1",
        "--min",
        "cases=1",
        "--min",
        "max_nodes=10000",
        "--max",
        "roundtrip_failures=0",
        "--max",
        "agreement_failures=0",
    ];

    #[test]
    fn topology_gate_enforces_scale_and_failure_counts() {
        assert!(passes(&topology_summary(10000, 0, 0), &TOPOLOGY));
        assert!(!passes(&topology_summary(9999, 0, 0), &TOPOLOGY), "under the node floor");
        assert!(!passes(&topology_summary(10000, 1, 0), &TOPOLOGY), "a round-trip failure");
        assert!(!passes(&topology_summary(10000, 0, 1), &TOPOLOGY), "an agreement failure");
        assert!(
            !passes(
                r#"{"schema":"hmcs-topology-bench/1","cases":0,"max_nodes":10000,"roundtrip_failures":0,"agreement_failures":0}"#,
                &TOPOLOGY
            ),
            "no cases"
        );
        assert!(gate("{\"schema\": \"other/1\"}", &TOPOLOGY).is_err());
        let err = gate(&topology_summary(10000, 0, 0), &["--min", "schema=1"]).unwrap_err();
        assert!(err.contains("\"schema\" is not numeric"), "{err}");
    }

    #[test]
    fn topology_report_embeds_the_summary_verbatim() {
        let raw = topology_summary(10000, 0, 0);
        let (text, doc) = report(&raw, &TOPOLOGY, &[("host", "ci")]);
        assert!(text.contains(&format!("\"input\": {}", raw.trim())), "embedded verbatim");
        assert_eq!(doc.get("pass"), Some(&JsonValue::Bool(true)));
        assert_eq!(
            doc.get("input").and_then(|t| t.get("schema")).and_then(JsonValue::as_str),
            Some("hmcs-topology-bench/1")
        );
    }
}
