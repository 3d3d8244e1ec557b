//! The `benchgate` command-line contract, driven through the real
//! binary: exit 0 on pass, 1 on a failing rule, 2 on an input error; a
//! report only when `--out` is given, and written even on failure.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh, empty scratch directory for one test.
fn temp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("hmcs_benchgate_cli_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `benchgate` in `dir` and returns its exit code.
fn benchgate(dir: &Path, args: &[&str]) -> i32 {
    let out = Command::new(env!("CARGO_BIN_EXE_benchgate"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("benchgate runs");
    out.status.code().expect("benchgate exits with a code")
}

const SUMMARY: &str = r#"{"schema": "hmcs-loadgen/1", "requests": {"errors": 0}, "measured": {"achieved_rps": 6000, "latency_us": {"p99": 900}}}"#;

const ROWS: &str = concat!(
    "{\"id\": \"kernel_grid/scalar_per_point\", \"min_s\": 0.009, \"mean_s\": 0.010, \"max_s\": 0.011}\n",
    "{\"id\": \"kernel_grid/batched\", \"min_s\": 0.0009, \"mean_s\": 0.001, \"max_s\": 0.0011}\n",
);

fn write(dir: &Path, name: &str, body: &str) -> String {
    std::fs::write(dir.join(name), body).unwrap();
    name.to_string()
}

/// Every entry in `dir`, sorted.
fn listing(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

#[test]
fn exit_codes_are_pass_fail_and_input_error() {
    let dir = temp_dir("codes");
    let summary = write(&dir, "summary.json", SUMMARY);
    let rows = write(&dir, "rows.jsonl", ROWS);
    let serve = [&summary, "--schema", "hmcs-loadgen/1", "--min", "measured.achieved_rps=5000"];
    assert_eq!(benchgate(&dir, &serve), 0);
    assert_eq!(benchgate(&dir, &[&summary, "--max", "requests.errors=0"]), 0);
    assert_eq!(benchgate(&dir, &[&summary, "--min", "measured.achieved_rps=7000"]), 1);
    assert_eq!(benchgate(&dir, &[&summary, "--max", "measured.latency_us.p99=500"]), 1);
    let ratio = "kernel_grid/scalar_per_point.mean_s:kernel_grid/batched.mean_s";
    assert_eq!(benchgate(&dir, &[&rows, "--min-ratio", &format!("{ratio}=5")]), 0);
    assert_eq!(benchgate(&dir, &[&rows, "--min-ratio", &format!("{ratio}=20")]), 1);

    // Input errors: unreadable file, invalid JSON, a malformed rule, and
    // no rule at all.
    assert_eq!(benchgate(&dir, &["missing.json", "--min", "x=1"]), 2);
    let broken = write(&dir, "broken.json", "{\"schema\": ");
    assert_eq!(benchgate(&dir, &[&broken, "--min", "x=1"]), 2);
    assert_eq!(benchgate(&dir, &[&summary, "--min", "measured.achieved_rps"]), 2);
    assert_eq!(benchgate(&dir, &[&summary]), 2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_key_zero_denominator_and_schema_mismatch_exit_2() {
    let dir = temp_dir("errors");
    let summary = write(&dir, "summary.json", SUMMARY);
    // A typo'd key must never pass, even under a bound it would meet.
    assert_eq!(benchgate(&dir, &[&summary, "--max", "request.errors=0"]), 2);
    assert_eq!(benchgate(&dir, &[&summary, "--min", "schema=0"]), 2, "non-numeric key");
    assert_eq!(
        benchgate(&dir, &[&summary, "--min-ratio", "measured.achieved_rps:requests.errors=1"]),
        2,
        "zero denominator"
    );
    assert_eq!(
        benchgate(
            &dir,
            &[&summary, "--schema", "hmcs-optimize-bench/1", "--max", "requests.errors=0"]
        ),
        2
    );
    let rerun = write(&dir, "rerun.jsonl", &format!("{ROWS}{ROWS}"));
    assert_eq!(
        benchgate(&dir, &[&rerun, "--min", "kernel_grid/batched.mean_s=0"]),
        2,
        "duplicate id"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_failing_rule_still_writes_the_report() {
    let dir = temp_dir("report");
    let summary = write(&dir, "summary.json", SUMMARY);
    let code = benchgate(
        &dir,
        &[
            &summary,
            "--min",
            "measured.achieved_rps=7000",
            "--out",
            "out/gate.json",
            "--meta",
            "host=ci",
        ],
    );
    assert_eq!(code, 1);
    let report = std::fs::read_to_string(dir.join("out/gate.json")).expect("report written");
    assert!(report.contains("\"schema\": \"hmcs-bench-gate/2\""), "{report}");
    assert!(report.contains("\"pass\": false"), "{report}");
    assert!(report.contains(&format!("\"input\": {SUMMARY}")), "{report}");
    // The report is itself an input: its own verdict reads as 0.
    assert_eq!(benchgate(&dir, &["out/gate.json", "--min", "pass=1"]), 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn no_file_is_created_without_out() {
    let dir = temp_dir("no_out");
    let summary = write(&dir, "summary.json", SUMMARY);
    assert_eq!(benchgate(&dir, &[&summary, "--min", "measured.achieved_rps=5000"]), 0);
    assert_eq!(benchgate(&dir, &[&summary, "--min", "measured.achieved_rps=7000"]), 1);
    assert_eq!(listing(&dir), vec!["summary.json".to_string()]);
    std::fs::remove_dir_all(&dir).ok();
}
