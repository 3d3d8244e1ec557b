//! End-to-end tests for the golden-artefact regression harness:
//! `reproduce check`, the claims registry, the `--csv` directory
//! handling fix, and a differential-fuzz smoke run — all driven
//! through the real binary (`CARGO_BIN_EXE_reproduce`).

use std::path::{Path, PathBuf};
use std::process::Command;

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().unwrap()
}

fn reproduce() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_reproduce"));
    // `check` resolves its default --golden directory (results/)
    // relative to the working directory.
    cmd.current_dir(workspace_root());
    cmd
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hmcs_golden_e2e_{name}"));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn check_passes_on_committed_goldens() {
    // Acceptance: `reproduce check results/` must pass on a clean tree.
    // Diffing the goldens against themselves exercises the whole spec
    // (all 21 artefacts parse, every column resolves a tolerance) and
    // the claims registry does real content checks on the data.
    let output = reproduce().args(["check", "results"]).output().unwrap();
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "check failed on clean tree:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(stdout.contains("golden check: 21 artefact(s), 0 diff(s) — PASS"), "{stdout}");
    assert!(stdout.contains("claims: 20 evaluated, 0 failed — PASS"), "{stdout}");
}

#[test]
fn check_fails_with_cell_diff_on_drift() {
    // Copy the goldens, nudge one analysis cell beyond its 0.5% band,
    // and expect a non-zero exit naming the exact cell.
    let dir = temp_dir("drift");
    std::fs::create_dir_all(&dir).unwrap();
    let results = workspace_root().join("results");
    for entry in std::fs::read_dir(&results).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "csv") {
            std::fs::copy(&path, dir.join(path.file_name().unwrap())).unwrap();
        }
    }
    let fig4 = dir.join("fig4.csv");
    let drifted = std::fs::read_to_string(&fig4).unwrap().replace("12.722", "12.922");
    std::fs::write(&fig4, drifted).unwrap();

    let output = reproduce().args(["check"]).arg(&dir).output().unwrap();
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(!output.status.success(), "drifted artefact must fail the check:\n{stdout}");
    assert!(stdout.contains("FAIL  fig4.csv"), "{stdout}");
    assert!(
        stdout.contains("[clusters=2]") && stdout.contains("12.722"),
        "diff must name the cell and golden value:\n{stdout}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn check_errors_cleanly_on_missing_candidate() {
    let output = reproduce().args(["check", "/nonexistent/candidate"]).output().unwrap();
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("error:"), "want a clean error, got:\n{stderr}");
}

#[test]
fn csv_dir_is_created_when_missing() {
    // Regression: `--csv` with a not-yet-existing nested directory must
    // create it rather than fail mid-run.
    let dir = temp_dir("create").join("nested/deeper");
    let output = reproduce().args(["table1", "--no-sim", "--csv"]).arg(&dir).output().unwrap();
    assert!(
        output.status.success(),
        "fresh nested --csv dir must work: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(dir.join("table1.csv").is_file());
    std::fs::remove_dir_all(dir.parent().unwrap().parent().unwrap()).ok();
}

#[test]
fn csv_dir_unwritable_is_a_clean_error() {
    // A path that descends through a regular file can never become a
    // directory — this stays an error even for root, unlike permission
    // bits. Expect a single clean message, not a panic or partial run.
    let base = temp_dir("unwritable");
    std::fs::create_dir_all(&base).unwrap();
    let file = base.join("occupied");
    std::fs::write(&file, b"a file, not a directory").unwrap();
    let target = file.join("sub");

    let output = reproduce().args(["table1", "--no-sim", "--csv"]).arg(&target).output().unwrap();
    assert!(!output.status.success(), "unwritable --csv path must fail");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("error:") && stderr.contains("cannot create directory"),
        "want the prepare_csv_dir message, got:\n{stderr}"
    );
    assert!(!stderr.contains("panicked"), "must not panic:\n{stderr}");
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn fuzz_smoke_finds_no_disagreements() {
    // Acceptance: the fixed-seed fuzz driver finds zero disagreements.
    // A handful of cases keeps the test cheap; CI runs a larger sweep.
    let output = reproduce()
        .args(["fuzz", "--cases", "6", "--seed", "2005"])
        .env("HMCS_SIM_BUDGET", "ci")
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "fuzz found disagreements:\n{stdout}");
    assert!(stdout.contains("0 disagreement(s) — PASS"), "{stdout}");
}

#[test]
fn check_rejects_flag_misuse() {
    // --golden outside `check` and --cases outside `fuzz` are refused
    // instead of silently ignored.
    let output = reproduce().args(["fig4", "--no-sim", "--golden", "results"]).output().unwrap();
    assert!(!output.status.success());
    let output = reproduce().args(["fig4", "--no-sim", "--cases", "3"]).output().unwrap();
    assert!(!output.status.success());
    // --opt-bench and --topo-bench belong to the artefact they summarise.
    let dir = temp_dir("stray_bench");
    std::fs::create_dir_all(&dir).unwrap();
    let bench = dir.join("bench.json");
    for (flag, owner) in [("--opt-bench", "optimize"), ("--topo-bench", "topology")] {
        let output = reproduce().args(["table1", flag]).arg(&bench).output().unwrap();
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(!output.status.success(), "{flag} without {owner} must be refused");
        assert!(stderr.contains(flag) && stderr.contains(owner), "{stderr}");
        assert!(!bench.exists(), "{flag} misuse must not write {}", bench.display());
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_artefact_is_rejected_before_any_output() {
    // A misspelt name fails the whole command up front: the valid
    // artefact before it must not have run or written its files.
    let dir = temp_dir("unknown_artefact");
    let output = reproduce().args(["table1", "nosuch", "--csv"]).arg(&dir).output().unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!output.status.success(), "unknown artefact must fail");
    assert!(stderr.contains("unknown artefact nosuch"), "{stderr}");
    assert!(output.stdout.is_empty(), "{}", String::from_utf8_lossy(&output.stdout));
    assert!(!dir.join("table1.csv").exists(), "table1 ran before the name check");
    assert!(!dir.join("manifest_table1.json").exists(), "table1 ran before the name check");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn analysis_only_artefacts_match_the_goldens_byte_for_byte() {
    // The artefacts that involve no simulation are deterministic to the
    // byte, so their fresh CSVs must equal the committed goldens exactly.
    let dir = temp_dir("analysis_bytes");
    let output = reproduce()
        .args(["table1", "table2", "optimize", "sensitivity", "--csv"])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    let results = workspace_root().join("results");
    for stem in [
        "table1",
        "table2",
        "optimize_frontier",
        "optimize_budget",
        "optimize_strict",
        "optimize_diagnostics",
        "sensitivity",
    ] {
        let name = format!("{stem}.csv");
        let golden = std::fs::read(results.join(&name)).unwrap();
        let fresh = std::fs::read(dir.join(&name)).unwrap();
        assert!(golden == fresh, "{name} differs from results/{name}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
