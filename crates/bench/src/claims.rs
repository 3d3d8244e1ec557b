//! Machine-readable registry of the paper's shape claims.
//!
//! EXPERIMENTS.md narrates what each reproduced figure is supposed to
//! show — the dip-then-rise of Figure 4, the V-shape minimum at C=8 in
//! Figures 6/7, blocking dominating non-blocking everywhere, the
//! Case-1/Case-2 symmetry at the ends of the cluster sweep. This
//! module encodes every one of those claims as an assertion over the
//! generated CSVs, so `reproduce check` fails when a refactor preserves
//! the file format but silently breaks the *science*.
//!
//! Thresholds on simulation-facing claims (worst-error ceilings,
//! bound slack) are calibrated to hold under both the paper budget and
//! the reduced CI budget ([`hmcs_sim::replication::SimBudget::Ci`]);
//! claims on analysis columns are deterministic and use tight margins.

use crate::golden::{parse_cell, read_csv, Table};
use std::fmt::Write as _;
use std::path::Path;

/// Outcome of evaluating one claim.
#[derive(Debug, Clone)]
pub struct ClaimResult {
    /// Stable identifier, e.g. `fig6-vshape`.
    pub id: &'static str,
    /// What the claim asserts, in prose.
    pub description: &'static str,
    /// Whether the generated data satisfies the claim.
    pub passed: bool,
    /// Supporting numbers (worst offender on failure, margin on pass).
    pub detail: String,
}

/// Renders claim results as a table-ish text report plus summary line.
pub fn render(results: &[ClaimResult]) -> String {
    let mut out = String::new();
    let failed = results.iter().filter(|r| !r.passed).count();
    for r in results {
        let status = if r.passed { "ok" } else { "FAIL" };
        let _ = writeln!(out, "{status:>4}  {:<24} {}", r.id, r.detail);
    }
    let _ = writeln!(
        out,
        "claims: {} evaluated, {} failed — {}",
        results.len(),
        failed,
        if failed == 0 { "PASS" } else { "FAIL" }
    );
    out
}

/// Writes `claims_report.csv` (claim, description, status, detail).
pub fn write_report(path: &Path, results: &[ClaimResult]) -> std::io::Result<()> {
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.id.to_string(),
                r.description.to_string(),
                if r.passed { "pass" } else { "fail" }.to_string(),
                r.detail.clone(),
            ]
        })
        .collect();
    crate::report::write_csv(path, &["claim", "description", "status", "detail"], &rows)
}

// ---------------------------------------------------------------------
// Column access helpers
// ---------------------------------------------------------------------

fn column(table: &Table, file: &str, name: &str) -> Result<Vec<f64>, String> {
    let idx = table.column(name).ok_or_else(|| format!("{file}.csv: missing column {name:?}"))?;
    table
        .rows
        .iter()
        .enumerate()
        .map(|(i, row)| {
            parse_cell(&row[idx])
                .ok_or_else(|| format!("{file}.csv row {}: non-numeric {name:?} cell", i + 1))
        })
        .collect()
}

/// Index of the row whose `clusters` column equals `clusters`.
fn row_for_clusters(table: &Table, file: &str, clusters: u32) -> Result<usize, String> {
    let idx = table
        .column("clusters")
        .ok_or_else(|| format!("{file}.csv: missing \"clusters\" column"))?;
    table
        .rows
        .iter()
        .position(|row| row[idx].trim() == clusters.to_string())
        .ok_or_else(|| format!("{file}.csv: no row with clusters={clusters}"))
}

fn fmt_max(label: &str, values: &[f64]) -> String {
    let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    format!("max {label} {max:.2}")
}

/// `values` strictly increases over `range` (indices into `values`).
fn strictly_increasing(values: &[f64], range: std::ops::Range<usize>) -> bool {
    range.clone().skip(1).all(|i| values[i] > values[i - 1])
}

// ---------------------------------------------------------------------
// The registry
// ---------------------------------------------------------------------

struct Csvs {
    fig4: Table,
    fig5: Table,
    fig6: Table,
    fig7: Table,
    claims: Table,
    accounting: Table,
    hops: Table,
    service: Table,
    bounds: Table,
    coc: Table,
    packet: Table,
    topo_matrix: Table,
    topo_agreement: Table,
}

fn load(dir: &Path) -> Result<Csvs, String> {
    let read = |name: &str| read_csv(&dir.join(format!("{name}.csv")));
    Ok(Csvs {
        fig4: read("fig4")?,
        fig5: read("fig5")?,
        fig6: read("fig6")?,
        fig7: read("fig7")?,
        claims: read("claims")?,
        accounting: read("ablation_accounting")?,
        hops: read("ablation_hops")?,
        service: read("ablation_service")?,
        bounds: read("bounds")?,
        coc: read("coc_validation")?,
        packet: read("packet_validation")?,
        topo_matrix: read("topology_matrix")?,
        topo_agreement: read("topology_agreement")?,
    })
}

const ANALYSIS_512: &str = "analysis M=512 (ms)";
const ANALYSIS_1024: &str = "analysis M=1024 (ms)";

/// Evaluates every registered claim against the CSVs in `dir`.
///
/// Returns `Err` only when a CSV is missing or malformed — a claim
/// *failing* is reported in its [`ClaimResult`], not as an error.
pub fn evaluate_dir(dir: &Path) -> Result<Vec<ClaimResult>, String> {
    let csvs = load(dir)?;
    let mut results = Vec::new();
    let mut push = |id, description, outcome: Result<(bool, String), String>| {
        let (passed, detail) = match outcome {
            Ok(pair) => pair,
            Err(e) => (false, e),
        };
        results.push(ClaimResult { id, description, passed, detail });
    };

    // --- analysis-vs-simulation agreement, per figure ----------------
    // Ceilings hold with margin under both sim budgets (measured worst
    // errors: fig4 3.3/6.6, fig5 4.9/10.0, fig6 3.5/5.8, fig7 13.9/24.2
    // percent under paper/ci budgets).
    for (id, table, file, ceiling) in [
        ("fig4-agreement", &csvs.fig4, "fig4", 12.0),
        ("fig5-agreement", &csvs.fig5, "fig5", 15.0),
        ("fig6-agreement", &csvs.fig6, "fig6", 12.0),
        ("fig7-agreement", &csvs.fig7, "fig7", 30.0),
    ] {
        push(
            id,
            "analysis tracks simulation: worst per-row error under the figure's ceiling",
            column(table, file, "worst err").map(|errs| {
                let worst = errs.iter().cloned().fold(0.0, f64::max);
                (worst <= ceiling, format!("worst err {worst:.1}% ≤ {ceiling:.0}%"))
            }),
        );
    }

    // --- figure shapes (deterministic analysis columns) --------------
    push(
        "fig4-shape",
        "Case-1 non-blocking: latency dips at C=2, then rises monotonically to C=256",
        column(&csvs.fig4, "fig4", ANALYSIS_1024).map(|v| {
            let ok = v.len() == 9 && v[1] < v[0] && strictly_increasing(&v, 1..v.len());
            (ok, format!("C=1 {:.1} ms, dip C=2 {:.1} ms, C=256 {:.1} ms", v[0], v[1], v[8]))
        }),
    );
    push(
        "fig5-shape",
        "Case-2 non-blocking: C=1 is the worst case; latency dips at C=2 then rises",
        column(&csvs.fig5, "fig5", ANALYSIS_1024).map(|v| {
            let peak_at_1 = v.iter().skip(1).all(|&x| x < v[0]);
            let ok = v.len() == 9 && peak_at_1 && strictly_increasing(&v, 1..v.len());
            (ok, format!("C=1 {:.1} ms vs best {:.1} ms", v[0], v[1]))
        }),
    );
    push(
        "fig6-vshape",
        "Case-1 blocking: V-shaped latency with the minimum at C=8",
        column(&csvs.fig6, "fig6", ANALYSIS_1024).map(|v| {
            let (argmin, _) =
                v.iter()
                    .enumerate()
                    .fold((0, f64::INFINITY), |acc, (i, &x)| if x < acc.1 { (i, x) } else { acc });
            // Clusters double per row, so index 3 is C=8.
            let ok = v.len() == 9 && argmin == 3 && strictly_increasing(&v, 3..v.len());
            (ok, format!("min {:.1} ms at C={}", v[argmin], 1u32 << argmin))
        }),
    );
    push(
        "fig7-vshape",
        "Case-2 blocking: minimum at C=8, catastrophic worst case at C=1",
        column(&csvs.fig7, "fig7", ANALYSIS_1024).map(|v| {
            let (argmin, _) =
                v.iter()
                    .enumerate()
                    .fold((0, f64::INFINITY), |acc, (i, &x)| if x < acc.1 { (i, x) } else { acc });
            let peak_at_1 = v.iter().skip(1).all(|&x| x < v[0]);
            let ok =
                v.len() == 9 && argmin == 3 && peak_at_1 && strictly_increasing(&v, 3..v.len());
            (ok, format!("min {:.1} ms at C={}, C=1 {:.1} ms", v[argmin], 1u32 << argmin, v[0]))
        }),
    );
    push(
        "message-size-monotone",
        "doubling the message size raises analytical latency in every figure row",
        (|| {
            let mut worst: f64 = f64::INFINITY;
            for (table, file) in [
                (&csvs.fig4, "fig4"),
                (&csvs.fig5, "fig5"),
                (&csvs.fig6, "fig6"),
                (&csvs.fig7, "fig7"),
            ] {
                let small = column(table, file, ANALYSIS_512)?;
                let large = column(table, file, ANALYSIS_1024)?;
                for (s, l) in small.iter().zip(&large) {
                    worst = worst.min(l - s);
                }
            }
            Ok((worst > 0.0, format!("min Δ(M=1024 − M=512) {worst:.3} ms")))
        })(),
    );

    // --- §6 blocking-vs-non-blocking ratios ---------------------------
    push(
        "blocking-dominates",
        "blocking latency exceeds non-blocking in every scenario/cluster row",
        (|| {
            let nb = column(&csvs.claims, "claims", "non-blocking (ms)")?;
            let b = column(&csvs.claims, "claims", "blocking (ms)")?;
            let violations = nb.iter().zip(&b).filter(|(n, bl)| bl <= n).count();
            Ok((violations == 0, format!("{} of {} rows violate", violations, nb.len())))
        })(),
    );
    push(
        "ratio-magnitude",
        "blocking/non-blocking ratios: all > 1, at least 16 of 18 ≥ 1.4×, max > 3×",
        column(&csvs.claims, "claims", "ratio").map(|ratios| {
            let all_above_one = ratios.iter().all(|&r| r > 1.0);
            let big = ratios.iter().filter(|&&r| r >= 1.4).count();
            let max = ratios.iter().cloned().fold(0.0, f64::max);
            let ok = all_above_one && ratios.len() == 18 && big >= 16 && max > 3.0;
            (ok, format!("{big}/{} ≥ 1.4×, max {max:.1}×", ratios.len()))
        }),
    );
    push(
        "case-symmetry",
        "Case-1 at C=256 matches Case-2 at C=1 (and vice versa) — same homogeneous system",
        (|| {
            let pairs = [
                (&csvs.fig4, "fig4", 256u32, &csvs.fig5, "fig5", 1u32),
                (&csvs.fig4, "fig4", 1, &csvs.fig5, "fig5", 256),
                (&csvs.fig6, "fig6", 256, &csvs.fig7, "fig7", 1),
                (&csvs.fig6, "fig6", 1, &csvs.fig7, "fig7", 256),
            ];
            let mut worst = 0.0f64;
            for (ta, fa, ca, tb, fb, cb) in pairs {
                let a = column(ta, fa, ANALYSIS_1024)?[row_for_clusters(ta, fa, ca)?];
                let b = column(tb, fb, ANALYSIS_1024)?[row_for_clusters(tb, fb, cb)?];
                worst = worst.max((a - b).abs() / a.abs().max(1e-12));
            }
            Ok((worst <= 0.005, format!("worst endpoint mismatch {:.3}%", worst * 100.0)))
        })(),
    );

    // --- ablations ----------------------------------------------------
    push(
        "accounting-finding",
        "the paper's literal per-job accounting breaks at C=2; per-processor accounting does not",
        (|| {
            let literal = column(&csvs.accounting, "ablation_accounting", "literal err")?;
            let single = column(&csvs.accounting, "ablation_accounting", "single err")?;
            let at2 = row_for_clusters(&csvs.accounting, "ablation_accounting", 2)?;
            let single_worst = single.iter().cloned().fold(0.0, f64::max);
            let ok = literal[at2] >= 25.0 && single_worst <= 10.0;
            Ok((
                ok,
                format!(
                    "literal err at C=2 {:.1}%, worst single err {single_worst:.1}%",
                    literal[at2]
                ),
            ))
        })(),
    );
    push(
        "hops-approximation",
        "the paper's (k+1)/3 mean-hop shortcut stays within 2% of the exact hop distribution",
        (|| {
            let approx = column(&csvs.hops, "ablation_hops", "analysis (k+1)/3 (ms)")?;
            let exact = column(&csvs.hops, "ablation_hops", "analysis exact (ms)")?;
            let worst = approx
                .iter()
                .zip(&exact)
                .map(|(a, e)| (a - e).abs() / e.abs().max(1e-12))
                .fold(0.0, f64::max);
            Ok((worst <= 0.02, format!("worst deviation {:.2}%", worst * 100.0)))
        })(),
    );
    push(
        "service-scv-ordering",
        "analytical latency rises with service-time variability (SCV 0 → 4)",
        (|| {
            let scv = column(&csvs.service, "ablation_service", "SCV")?;
            let latency = column(&csvs.service, "ablation_service", "analysis (ms)")?;
            let scv_sorted = strictly_increasing(&scv, 0..scv.len());
            let ok = scv_sorted && strictly_increasing(&latency, 0..latency.len());
            Ok((
                ok,
                format!(
                    "{:.2} ms (SCV 0) → {:.2} ms (SCV 4)",
                    latency[0],
                    latency[latency.len() - 1]
                ),
            ))
        })(),
    );

    // --- bounds, CoC, packet validation -------------------------------
    push(
        "bounds-envelope",
        "asymptotic-bound λ_eff is an upper envelope: model under it, sim within ramp-up slack",
        (|| {
            let bound = column(&csvs.bounds, "bounds", "bound λ_eff")?;
            let model = column(&csvs.bounds, "bounds", "model λ_eff")?;
            let sim = column(&csvs.bounds, "bounds", "sim λ_eff")?;
            let model_worst = model.iter().zip(&bound).map(|(m, b)| m / b).fold(0.0, f64::max);
            let sim_worst = sim.iter().zip(&bound).map(|(s, b)| s / b).fold(0.0, f64::max);
            // Sim may peek over the bound: finite runs count ramp-up
            // throughput. 1.15 clears the worst measured ratio (1.047
            // under the CI budget) with headroom.
            let ok = model_worst <= 1.001 && sim_worst <= 1.15;
            Ok((ok, format!("model/bound ≤ {model_worst:.3}, sim/bound ≤ {sim_worst:.3}")))
        })(),
    );
    push(
        "coc-agreement",
        "cluster-of-clusters extension matches simulation on heterogeneous systems",
        column(&csvs.coc, "coc_validation", "err").map(|errs| {
            let worst = errs.iter().cloned().fold(0.0, f64::max);
            (worst <= 10.0, format!("worst err {worst:.1}% ≤ 10%"))
        }),
    );
    // --- topology pipeline --------------------------------------------
    push(
        "topology-roundtrip",
        "cluster identification recovers every planted partition bit-exactly, up to 10k nodes",
        (|| {
            let roundtrip = column(&csvs.topo_matrix, "topology_matrix", "roundtrip")?;
            let nodes = column(&csvs.topo_matrix, "topology_matrix", "nodes")?;
            let failures = roundtrip.iter().filter(|&&r| r != 1.0).count();
            let max_nodes = nodes.iter().cloned().fold(0.0, f64::max);
            let ok = failures == 0 && max_nodes >= 10_000.0;
            Ok((
                ok,
                format!(
                    "{failures} of {} cases failed, largest {max_nodes:.0} nodes",
                    roundtrip.len()
                ),
            ))
        })(),
    );
    push(
        "topology-agreement",
        "the fitted config's analytical latency matches the flow simulation in every case",
        (|| {
            let agrees = column(&csvs.topo_agreement, "topology_agreement", "agrees")?;
            let analysis = column(&csvs.topo_agreement, "topology_agreement", "analysis (ms)")?;
            let sim = column(&csvs.topo_agreement, "topology_agreement", "sim (ms)")?;
            let failures = agrees.iter().filter(|&&a| a != 1.0).count();
            let worst = analysis
                .iter()
                .zip(&sim)
                .map(|(a, s)| (a - s).abs() / s.abs().max(1e-12))
                .fold(0.0, f64::max);
            Ok((
                failures == 0,
                format!("{failures} disagreements, worst gap {:.2}%", worst * 100.0),
            ))
        })(),
    );

    push(
        "packet-vs-flow",
        "packet-level sim yields positive latencies below the flow-level sim (no store-and-forward inflation)",
        (|| {
            let flow = column(&csvs.packet, "packet_validation", "flow sim (ms)")?;
            let packet = column(&csvs.packet, "packet_validation", "packet sim (ms)")?;
            let ok = packet.iter().zip(&flow).all(|(p, f)| *p > 0.0 && p < f);
            Ok((ok, fmt_max("packet/flow ratio", &packet.iter().zip(&flow).map(|(p, f)| p / f).collect::<Vec<_>>())))
        })(),
    );

    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_passes_on_committed_goldens() {
        // The committed results/ directory is the reference artefact
        // set; every claim must hold on it.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let results = evaluate_dir(&dir).unwrap();
        assert!(results.len() >= 16, "expected a full registry, got {}", results.len());
        let failed: Vec<_> = results.iter().filter(|r| !r.passed).collect();
        assert!(failed.is_empty(), "claims failed on goldens: {failed:#?}");
    }

    #[test]
    fn registry_fails_on_broken_data() {
        // Copy the goldens, then flip fig6 so its minimum moves off
        // C=8 — the V-shape claim must catch it.
        let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let dir = std::env::temp_dir().join("hmcs_claims_broken");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        for entry in std::fs::read_dir(&src).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "csv") {
                std::fs::copy(&path, dir.join(path.file_name().unwrap())).unwrap();
            }
        }
        // Replace the C=8 row's analysis values with huge ones so the
        // minimum is no longer at C=8.
        let fig6 = std::fs::read_to_string(dir.join("fig6.csv")).unwrap();
        let mut lines: Vec<&str> = fig6.lines().collect();
        let owned = lines[4].to_string();
        let mut cells: Vec<String> = owned.split(',').map(str::to_string).collect();
        cells[1] = "99999.0".into();
        cells[3] = "99999.0".into();
        let replacement = cells.join(",");
        lines[4] = &replacement;
        std::fs::write(dir.join("fig6.csv"), lines.join("\n")).unwrap();
        let results = evaluate_dir(&dir).unwrap();
        let vshape = results.iter().find(|r| r.id == "fig6-vshape").unwrap();
        assert!(!vshape.passed, "tampered fig6 must fail the V-shape claim");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_csv_is_an_error_not_a_failure() {
        let dir = std::env::temp_dir().join("hmcs_claims_missing");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(evaluate_dir(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn report_renders_and_writes() {
        let results = vec![
            ClaimResult { id: "a", description: "d", passed: true, detail: "fine".into() },
            ClaimResult { id: "b", description: "d", passed: false, detail: "broken".into() },
        ];
        let rendered = render(&results);
        assert!(rendered.contains("FAIL"));
        assert!(rendered.contains("1 failed"));
        let dir = std::env::temp_dir().join("hmcs_claims_report");
        let path = dir.join("claims_report.csv");
        write_report(&path, &results).unwrap();
        let table = crate::golden::read_csv(&path).unwrap();
        assert_eq!(table.headers, vec!["claim", "description", "status", "detail"]);
        assert_eq!(table.rows[1][2], "fail");
        std::fs::remove_dir_all(&dir).ok();
    }
}
