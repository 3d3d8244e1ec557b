//! Golden-artefact regression checking.
//!
//! `reproduce check DIR` compares every CSV that `reproduce all --csv`
//! writes against the committed goldens in `results/`, cell by cell,
//! under per-column tolerances declared in `results/GOLDEN.toml`.
//! Analysis columns are deterministic and carry tight relative
//! tolerances; simulation columns carry tolerances calibrated against
//! the reduced CI budget ([`hmcs_sim::replication::SimBudget::Ci`]),
//! so the check passes on an honest run and fails loudly when the
//! solver, QNA back-off, or topology service-time formulas drift.
//!
//! Like `manifest.rs`, the workspace is offline/vendored-only, so the
//! spec is read by a hand-rolled parser for the TOML subset the spec
//! actually uses: comments, `[section]` / `[section.sub]` headers, and
//! `key = "value"` pairs with bare or quoted keys.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::Path;

/// Schema identifier required in every GOLDEN.toml.
pub(crate) const GOLDEN_SCHEMA: &str = "hmcs-golden/1";

// ---------------------------------------------------------------------
// Tolerances
// ---------------------------------------------------------------------

/// How one column's cells may differ from the golden value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Tolerance {
    /// Cells must match as strings, byte for byte.
    Exact,
    /// Column is not compared at all.
    Ignore,
    /// Numeric comparison: a candidate `x` matches a golden `g` when
    /// `|x − g| ≤ abs + rel·|g|`. Cells are parsed as numbers with an
    /// optional trailing `%` (stripped, *not* rescaled, so an `abs`
    /// tolerance on a percentage column is in percentage points).
    Numeric {
        /// Relative slack as a fraction of the golden magnitude.
        rel: f64,
        /// Absolute slack in the column's own units.
        abs: f64,
    },
}

impl Tolerance {
    /// Parses a tolerance spec string: `"exact"`, `"ignore"`, or any
    /// combination of `rel X` / `abs Y` where `X` may carry a trailing
    /// `%` (`"rel 0.5%"`, `"abs 10"`, `"rel 15% abs 0.05"`).
    pub fn parse(spec: &str) -> Result<Tolerance, String> {
        let tokens: Vec<&str> = spec.split_whitespace().collect();
        match tokens.as_slice() {
            ["exact"] => return Ok(Tolerance::Exact),
            ["ignore"] => return Ok(Tolerance::Ignore),
            [] => return Err("empty tolerance spec".to_string()),
            _ => {}
        }
        let mut rel = 0.0;
        let mut abs = 0.0;
        let mut it = tokens.iter();
        while let Some(kind) = it.next() {
            let value =
                it.next().ok_or_else(|| format!("tolerance {spec:?}: {kind} needs a value"))?;
            let (digits, percent) = match value.strip_suffix('%') {
                Some(d) => (d, true),
                None => (*value, false),
            };
            let mut x: f64 =
                digits.parse().map_err(|_| format!("tolerance {spec:?}: bad number {value:?}"))?;
            if percent {
                x /= 100.0;
            }
            if !x.is_finite() || x < 0.0 {
                return Err(format!("tolerance {spec:?}: value must be finite and >= 0"));
            }
            match *kind {
                "rel" => rel = x,
                "abs" => abs = x,
                other => return Err(format!("tolerance {spec:?}: unknown kind {other:?}")),
            }
        }
        Ok(Tolerance::Numeric { rel, abs })
    }
}

/// Parses a CSV cell as a number, accepting a trailing `%` (stripped,
/// not rescaled) so error columns like `"2.5%"` compare numerically.
pub(crate) fn parse_cell(cell: &str) -> Option<f64> {
    let trimmed = cell.trim();
    let digits = trimmed.strip_suffix('%').unwrap_or(trimmed);
    let x: f64 = digits.trim().parse().ok()?;
    x.is_finite().then_some(x)
}

// ---------------------------------------------------------------------
// GOLDEN.toml — spec model and TOML-subset parser
// ---------------------------------------------------------------------

/// Tolerance declaration for one golden CSV.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ArtefactSpec {
    /// CSV stem: `<name>.csv` in both the golden and candidate dirs.
    pub name: String,
    /// Column whose value labels rows in diff output (optional).
    pub key: Option<String>,
    /// Tolerance for columns without an explicit entry.
    pub default: Tolerance,
    /// Per-column overrides, `(header, tolerance)`.
    pub columns: Vec<(String, Tolerance)>,
}

impl ArtefactSpec {
    fn tolerance_for(&self, column: &str) -> Tolerance {
        self.columns
            .iter()
            .find(|(name, _)| name == column)
            .map(|(_, t)| *t)
            .unwrap_or(self.default)
    }
}

/// The parsed GOLDEN.toml: one [`ArtefactSpec`] per checked CSV.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct GoldenSpec {
    /// All artefact sections, in file order.
    pub artefacts: Vec<ArtefactSpec>,
}

/// One `key = value` line of the TOML subset (only strings appear in
/// GOLDEN.toml, but numbers/bools parse so error messages stay sane).
#[derive(Debug, Clone, PartialEq)]
enum TomlValue {
    Str(String),
    Num(f64),
    Bool(bool),
}

/// Splits a section header path like `fig4.columns` on unquoted dots.
fn split_section_path(path: &str, line_no: usize) -> Result<Vec<String>, String> {
    let mut parts = Vec::new();
    let mut current = String::new();
    let mut chars = path.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' => {
                for q in chars.by_ref() {
                    if q == '"' {
                        break;
                    }
                    current.push(q);
                }
            }
            '.' => {
                parts.push(current.trim().to_string());
                current.clear();
            }
            c => current.push(c),
        }
    }
    parts.push(current.trim().to_string());
    if parts.iter().any(String::is_empty) {
        return Err(format!("line {line_no}: empty segment in section [{path}]"));
    }
    Ok(parts)
}

/// Parses one raw key token (bare or `"quoted"`).
fn parse_key(raw: &str, line_no: usize) -> Result<String, String> {
    let raw = raw.trim();
    if let Some(stripped) = raw.strip_prefix('"') {
        let inner = stripped
            .strip_suffix('"')
            .ok_or_else(|| format!("line {line_no}: unterminated quoted key"))?;
        Ok(inner.to_string())
    } else if raw.is_empty() {
        Err(format!("line {line_no}: empty key"))
    } else if raw.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '-')) {
        Ok(raw.to_string())
    } else {
        Err(format!("line {line_no}: bare key {raw:?} needs quoting"))
    }
}

fn parse_value(raw: &str, line_no: usize) -> Result<TomlValue, String> {
    let raw = raw.trim();
    if let Some(stripped) = raw.strip_prefix('"') {
        let inner = stripped
            .strip_suffix('"')
            .ok_or_else(|| format!("line {line_no}: unterminated string value"))?;
        if inner.contains('"') {
            return Err(format!("line {line_no}: escaped quotes are not supported"));
        }
        return Ok(TomlValue::Str(inner.to_string()));
    }
    match raw {
        "true" => return Ok(TomlValue::Bool(true)),
        "false" => return Ok(TomlValue::Bool(false)),
        _ => {}
    }
    raw.parse::<f64>().map(TomlValue::Num).map_err(|_| format!("line {line_no}: bad value {raw:?}"))
}

/// Splits `key = value` at the first `=` outside quotes (column names
/// like `"sim M=512 (ms)"` contain a literal `=`).
fn split_key_value(line: &str, line_no: usize) -> Result<(&str, &str), String> {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '=' if !in_string => return Ok((&line[..i], &line[i + 1..])),
            _ => {}
        }
    }
    Err(format!("line {line_no}: expected `key = value`"))
}

/// Strips a trailing comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parses a GOLDEN.toml document.
///
/// Accepted TOML subset: `#` comments, `[artefact]` and
/// `[artefact.columns]` section headers, and `key = value` pairs where
/// keys are bare or double-quoted and values are double-quoted strings
/// (numbers and booleans parse but are rejected by the schema).
/// Duplicate sections, duplicate keys and unknown fields are errors —
/// a tolerance spec that silently ignores a typo is worse than none.
pub(crate) fn parse_spec(input: &str) -> Result<GoldenSpec, String> {
    let mut schema: Option<String> = None;
    let mut artefacts: Vec<ArtefactSpec> = Vec::new();
    // Current section path: empty (preamble), [name] or [name.columns].
    let mut section: Vec<String> = Vec::new();
    let mut seen_sections: BTreeSet<String> = BTreeSet::new();

    for (idx, raw_line) in input.lines().enumerate() {
        let line_no = idx + 1;
        let line = strip_comment(raw_line).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(header) = line.strip_prefix('[') {
            let header = header
                .strip_suffix(']')
                .ok_or_else(|| format!("line {line_no}: unterminated section header"))?;
            let path = split_section_path(header, line_no)?;
            if !seen_sections.insert(path.join("\u{1}")) {
                return Err(format!("line {line_no}: duplicate section [{header}]"));
            }
            match path.as_slice() {
                [name] => {
                    artefacts.push(ArtefactSpec {
                        name: name.clone(),
                        key: None,
                        default: Tolerance::Exact,
                        columns: Vec::new(),
                    });
                }
                [name, sub] if sub == "columns" => {
                    if artefacts.last().map(|a| &a.name) != Some(name) {
                        return Err(format!(
                            "line {line_no}: [{name}.columns] must follow [{name}]"
                        ));
                    }
                }
                _ => return Err(format!("line {line_no}: unsupported section [{header}]")),
            }
            section = path;
            continue;
        }
        let (raw_key, raw_value) = split_key_value(line, line_no)?;
        let key = parse_key(raw_key, line_no)?;
        let value = parse_value(raw_value, line_no)?;
        let string_value = |what: &str| -> Result<String, String> {
            match &value {
                TomlValue::Str(s) => Ok(s.clone()),
                other => Err(format!("line {line_no}: {what} must be a string, got {other:?}")),
            }
        };
        match section.len() {
            0 => match key.as_str() {
                "schema" => {
                    if schema.is_some() {
                        return Err(format!("line {line_no}: duplicate \"schema\""));
                    }
                    schema = Some(string_value("schema")?);
                }
                other => return Err(format!("line {line_no}: unknown top-level key {other:?}")),
            },
            1 => {
                let artefact = artefacts.last_mut().expect("section implies artefact");
                match key.as_str() {
                    "key" => {
                        if artefact.key.is_some() {
                            return Err(format!("line {line_no}: duplicate \"key\""));
                        }
                        artefact.key = Some(string_value("key")?);
                    }
                    "default" => {
                        artefact.default = Tolerance::parse(&string_value("default")?)
                            .map_err(|e| format!("line {line_no}: {e}"))?;
                    }
                    other => {
                        return Err(format!(
                            "line {line_no}: unknown key {other:?} in [{}]",
                            artefact.name
                        ))
                    }
                }
            }
            _ => {
                let artefact = artefacts.last_mut().expect("section implies artefact");
                if artefact.columns.iter().any(|(name, _)| *name == key) {
                    return Err(format!("line {line_no}: duplicate column {key:?}"));
                }
                let tolerance = Tolerance::parse(&string_value("column tolerance")?)
                    .map_err(|e| format!("line {line_no}: {e}"))?;
                artefact.columns.push((key, tolerance));
            }
        }
    }

    match schema.as_deref() {
        Some(GOLDEN_SCHEMA) => {}
        Some(other) => return Err(format!("schema {other:?}, expected {GOLDEN_SCHEMA:?}")),
        None => return Err(format!("missing `schema = \"{GOLDEN_SCHEMA}\"`")),
    }
    if artefacts.is_empty() {
        return Err("spec declares no artefact sections".to_string());
    }
    Ok(GoldenSpec { artefacts })
}

// ---------------------------------------------------------------------
// CSV model
// ---------------------------------------------------------------------

/// A parsed CSV file: headers plus rows of string cells.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Header row.
    pub headers: Vec<String>,
    /// Data rows, each the same length as `headers`.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Index of a header, by exact name.
    pub fn column(&self, name: &str) -> Option<usize> {
        self.headers.iter().position(|h| h == name)
    }
}

/// Parses CSV as written by [`crate::report::write_csv`]: `,`
/// separators, `"` quoting with `""` escapes, one record per line.
pub fn parse_csv(input: &str) -> Result<Table, String> {
    let mut records: Vec<Vec<String>> = Vec::new();
    for (idx, line) in input.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let mut fields = Vec::new();
        let mut field = String::new();
        let mut chars = line.chars().peekable();
        let mut quoted = false;
        loop {
            match chars.next() {
                None => break,
                Some('"') if field.is_empty() && !quoted => quoted = true,
                Some('"') if quoted => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        quoted = false;
                    }
                }
                Some(',') if !quoted => {
                    fields.push(std::mem::take(&mut field));
                }
                Some(c) => field.push(c),
            }
        }
        if quoted {
            return Err(format!("row {}: unterminated quoted field", idx + 1));
        }
        fields.push(field);
        records.push(fields);
    }
    let mut it = records.into_iter();
    let headers = it.next().ok_or("empty CSV")?;
    let rows: Vec<Vec<String>> = it.collect();
    for (i, row) in rows.iter().enumerate() {
        if row.len() != headers.len() {
            return Err(format!(
                "row {}: {} fields, header has {}",
                i + 2,
                row.len(),
                headers.len()
            ));
        }
    }
    Ok(Table { headers, rows })
}

/// Reads and parses one CSV file.
pub(crate) fn read_csv(path: &Path) -> Result<Table, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_csv(&text).map_err(|e| format!("{}: {e}", path.display()))
}

// ---------------------------------------------------------------------
// Diffing
// ---------------------------------------------------------------------

/// One cell (or structural) mismatch between golden and candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct CellDiff {
    /// CSV stem the diff is in.
    pub artefact: String,
    /// Row label: the key column's value, or `row N`.
    pub row: String,
    /// Column header (empty for structural diffs).
    pub column: String,
    /// Golden cell contents (or structural description).
    pub golden: String,
    /// Candidate cell contents (or structural description).
    pub got: String,
    /// Human-readable description of the violated tolerance.
    pub allowed: String,
}

impl CellDiff {
    fn render(&self) -> String {
        format!(
            "{}.csv [{}] {:?}: golden {:?}, got {:?} ({})",
            self.artefact, self.row, self.column, self.golden, self.got, self.allowed
        )
    }
}

/// Outcome of diffing one artefact.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// CSV stem.
    pub artefact: String,
    /// Cells compared (excluding ignored columns).
    pub cells_checked: usize,
    /// Mismatches found.
    pub diffs: Vec<CellDiff>,
}

fn structural(artefact: &str, golden: String, got: String, what: &str) -> CellDiff {
    CellDiff {
        artefact: artefact.to_string(),
        row: "-".to_string(),
        column: String::new(),
        golden,
        got,
        allowed: what.to_string(),
    }
}

/// Diffs a candidate table against its golden under `spec`.
pub(crate) fn diff_tables(spec: &ArtefactSpec, golden: &Table, candidate: &Table) -> DiffReport {
    let mut report =
        DiffReport { artefact: spec.name.clone(), cells_checked: 0, diffs: Vec::new() };
    if golden.headers != candidate.headers {
        report.diffs.push(structural(
            &spec.name,
            golden.headers.join(","),
            candidate.headers.join(","),
            "headers must match exactly",
        ));
        return report;
    }
    if golden.rows.len() != candidate.rows.len() {
        report.diffs.push(structural(
            &spec.name,
            format!("{} rows", golden.rows.len()),
            format!("{} rows", candidate.rows.len()),
            "row counts must match",
        ));
        return report;
    }
    let key_col = spec.key.as_deref().and_then(|k| golden.column(k));
    let tolerances: Vec<Tolerance> = golden.headers.iter().map(|h| spec.tolerance_for(h)).collect();
    for (row_idx, (g_row, c_row)) in golden.rows.iter().zip(&candidate.rows).enumerate() {
        let row_label = match key_col {
            Some(k) => format!("{}={}", golden.headers[k], g_row[k]),
            None => format!("row {}", row_idx + 1),
        };
        for (col_idx, (g, c)) in g_row.iter().zip(c_row).enumerate() {
            let tolerance = tolerances[col_idx];
            if tolerance == Tolerance::Ignore {
                continue;
            }
            report.cells_checked += 1;
            if g == c {
                continue;
            }
            let mut push = |allowed: String| {
                report.diffs.push(CellDiff {
                    artefact: spec.name.clone(),
                    row: row_label.clone(),
                    column: golden.headers[col_idx].clone(),
                    golden: g.clone(),
                    got: c.clone(),
                    allowed,
                });
            };
            match tolerance {
                Tolerance::Ignore => unreachable!("filtered above"),
                Tolerance::Exact => push("exact match required".to_string()),
                Tolerance::Numeric { rel, abs } => match (parse_cell(g), parse_cell(c)) {
                    (Some(gv), Some(cv)) => {
                        let allowed = abs + rel * gv.abs();
                        let delta = (cv - gv).abs();
                        if delta > allowed {
                            push(format!("|Δ| {delta:.6} > allowed {allowed:.6}"));
                        }
                    }
                    _ => push("cells not numeric and not equal".to_string()),
                },
            }
        }
    }
    report
}

/// Result of checking a whole candidate directory against the goldens.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Per-artefact outcomes, in spec order.
    pub artefacts: Vec<DiffReport>,
}

impl CheckReport {
    /// Total mismatches across all artefacts.
    pub(crate) fn total_diffs(&self) -> usize {
        self.artefacts.iter().map(|a| a.diffs.len()).sum()
    }

    /// True when every artefact matched within tolerance.
    pub fn passed(&self) -> bool {
        self.total_diffs() == 0
    }

    /// Renders the per-cell diff report (capped at `max_per_artefact`
    /// lines per artefact) plus a one-line summary.
    pub fn render(&self, max_per_artefact: usize) -> String {
        let mut out = String::new();
        for report in &self.artefacts {
            let status = if report.diffs.is_empty() { "ok" } else { "FAIL" };
            let _ = writeln!(
                out,
                "{status:>4}  {}.csv — {} cells checked, {} diff(s)",
                report.artefact,
                report.cells_checked,
                report.diffs.len()
            );
            for diff in report.diffs.iter().take(max_per_artefact) {
                let _ = writeln!(out, "      {}", diff.render());
            }
            if report.diffs.len() > max_per_artefact {
                let _ = writeln!(out, "      … and {} more", report.diffs.len() - max_per_artefact);
            }
        }
        let _ = writeln!(
            out,
            "golden check: {} artefact(s), {} diff(s) — {}",
            self.artefacts.len(),
            self.total_diffs(),
            if self.passed() { "PASS" } else { "FAIL" }
        );
        out
    }
}

/// Loads `GOLDEN.toml` from `golden_dir` and diffs every declared
/// artefact CSV in `candidate_dir` against its golden counterpart.
pub fn check_dir(golden_dir: &Path, candidate_dir: &Path) -> Result<CheckReport, String> {
    let spec_path = golden_dir.join("GOLDEN.toml");
    let spec_text =
        std::fs::read_to_string(&spec_path).map_err(|e| format!("{}: {e}", spec_path.display()))?;
    let spec = parse_spec(&spec_text).map_err(|e| format!("{}: {e}", spec_path.display()))?;
    let mut artefacts = Vec::new();
    for artefact in &spec.artefacts {
        let golden = read_csv(&golden_dir.join(format!("{}.csv", artefact.name)))?;
        let candidate = read_csv(&candidate_dir.join(format!("{}.csv", artefact.name)))?;
        artefacts.push(diff_tables(artefact, &golden, &candidate));
    }
    Ok(CheckReport { artefacts })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Looks up an artefact section by CSV stem.
    fn artefact<'a>(spec: &'a GoldenSpec, name: &str) -> Option<&'a ArtefactSpec> {
        spec.artefacts.iter().find(|a| a.name == name)
    }

    const SPEC: &str = r#"
# demo spec
schema = "hmcs-golden/1"

[demo]
key = "clusters"
default = "rel 0.5%"

[demo.columns]
"clusters" = "exact"
"sim (ms)" = "rel 10% abs 0.05"
"note" = "ignore"
"#;

    fn table(rows: &[&[&str]]) -> Table {
        let headers =
            vec!["clusters".into(), "analysis (ms)".into(), "sim (ms)".into(), "note".into()];
        Table {
            headers,
            rows: rows.iter().map(|r| r.iter().map(|c| c.to_string()).collect()).collect(),
        }
    }

    #[test]
    fn tolerance_grammar() {
        assert_eq!(Tolerance::parse("exact").unwrap(), Tolerance::Exact);
        assert_eq!(Tolerance::parse("ignore").unwrap(), Tolerance::Ignore);
        assert_eq!(
            Tolerance::parse("rel 0.5%").unwrap(),
            Tolerance::Numeric { rel: 0.005, abs: 0.0 }
        );
        assert_eq!(Tolerance::parse("abs 10").unwrap(), Tolerance::Numeric { rel: 0.0, abs: 10.0 });
        assert_eq!(
            Tolerance::parse("rel 15% abs 0.05").unwrap(),
            Tolerance::Numeric { rel: 0.15, abs: 0.05 }
        );
        assert!(Tolerance::parse("").is_err());
        assert!(Tolerance::parse("rel").is_err());
        assert!(Tolerance::parse("rel x").is_err());
        assert!(Tolerance::parse("rel -1").is_err());
        assert!(Tolerance::parse("sideways 3").is_err());
    }

    #[test]
    fn spec_parses_and_resolves_tolerances() {
        let spec = parse_spec(SPEC).unwrap();
        let demo = artefact(&spec, "demo").unwrap();
        assert_eq!(demo.key.as_deref(), Some("clusters"));
        assert_eq!(demo.tolerance_for("clusters"), Tolerance::Exact);
        assert_eq!(demo.tolerance_for("sim (ms)"), Tolerance::Numeric { rel: 0.10, abs: 0.05 });
        assert_eq!(demo.tolerance_for("note"), Tolerance::Ignore);
        // Unlisted column falls back to the artefact default.
        assert_eq!(
            demo.tolerance_for("analysis (ms)"),
            Tolerance::Numeric { rel: 0.005, abs: 0.0 }
        );
    }

    #[test]
    fn spec_rejects_malformed_documents() {
        assert!(parse_spec("").is_err(), "missing schema");
        assert!(parse_spec("schema = \"other/9\"\n[a]\n").is_err(), "wrong schema");
        assert!(parse_spec("schema = \"hmcs-golden/1\"\n").is_err(), "no artefacts");
        let dup_section = "schema = \"hmcs-golden/1\"\n[a]\n[a]\n";
        assert!(parse_spec(dup_section).is_err(), "duplicate section");
        let dup_key = "schema = \"hmcs-golden/1\"\n[a]\nkey = \"x\"\nkey = \"y\"\n";
        assert!(parse_spec(dup_key).is_err(), "duplicate key");
        let dup_col =
            "schema = \"hmcs-golden/1\"\n[a]\n[a.columns]\n\"c\" = \"exact\"\n\"c\" = \"ignore\"\n";
        assert!(parse_spec(dup_col).is_err(), "duplicate column");
        let unknown = "schema = \"hmcs-golden/1\"\n[a]\nflavour = \"vanilla\"\n";
        assert!(parse_spec(unknown).is_err(), "unknown key");
        let orphan = "schema = \"hmcs-golden/1\"\n[a.columns]\n";
        assert!(parse_spec(orphan).is_err(), "columns before artefact");
        let unterminated = "schema = \"hmcs-golden/1\"\n[a\n";
        assert!(parse_spec(unterminated).is_err(), "unterminated header");
        let bad_value = "schema = \"hmcs-golden/1\"\n[a]\nkey = 7\n";
        assert!(parse_spec(bad_value).is_err(), "non-string value");
    }

    #[test]
    fn spec_accepts_comments_and_quoted_keys_with_hashes() {
        let spec =
            "schema = \"hmcs-golden/1\" # trailing\n[a]\n[a.columns]\n\"# of ports\" = \"exact\"\n";
        let parsed = parse_spec(spec).unwrap();
        assert_eq!(parsed.artefacts[0].columns[0].0, "# of ports");
    }

    #[test]
    fn csv_round_trips_through_report_writer() {
        let dir = std::env::temp_dir().join("hmcs_golden_csv_test");
        let path = dir.join("t.csv");
        crate::report::write_csv(
            &path,
            &["a", "b"],
            &[vec!["1,2".into(), "say \"hi\"".into()], vec!["3".into(), "4".into()]],
        )
        .unwrap();
        let table = read_csv(&path).unwrap();
        assert_eq!(table.headers, vec!["a", "b"]);
        assert_eq!(table.rows[0], vec!["1,2", "say \"hi\""]);
        assert_eq!(table.rows[1], vec!["3", "4"]);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn csv_rejects_ragged_and_unterminated_input() {
        assert!(parse_csv("").is_err());
        assert!(parse_csv("a,b\n1\n").is_err());
        assert!(parse_csv("a,b\n\"unterminated,2\n").is_err());
    }

    #[test]
    fn diff_passes_within_tolerance_and_fails_beyond() {
        let spec = parse_spec(SPEC).unwrap();
        let demo = artefact(&spec, "demo").unwrap();
        let golden = table(&[&["1", "10.000", "10.100", "x"]]);
        // sim within 10%+0.05, analysis within 0.5%, note ignored.
        let ok = table(&[&["1", "10.040", "11.000", "different-note"]]);
        let report = diff_tables(demo, &golden, &ok);
        assert!(report.diffs.is_empty(), "{:?}", report.diffs);
        assert_eq!(report.cells_checked, 3, "note column must be ignored");

        let bad = table(&[&["1", "10.060", "12.000", "x"]]);
        let report = diff_tables(demo, &golden, &bad);
        assert_eq!(report.diffs.len(), 2);
        assert_eq!(report.diffs[0].column, "analysis (ms)");
        assert_eq!(report.diffs[0].row, "clusters=1");
        assert!(report.diffs[0].allowed.contains("allowed"));
        assert_eq!(report.diffs[1].column, "sim (ms)");
    }

    #[test]
    fn diff_flags_structural_mismatches() {
        let spec = parse_spec(SPEC).unwrap();
        let demo = artefact(&spec, "demo").unwrap();
        let golden = table(&[&["1", "1", "1", "x"]]);
        let mut wrong_headers = golden.clone();
        wrong_headers.headers[1] = "renamed".into();
        assert_eq!(diff_tables(demo, &golden, &wrong_headers).diffs.len(), 1);
        let extra_row = table(&[&["1", "1", "1", "x"], &["2", "1", "1", "x"]]);
        let report = diff_tables(demo, &golden, &extra_row);
        assert_eq!(report.diffs.len(), 1);
        assert!(report.diffs[0].allowed.contains("row counts"));
    }

    #[test]
    fn percent_cells_compare_numerically() {
        assert_eq!(parse_cell("2.5%"), Some(2.5));
        assert_eq!(parse_cell(" 3.231e-5 "), Some(3.231e-5));
        assert_eq!(parse_cell("-"), None);
        assert_eq!(parse_cell("Gigabit Ethernet"), None);
        let spec = parse_spec("schema = \"hmcs-golden/1\"\n[e]\ndefault = \"abs 1.5\"\n").unwrap();
        let artefact = artefact(&spec, "e").unwrap();
        let golden = Table { headers: vec!["err".into()], rows: vec![vec!["2.5%".into()]] };
        let near = Table { headers: vec!["err".into()], rows: vec![vec!["3.9%".into()]] };
        let far = Table { headers: vec!["err".into()], rows: vec![vec!["4.1%".into()]] };
        assert!(diff_tables(artefact, &golden, &near).diffs.is_empty());
        assert_eq!(diff_tables(artefact, &golden, &far).diffs.len(), 1);
    }

    #[test]
    fn check_report_renders_and_caps() {
        let diff = CellDiff {
            artefact: "demo".into(),
            row: "clusters=2".into(),
            column: "sim (ms)".into(),
            golden: "1".into(),
            got: "2".into(),
            allowed: "|Δ| 1 > allowed 0.1".into(),
        };
        let report = CheckReport {
            artefacts: vec![DiffReport {
                artefact: "demo".into(),
                cells_checked: 5,
                diffs: vec![diff.clone(), diff],
            }],
        };
        assert!(!report.passed());
        let rendered = report.render(1);
        assert!(rendered.contains("FAIL"));
        assert!(rendered.contains("… and 1 more"));
        assert!(rendered.contains("clusters=2"));
    }
}
