//! `hmcs-perfbench` — the in-process half of the repository benchmark.
//! `perfbench/run.py` builds and drives it; each subcommand prints one
//! JSON object on stdout. `plan` and `serve` with `--trace --spans PATH`
//! also write their spans as JSON lines to `PATH`.
//!
//! ```text
//! hmcs-perfbench plan --seed N --seconds S --workers W [--setup-only] [--trace] [--spans P]
//! hmcs-perfbench reproduce-layers --sim-seed N [--trace]
//! hmcs-perfbench reproduce-check --dir D --golden G --sim-seed N
//! hmcs-perfbench serve --workload point|batch --server BIN --seed N --seconds S
//!                      --workers W [--trace] [--spans P]
//! ```

mod client;
mod plan;
mod reproduce;
mod serve;
mod sys;
mod trace;

use std::collections::HashMap;
use std::process::ExitCode;

/// `--key value` and bare `--flag` arguments.
pub struct Args(HashMap<String, String>);

impl Args {
    fn parse(argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut map = HashMap::new();
        let mut argv = argv.peekable();
        while let Some(key) = argv.next() {
            let key = key.strip_prefix("--").ok_or_else(|| format!("unexpected argument {key}"))?;
            let value = match argv.peek() {
                Some(v) if !v.starts_with("--") => argv.next().expect("peeked"),
                _ => String::new(),
            };
            map.insert(key.to_string(), value);
        }
        Ok(Args(map))
    }

    pub fn str(&self, key: &str) -> Result<&str, String> {
        self.0.get(key).map(String::as_str).ok_or_else(|| format!("--{key} is required"))
    }

    pub fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.str(key)?.parse().map_err(|_| format!("--{key}: not a number"))
    }

    pub fn flag(&self, key: &str) -> bool {
        self.0.contains_key(key)
    }

    /// Where to write spans, if asked.
    pub fn spans_path(&self) -> Option<&str> {
        self.0.get("spans").map(String::as_str)
    }
}

/// A flat JSON object built field by field.
#[derive(Default)]
pub struct Obj(Vec<String>);

impl Obj {
    pub fn num(mut self, key: &str, value: f64) -> Self {
        self.0.push(format!("\"{key}\":{}", hmcs_core::json::json_num(value)));
        self
    }

    pub fn int(mut self, key: &str, value: u64) -> Self {
        self.0.push(format!("\"{key}\":{value}"));
        self
    }

    pub fn raw(mut self, key: &str, json: String) -> Self {
        self.0.push(format!("\"{key}\":{json}"));
        self
    }

    pub fn nums(self, key: &str, values: &[f64]) -> Self {
        let items: Vec<String> = values.iter().map(|v| hmcs_core::json::json_num(*v)).collect();
        self.raw(key, format!("[{}]", items.join(",")))
    }

    pub fn ints(self, key: &str, values: &[u64]) -> Self {
        let items: Vec<String> = values.iter().map(u64::to_string).collect();
        self.raw(key, format!("[{}]", items.join(",")))
    }

    pub fn finish(self) -> String {
        format!("{{{}}}", self.0.join(","))
    }
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().unwrap_or_default();
    let outcome = Args::parse(argv).and_then(|args| match command.as_str() {
        "plan" => plan::run(&args),
        "reproduce-layers" => reproduce::layers(&args),
        "reproduce-check" => reproduce::check(&args),
        "serve" => serve::run(&args),
        other => Err(format!("unknown subcommand {other:?}")),
    });
    match outcome {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("hmcs-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
