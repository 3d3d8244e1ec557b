//! The `hmcs-loadgen` benchmark client binary.
//!
//! Thin shell around [`hmcs_serve::loadgen`]: parse flags, run one
//! open- or closed-loop benchmark against a running `hmcs-serve`
//! daemon, and emit the `hmcs-loadgen/1` JSON summary to stdout (or
//! `--out FILE`). Exits non-zero when the run itself failed (e.g. the
//! server is unreachable); result *quality* gating is `benchgate`'s
//! job.

use hmcs_serve::loadgen::{self, LoadgenConfig, Mode};
use std::time::Duration;

const USAGE: &str = "usage: hmcs-loadgen [options]

options:
  --addr HOST:PORT       target server (default 127.0.0.1:8377)
  --mode closed|open     closed loop (fixed concurrency) or open loop
                         (fixed schedule) (default closed)
  --connections N        concurrent connections (default 2)
  --pipeline N           closed loop: requests in flight per connection
                         (default 16)
  --rate N               open loop: aggregate target requests/second
                         (required for --mode open)
  --duration-s N         measurement window seconds (default 5)
  --warmup-s N           warm-up seconds, discarded (default 1)
  --sweep-permille N     sweep requests per 1000 (default 0; the rest
                         are evaluates)
  --clusters N           clusters field of generated configs (default 16)
  --message-bytes A,B,C  message-size distribution, sampled uniformly
                         (default 256,1024,4096)
  --out FILE             write the JSON summary to FILE instead of stdout
  --help                 print this help
";

struct Cli {
    config: LoadgenConfig,
    out: Option<String>,
}

fn parse_args() -> Result<Cli, String> {
    let mut config = LoadgenConfig::default();
    let mut out = None;
    let mut pipeline = 16usize;
    let mut rate: Option<f64> = None;
    let mut open = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--help" || flag == "-h" {
            print!("{USAGE}");
            std::process::exit(0);
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid value {value:?} for {flag}");
        match flag.as_str() {
            "--addr" => config.addr = value.clone(),
            "--mode" => match value.as_str() {
                "closed" => open = false,
                "open" => open = true,
                other => return Err(format!("unknown mode {other:?}; expected closed or open")),
            },
            "--connections" => config.connections = value.parse().map_err(|_| bad())?,
            "--pipeline" => pipeline = value.parse().map_err(|_| bad())?,
            "--rate" => rate = Some(value.parse().map_err(|_| bad())?),
            "--duration-s" => {
                config.duration = Duration::from_secs_f64(value.parse().map_err(|_| bad())?);
            }
            "--warmup-s" => {
                config.warmup = Duration::from_secs_f64(value.parse().map_err(|_| bad())?);
            }
            "--sweep-permille" => {
                config.mix.sweep_permille = value.parse().map_err(|_| bad())?;
                if config.mix.sweep_permille > 1000 {
                    return Err("--sweep-permille must be 0..=1000".into());
                }
            }
            "--clusters" => config.mix.clusters = value.parse().map_err(|_| bad())?,
            "--message-bytes" => {
                config.mix.message_bytes = value
                    .split(',')
                    .map(|s| s.trim().parse().map_err(|_| format!("invalid size {s:?}")))
                    .collect::<Result<Vec<u64>, _>>()?;
                if config.mix.message_bytes.is_empty() {
                    return Err("--message-bytes needs at least one size".into());
                }
            }
            "--out" => out = Some(value.clone()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    config.mode = if open {
        let rate = rate.ok_or("--mode open requires --rate")?;
        if rate <= 0.0 || !rate.is_finite() {
            return Err("--rate must be positive".into());
        }
        Mode::Open { rate_per_s: rate }
    } else {
        Mode::Closed { pipeline: pipeline.max(1) }
    };
    if config.connections == 0 {
        return Err("--connections must be at least 1".into());
    }
    Ok(Cli { config, out })
}

fn main() {
    let cli = match parse_args() {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("error: {message}");
            eprint!("{USAGE}");
            std::process::exit(2);
        }
    };

    eprintln!(
        "hmcs-loadgen: {} for {:?} + {:?} warm-up against http://{} ({} connection(s))",
        match cli.config.mode {
            Mode::Closed { pipeline } => format!("closed loop, pipeline {pipeline}"),
            Mode::Open { rate_per_s } => format!("open loop at {rate_per_s} req/s"),
        },
        cli.config.duration,
        cli.config.warmup,
        cli.config.addr,
        cli.config.connections,
    );

    let summary = match loadgen::run(&cli.config) {
        Ok(summary) => summary,
        Err(e) => {
            eprintln!("error: benchmark run failed: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "hmcs-loadgen: {} measured req ({:.0} req/s), p50 {} µs, p99 {} µs, {} error(s), {} dropped",
        summary.measured_requests,
        summary.achieved_rps,
        summary.latency.p50,
        summary.latency.p99,
        summary.errors,
        summary.dropped,
    );

    let doc = summary.to_json();
    match &cli.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, format!("{doc}\n")) {
                eprintln!("error: cannot write {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("hmcs-loadgen: summary written to {path}");
        }
        None => println!("{doc}"),
    }
}
