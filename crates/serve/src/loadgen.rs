//! The benchmark client behind `hmcs-loadgen`.
//!
//! Measures an `hmcs-serve` daemon from the outside, over real
//! sockets, in two complementary modes:
//!
//! * **Closed loop** — a fixed number of connections each keep a fixed
//!   number of requests in flight (the pipeline depth). Throughput is
//!   whatever the server sustains; latency excludes client-side
//!   queueing. This is the mode that answers "how fast can it go".
//! * **Open loop** — requests are issued on a fixed schedule at a
//!   target rate regardless of how fast responses return. Latency is
//!   measured from the request's *scheduled* time, so a server that
//!   falls behind shows the backlog in its tail latencies instead of
//!   silently slowing the generator (no coordinated omission). This is
//!   the mode that answers "what does the client see at rate X".
//!
//! The request mix is configurable: an evaluate/sweep split and a
//! message-size distribution sampled per request (distinct sizes are
//! distinct model points, so they exercise the server's micro-batcher
//! rather than its identical-request coalescer). Requests are
//! pre-serialised into byte templates once; the hot loop only copies
//! bytes and parses response heads.
//!
//! Results reduce to nearest-rank quantiles (P50/P90/P99/P99.9) over
//! the post-warm-up window plus achieved throughput, emitted as a
//! `hmcs-loadgen/1` JSON document that `benchgate` judges.

use crate::http;
use hmcs_core::json::json_num;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The request-mix sampler, seeded per connection so runs are
/// reproducible.
pub use hmcs_topology::splitmix::SplitMix64;

/// How requests are issued.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// Fixed concurrency: each connection keeps `pipeline` requests in
    /// flight and refills as responses arrive.
    Closed {
        /// Requests kept in flight per connection.
        pipeline: usize,
    },
    /// Fixed schedule: `rate_per_s` requests per second spread evenly
    /// across the connections, issued whether or not responses return.
    Open {
        /// Aggregate target rate (requests/second) across connections.
        rate_per_s: f64,
    },
}

/// The request mix sampled per request.
#[derive(Debug, Clone)]
pub struct MixConfig {
    /// Out of 1000 requests, how many are `POST /v1/sweep` (the rest
    /// are `POST /v1/evaluate`).
    pub sweep_permille: u32,
    /// `clusters` field of every generated config.
    pub clusters: usize,
    /// Message sizes sampled uniformly; each size is a distinct model
    /// point (own coalescing key), so the spread controls how much the
    /// server can coalesce versus batch.
    pub message_bytes: Vec<u64>,
}

impl Default for MixConfig {
    fn default() -> Self {
        MixConfig { sweep_permille: 0, clusters: 16, message_bytes: vec![256, 1024, 4096] }
    }
}

/// One benchmark run's shape.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address, `host:port`.
    pub addr: String,
    /// Open or closed loop.
    pub mode: Mode,
    /// Concurrent connections.
    pub connections: usize,
    /// Measurement window (after warm-up).
    pub duration: Duration,
    /// Warm-up window; responses completing inside it are discarded.
    pub warmup: Duration,
    /// Request mix.
    pub mix: MixConfig,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: "127.0.0.1:8377".into(),
            mode: Mode::Closed { pipeline: 16 },
            connections: 2,
            duration: Duration::from_secs(5),
            warmup: Duration::from_secs(1),
            mix: MixConfig::default(),
        }
    }
}

/// Latency quantiles over the measured window, in microseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencySummary {
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Worst observed.
    pub max: u64,
}

/// Everything a run produced.
#[derive(Debug, Clone)]
pub struct Summary {
    /// The configuration the run used.
    pub config: LoadgenConfig,
    /// Requests written to sockets (including warm-up).
    pub sent: u64,
    /// Responses fully read (including warm-up and errors).
    pub completed: u64,
    /// Responses with a non-200 status.
    pub errors: u64,
    /// Requests written but never answered (connection died or the run
    /// ended with requests in flight).
    pub dropped: u64,
    /// Times a connection had to be re-established mid-run.
    pub reconnects: u64,
    /// Successful responses inside the measurement window.
    pub measured_requests: u64,
    /// `measured_requests / duration`.
    pub achieved_rps: f64,
    /// Latency quantiles over the measured window.
    pub latency: LatencySummary,
}

/// Nearest-rank quantile: the smallest sample such that at least
/// `q·n` samples are ≤ it (`idx = ⌈q·n⌉ − 1` into the sorted slice).
/// `sorted` must be ascending and non-empty; `q` must be in `(0, 1]` —
/// out-of-range quantiles are a caller bug and panic instead of being
/// silently clamped to the min/max sample.
pub fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample set");
    assert!(q > 0.0 && q <= 1.0, "quantile must be in (0, 1], got {q}");
    // For q ∈ (0, 1] the rank is already in [1, n]; the clamp only
    // guards against float rounding at the boundaries.
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `samples_us` in place and reduces to [`LatencySummary`].
/// Returns the zero summary for an empty set.
pub fn reduce(samples_us: &mut [u64]) -> LatencySummary {
    if samples_us.is_empty() {
        return LatencySummary::default();
    }
    samples_us.sort_unstable();
    let sum: u128 = samples_us.iter().map(|&s| s as u128).sum();
    LatencySummary {
        p50: nearest_rank(samples_us, 0.50),
        p90: nearest_rank(samples_us, 0.90),
        p99: nearest_rank(samples_us, 0.99),
        p999: nearest_rank(samples_us, 0.999),
        mean: sum as f64 / samples_us.len() as f64,
        max: *samples_us.last().expect("non-empty"),
    }
}

impl Summary {
    /// Renders the `hmcs-loadgen/1` result document.
    pub fn to_json(&self) -> String {
        let (mode, pipeline, target_rps) = match self.config.mode {
            Mode::Closed { pipeline } => ("closed", pipeline.to_string(), "null".to_string()),
            Mode::Open { rate_per_s } => ("open", "null".to_string(), json_num(rate_per_s)),
        };
        format!(
            concat!(
                r#"{{"schema":"hmcs-loadgen/1","mode":"{mode}","addr":"{addr}","#,
                r#""connections":{connections},"pipeline":{pipeline},"target_rps":{target_rps},"#,
                r#""duration_s":{duration},"warmup_s":{warmup},"#,
                r#""mix":{{"sweep_permille":{sweep_permille},"clusters":{clusters},"message_bytes":[{message_bytes}]}},"#,
                r#""requests":{{"sent":{sent},"completed":{completed},"errors":{errors},"dropped":{dropped},"reconnects":{reconnects}}},"#,
                r#""measured":{{"requests":{measured},"achieved_rps":{rps},"#,
                r#""latency_us":{{"p50":{p50},"p90":{p90},"p99":{p99},"p999":{p999},"mean":{mean},"max":{max}}}}}}}"#,
            ),
            mode = mode,
            addr = self.config.addr,
            connections = self.config.connections,
            pipeline = pipeline,
            target_rps = target_rps,
            duration = json_num(self.config.duration.as_secs_f64()),
            warmup = json_num(self.config.warmup.as_secs_f64()),
            sweep_permille = self.config.mix.sweep_permille,
            clusters = self.config.mix.clusters,
            message_bytes = self
                .config
                .mix
                .message_bytes
                .iter()
                .map(|m| m.to_string())
                .collect::<Vec<_>>()
                .join(","),
            sent = self.sent,
            completed = self.completed,
            errors = self.errors,
            dropped = self.dropped,
            reconnects = self.reconnects,
            measured = self.measured_requests,
            rps = json_num(self.achieved_rps),
            p50 = self.latency.p50,
            p90 = self.latency.p90,
            p99 = self.latency.p99,
            p999 = self.latency.p999,
            mean = json_num(self.latency.mean),
            max = self.latency.max,
        )
    }
}

/// Pre-serialised request bytes, one template per (endpoint, message
/// size) pair. Built once; the hot loop only copies.
struct Templates {
    evaluate: Vec<Vec<u8>>,
    sweep: Vec<Vec<u8>>,
    sweep_permille: u32,
}

fn render_request(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

impl Templates {
    fn build(mix: &MixConfig) -> Templates {
        let evaluate = mix
            .message_bytes
            .iter()
            .map(|m| {
                render_request(
                    "/v1/evaluate",
                    &format!(r#"{{"clusters":{},"message_bytes":{m}}}"#, mix.clusters),
                )
            })
            .collect();
        let sweep = mix
            .message_bytes
            .iter()
            .map(|m| {
                render_request(
                    "/v1/sweep",
                    &format!(
                        r#"{{"clusters":{},"message_bytes":{m},"parameter":"lambda","values":[5e-5,1e-4,2e-4,4e-4]}}"#,
                        mix.clusters
                    ),
                )
            })
            .collect();
        Templates { evaluate, sweep, sweep_permille: mix.sweep_permille }
    }

    fn pick(&self, rng: &mut SplitMix64) -> &[u8] {
        let r = rng.next_u64();
        let pool =
            if (r % 1000) < self.sweep_permille as u64 { &self.sweep } else { &self.evaluate };
        &pool[(r >> 10) as usize % pool.len()]
    }
}

/// Read-timeout slice for client sockets; response reads retry against
/// their own deadline.
const IO_SLICE: Duration = Duration::from_millis(100);

/// How long to wait for any single response before declaring the
/// connection dead.
const RESPONSE_PATIENCE: Duration = Duration::from_secs(10);

/// A buffered response reader: one socket read can carry many
/// pipelined responses; the buffer carries partial ones over.
struct RespReader {
    buf: Vec<u8>,
}

impl RespReader {
    fn new() -> Self {
        RespReader { buf: Vec::with_capacity(4096) }
    }

    fn reset(&mut self) {
        self.buf.clear();
    }

    /// Reads one full response; returns `(status, server_will_close)`.
    fn read_response(
        &mut self,
        stream: &mut impl Read,
        deadline: Instant,
    ) -> std::io::Result<(u16, bool)> {
        // A response is always awaited, so end of stream is an error.
        let mut more = |buf: &mut Vec<u8>| match http::fill(stream, buf, deadline, || false)? {
            0 => Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            )),
            _ => Ok(()),
        };
        let head_end = loop {
            if let Some(pos) = http::find_head_end(&self.buf) {
                break pos;
            }
            more(&mut self.buf)?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end - 4])
            .map_err(|_| bad_response("non-UTF-8 response head"))?;
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad_response("unparseable status line"))?;
        let mut content_length: usize = 0;
        let mut close = false;
        for line in head.split("\r\n").skip(1) {
            if let Some((name, value)) = line.split_once(':') {
                let name = name.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value
                        .trim()
                        .parse()
                        .map_err(|_| bad_response("unparseable content-length"))?;
                } else if name.eq_ignore_ascii_case("connection") {
                    close = value.trim().eq_ignore_ascii_case("close");
                }
            }
        }
        self.buf.drain(..head_end);
        while self.buf.len() < content_length {
            more(&mut self.buf)?;
        }
        self.buf.drain(..content_length);
        Ok((status, close))
    }
}

fn bad_response(what: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string())
}

/// Per-worker outcome, merged by [`run`].
#[derive(Default)]
struct Tally {
    sent: u64,
    completed: u64,
    errors: u64,
    dropped: u64,
    reconnects: u64,
    samples_us: Vec<u64>,
}

fn connect(addr: &str) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(IO_SLICE))?;
    Ok(stream)
}

/// Runs the configured benchmark to completion. Total wall time is
/// `warmup + duration` plus drain slack.
pub fn run(config: &LoadgenConfig) -> std::io::Result<Summary> {
    assert!(config.connections > 0, "at least one connection");
    let templates = Arc::new(Templates::build(&config.mix));
    let start = Instant::now();
    let warmup_until = start + config.warmup;
    let stop_at = warmup_until + config.duration;

    let workers: Vec<_> = (0..config.connections)
        .map(|i| {
            let templates = Arc::clone(&templates);
            let config = config.clone();
            let seed = 0xC0FF_EE00 + i as u64;
            std::thread::Builder::new()
                .name(format!("hmcs-loadgen-{i}"))
                .spawn(move || match config.mode {
                    Mode::Closed { pipeline } => closed_loop(
                        &config.addr,
                        &templates,
                        pipeline.max(1),
                        warmup_until,
                        stop_at,
                        seed,
                    ),
                    Mode::Open { rate_per_s } => open_loop(
                        &config.addr,
                        &templates,
                        rate_per_s / config.connections as f64,
                        start,
                        warmup_until,
                        stop_at,
                        seed,
                    ),
                })
                .expect("spawn loadgen worker")
        })
        .collect();

    let mut total = Tally::default();
    for worker in workers {
        let tally = worker.join().expect("loadgen worker panicked")?;
        total.sent += tally.sent;
        total.completed += tally.completed;
        total.errors += tally.errors;
        total.dropped += tally.dropped;
        total.reconnects += tally.reconnects;
        total.samples_us.extend(tally.samples_us);
    }

    let latency = reduce(&mut total.samples_us);
    let measured_requests = total.samples_us.len() as u64;
    Ok(Summary {
        config: config.clone(),
        sent: total.sent,
        completed: total.completed,
        errors: total.errors,
        dropped: total.dropped,
        reconnects: total.reconnects,
        measured_requests,
        achieved_rps: measured_requests as f64 / config.duration.as_secs_f64().max(1e-9),
        latency,
    })
}

/// Closed loop: keep `pipeline` requests in flight, refilling with one
/// corked write whenever in-flight count drops to half the depth —
/// batched writes amortise syscalls, which is what lets a single-core
/// host push past 100k req/s.
fn closed_loop(
    addr: &str,
    templates: &Templates,
    pipeline: usize,
    warmup_until: Instant,
    stop_at: Instant,
    seed: u64,
) -> std::io::Result<Tally> {
    let mut stream = connect(addr)?;
    let mut rng = SplitMix64::new(seed);
    let mut reader = RespReader::new();
    let mut inflight: VecDeque<Instant> = VecDeque::with_capacity(pipeline);
    let mut out: Vec<u8> = Vec::with_capacity(pipeline * 128);
    let mut tally = Tally::default();

    loop {
        let now = Instant::now();
        if now >= stop_at {
            break;
        }
        if inflight.len() <= pipeline / 2 {
            out.clear();
            let batch_start = inflight.len();
            while inflight.len() < pipeline {
                out.extend_from_slice(templates.pick(&mut rng));
                inflight.push_back(now);
            }
            stream.write_all(&out)?;
            tally.sent += (pipeline - batch_start) as u64;
        }
        match reader.read_response(&mut stream, now + RESPONSE_PATIENCE) {
            Ok((status, close)) => {
                let sent_at = inflight.pop_front().expect("response without a request");
                let done = Instant::now();
                tally.completed += 1;
                if status != 200 {
                    tally.errors += 1;
                } else if done >= warmup_until {
                    tally.samples_us.push(done.duration_since(sent_at).as_micros() as u64);
                }
                if close {
                    // The server is evicting us (request cap or
                    // shutdown); requests pipelined behind the final
                    // response will never be answered.
                    tally.dropped += inflight.len() as u64;
                    inflight.clear();
                    reader.reset();
                    tally.reconnects += 1;
                    stream = connect(addr)?;
                }
            }
            Err(_) => {
                tally.dropped += inflight.len() as u64;
                inflight.clear();
                reader.reset();
                tally.reconnects += 1;
                stream = connect(addr)?;
            }
        }
    }
    // Requests still in flight at the bell are simply not measured.
    tally.dropped += inflight.len() as u64;
    Ok(tally)
}

/// Open loop: a sender thread issues requests on the fixed schedule
/// `start + i/rate` while this thread reads responses. Latency is
/// measured from the *scheduled* send time, so server backlog appears
/// in the tail instead of being hidden by a slowed generator.
fn open_loop(
    addr: &str,
    templates: &Templates,
    rate_per_s: f64,
    start: Instant,
    warmup_until: Instant,
    stop_at: Instant,
    seed: u64,
) -> std::io::Result<Tally> {
    assert!(rate_per_s > 0.0, "open loop needs a positive rate");
    let stream = connect(addr)?;
    let mut read_half = stream.try_clone()?;
    let pending: Arc<Mutex<VecDeque<Instant>>> = Arc::new(Mutex::new(VecDeque::new()));
    let sender_done = Arc::new(AtomicBool::new(false));
    let dead = Arc::new(AtomicBool::new(false));

    let sender = {
        let pending = Arc::clone(&pending);
        let sender_done = Arc::clone(&sender_done);
        let dead = Arc::clone(&dead);
        let mut write_half = stream;
        let mut rng = SplitMix64::new(seed);
        // The byte templates are small and built once per run, so the
        // sender thread takes its own copy rather than a borrow.
        let evaluate = templates.evaluate.clone();
        let sweep = templates.sweep.clone();
        let sweep_permille = templates.sweep_permille;
        std::thread::Builder::new()
            .name("hmcs-loadgen-sender".into())
            .spawn(move || -> u64 {
                let templates = Templates { evaluate, sweep, sweep_permille };
                let mut sent: u64 = 0;
                let mut out: Vec<u8> = Vec::with_capacity(4096);
                loop {
                    let due = start + Duration::from_secs_f64(sent as f64 / rate_per_s);
                    if due >= stop_at || dead.load(Ordering::SeqCst) {
                        break;
                    }
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    // Issue every request that is due by now in one
                    // corked write (catch-up after a stall stays on
                    // schedule instead of sliding).
                    out.clear();
                    let mut batch: Vec<Instant> = Vec::new();
                    let mut next_due = due;
                    while next_due <= Instant::now() && next_due < stop_at {
                        out.extend_from_slice(templates.pick(&mut rng));
                        batch.push(next_due);
                        next_due = start
                            + Duration::from_secs_f64(
                                (sent + batch.len() as u64) as f64 / rate_per_s,
                            );
                    }
                    if write_half.write_all(&out).is_err() {
                        dead.store(true, Ordering::SeqCst);
                        break;
                    }
                    sent += batch.len() as u64;
                    pending.lock().expect("pending poisoned").extend(batch);
                }
                sender_done.store(true, Ordering::SeqCst);
                sent
            })
            .expect("spawn loadgen sender")
    };

    let mut reader = RespReader::new();
    let mut tally = Tally::default();
    loop {
        let waiting = { pending.lock().expect("pending poisoned").front().copied() };
        let Some(scheduled) = waiting else {
            if sender_done.load(Ordering::SeqCst) {
                break;
            }
            std::thread::sleep(Duration::from_micros(200));
            continue;
        };
        match reader.read_response(&mut read_half, Instant::now() + RESPONSE_PATIENCE) {
            Ok((status, close)) => {
                pending.lock().expect("pending poisoned").pop_front();
                let done = Instant::now();
                tally.completed += 1;
                if status != 200 {
                    tally.errors += 1;
                } else if done >= warmup_until {
                    tally.samples_us.push(done.duration_since(scheduled).as_micros() as u64);
                }
                if close {
                    dead.store(true, Ordering::SeqCst);
                    break;
                }
            }
            Err(_) => {
                dead.store(true, Ordering::SeqCst);
                break;
            }
        }
    }
    tally.sent = sender.join().expect("loadgen sender panicked");
    tally.dropped += pending.lock().expect("pending poisoned").len() as u64;
    Ok(tally)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_match_the_known_distribution() {
        // Golden: samples 1..=1000 (already sorted). Nearest-rank on a
        // set this shape reads the quantile straight off the value.
        let sorted: Vec<u64> = (1..=1000).collect();
        assert_eq!(nearest_rank(&sorted, 0.50), 500);
        assert_eq!(nearest_rank(&sorted, 0.90), 900);
        assert_eq!(nearest_rank(&sorted, 0.99), 990);
        assert_eq!(nearest_rank(&sorted, 0.999), 999);
        assert_eq!(nearest_rank(&sorted, 1.0), 1000);
    }

    #[test]
    fn nearest_rank_edge_cases_on_tiny_sets() {
        // n = 1: every quantile is the single sample.
        assert_eq!(nearest_rank(&[7], 1e-9), 7);
        assert_eq!(nearest_rank(&[7], 0.5), 7);
        assert_eq!(nearest_rank(&[7], 0.999), 7);
        assert_eq!(nearest_rank(&[7], 1.0), 7);
        // n = 2: the split sits at q = 0.5 (⌈q·2⌉ flips above it).
        assert_eq!(nearest_rank(&[3, 9], 0.5), 3);
        assert_eq!(nearest_rank(&[3, 9], 0.500001), 9);
        assert_eq!(nearest_rank(&[3, 9], 0.999), 9);
        assert_eq!(nearest_rank(&[3, 9], 1.0), 9);
    }

    #[test]
    #[should_panic(expected = "quantile must be in (0, 1]")]
    fn nearest_rank_rejects_zero_quantile() {
        nearest_rank(&[1, 2, 3], 0.0);
    }

    #[test]
    #[should_panic(expected = "quantile must be in (0, 1]")]
    fn nearest_rank_rejects_quantiles_above_one() {
        nearest_rank(&[1, 2, 3], 1.5);
    }

    /// The definition, computed the slow way: the smallest sample with
    /// at least `⌈q·n⌉` samples at or below it.
    fn counting_oracle(sorted: &[u64], q: f64) -> u64 {
        let need = (q * sorted.len() as f64).ceil();
        for &candidate in sorted {
            let at_or_below = sorted.iter().filter(|&&s| s <= candidate).count();
            if at_or_below as f64 >= need {
                return candidate;
            }
        }
        *sorted.last().expect("non-empty")
    }

    #[test]
    fn nearest_rank_matches_the_counting_oracle_on_random_samples() {
        let mut rng = SplitMix64::new(0xDEAD_BEEF);
        for trial in 0..200 {
            let n = 1 + (rng.next_u64() % 64) as usize;
            // Duplicate-heavy values stress the "smallest such sample"
            // part of the definition.
            let mut samples: Vec<u64> = (0..n).map(|_| rng.next_u64() % 16).collect();
            samples.sort_unstable();
            for &q in &[1e-6, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
                assert_eq!(
                    nearest_rank(&samples, q),
                    counting_oracle(&samples, q),
                    "trial {trial}: n={n} q={q} samples={samples:?}"
                );
            }
            // A handful of random quantiles in (0, 1] per trial.
            for _ in 0..8 {
                let q = ((rng.next_u64() % 1_000_000) + 1) as f64 / 1_000_000.0;
                assert_eq!(nearest_rank(&samples, q), counting_oracle(&samples, q));
            }
        }
    }

    #[test]
    fn reduce_sorts_and_summarises() {
        let mut samples: Vec<u64> = (1..=1000).rev().collect();
        let summary = reduce(&mut samples);
        assert_eq!(summary.p50, 500);
        assert_eq!(summary.p90, 900);
        assert_eq!(summary.p99, 990);
        assert_eq!(summary.p999, 999);
        assert_eq!(summary.max, 1000);
        assert!((summary.mean - 500.5).abs() < 1e-9);
        assert_eq!(reduce(&mut []), LatencySummary::default());
    }

    #[test]
    fn resp_reader_handles_pipelined_responses_and_carry_over() {
        let mut wire = Vec::new();
        crate::http::write_response(
            &mut wire,
            &crate::http::Response::json("{\"a\":1}".into()),
            false,
        )
        .unwrap();
        crate::http::write_response(
            &mut wire,
            &crate::http::Response {
                status: 503,
                content_type: "application/json",
                retry_after_s: Some(1),
                body: "{}".into(),
            },
            true,
        )
        .unwrap();
        let mut cursor = std::io::Cursor::new(wire);
        let mut reader = RespReader::new();
        let far = Instant::now() + Duration::from_secs(5);
        assert_eq!(reader.read_response(&mut cursor, far).unwrap(), (200, false));
        assert_eq!(reader.read_response(&mut cursor, far).unwrap(), (503, true));
        let err = reader.read_response(&mut cursor, far).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn templates_cover_the_mix_and_parse_as_valid_requests() {
        let mix = MixConfig { sweep_permille: 500, clusters: 16, message_bytes: vec![256, 1024] };
        let templates = Templates::build(&mix);
        assert_eq!(templates.evaluate.len(), 2);
        assert_eq!(templates.sweep.len(), 2);
        let mut rng = SplitMix64::new(42);
        let mut saw_sweep = false;
        let mut saw_evaluate = false;
        for _ in 0..200 {
            let raw = templates.pick(&mut rng);
            let mut reader = crate::http::RequestReader::new();
            let req = reader
                .read_request(
                    &mut std::io::Cursor::new(raw.to_vec()),
                    1 << 20,
                    Instant::now() + Duration::from_secs(1),
                )
                .unwrap()
                .unwrap();
            match req.path.as_str() {
                "/v1/evaluate" => {
                    saw_evaluate = true;
                    crate::api::parse_evaluate(std::str::from_utf8(&req.body).unwrap()).unwrap();
                }
                "/v1/sweep" => {
                    saw_sweep = true;
                    crate::api::parse_sweep(std::str::from_utf8(&req.body).unwrap()).unwrap();
                }
                other => panic!("unexpected template path {other}"),
            }
        }
        assert!(saw_evaluate && saw_sweep, "a 50/50 mix must produce both kinds");
    }

    #[test]
    fn summary_json_is_valid_and_carries_the_headline_numbers() {
        let summary = Summary {
            config: LoadgenConfig::default(),
            sent: 1200,
            completed: 1180,
            errors: 0,
            dropped: 20,
            reconnects: 1,
            measured_requests: 1000,
            achieved_rps: 200.0,
            latency: LatencySummary {
                p50: 80,
                p90: 120,
                p99: 300,
                p999: 900,
                mean: 95.5,
                max: 1200,
            },
        };
        let doc = hmcs_core::json::parse_json(&summary.to_json()).expect("valid JSON");
        assert_eq!(doc.get("schema").and_then(|v| v.as_str()), Some("hmcs-loadgen/1"));
        let measured = doc.get("measured").expect("measured object");
        assert_eq!(measured.get("achieved_rps").and_then(|v| v.as_num()), Some(200.0));
        let latency = measured.get("latency_us").expect("latency object");
        assert_eq!(latency.get("p999").and_then(|v| v.as_num()), Some(900.0));
        assert_eq!(
            doc.get("requests").and_then(|r| r.get("errors")).and_then(|v| v.as_num()),
            Some(0.0)
        );
    }
}
