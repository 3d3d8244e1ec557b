//! The `serve-point` and `serve-batch` workloads against a fresh
//! `hmcs-serve` process.
//!
//! Set-up (launch until `/healthz` answers, plus a closed-loop warm-up)
//! is timed, in wall and server CPU seconds, on nine fresh servers; the
//! last one is measured. The untraced run then alternates closed-loop
//! capacity probes of a fixed request count with open-loop slices at
//! the workload's reference rate. The traced run instead makes one
//! probe, then one reference phase with `/metrics` scraped before and
//! after. Both then climb the rate ladder up to the first rung that
//! ends with a growing backlog. After the server has stopped, the
//! traced run replays the workload's own request bytes in-process
//! through each serving layer, with spans off and on.
//! A seeded sample of response bodies is compared byte for byte with
//! the in-process `api::evaluate_response` / `api::sweep_response`.

use crate::client::{self, Load, Outcome, Pace};
use crate::plan::uniform;
use crate::sys::{proc_cpu_s, proc_peak_rss_mb, proc_thread_cpu_s, signal, since, SIGTERM};
use crate::trace::Tracer;
use crate::{Args, Obj};
use hmcs_core::batch::EvalStats;
use hmcs_core::json::{json_num, json_str};
use hmcs_core::kernel::BatchKernel;
use hmcs_core::scenario::PAPER_LAMBDA_PER_US;
use hmcs_core::{AnalyticalModel, SystemConfig};
use hmcs_serve::api;
use hmcs_serve::http::{self, RequestReader, Response};
use hmcs_serve::loadgen::SplitMix64;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// One serving workload's fixed shape.
struct Shape {
    /// `--batch-window-us` of the server.
    window_us: u64,
    /// Closed-loop capacity probe: requests per probe, depth per
    /// connection.
    probe_requests: u64,
    probe_depth: usize,
    /// Open-loop reference rate (req/s), split into `rounds` slices
    /// that alternate with the capacity probes, and the rate ladder.
    reference_rate: f64,
    rounds: usize,
    ladder: &'static [f64],
    /// p99 latency limit for a ladder rung, µs.
    p99_limit_us: u64,
    /// Warm-up requests, closed loop, part of set-up.
    warmup_requests: u64,
}

const POINT: Shape = Shape {
    window_us: 0,
    probe_requests: 30_000,
    probe_depth: 16,
    reference_rate: 10_000.0,
    rounds: 7,
    ladder: &[10_000.0, 20_000.0, 40_000.0, 80_000.0],
    p99_limit_us: 50_000,
    warmup_requests: 1_000,
};

const BATCH: Shape = Shape {
    window_us: 200,
    probe_requests: 3_000,
    probe_depth: 16,
    reference_rate: 2_000.0,
    rounds: 7,
    ladder: &[1_000.0, 2_000.0, 4_000.0, 8_000.0],
    p99_limit_us: 50_000,
    warmup_requests: 1_000,
};

/// Set-ups timed per run; the first ones of a run tend to be slow,
/// which the median sets aside.
const SETUPS: usize = 9;
/// Requests replayed in-process by the traced run.
const REPLAYED: usize = 2_000;

/// The request templates a seed generates and the order they are sent.
struct Inputs {
    /// JSON bodies and paths, by template.
    bodies: Vec<(&'static str, String)>,
    /// Full request bytes, by template.
    templates: Vec<Vec<u8>>,
    sequence: Vec<u32>,
}

fn point_body(rng: &mut SplitMix64) -> String {
    const CLUSTERS: [u64; 7] = [2, 4, 8, 16, 32, 64, 128];
    let clusters = CLUSTERS[(rng.next_u64() % 7) as usize];
    let message_bytes = 64 + rng.next_u64() % 8129;
    let lambda = PAPER_LAMBDA_PER_US * uniform(rng, 0.5, 1.5);
    let arch = if rng.next_u64().is_multiple_of(2) { "nonblocking" } else { "blocking" };
    let scenario = if rng.next_u64().is_multiple_of(2) { "case1" } else { "case2" };
    format!(
        "\"clusters\":{clusters},\"message_bytes\":{message_bytes},\"lambda_per_us\":{},\
         \"architecture\":\"{arch}\",\"scenario\":\"{scenario}\"",
        json_num(lambda)
    )
}

fn render_request(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

impl Inputs {
    /// `serve-point`: a hot set of 48 evaluate points whose popularity
    /// falls off as rank^-1.1, drawn into a 200,000-request sequence.
    fn point(seed: u64) -> Inputs {
        let mut rng = SplitMix64::new(seed ^ 0x5E_7E_01);
        let bodies: Vec<(&str, String)> =
            (0..48).map(|_| ("/v1/evaluate", format!("{{{}}}", point_body(&mut rng)))).collect();
        let weights: Vec<f64> = (1..=bodies.len()).map(|r| (r as f64).powf(-1.1)).collect();
        let total: f64 = weights.iter().sum();
        let sequence = (0..200_000)
            .map(|_| {
                let mut u = uniform(&mut rng, 0.0, total);
                weights
                    .iter()
                    .position(|w| {
                        u -= w;
                        u < 0.0
                    })
                    .unwrap_or(weights.len() - 1) as u32
            })
            .collect();
        Inputs::from_bodies(bodies, sequence)
    }

    /// `serve-batch`: 60,000 distinct points sent in order (and again
    /// from the start once a run has sent them all), one in ten a
    /// four-point λ sweep.
    fn batch(seed: u64) -> Inputs {
        let mut rng = SplitMix64::new(seed ^ 0xBA7C4);
        let bodies: Vec<(&str, String)> = (0..60_000)
            .map(|_| {
                let point = point_body(&mut rng);
                if rng.next_u64().is_multiple_of(10) {
                    let base = PAPER_LAMBDA_PER_US * uniform(&mut rng, 0.4, 0.8);
                    let values: Vec<String> =
                        (0..4).map(|k| json_num(base * (1.0 + 0.25 * k as f64))).collect();
                    let body = format!(
                        "{{{point},\"parameter\":\"lambda\",\"values\":[{}]}}",
                        values.join(",")
                    );
                    ("/v1/sweep", body)
                } else {
                    ("/v1/evaluate", format!("{{{point}}}"))
                }
            })
            .collect();
        let sequence = (0..bodies.len() as u32).collect();
        Inputs::from_bodies(bodies, sequence)
    }

    fn from_bodies(bodies: Vec<(&'static str, String)>, sequence: Vec<u32>) -> Inputs {
        let templates = bodies.iter().map(|(path, body)| render_request(path, body)).collect();
        Inputs { bodies, templates, sequence }
    }

    fn template_of(&self, g: u64) -> usize {
        self.sequence[(g % self.sequence.len() as u64) as usize] as usize
    }

    /// What the server must answer for template `t`, computed in-process.
    fn expected_body(&self, t: usize) -> Result<String, api::ApiError> {
        let (path, body) = &self.bodies[t];
        if *path == "/v1/sweep" {
            let (config, spec, _) = api::parse_sweep(body)?;
            api::sweep_response(&config, &spec)
        } else {
            let (config, _) = api::parse_evaluate(body)?;
            api::evaluate_response(&config)
        }
    }
}

/// A running `hmcs-serve` child.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    fn launch(bin: &str, flags: &[String]) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0"])
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("{bin}: {e}"))?;
        let stdout = child.stdout.take();
        // From here on, dropping `server` on an error stops the child.
        let mut server = Server { child, addr: String::new() };
        let mut line = String::new();
        BufReader::new(stdout.ok_or("no server stdout")?)
            .read_line(&mut line)
            .map_err(|e| e.to_string())?;
        let Some(addr) = line.trim().rsplit_once("http://").map(|(_, a)| a.to_string()) else {
            return Err(format!("unexpected server banner {line:?}"));
        };
        server.addr = addr;
        Ok(server)
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// SIGTERM, then SIGKILL if the drain takes more than five seconds.
    fn stop(mut self) -> Result<(), String> {
        signal(self.pid(), SIGTERM);
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if self.child.try_wait().map_err(|e| e.to_string())?.is_some() {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        self.child.wait().map_err(|e| e.to_string())?;
        Err("server did not drain within 5 s".into())
    }
}

impl Drop for Server {
    /// Every way out of a run stops the server, an error's too: a server
    /// still running here is killed and waited for.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// `GET /metrics` over its own connection.
fn scrape(addr: &str) -> Result<String, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream.set_read_timeout(Some(Duration::from_secs(5))).map_err(|e| e.to_string())?;
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nconnection: close\r\n\r\n")
        .map_err(|e| e.to_string())?;
    let mut wire = Vec::new();
    stream.read_to_end(&mut wire).map_err(|e| e.to_string())?;
    let (_, body, _) = client::parse_response(&wire)?.ok_or("truncated /metrics response")?;
    Ok(String::from_utf8_lossy(&wire[body]).into_owned())
}

fn phase_json(o: &Outcome, rate: f64, server_cpu_s: f64) -> String {
    Obj::default()
        .num("rate", rate)
        .int("sent", o.sent)
        .int("completed", o.completed)
        .int("non2xx", o.non2xx)
        .int("dropped", o.dropped)
        .int("backlog_at_end", o.backlog_at_end)
        .num("wall_s", o.wall_s)
        .num("server_cpu_s", server_cpu_s)
        .ints("latency_us", &o.latency_us)
        .ints("send_lag_us", &o.send_lag_us)
        .finish()
}

/// The serving layers, replayed in-process on one request's bytes.
fn replay_one(t: &mut Tracer, bytes: &[u8], out: &mut Vec<u8>) -> Result<(), String> {
    let far = Instant::now() + Duration::from_secs(5);
    let request = t
        .span("http.parse", 1, |_| {
            RequestReader::new().read_request(&mut std::io::Cursor::new(bytes), 1 << 20, far)
        })
        .map_err(|e| e.reason())?
        .ok_or("empty request")?;
    let body = std::str::from_utf8(&request.body).map_err(|e| e.to_string())?;
    let rendered = if request.path == "/v1/sweep" {
        let (config, spec, _) =
            t.span("api.parse", 1, |_| api::parse_sweep(body)).map_err(|e| e.body())?;
        let configs = api::sweep_configs(&config, &spec).map_err(|e| e.body())?;
        let results = t.span("model.evaluate", configs.len() as u64, |_| {
            configs
                .iter()
                .map(|c| AnalyticalModel::evaluate(c).map(|r| (r, EvalStats::default())))
                .collect()
        });
        t.span("api.render", 1, |_| api::sweep_response_from(&config, &spec, results))
            .map_err(|e| e.body())?
    } else {
        let (config, _) =
            t.span("api.parse", 1, |_| api::parse_evaluate(body)).map_err(|e| e.body())?;
        let report = t
            .span("model.evaluate", 1, |_| AnalyticalModel::evaluate(&config))
            .map_err(|e| e.to_string())?;
        t.span("api.render", 1, |_| api::render_evaluate(&config, &report))
    };
    t.span("http.serialize", 1, |_| {
        out.clear();
        http::serialize_response(out, &Response::json(rendered), false)
    });
    Ok(())
}

/// Every lane the replayed requests solve, for the kernel layer.
fn lanes(requests: &[&(&'static str, String)]) -> Vec<SystemConfig> {
    let mut configs = Vec::new();
    for (path, body) in requests {
        if *path == "/v1/sweep" {
            if let Ok((config, spec, _)) = api::parse_sweep(body) {
                configs.extend(api::sweep_configs(&config, &spec).unwrap_or_default());
            }
        } else if let Ok((config, _)) = api::parse_evaluate(body) {
            configs.push(config);
        }
    }
    configs
}

pub fn run(args: &Args) -> Result<String, String> {
    let seed: u64 = args.num("seed")?;
    let seconds: f64 = args.num("seconds")?;
    let workers: usize = args.num("workers")?;
    let traced = args.flag("trace");
    let (shape, inputs) = match args.str("workload")? {
        "point" => (&POINT, Inputs::point(seed)),
        "batch" => (&BATCH, Inputs::batch(seed)),
        other => return Err(format!("unknown serve workload {other}")),
    };
    let bin = args.str("server")?;
    let flags: Vec<String> = [
        ("--workers", workers as u64),
        ("--queue-capacity", 64),
        ("--max-conn-requests", 1 << 40),
        ("--batch-window-us", shape.window_us),
    ]
    .iter()
    .flat_map(|(k, v)| [k.to_string(), v.to_string()])
    .collect();

    // Bodies of about one request in 97 are kept and checked.
    let keep = move |g: u64| SplitMix64::new(seed ^ g).next_u64().is_multiple_of(97);
    let mut offset = 0u64;
    let mut load = |addr: &str, total: u64, pace: Pace| -> Result<Outcome, String> {
        let outcome = client::run(&Load {
            addr,
            templates: &inputs.templates,
            sequence: &inputs.sequence,
            offset,
            total,
            pace,
            // `hmcs-serve` gives each connection a worker of its own
            // until it closes, so one connection per worker.
            connections: workers,
            keep_body: &keep,
        })?;
        offset += total;
        Ok(outcome)
    };

    let (mut setups, mut setup_cpu) = (Vec::new(), Vec::new());
    let mut server: Option<Server> = None;
    for _ in 0..if traced { 1 } else { SETUPS } {
        if let Some(s) = server.take() {
            s.stop()?;
        }
        let t = Instant::now();
        let s = Server::launch(bin, &flags)?;
        load(&s.addr, shape.warmup_requests, Pace::Closed { depth: shape.probe_depth })?;
        setups.push(since(t));
        setup_cpu.push(proc_thread_cpu_s(s.pid())?);
        server = Some(s);
    }
    let server = server.expect("at least one set-up");
    let (addr, pid) = (server.addr.clone(), server.pid());
    let cpu = || proc_cpu_s(pid);

    let mut phases: Vec<Outcome> = Vec::new();
    let mut out = Obj::default()
        .nums("setup_s", &setups)
        .nums("setup_cpu_s", &setup_cpu)
        .raw("server_flags", json_str(&flags.join(" ")))
        .num("p99_limit_us", shape.p99_limit_us as f64)
        .num("reference_rate", shape.reference_rate);
    // A phase's length scales with the run's seconds; each one carries
    // at least 1,100 requests so p99 has ten samples beyond it.
    let sized = |rate: f64, share: f64| (rate * seconds * share).max(1_100.0) as u64;

    let rate = shape.reference_rate;
    if !traced {
        // Probes and reference slices alternate, so a slow spell of the
        // host lands in a few rounds, which the medians then set aside.
        let (mut probes, mut slices) = (Vec::new(), Vec::new());
        for _ in 0..shape.rounds {
            let c0 = cpu()?;
            let o = load(&addr, shape.probe_requests, Pace::Closed { depth: shape.probe_depth })?;
            probes.push(phase_json(&o, 0.0, cpu()? - c0));
            phases.push(o);
            let c0 = cpu()?;
            let o = load(&addr, sized(rate, 0.4 / shape.rounds as f64), Pace::Open { rate })?;
            slices.push(phase_json(&o, rate, cpu()? - c0));
            phases.push(o);
        }
        out = out
            .raw("probes", format!("[{}]", probes.join(",")))
            .raw("slices", format!("[{}]", slices.join(",")));
    } else {
        let c0 = cpu()?;
        let o = load(&addr, shape.probe_requests, Pace::Closed { depth: shape.probe_depth })?;
        out = out.raw("probe", phase_json(&o, 0.0, cpu()? - c0));
        phases.push(o);
        let before = scrape(&addr)?;
        let c0 = cpu()?;
        let o = load(&addr, sized(rate, 0.3), Pace::Open { rate })?;
        let reference = phase_json(&o, rate, cpu()? - c0);
        phases.push(o);
        let after = scrape(&addr)?;
        out = out
            .raw("reference", reference)
            .raw("metrics_before", json_str(&before))
            .raw("metrics_after", json_str(&after));
    }
    // `perfbench/benchlib.py` picks the highest rung that meets the limit
    // with all rungs below it meeting it too. A rung that ends with more
    // than 1% of its requests outstanding cannot, so no rung above it
    // can be picked either, and the ladder stops there.
    let mut rungs = Vec::new();
    for &rate in shape.ladder {
        let c0 = cpu()?;
        let o = load(&addr, sized(rate, 0.075), Pace::Open { rate })?;
        rungs.push(phase_json(&o, rate, cpu()? - c0));
        let backlogged = o.backlog_at_end * 100 > o.sent;
        phases.push(o);
        if backlogged {
            break;
        }
    }
    out = out.raw("ladder", format!("[{}]", rungs.join(",")));
    let peak_rss_mb = proc_peak_rss_mb(pid)?;
    server.stop()?;

    // Output check, outside every timed phase.
    let (mut checked, mut mismatched) = (0u64, 0u64);
    for (g, body) in phases.iter().flat_map(|p| &p.bodies) {
        checked += 1;
        match inputs.expected_body(inputs.template_of(*g)) {
            Ok(expected) if expected.as_bytes() == body.as_slice() => {}
            _ => mismatched += 1,
        }
    }
    let sent: u64 = phases.iter().map(|p| p.sent).sum();
    let failed: u64 = phases.iter().map(|p| p.non2xx + p.dropped).sum::<u64>() + mismatched;
    out = out
        .num("peak_rss_mb", peak_rss_mb)
        .int("attempted", sent)
        .int("failed", failed)
        .int("bodies_checked", checked)
        .int("bodies_mismatched", mismatched);

    if traced {
        let requests: Vec<&(&'static str, String)> =
            (0..REPLAYED as u64).map(|g| &inputs.bodies[inputs.template_of(g)]).collect();
        let bytes: Vec<&[u8]> = (0..REPLAYED as u64)
            .map(|g| inputs.templates[inputs.template_of(g)].as_slice())
            .collect();
        let mut tracer = Tracer::new(false);
        let mut wire = Vec::with_capacity(4096);
        let (mut untraced, mut traced_s) = (Vec::new(), Vec::new());
        for round in 0..6 {
            tracer.enabled = round % 2 == 1;
            let t = Instant::now();
            for b in &bytes {
                tracer.span("request", 1, |t| replay_one(t, b, &mut wire))?;
            }
            if tracer.enabled { &mut traced_s } else { &mut untraced }.push(since(t));
        }
        tracer.enabled = true;
        let configs = lanes(&requests);
        let mut iterations = (0usize, 0usize);
        for _ in 0..2 {
            let kernel =
                tracer.span("kernel.setup", configs.len() as u64, |_| BatchKernel::new(&configs));
            let results = tracer.span("kernel.solve", configs.len() as u64, |_| kernel.solve());
            for (_, stats) in results.iter().flatten() {
                iterations.0 += stats.solver_iterations;
                iterations.1 += 1;
            }
        }
        out = out
            .num("kernel_iterations_mean", iterations.0 as f64 / iterations.1.max(1) as f64)
            .nums("replay_untraced_s", &untraced)
            .nums("replay_traced_s", &traced_s)
            .int("replayed", REPLAYED as u64);
        if let Some(path) = args.spans_path() {
            tracer.write_jsonl(path).map_err(|e| format!("{path}: {e}"))?;
        }
    }
    Ok(out.finish())
}
