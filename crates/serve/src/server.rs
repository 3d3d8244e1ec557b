//! The serving loop: acceptor thread, bounded queue, worker pool.
//!
//! ## Lifecycle
//!
//! [`Server::start`] binds the listener, spawns one acceptor thread
//! and a pool of workers, and returns immediately. Every serving thread
//! sleeps on an event, never on a timer: the acceptor blocks in
//! `accept`, idle workers block on the queue. The acceptor admits
//! *connections* into a [`Bounded`] queue; when the queue is full it
//! answers `503` + `Retry-After` inline without occupying a worker
//! (load shedding). Workers pop connections and serve them with
//! HTTP/1.1 keep-alive: a buffered [`http::RequestReader`] carries
//! pipelined bytes over between requests, responses to already
//! buffered requests are corked into one socket write, and the
//! connection closes on `Connection: close`, idle timeout
//! ([`ServerConfig::idle_timeout`]), the per-connection request cap
//! ([`ServerConfig::max_conn_requests`]), or shutdown.
//!
//! ## Deadlines
//!
//! [`ServerConfig::deadline`] bounds each request: for a connection's
//! first request it runs from accept (queue wait counts — a job that
//! sat longer is answered `503` without computing, and one whose first
//! bytes do not arrive in time gets `408`), for subsequent requests from
//! the moment their first byte has arrived. The wait for that byte is
//! bounded by [`ServerConfig::idle_timeout`] instead and ends without a
//! response. The remaining budget also bounds socket reads and the wait
//! of a coalescing or batch follower, so a slow peer cannot pin a
//! worker indefinitely. Every socket read, idle waits included, goes
//! through the one deadline-retried read loop of [`crate::http`], and
//! the drain of a rejected connection is bounded in total (250 ms,
//! 256 KiB) however the peer paces its bytes.
//!
//! ## Coalescing and the repeat memo
//!
//! Every `/v1/*` request goes to the [`Coalescer`] keyed on its path
//! and raw body bytes, before anything parses it. The leader of a key
//! parses, checks, computes and renders; a concurrent identical request
//! waits for the leader's response, and a recently repeated one is
//! answered from the coalescer's bounded memo of completed `200`s
//! without parsing, solving or rendering. The memo's byte budget and
//! admission table are fixed constants of [`crate::coalesce`], not
//! [`ServerConfig`] knobs: the model is deterministic, so a kept
//! response is byte-identical to a fresh one.
//!
//! ## Micro-batching
//!
//! Every evaluate and sweep that computes goes through one [`Batcher`]:
//! *distinct* model evaluations arriving within
//! [`ServerConfig::batch_window`] are gathered and solved in **one**
//! [`hmcs_core::kernel::BatchKernel`] solve per window: a
//! `/v1/evaluate` request contributes its single config, a `/v1/sweep`
//! request contributes one config per sweep point, and every gathered
//! lane advances in lockstep through the same SoA kernel solve on the
//! batch leader's own thread, in that thread's own arena (a lane costs
//! about a microsecond, far less than a pool spawn or a lock, and the
//! request workers already are the pool). Each request then renders its own slice of the lane results
//! (identical requests are still answered upstream by the
//! [`Coalescer`], so batches contain distinct points only). Kernel
//! lanes are bit-identical to the scalar path and invariant under
//! batch composition and worker count, so batching never changes
//! response bytes — only scheduling.
//!
//! A batch leader holds the window only while arrivals are dense: when
//! the previous evaluate or sweep came within one window (or none came
//! yet). The first request after a quiet spell longer than the window
//! is solved at once, since nobody is likely to join it; under
//! sustained load every window is held. `serve.batch.windows_held`
//! counts the leaders that paid for the window. A zero window is never
//! held and gathers nobody, so each request is solved at once, alone,
//! on its own worker.
//! [`api::evaluate_response`] and [`api::sweep_response`] remain the
//! in-process reference the served bodies are compared against.
//!
//! ## Shutdown
//!
//! [`Server::shutdown`] sets the shutdown flag, then wakes the blocked
//! acceptor with one connection of its own to the listener (an
//! unspecified bind address such as `0.0.0.0` is reached through the
//! loopback of its family). The acceptor sees the flag before admitting
//! anything, so that wake-up connection is never admitted, counted or
//! answered; it closes the queue and exits. Workers drain every
//! connection that was already admitted before exiting — an accepted
//! request is never dropped mid-flight; kept-alive connections finish
//! their current request and close, and idle ones notice within one
//! 100 ms read slice (the socket read timeout, so the worker wakes at
//! that cadence while a kept-alive connection is idle).

use crate::coalesce::Coalescer;
use crate::http::{self, Request, Response};
use crate::microbatch::Batcher;
use crate::queue::Bounded;
use crate::{api, keys};
use hmcs_core::batch::BatchOptions;
use hmcs_core::config::SystemConfig;
use hmcs_core::kernel::BatchKernel;
use hmcs_core::metrics::{self, Counter, ValueHistogram};
use std::cell::RefCell;
use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address. Port 0 asks the OS for a free port (tests).
    pub addr: String,
    /// Worker threads; 0 defers to [`BatchOptions`]'s policy
    /// (`HMCS_POOL_WORKERS` or available parallelism).
    pub workers: usize,
    /// Bounded queue capacity — the admission budget beyond the
    /// connections currently being served.
    pub queue_capacity: usize,
    /// Per-request budget; also bounds socket I/O and coalescing
    /// waits. For a connection's first request it includes queue wait.
    pub deadline: Duration,
    /// Value of the `Retry-After` header on shed responses.
    pub retry_after_s: u64,
    /// Hard cap on request bodies.
    pub max_body_bytes: usize,
    /// How long a kept-alive connection may sit idle between requests
    /// before the server closes it.
    pub idle_timeout: Duration,
    /// Requests served on one connection before the server closes it
    /// (`connection: close` on the final response). Bounds how long a
    /// single client can monopolise a worker.
    pub max_conn_requests: u64,
    /// Gather window for cross-request micro-batching of distinct
    /// evaluate points; zero never holds it and gathers nobody, so each
    /// request is solved at once, alone. Non-zero values trade up to one window of added latency
    /// for one kernel solve per batch, on the leader's thread, instead
    /// of one per request. The window is held only when the previous
    /// submission came within one window; a request after a longer
    /// quiet spell is solved at once.
    pub batch_window: Duration,
    /// Artificial pre-compute latency on every `/v1/*` request that
    /// computes (a coalesced or remembered answer does not wait). Fault
    /// injection for tests and soak runs (deterministically provokes
    /// queue buildup, shedding and deadline expiry); zero in service.
    pub handler_latency: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:8377".into(),
            workers: 0,
            queue_capacity: 64,
            deadline: Duration::from_secs(10),
            retry_after_s: 1,
            max_body_bytes: 1 << 20,
            idle_timeout: Duration::from_secs(5),
            max_conn_requests: 100_000,
            batch_window: Duration::ZERO,
            handler_latency: Duration::ZERO,
        }
    }
}

/// One admitted connection, timestamped for deadline accounting.
struct Job {
    stream: TcpStream,
    accepted_at: Instant,
}

/// Registry handles for the metrics every request records, resolved
/// once at [`Server::start`]: a registry lookup takes the registry's
/// mutex, which every worker would otherwise contend on per request.
struct RequestMetrics {
    accepted: &'static Counter,
    queue_depth: &'static ValueHistogram,
    started: &'static Counter,
    request_us: &'static ValueHistogram,
    evaluate: &'static Counter,
    sweep: &'static Counter,
    optimize: &'static Counter,
    healthz: &'static Counter,
    metrics_endpoint: &'static Counter,
    other: &'static Counter,
    /// 2xx, 4xx and 5xx responses.
    status: [&'static Counter; 3],
    admission_rejected: &'static Counter,
    deadline_expired: &'static Counter,
    conn_idle_closed: &'static Counter,
    conn_cap_closed: &'static Counter,
}

impl RequestMetrics {
    fn resolve() -> Self {
        RequestMetrics {
            accepted: metrics::counter(keys::REQUESTS_ACCEPTED),
            queue_depth: metrics::histogram(keys::QUEUE_DEPTH),
            started: metrics::counter(keys::REQUESTS_STARTED),
            request_us: metrics::histogram(keys::REQUEST_US),
            evaluate: metrics::counter(keys::REQ_EVALUATE),
            sweep: metrics::counter(keys::REQ_SWEEP),
            optimize: metrics::counter(keys::REQ_OPTIMIZE),
            healthz: metrics::counter(keys::REQ_HEALTHZ),
            metrics_endpoint: metrics::counter(keys::REQ_METRICS),
            other: metrics::counter(keys::REQ_OTHER),
            status: [keys::STATUS_2XX, keys::STATUS_4XX, keys::STATUS_5XX].map(metrics::counter),
            admission_rejected: metrics::counter(keys::ADMISSION_REJECTED),
            deadline_expired: metrics::counter(keys::DEADLINE_EXPIRED),
            conn_idle_closed: metrics::counter(keys::CONN_IDLE_CLOSED),
            conn_cap_closed: metrics::counter(keys::CONN_CAP_CLOSED),
        }
    }

    fn count_status(&self, status: u16) {
        let class = match status / 100 {
            2 => 0,
            4 => 1,
            _ => 2,
        };
        self.status[class].incr();
    }
}

thread_local! {
    /// This worker's kernel arena, reused by every batch it leads so a
    /// warm solve allocates no columns and takes no lock.
    static ARENA: RefCell<BatchKernel> = RefCell::new(BatchKernel::default());
}

/// Shared state between the acceptor and the workers.
struct Shared {
    config: ServerConfig,
    metrics: RequestMetrics,
    queue: Bounded<Job>,
    coalescer: Coalescer,
    batcher: Batcher<SystemConfig, api::PointResult>,
    shutdown: AtomicBool,
}

/// A running daemon. Dropping the handle without calling
/// [`Server::shutdown`] leaves the threads serving (detached).
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    acceptor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `config.addr` and spawns the serving threads.
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;

        let worker_count = if config.workers == 0 {
            BatchOptions::default().resolved_workers()
        } else {
            config.workers
        };
        // The window's one kernel solve runs on the leader's thread, in
        // that thread's arena: the request workers are the pool, so a
        // nested one (or a shared arena pool) would only add a spawn or
        // a lock per window.
        let batcher = Batcher::new(config.batch_window, |configs: &[SystemConfig]| {
            ARENA.with_borrow_mut(|arena| arena.evaluate(configs))
        });
        let shared = Arc::new(Shared {
            queue: Bounded::new(config.queue_capacity),
            coalescer: Coalescer::new(),
            batcher,
            shutdown: AtomicBool::new(false),
            metrics: RequestMetrics::resolve(),
            config,
        });

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("hmcs-serve-acceptor".into())
                .spawn(move || accept_loop(&listener, &shared))?
        };
        let workers = (0..worker_count)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("hmcs-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
            })
            .collect::<io::Result<Vec<_>>>()?;

        Ok(Server { shared, local_addr, acceptor, workers })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Connections currently waiting in the admission queue
    /// (tests/metrics).
    pub fn queue_len(&self) -> usize {
        self.shared.queue.len()
    }

    /// Stops accepting, drains every admitted connection, joins all
    /// threads. Blocks until the drain completes.
    pub fn shutdown(self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Wake the acceptor from `accept`. It sees the flag, drops this
        // connection unadmitted and closes the queue itself, so nothing
        // can be admitted after close — workers then drain and exit. If
        // the connect fails because the backlog is full, the acceptor
        // wakes for one of the pending connections instead.
        let mut wake = self.local_addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
        let _ = self.acceptor.join();
        for worker in self.workers {
            let _ = worker.join();
        }
    }
}

/// Back-off after a failed `accept` (ECONNABORTED, EMFILE, ...), so a
/// persistent error neither spins the acceptor nor kills it.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(2);

/// Socket read-timeout slice. Blocking reads wake at this cadence so
/// idle waits can observe shutdown and idle-timeout without a
/// per-request `setsockopt`.
const IO_SLICE: Duration = Duration::from_millis(100);

/// Corked responses are flushed once the buffer crosses this size even
/// if further pipelined requests are waiting.
const FLUSH_BYTES: usize = 64 * 1024;

fn accept_loop(listener: &TcpListener, shared: &Shared) {
    loop {
        let accepted = listener.accept();
        // Checked before `admit`: the connection that woke us after the
        // flag was set (normally `Server::shutdown`'s own) is dropped
        // unadmitted and unanswered.
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match accepted {
            Ok((stream, _peer)) => admit(stream, shared),
            Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
        }
    }
    // Closing here — after the last accept — guarantees no admitted
    // job can race the close, so the workers' drain sees everything.
    shared.queue.close();
}

fn admit(stream: TcpStream, shared: &Shared) {
    shared.metrics.queue_depth.record(shared.queue.len() as u64);
    let job = Job { stream, accepted_at: Instant::now() };
    match shared.queue.try_push(job) {
        Ok(()) => {
            shared.metrics.accepted.incr();
        }
        Err((job, _full_or_closed)) => {
            shared.metrics.admission_rejected.incr();
            shed(job.stream, shared);
        }
    }
}

/// Answers a connection we refuse to queue: `503` + `Retry-After`,
/// written inline on the acceptor thread with a short timeout so a
/// slow client cannot stall admission.
fn shed(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let response = Response {
        status: 503,
        content_type: "application/json",
        retry_after_s: Some(shared.config.retry_after_s),
        body: api::error_body("overloaded", "admission queue full; retry later"),
    };
    shared.metrics.count_status(response.status);
    let _ = http::write_response(&mut stream, &response, true);
    drain_unread(&mut stream);
}

fn worker_loop(shared: &Shared) {
    while let Some(job) = shared.queue.pop() {
        handle(job, shared);
    }
}

/// Serves one admitted connection until it closes.
fn handle(job: Job, shared: &Shared) {
    let Job { mut stream, accepted_at } = job;
    let config = &shared.config;

    // A job that sat in queue past its deadline is answered `503`
    // without reading (its result would be stale anyway — the client
    // has likely timed out).
    if accepted_at.elapsed() >= config.deadline {
        shared.metrics.deadline_expired.incr();
        let response = Response {
            status: 503,
            content_type: "application/json",
            retry_after_s: Some(config.retry_after_s),
            body: api::error_body("deadline_expired", "request waited in queue past its deadline"),
        };
        shared.metrics.count_status(response.status);
        let _ = http::write_response(&mut stream, &response, true);
        drain_unread(&mut stream);
        return;
    }

    // One-time socket setup. Reads wake at IO_SLICE cadence (the
    // reader and idle waits retry against their own deadlines), so no
    // per-request setsockopt is needed on the hot path.
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(IO_SLICE));
    let _ = stream.set_write_timeout(Some(config.deadline.max(Duration::from_millis(1))));

    let mut reader = http::RequestReader::new();
    let mut out: Vec<u8> = Vec::with_capacity(2048);
    let mut served: u64 = 0;
    // First request: the clock started at accept (queue wait counts).
    let mut request_start = accepted_at;

    loop {
        if !reader.has_buffered() {
            // Wait for the next request's first bytes. A first request
            // was admitted before any shutdown, so only a kept-alive
            // idle wait gives up on it.
            let first = served == 0;
            let until = if first {
                accepted_at + config.deadline
            } else {
                Instant::now() + config.idle_timeout
            };
            let stop = || !first && shared.shutdown.load(Ordering::SeqCst);
            match reader.fill(&mut stream, until, stop) {
                Ok(0) => break, // clean close, or shutdown while idle
                Ok(_) => {}
                Err(e) if http::is_timeout(&e) => {
                    if first {
                        let response = Response {
                            status: 408,
                            content_type: "application/json",
                            retry_after_s: None,
                            body: api::error_body("timeout", "no request received in time"),
                        };
                        shared.metrics.count_status(response.status);
                        let _ = http::write_response(&mut stream, &response, true);
                    } else {
                        shared.metrics.conn_idle_closed.incr();
                    }
                    break;
                }
                Err(_) => break,
            }
            if !first {
                request_start = Instant::now();
            }
        }

        let deadline = request_start + config.deadline;
        let request = match reader.read_request(&mut stream, config.max_body_bytes, deadline) {
            Ok(Some(request)) => request,
            Ok(None) => break, // clean close between requests
            Err(e) => {
                // Protocol errors poison the framing; answer and close.
                let response = Response {
                    status: e.status(),
                    content_type: "application/json",
                    retry_after_s: None,
                    body: api::error_body("bad_request", &e.reason()),
                };
                shared.metrics.count_status(response.status);
                out.clear();
                http::serialize_response(&mut out, &response, true);
                let _ = io::Write::write_all(&mut stream, &out);
                drain_unread(&mut stream);
                return;
            }
        };
        shared.metrics.started.incr();

        let remaining =
            deadline.saturating_duration_since(Instant::now()).max(Duration::from_millis(1));
        let response = route(&request, remaining, shared);
        served += 1;

        let close = request.wants_close
            || served >= config.max_conn_requests
            || shared.shutdown.load(Ordering::SeqCst);
        shared.metrics.count_status(response.status);
        http::serialize_response(&mut out, &response, close);
        shared.metrics.request_us.record(request_start.elapsed().as_micros() as u64);

        if close {
            if served >= config.max_conn_requests {
                shared.metrics.conn_cap_closed.incr();
            }
            let _ = io::Write::write_all(&mut stream, &out);
            drain_unread(&mut stream);
            return;
        }
        // Cork: while further pipelined requests are already buffered,
        // keep accumulating responses and pay one write for the batch.
        if !reader.has_buffered() || out.len() >= FLUSH_BYTES {
            if io::Write::write_all(&mut stream, &out).is_err() {
                return;
            }
            out.clear();
        }
        request_start = Instant::now();
    }

    if !out.is_empty() {
        let _ = io::Write::write_all(&mut stream, &out);
    }
}

fn route(request: &Request, remaining: Duration, shared: &Shared) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => {
            shared.metrics.healthz.incr();
            Response::text("ok\n".into())
        }
        ("GET", "/metrics") => {
            shared.metrics.metrics_endpoint.incr();
            Response::text(metrics::global().snapshot().render())
        }
        ("GET", "/version") => Response::json(format!(
            r#"{{"schema":"hmcs-serve/1","crate":"hmcs-serve","version":"{}"}}"#,
            env!("CARGO_PKG_VERSION")
        )),
        ("POST", "/v1/evaluate") => {
            shared.metrics.evaluate.incr();
            coalesced(shared, remaining, request, |body| {
                let (config, strict) = api::parse_evaluate(body)?;
                // Strict requests fail fast here — before the batcher
                // ever sees the workload.
                if strict {
                    api::check_unsaturated(&config)?;
                }
                Ok(move || match shared.batcher.submit(config, remaining) {
                    Some(result) => response_of(api::evaluate_response_from(&config, result)),
                    None => wait_exhausted(shared, "batch_timeout"),
                })
            })
        }
        ("POST", "/v1/sweep") => {
            shared.metrics.sweep.incr();
            coalesced(shared, remaining, request, |body| {
                let (config, spec, strict) = api::parse_sweep(body)?;
                if strict {
                    api::check_sweep_unsaturated(&config, &spec)?;
                }
                // A sweep contributes one config per point to the shared
                // window, then reassembles its own slice.
                Ok(move || match api::sweep_configs(&config, &spec) {
                    Ok(configs) => match shared.batcher.submit_many(configs, remaining) {
                        Some(results) => {
                            response_of(api::sweep_response_from(&config, &spec, results))
                        }
                        None => wait_exhausted(shared, "batch_timeout"),
                    },
                    Err(e) => error_response(e),
                })
            })
        }
        ("POST", "/v1/optimize") => {
            shared.metrics.optimize.incr();
            coalesced(shared, remaining, request, |body| {
                let request = api::parse_optimize(body)?;
                Ok(move || response_of(api::optimize_response(&request)))
            })
        }
        (
            _,
            "/healthz" | "/metrics" | "/version" | "/v1/evaluate" | "/v1/sweep" | "/v1/optimize",
        ) => {
            shared.metrics.other.incr();
            Response {
                status: 405,
                content_type: "application/json",
                retry_after_s: None,
                body: api::error_body("method_not_allowed", "see the endpoint table in the docs"),
            }
        }
        _ => {
            shared.metrics.other.incr();
            Response {
                status: 404,
                content_type: "application/json",
                retry_after_s: None,
                body: api::error_body("not_found", "unknown endpoint"),
            }
        }
    }
}

/// Answers a `/v1/*` request through the coalescer, keyed on its path
/// and body bytes: identical requests, concurrent or recently repeated,
/// share one computation and all receive byte-identical responses. Only
/// the leader parses the body (`prepare`) and computes.
fn coalesced<F, C>(shared: &Shared, remaining: Duration, request: &Request, prepare: F) -> Response
where
    F: FnOnce(&str) -> Result<C, api::ApiError>,
    C: FnOnce() -> Response,
{
    let (value, _) = shared.coalescer.run(&request.path, &request.body, remaining, || {
        let Ok(body) = std::str::from_utf8(&request.body) else {
            return error_response(api::ApiError {
                status: 400,
                code: "invalid_json",
                message: "request body is not UTF-8".into(),
                data: Vec::new(),
            });
        };
        let compute = match prepare(body) {
            Ok(compute) => compute,
            Err(e) => return error_response(e),
        };
        // Fault injection: the sleep sits *inside* the coalescing slot
        // so it widens the in-flight window exactly like a genuinely
        // slow computation would, and delays every computed request.
        if !shared.config.handler_latency.is_zero() {
            std::thread::sleep(shared.config.handler_latency);
        }
        compute()
    });
    value.unwrap_or_else(|| wait_exhausted(shared, "coalesce_timeout"))
}

/// The `503` a request receives when the computation it was waiting on
/// (a coalescing leader or a batch) did not deliver within its budget.
fn wait_exhausted(shared: &Shared, code: &'static str) -> Response {
    Response {
        status: 503,
        content_type: "application/json",
        retry_after_s: Some(shared.config.retry_after_s),
        body: api::error_body(code, "an in-flight computation did not finish within the deadline"),
    }
}

fn response_of(result: Result<String, api::ApiError>) -> Response {
    match result {
        Ok(body) => Response::json(body),
        Err(e) => error_response(e),
    }
}

fn error_response(e: api::ApiError) -> Response {
    Response {
        status: e.status,
        content_type: "application/json",
        retry_after_s: None,
        body: e.body(),
    }
}

/// Discards any request bytes still unread (error paths answer before
/// consuming the body). Closing a socket with pending input makes the
/// kernel send `RST`, which can destroy the response before the client
/// reads it; draining first turns the close into an orderly `FIN`.
/// Bounded in total, however the peer paces its bytes: at most 256 KiB
/// and 250 ms per connection, since the shed path drains on the
/// acceptor.
fn drain_unread(stream: &mut TcpStream) {
    use std::io::Read;
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let deadline = Instant::now() + Duration::from_millis(250);
    let mut sink = [0u8; 1024];
    for _ in 0..256 {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            break;
        }
        match stream.read(&mut sink) {
            Ok(n) if n > 0 => continue,
            _ => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Read, Write};

    /// Reads exactly one response (status line + headers +
    /// `content-length` body) so it works on kept-alive connections.
    fn read_one_response(reader: &mut BufReader<TcpStream>) -> String {
        let mut head = String::new();
        loop {
            let mut line = String::new();
            if reader.read_line(&mut line).unwrap() == 0 {
                panic!("connection closed mid-response: {head:?}");
            }
            head.push_str(&line);
            if line == "\r\n" {
                break;
            }
        }
        let content_length: usize = head
            .lines()
            .find_map(|l| l.to_ascii_lowercase().strip_prefix("content-length:").map(str::to_owned))
            .and_then(|v| v.trim().parse().ok())
            .expect("content-length header");
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).unwrap();
        head + std::str::from_utf8(&body).unwrap()
    }

    fn request(addr: SocketAddr, raw: &str) -> String {
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        (&stream).write_all(raw.as_bytes()).unwrap();
        read_one_response(&mut reader)
    }

    fn test_config() -> ServerConfig {
        ServerConfig { addr: "127.0.0.1:0".into(), workers: 2, ..ServerConfig::default() }
    }

    #[test]
    fn healthz_and_version_respond() {
        let server = Server::start(test_config()).unwrap();
        let addr = server.local_addr();
        let reply = request(addr, "GET /healthz HTTP/1.1\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "{reply}");
        assert!(reply.ends_with("ok\n"));
        let reply = request(addr, "GET /version HTTP/1.1\r\n\r\n");
        assert!(reply.contains("hmcs-serve"));
        server.shutdown();
    }

    #[test]
    fn unknown_paths_and_methods_get_structured_errors() {
        let server = Server::start(test_config()).unwrap();
        let addr = server.local_addr();
        let reply = request(addr, "GET /nope HTTP/1.1\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 404"), "{reply}");
        assert!(reply.contains(r#""code":"not_found""#));
        let reply = request(addr, "DELETE /healthz HTTP/1.1\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 405"), "{reply}");
        server.shutdown();
    }

    #[test]
    fn evaluate_round_trips_over_the_socket() {
        let server = Server::start(test_config()).unwrap();
        let body = r#"{"clusters":16}"#;
        let reply = request(
            server.local_addr(),
            &format!("POST /v1/evaluate HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}", body.len()),
        );
        assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
        assert!(reply.contains(r#""schema":"hmcs-serve-evaluate/1""#));
        assert!(reply.contains(r#""mean":"#));
        server.shutdown();
    }

    #[test]
    fn keep_alive_serves_sequential_requests_on_one_connection() {
        let server = Server::start(test_config()).unwrap();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        for _ in 0..3 {
            (&stream).write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
            let reply = read_one_response(&mut reader);
            assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
            assert!(reply.contains("connection: keep-alive\r\n"), "{reply}");
        }
        drop(stream);
        server.shutdown();
    }

    fn post(path: &str, body: &str) -> String {
        format!("POST {path} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}", body.len())
    }

    #[test]
    fn repeated_requests_are_answered_from_memory_byte_identically() {
        // The registry is process-global, so other tests may add to the
        // counter too: only a rise is asserted, never an exact count.
        let memo_hits = metrics::counter(keys::COALESCE_MEMO_HITS);
        let requests = [
            ("/v1/evaluate", r#"{"clusters":16,"architecture":"blocking"}"#),
            ("/v1/sweep", r#"{"clusters":16,"parameter":"lambda","values":[1e-4,2e-4]}"#),
            ("/v1/optimize", r#"{"slo_ms":30,"workload":{"total_nodes":16}}"#),
        ];
        for batch_window in [Duration::ZERO, Duration::from_micros(200)] {
            let server = Server::start(ServerConfig { batch_window, ..test_config() }).unwrap();
            for (path, body) in requests {
                let before = memo_hits.get();
                let replies: Vec<String> =
                    (0..3).map(|_| request(server.local_addr(), &post(path, body))).collect();
                assert!(replies[0].starts_with("HTTP/1.1 200"), "{path}: {}", replies[0]);
                assert!(replies.iter().all(|r| *r == replies[0]), "{path}: bodies differ");
                assert!(memo_hits.get() > before, "{path}: the third request is a memo hit");
            }
            server.shutdown();
        }
    }

    #[test]
    fn handler_latency_delays_every_miss() {
        let latency = Duration::from_millis(40);
        let server =
            Server::start(ServerConfig { handler_latency: latency, ..test_config() }).unwrap();
        // A key is kept only after its second computation, so each of
        // these six requests computes and must sleep.
        for clusters in [4, 8, 16] {
            for _ in 0..2 {
                let start = Instant::now();
                let reply = request(
                    server.local_addr(),
                    &post("/v1/evaluate", &format!(r#"{{"clusters":{clusters}}}"#)),
                );
                assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
                assert!(start.elapsed() >= latency, "a computed request skipped the latency");
            }
        }
        server.shutdown();
    }

    #[test]
    fn shutdown_of_a_wildcard_bound_server_returns_promptly() {
        // The acceptor blocks in `accept`; shutdown must reach it through
        // the loopback even though the listener's own address is 0.0.0.0.
        let server =
            Server::start(ServerConfig { addr: "0.0.0.0:0".into(), ..test_config() }).unwrap();
        let loopback = SocketAddr::from((Ipv4Addr::LOCALHOST, server.local_addr().port()));
        let reply = request(loopback, "GET /healthz HTTP/1.1\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
        let start = Instant::now();
        server.shutdown();
        assert!(start.elapsed() < Duration::from_secs(2), "shutdown took {:?}", start.elapsed());
    }

    #[test]
    fn shutdown_drains_with_an_idle_kept_alive_connection() {
        let server = Server::start(test_config()).unwrap();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        (&stream).write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        let reply = read_one_response(&mut reader);
        assert!(reply.contains("connection: keep-alive\r\n"), "{reply}");
        // The connection now sits idle in its worker; shutdown still
        // drains it well inside the 5 s idle timeout.
        let start = Instant::now();
        server.shutdown();
        assert!(start.elapsed() < Duration::from_secs(2), "shutdown took {:?}", start.elapsed());
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "the idle connection closes without another response");
    }

    #[test]
    fn a_trickling_rejected_client_cannot_hold_the_only_worker() {
        // After a `400` the worker drains the rejected connection. A peer
        // that keeps sending a byte at a time must not make that drain,
        // and with it the next client's wait, last longer than its
        // 250 ms budget.
        let server = Server::start(ServerConfig { workers: 1, ..test_config() }).unwrap();
        let addr = server.local_addr();
        let rejected = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(rejected.try_clone().unwrap());
        (&rejected).write_all(b"NONSENSE\r\n\r\n").unwrap();
        let reply = read_one_response(&mut reader);
        assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");

        let answered = Arc::new(AtomicBool::new(false));
        let trickle = {
            let answered = Arc::clone(&answered);
            std::thread::spawn(move || {
                let give_up = Instant::now() + Duration::from_secs(5);
                while !answered.load(Ordering::SeqCst) && Instant::now() < give_up {
                    if (&rejected).write_all(b"x").is_err() {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(100));
                }
            })
        };
        let start = Instant::now();
        let reply = request(addr, "GET /healthz HTTP/1.1\r\n\r\n");
        let waited = start.elapsed();
        answered.store(true, Ordering::SeqCst);
        trickle.join().unwrap();
        assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
        assert!(waited < Duration::from_secs(1), "waited {waited:?} behind a trickling peer");
        server.shutdown();
    }

    #[test]
    fn malformed_bodies_get_escaped_400s() {
        let server = Server::start(test_config()).unwrap();
        let body = "{\"ctrl\u{1}\": \"\u{2}\"";
        let reply = request(
            server.local_addr(),
            &format!("POST /v1/evaluate HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}", body.len()),
        );
        assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
        let json_body = reply.split("\r\n\r\n").nth(1).unwrap();
        hmcs_core::json::parse_json(json_body).expect("error body is valid JSON");
        server.shutdown();
    }
}
