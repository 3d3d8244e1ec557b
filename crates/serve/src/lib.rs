//! # hmcs-serve
//!
//! A dependency-free evaluation **service daemon** for the HMCS
//! analytical model: the ROADMAP's "serve heavy traffic" direction made
//! concrete. Where `reproduce` evaluates the model in one-shot batch
//! runs, this crate keeps the model resident in a long-running process
//! and serves concurrent what-if queries over plain HTTP/1.1 — no
//! tokio, no hyper, no serde; `std::net` + the workspace's shared
//! [`hmcs_core::json`] module only.
//!
//! ## Endpoints
//!
//! | Endpoint | What it does |
//! |---|---|
//! | `POST /v1/evaluate` | One point of the paper's model, solved on the batched kernel: JSON config in, latency / utilization / solver diagnostics out |
//! | `POST /v1/sweep` | A λ-, cluster- or message-size sweep over the same config |
//! | `POST /v1/optimize` | Capacity planning: SLO/budget/workload in, latency-vs-cost Pareto frontier out |
//! | `GET /healthz` | Liveness probe (`200 ok`) |
//! | `GET /metrics` | Text dump of the process-global metrics registry |
//! | `GET /version` | Schema + crate version |
//!
//! ## Serving-stack shape
//!
//! * **Admission control** — an acceptor thread feeds a bounded job
//!   queue ([`queue::Bounded`]); when the in-flight budget is
//!   exhausted the acceptor *sheds load* with `503` + `Retry-After`
//!   instead of queueing unboundedly ([`keys::ADMISSION_REJECTED`]).
//!   The `503` and the drain of what the shed peer sent run on a
//!   short-lived thread, so a slow shed peer never stalls admission.
//! * **Worker pool** — sized by [`hmcs_core::batch::BatchOptions`]'s
//!   worker policy (explicit, `HMCS_POOL_WORKERS`, or available
//!   parallelism), so the daemon and the batch engine obey the same
//!   operator knobs.
//! * **Keep-alive connections** — HTTP/1.1 persistent connections via
//!   a buffered per-connection reader ([`http::RequestReader`]) that
//!   carries pipelined bytes over between requests; responses to
//!   already-buffered requests are corked into one socket write.
//!   Idle timeouts and per-connection request caps bound how long one
//!   client can hold a worker.
//! * **Request coalescing** — identical requests, keyed on endpoint
//!   and body bytes, share one computation (`coalesce::Coalescer`):
//!   concurrent followers receive a byte-identical clone of the
//!   leader's response, and a request repeated recently is answered
//!   from a bounded memo of completed `200`s without parsing or
//!   solving.
//! * **Micro-batching** — every evaluate and sweep that computes goes
//!   through one `microbatch::Batcher`, which groups *distinct*
//!   evaluate points arriving within the gather window into one kernel
//!   solve; bit-identical results, amortised scheduling. The window is
//!   held only while arrivals are dense, so a request after a quiet
//!   spell is solved at once, and a zero window is never held and
//!   gathers nobody.
//! * **Load generation** — [`loadgen`] implements the open-/closed-
//!   loop benchmark client behind the `hmcs-loadgen` binary.
//! * **Deadlines** — a request that waited in queue past its deadline
//!   is answered `503` without computing; socket reads/writes are
//!   bounded by the same budget, so a slow client cannot pin a worker.
//! * **Graceful drain** — shutdown stops the acceptor first, then
//!   drains every queued job before joining the workers: no accepted
//!   request is dropped mid-flight.
//! * **Live metrics** — every decision (accept, shed, coalesce,
//!   expire) is counted in the [`hmcs_core::metrics`] registry and
//!   visible at `GET /metrics` while the daemon runs.
//!
//! ## Quickstart
//!
//! ```no_run
//! use hmcs_serve::server::{Server, ServerConfig};
//!
//! let server = Server::start(ServerConfig::default()).unwrap();
//! println!("listening on http://{}", server.local_addr());
//! // ... later, from a signal handler or test:
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod coalesce;
pub mod http;
pub mod loadgen;
pub mod microbatch;
pub mod queue;
pub mod server;

/// Metric names recorded by the daemon. All live in the process-global
/// [`hmcs_core::metrics`] registry, so they appear in `GET /metrics`
/// dumps alongside the solver/batch/simulator metrics.
pub mod keys {
    /// Counter: connections accepted into the job queue.
    pub const REQUESTS_ACCEPTED: &str = "serve.requests.accepted";
    /// Counter: requests a worker started processing.
    pub const REQUESTS_STARTED: &str = "serve.requests.started";
    /// Counter: `POST /v1/evaluate` requests routed.
    pub(crate) const REQ_EVALUATE: &str = "serve.requests.evaluate";
    /// Counter: `POST /v1/sweep` requests routed.
    pub(crate) const REQ_SWEEP: &str = "serve.requests.sweep";
    /// Counter: `POST /v1/optimize` requests routed.
    pub const REQ_OPTIMIZE: &str = "serve.requests.optimize";
    /// Counter: `GET /healthz` requests routed.
    pub(crate) const REQ_HEALTHZ: &str = "serve.requests.healthz";
    /// Counter: `GET /metrics` requests routed.
    pub(crate) const REQ_METRICS: &str = "serve.requests.metrics";
    /// Counter: requests to any other path/method.
    pub(crate) const REQ_OTHER: &str = "serve.requests.other";
    /// Counter: responses with a 2xx status.
    pub(crate) const STATUS_2XX: &str = "serve.responses.status_2xx";
    /// Counter: responses with a 4xx status.
    pub(crate) const STATUS_4XX: &str = "serve.responses.status_4xx";
    /// Counter: responses with a 5xx status.
    pub(crate) const STATUS_5XX: &str = "serve.responses.status_5xx";
    /// Counter: connections shed at admission (queue full → 503).
    pub const ADMISSION_REJECTED: &str = "serve.admission.rejected";
    /// Counter: requests whose queue wait exceeded the deadline.
    pub const DEADLINE_EXPIRED: &str = "serve.deadline.expired";
    /// Histogram: queue depth observed at each admission.
    pub(crate) const QUEUE_DEPTH: &str = "serve.queue.depth";
    /// Histogram: total request time from accept to response (µs).
    pub(crate) const REQUEST_US: &str = "serve.request_us";
    /// Counter: requests served from another request's computation,
    /// in flight or completed.
    pub const COALESCE_HITS: &str = "serve.coalesce.hits";
    /// Counter: the subset of [`COALESCE_HITS`] answered by a kept
    /// completed response.
    pub(crate) const COALESCE_MEMO_HITS: &str = "serve.coalesce.memo_hits";
    /// Counter: computations actually performed (coalescing leaders).
    pub const COALESCE_COMPUTATIONS: &str = "serve.coalesce.computations";
    /// Counter: micro-batches computed (each is one kernel solve).
    pub const BATCH_BATCHES: &str = "serve.batch.batches";
    /// Counter: evaluate points carried inside micro-batches. The
    /// ratio to [`BATCH_BATCHES`] is the achieved mean batch size.
    pub const BATCH_BATCHED_ITEMS: &str = "serve.batch.items";
    /// Counter: batch leaders that held the gather window open (the
    /// previous submission came within one window). The rest of
    /// [`BATCH_BATCHES`] were solved at once after a quiet spell.
    pub(crate) const BATCH_WINDOWS_HELD: &str = "serve.batch.windows_held";
    /// Counter: kept-alive connections closed by the idle timeout.
    pub const CONN_IDLE_CLOSED: &str = "serve.conn.idle_closed";
    /// Counter: connections closed by the per-connection request cap.
    pub const CONN_CAP_CLOSED: &str = "serve.conn.cap_closed";
}
