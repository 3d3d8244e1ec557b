//! # hmcs-queueing
//!
//! Queueing-theory primitives used by the analytical model of
//! *Performance Analysis of Heterogeneous Multi-Cluster Systems*
//! (Javadi, Akbari & Abawajy, ICPPW 2005).
//!
//! The crate is a self-contained, dependency-free library of classical
//! queueing results:
//!
//! * [`mm1`] — the M/M/1 queue (the paper models every communication
//!   network as an M/M/1 service centre, eq. 16).
//! * [`mmc`] — the M/M/c queue (Erlang C), used by the Jackson-network
//!   solver for multi-server stations.
//! * [`mg1`] — the M/G/1 queue via the Pollaczek–Khinchine formula,
//!   used to relax the paper's exponential-service assumption.
//! * [`gg1`] — GI/G/1 two-moment approximations (Kingman,
//!   Allen–Cunneen, Krämer–Langenbach-Belz) for relaxing the Poisson
//!   internal-arrival assumption (assumption 2).
//! * [`jackson`] — open Jackson networks: traffic equations, product-form
//!   station metrics and end-to-end latency (the paper's model is a small
//!   Jackson network, Figure 2).
//! * [`closed`] — closed-network results (machine-repairman model and
//!   exact Mean Value Analysis) that justify and generalise the paper's
//!   effective-rate iteration (eq. 7).
//! * [`operational`] — distribution-free operational laws (utilization,
//!   forced flow, interactive response time) used to cross-check
//!   simulator instrumentation and to bound closed-system throughput.
//! * [`linalg`] — a small dense linear solver backing the traffic
//!   equations.
//!
//! Every service centre in the paper is a single-class FCFS queue, so
//! the crate carries no multi-class (priority) disciplines. The
//! effective-rate fixed point itself (eq. 7) is solved with the model,
//! by `hmcs_core::solver`'s bisection; this crate supplies the queue
//! formulas it evaluates.
//!
//! ## Units
//!
//! The library is unit-agnostic: rates and times may be expressed in any
//! consistent pair of units (the rest of the workspace uses microseconds
//! and events-per-microsecond).
//!
//! ## Example
//!
//! ```
//! use hmcs_queueing::mm1::MM1;
//!
//! // A network switch serving 1 message per 100 µs, offered 5 msg/ms.
//! let q = MM1::new(0.005, 0.01).unwrap();
//! assert!((q.utilization() - 0.5).abs() < 1e-12);
//! assert!((q.mean_sojourn_time() - 200.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod closed;
pub mod error;
pub mod gg1;
pub mod jackson;
pub mod linalg;
pub mod mg1;
pub mod mm1;
pub mod mmc;
pub mod operational;

pub use error::QueueingError;
pub use mm1::MM1;
