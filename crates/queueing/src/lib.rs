//! # hmcs-queueing
//!
//! Queueing-theory primitives used by the analytical model of
//! *Performance Analysis of Heterogeneous Multi-Cluster Systems*
//! (Javadi, Akbari & Abawajy, ICPPW 2005).
//!
//! The crate is a self-contained, dependency-free library of the
//! queueing results the model evaluates:
//!
//! * [`mg1`] — the M/G/1 queue via the Pollaczek–Khinchine formula.
//!   Every communication network is an M/G/1 service centre; the
//!   paper's M/M/1 centre (eq. 16, `W = 1/(µ − λ)`) is its exponential
//!   case.
//! * [`gg1`] — GI/G/1 two-moment approximations (Kingman,
//!   Allen–Cunneen, Krämer–Langenbach-Belz) for relaxing the Poisson
//!   internal-arrival assumption (assumption 2).
//! * [`operational`] — distribution-free operational laws (utilization,
//!   Little, interactive response time) used to cross-check simulator
//!   instrumentation and to bound closed-system throughput.
//! * [`closed`] — closed-network results (machine-repairman model and
//!   exact Mean Value Analysis) that justify and generalise the paper's
//!   effective-rate iteration (eq. 7).
//!
//! Every service centre in the paper is a single-class FCFS queue, so
//! the crate carries no multi-class (priority) disciplines. The
//! effective-rate fixed point itself (eq. 7) is solved with the model,
//! by `hmcs_core::solver`'s bisection; this crate supplies the queue
//! formulas it evaluates. The exact M/M/1 and open-Jackson-network
//! solutions the tests check the model against live in the test crate
//! `hmcs-suite`.
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
//! use hmcs_queueing::mg1::{ServiceDistribution, MG1};
//!
//! // A network switch serving 1 message per 100 µs, offered 5 msg/ms.
//! // With exponential service this is the paper's M/M/1 centre:
//! // W = 1/(µ − λ) = 200 µs.
//! let q = MG1::new(0.005, ServiceDistribution::Exponential(100.0)).unwrap();
//! assert!((q.utilization() - 0.5).abs() < 1e-12);
//! assert!((q.mean_sojourn_time() - 200.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod closed;
pub mod error;
pub mod gg1;
pub mod mg1;
pub mod operational;

pub use error::QueueingError;
