//! Umbrella crate hosting the workspace-level examples and integration
//! tests, and the exact oracles those tests check the model against.
//!
//! The examples and integration tests live in `examples/` and `tests/`
//! at the workspace root and in this crate's `tests/`; the library
//! re-exports the member crates so those targets can use one coherent
//! namespace.
//!
//! The oracles are reference solutions that no production path runs:
//!
//! * [`mm1`] — the M/M/1 queue, the exponential case of the model's
//!   M/G/1 centres (eq. 16);
//! * [`jackson`] + [`linalg`] — open Jackson networks solved through
//!   their traffic equations with a dense linear solver; the model's
//!   rates (eqs. 1–5) and latency (eq. 15) are a special case;
//! * [`graph`] + [`bisection`] — an undirected multigraph with Dinic
//!   max-flow and bisection-width analysis (Definition 1);
//! * [`fat_tree`] + [`linear_array`] — the explicit graphs of the two
//!   interconnects, on which Theorem 1 (full bisection bandwidth of the
//!   fat-tree) and the linear array's bisection width of 1 are checked.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hmcs_bench as bench;
pub use hmcs_core as core;
pub use hmcs_des as des;
pub use hmcs_queueing as queueing;
pub use hmcs_sim as sim;
pub use hmcs_topology as topology;

pub mod bisection;
pub mod fat_tree;
pub mod graph;
pub mod jackson;
pub mod linalg;
pub mod linear_array;
pub mod mm1;
