//! # hmcs-des
//!
//! A small discrete-event simulation (DES) kernel, built to support the
//! validation simulators of *Performance Analysis of Heterogeneous
//! Multi-Cluster Systems* (Javadi, Akbari & Abawajy, ICPPW 2005, §6).
//!
//! The kernel is deliberately generic — nothing in this crate knows
//! about clusters or networks:
//!
//! * [`time`] — the simulation clock type ([`time::SimTime`],
//!   microseconds).
//! * [`event`] — a stable future-event list: an indexed 4-ary heap
//!   ordered by time with FIFO tie-breaking.
//! * [`engine`] — the event loop: a [`engine::Model`] handles one event
//!   at a time and schedules follow-ups through the
//!   [`engine::Scheduler`].
//! * [`rng`] — seedable, stream-split random-number generation and the
//!   sampling distributions the paper's simulators need (exponential
//!   inter-arrival times, uniform destinations).
//! * [`stats`] — output analysis: online moments (Welford), time-weighted
//!   averages for queue lengths, histograms and confidence intervals.
//! * [`quantile`] — P² streaming quantile estimation for latency tails.
//! * [`queue`] — an instrumented FCFS queue with `c` servers, the
//!   building block for the paper's service centres (one server) and
//!   the packet simulator's switch pods (one server per switch).
//!
//! ```
//! use hmcs_des::engine::{Engine, Model, Scheduler};
//! use hmcs_des::time::SimTime;
//!
//! // A model that counts three ticks, one every 5 µs.
//! struct Ticker { count: u32 }
//! impl Model for Ticker {
//!     type Event = ();
//!     fn handle(&mut self, now: SimTime, _e: (), sched: &mut Scheduler<()>) {
//!         self.count += 1;
//!         if self.count < 3 {
//!             sched.schedule_in(now, SimTime::from_us(5.0), ());
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::new(Ticker { count: 0 });
//! engine.scheduler_mut().schedule_at(SimTime::ZERO, ());
//! engine.run_to_completion();
//! assert_eq!(engine.model().count, 3);
//! assert_eq!(engine.now(), SimTime::from_us(10.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod event;
pub mod quantile;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;

pub use engine::{Engine, Model, Scheduler};
pub use time::SimTime;
