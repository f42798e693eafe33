//! Deterministic discrete-event simulation kernel.
//!
//! The FabricCRDT evaluation runs on a Kubernetes cluster; this crate is
//! the clock-and-queue substrate on which the reproduction re-creates the
//! paper's transaction pipeline (see DESIGN.md §1, "Time model"):
//!
//! - [`time`]: microsecond-resolution simulated time.
//! - [`rng`]: a seeded SplitMix64 PRNG — all randomness in an experiment
//!   flows from one seed, making every figure exactly reproducible.
//! - [`queue`]: the event queue (time-ordered, FIFO-stable for ties).
//! - [`latency`]: latency distributions for modelling network and
//!   processing delays.
//! - [`arrivals`]: open-loop transaction arrival processes (the Caliper
//!   clients submit at a configured rate regardless of system backpressure).
//! - [`stats`]: percentile summaries and time buckets for metrics.
//! - [`gen`]: deterministic test-data generation — the in-repo
//!   replacement for proptest that keeps the workspace offline-buildable.
//!
//! # Examples
//!
//! ```
//! use fabriccrdt_sim::{queue::EventQueue, time::SimTime};
//!
//! let mut q: EventQueue<&str> = EventQueue::new();
//! q.schedule(SimTime::from_millis(20), "second");
//! q.schedule(SimTime::from_millis(10), "first");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!((t, ev), (SimTime::from_millis(10), "first"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrivals;
pub mod gen;
pub mod latency;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;

pub use arrivals::ArrivalProcess;
pub use latency::LatencyModel;
pub use queue::EventQueue;
pub use rng::SimRng;
pub use stats::Summary;
pub use time::SimTime;
