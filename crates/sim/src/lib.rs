#![warn(missing_docs)]

//! Simulation substrate for the BEAR DRAM-cache reproduction.
//!
//! This crate provides the low-level building blocks shared by every other
//! crate in the workspace:
//!
//! - [`time`]: the global cycle clock ([`time::Cycle`]); all DRAM timing
//!   is kept in CPU cycles.
//! - [`stats`]: running means for latency averages and the geometric mean
//!   the paper reports.
//! - [`rng`]: a small deterministic pseudo-random number generator so that
//!   every simulation is exactly reproducible from its seed.
//! - [`check`]: a dependency-free property-testing engine (generation via
//!   [`rng::SimRng`], shrink-by-bisection) used by every crate's
//!   `tests/proptests.rs`.
//!
//! # Example
//!
//! ```
//! use bear_sim::time::Cycle;
//! use bear_sim::rng::SimRng;
//!
//! let mut rng = SimRng::new(42);
//! let t = Cycle(100) + 36;
//! assert_eq!(t, Cycle(136));
//! let p: f64 = rng.next_f64();
//! assert!((0.0..1.0).contains(&p));
//! ```

pub mod check;
pub mod error;
pub mod faultinject;
pub mod invariants;
pub mod rng;
pub mod stats;
pub mod time;

pub use error::{RunOutcome, SimError};
pub use rng::SimRng;
pub use stats::RunningMean;
pub use time::Cycle;
