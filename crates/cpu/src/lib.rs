#![warn(missing_docs)]

//! Trace-driven multicore front end.
//!
//! The paper's system has eight 2-wide out-of-order cores. The memory
//! system only observes the arrival process of post-L2 references and the
//! cores only need to translate memory latency into slowdown, so this crate
//! models each core as a retire window (ROB) driven by a trace
//! (USIMM-style; DESIGN.md §2):
//!
//! - instructions retire at up to `retire_width` per cycle;
//! - a trace event fires after its `inst_gap` instructions have retired;
//! - loads occupy one of `mshrs` outstanding-miss slots and stall
//!   retirement once the core runs `rob_insts` instructions ahead of the
//!   oldest incomplete load (bounded memory-level parallelism);
//! - stores retire through a store buffer and never stall the core (their
//!   cost appears later as writeback traffic).
//!
//! # Example
//!
//! ```
//! use bear_cpu::{Core, CoreConfig};
//! use bear_workloads::{BenchmarkProfile, TraceGenerator};
//! use bear_sim::time::Cycle;
//!
//! let profile = BenchmarkProfile::by_name("gcc").unwrap();
//! let trace = TraceGenerator::new(profile, 0, 3, 1);
//! let mut core = Core::new(0, Box::new(trace), CoreConfig::default());
//! // Tick until the core wants to talk to the memory hierarchy.
//! let mut t = Cycle(0);
//! let req = loop {
//!     if let Some(req) = core.tick(t) { break req; }
//!     t += 1;
//! };
//! assert_eq!(req.core, 0);
//! ```

mod core_model;
pub mod metrics;

pub use core_model::{Core, CoreConfig, CoreRequest, LoadToken};
pub use metrics::{normalized_weighted_speedup, rate_mode_speedup};
