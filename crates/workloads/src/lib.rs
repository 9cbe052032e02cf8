#![warn(missing_docs)]

//! Synthetic SPEC-like workloads for the BEAR experiments.
//!
//! The paper evaluates 16 SPEC CPU2006 benchmarks (Table 2) in 8-core rate
//! mode plus 38 mixed workloads (Table 3 names eight of them). SimPoint
//! traces are not redistributable, so this crate generates *synthetic*
//! reference streams whose statistical shape is calibrated to the published
//! characteristics: L3 miss intensity (MPKI), memory footprint, write
//! fraction, temporal reuse skew, and spatial run length. DESIGN.md §2
//! documents the substitution argument. No trace files are read: every
//! stream is generated from its profile and seed.
//!
//! # Example
//!
//! ```
//! use bear_workloads::{BenchmarkProfile, TraceGenerator, TraceSource};
//!
//! let profile = BenchmarkProfile::by_name("mcf").unwrap();
//! let mut gen = TraceGenerator::new(profile, /*base_addr=*/0, /*scale_shift=*/3, /*seed=*/7);
//! let ev = gen.next_event();
//! assert!(ev.inst_gap >= 1);
//! ```

pub mod adversarial;
pub mod generator;
pub mod profile;
pub mod suites;

pub use adversarial::{AdversarialPattern, ScriptedTrace};
pub use generator::{TraceEvent, TraceGenerator, TraceSource};
pub use profile::{BenchmarkProfile, IntensityClass};
pub use suites::{
    all_workloads, generated_mixes, mix_workloads, named_mixes, rate_workloads, Workload,
};
