#![warn(missing_docs)]

//! BEAR: Bandwidth-Efficient ARchitecture for gigascale DRAM caches.
//!
//! This crate is the paper's contribution (Chou, Jaleel, Qureshi, ISCA
//! 2015): the DRAM-cache organizations it evaluates, the three BEAR
//! component techniques, and the full-system simulator that ties cores, the
//! on-chip L3, the stacked-DRAM L4 cache, and commodity main memory
//! together.
//!
//! # Architecture map
//!
//! | Paper concept | Module |
//! |---|---|
//! | Bloat taxonomy (Hit/Miss Probe, Fills, WB ops) | [`traffic`] |
//! | MAP-I hit/miss predictor | [`predictor`] |
//! | Bandwidth-Aware Bypass (Section 4) | [`bab`] |
//! | Neighboring Tag Cache (Section 6) | [`ntc`] |
//! | DRAM Cache Presence bit (Section 5) | [`l3`] metadata + [`system`] plumbing |
//! | Alloy / BW-Opt / inclusive organizations | [`l4::alloy`] |
//! | Loh-Hill and Mostly-Clean caches | [`l4::loh_hill`] |
//! | Tags-in-SRAM and Sector Cache (Section 8) | [`l4::sram_tags`] |
//! | Full system + run loop | [`system`] |
//! | Bloat Factor, latency, speedup metrics | [`metrics`] |
//! | Table 5 storage overheads | [`overhead`] |
//!
//! # Example
//!
//! ```no_run
//! use bear_core::config::{DesignKind, SystemConfig};
//! use bear_core::system::System;
//! use bear_workloads::rate_workloads;
//!
//! let workload = &rate_workloads()[0];
//! let cfg = SystemConfig::paper_baseline(DesignKind::Alloy);
//! let stats = System::build(&cfg, workload).run(cfg.warmup_cycles, cfg.measure_cycles);
//! println!("bloat factor {:.2}", stats.bloat.factor());
//! ```

pub mod bab;
pub mod config;
pub mod contents;
pub mod events;
pub mod harness;
pub mod l3;
pub mod l4;
pub mod ledger;
pub mod metrics;
pub mod ntc;
pub mod overhead;
pub mod predictor;
pub mod system;
pub mod telemetry;
pub mod traffic;

pub use config::{BearFeatures, DesignKind, SystemConfig};
pub use metrics::{BloatBreakdown, RunStats};
pub use system::System;
