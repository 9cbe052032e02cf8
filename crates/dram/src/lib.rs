#![warn(missing_docs)]

//! Cycle-level DRAM device model.
//!
//! This crate implements, from scratch, the DRAM timing substrate the BEAR
//! paper builds on (the paper uses USIMM; see DESIGN.md for the substitution
//! argument). The same model is instantiated twice by `bear-core`: once for
//! the high-bandwidth stacked DRAM cache (4 channels × 128-bit @ 1.6 GHz DDR)
//! and once for commodity main memory (2 channels × 64-bit @ 800 MHz DDR).
//!
//! The model is organized as:
//!
//! - [`config`]: topology (channels/ranks/banks/rows) and timing parameters
//!   (tCAS-tRCD-tRP-tRAS), plus the derived data-bus beat rate.
//! - [`request`]: the unit of work — a located, sized, categorized transfer.
//! - [`bank`]: the per-bank row-buffer state machine enforcing DRAM timing.
//! - [`channel`]: per-channel read/write queues, FR-FCFS scheduling with
//!   read priority and batched write drains, and data-bus arbitration.
//! - [`device`]: the multi-channel device with enqueue/tick/completion API.
//! - [`mapping`]: physical-address-to-location interleaving policies.
//!
//! # Example
//!
//! ```
//! use bear_dram::config::DramConfig;
//! use bear_dram::device::DramDevice;
//! use bear_dram::request::{DramLocation, DramRequest, TrafficClass};
//! use bear_sim::time::Cycle;
//!
//! let mut dev = DramDevice::new(DramConfig::stacked_cache_8x());
//! let loc = DramLocation { channel: 0, rank: 0, bank: 0, row: 3 };
//! dev.try_enqueue(DramRequest::read(1, loc, 5, TrafficClass(0), Cycle(0)))
//!     .unwrap();
//! let mut done = Vec::new();
//! let mut t = Cycle(0);
//! while done.is_empty() {
//!     dev.tick(t, &mut done);
//!     t += 1;
//! }
//! assert_eq!(done[0].request.id, 1);
//! ```

pub mod bank;
pub mod channel;
pub mod config;
pub mod device;
pub mod mapping;
pub mod request;

/// Compatibility name for the repository benchmark, which clears this
/// variable before it runs. The simulator no longer reads
/// `BEAR_SIM_THREADS`: each device replays its channels serially (see
/// [`crate::device::DramDevice::catch_up`]). The name stays only for
/// `benchmark/`.
pub mod shard {
    /// The retired simulation-thread-count variable (no longer read).
    pub const SIM_THREADS_ENV: &str = "BEAR_SIM_THREADS";
}

pub use config::{DramConfig, DramTimings, DramTopology};
pub use device::{Completion, DramDevice};
pub use mapping::AddressMapper;
pub use request::{DramLocation, DramRequest, RequestId, TrafficClass};
