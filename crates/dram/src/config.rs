//! DRAM topology and timing configuration.
//!
//! Defaults follow Table 1 of the paper. All timing is expressed in CPU
//! cycles (3.2 GHz), so the stacked-cache and commodity-memory devices share
//! the same timing numbers (36-36-36-144) while differing in bus rate and
//! channel count — the paper's point that stacked DRAM is *faster in
//! bandwidth, not latency*.

use bear_sim::error::SimError;

/// DRAM core timing parameters in CPU cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramTimings {
    /// Column access strobe latency: CAS command to first data beat.
    pub t_cas: u64,
    /// RAS-to-CAS delay: ACT command to first CAS.
    pub t_rcd: u64,
    /// Row precharge time: PRE command to next ACT.
    pub t_rp: u64,
    /// Row active time: ACT to PRE (minimum row-open window).
    pub t_ras: u64,
    /// Refresh interval: one all-bank refresh is issued every `t_refi`
    /// cycles. `0` disables refresh (the paper's evaluation abstracts it
    /// away; enabling it is an extension for substrate realism).
    pub t_refi: u64,
    /// Refresh cycle time: the channel is blocked for `t_rfc` cycles per
    /// refresh and all row buffers close.
    pub t_rfc: u64,
}

impl DramTimings {
    /// The paper's timing (Table 1): tCAS-tRCD-tRP-tRAS = 36-36-36-144 CPU
    /// cycles for both the stacked cache and commodity memory.
    pub const fn table1() -> Self {
        DramTimings {
            t_cas: 36,
            t_rcd: 36,
            t_rp: 36,
            t_ras: 144,
            t_refi: 0,
            t_rfc: 0,
        }
    }

    /// Table 1 timings with DDR3-like refresh enabled (tREFI 7.8 µs and
    /// tRFC 350 ns at 3.2 GHz CPU cycles).
    pub const fn table1_with_refresh() -> Self {
        DramTimings {
            t_refi: 24_960,
            t_rfc: 1_120,
            ..Self::table1()
        }
    }

    /// Whether refresh is modeled.
    pub const fn refresh_enabled(&self) -> bool {
        self.t_refi > 0 && self.t_rfc > 0
    }
}

impl Default for DramTimings {
    fn default() -> Self {
        Self::table1()
    }
}

/// Physical organization of a DRAM device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramTopology {
    /// Number of independent channels, each with its own data bus.
    pub channels: u32,
    /// Ranks per channel.
    pub ranks_per_channel: u32,
    /// Banks per rank.
    pub banks_per_rank: u32,
    /// Row-buffer size in bytes (2 KB rows per the paper's designs).
    pub row_bytes: u64,
    /// Bytes moved per data-bus *beat* (half a DDR bus cycle).
    pub beat_bytes: u64,
    /// CPU cycles per data-bus beat.
    ///
    /// The 128-bit, 1.6 GHz DDR stacked bus moves 16 B per beat with a beat
    /// every CPU cycle (3.2 GT/s under a 3.2 GHz CPU): `beat_cpu_cycles = 1`.
    /// The 64-bit, 800 MHz DDR DIMM bus moves 8 B per beat every 2 CPU
    /// cycles: `beat_cpu_cycles = 2`.
    pub beat_cpu_cycles: u64,
    /// Subarrays per bank (MASA). Rows are striped across subarrays
    /// (`subarray = row % subarrays_per_bank`); each subarray keeps its own
    /// open row and ACT/PRE timing windows, so activates and precharges of
    /// distinct subarrays overlap while CAS data transfers still serialize
    /// on the shared channel bus. `1` models a conventional bank (one row
    /// buffer, full intra-bank serialization) and is bit-identical to the
    /// model before subarrays.
    pub subarrays_per_bank: u32,
}

impl DramTopology {
    /// Total number of banks across all channels and ranks.
    pub fn total_banks(&self) -> u32 {
        self.channels * self.ranks_per_channel * self.banks_per_rank
    }

    /// Banks within one channel.
    pub fn banks_per_channel(&self) -> u32 {
        self.ranks_per_channel * self.banks_per_rank
    }

    /// Number of bus beats needed to move `bytes` (rounded up).
    pub fn beats_for(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.beat_bytes)
    }
}

/// Complete configuration for one DRAM device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Physical organization.
    pub topology: DramTopology,
    /// Core timing parameters.
    pub timings: DramTimings,
    /// Read-queue capacity per channel.
    pub read_queue_capacity: usize,
    /// Write-queue capacity per channel.
    pub write_queue_capacity: usize,
    /// Write drain starts when the write queue reaches this occupancy.
    pub write_drain_high: usize,
    /// Write drain stops when the write queue falls to this occupancy.
    pub write_drain_low: usize,
    /// Maximum queue entries the FR-FCFS scheduler inspects per decision.
    pub sched_window: usize,
}

impl DramConfig {
    /// The paper's baseline stacked DRAM cache (Table 1): 4 channels,
    /// 16 banks/rank, 128-bit bus at 1.6 GHz DDR — 8× the bandwidth of
    /// [`DramConfig::commodity_memory`].
    pub fn stacked_cache_8x() -> Self {
        DramConfig {
            topology: DramTopology {
                channels: 4,
                ranks_per_channel: 1,
                banks_per_rank: 16,
                row_bytes: 2048,
                beat_bytes: 16,
                beat_cpu_cycles: 1,
                subarrays_per_bank: 1,
            },
            timings: DramTimings::table1(),
            read_queue_capacity: 32,
            write_queue_capacity: 32,
            write_drain_high: 24,
            write_drain_low: 8,
            sched_window: 16,
        }
    }

    /// Stacked cache with the channel count scaled to `factor`× commodity
    /// bandwidth (4× / 8× / 16× in the Figure 14(a) sensitivity study).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not a multiple of 2 (one stacked channel is 2×
    /// one commodity channel... the baseline 8× uses 4 channels).
    pub fn stacked_cache_bandwidth(factor: u32) -> Self {
        assert!(
            factor >= 2 && factor.is_multiple_of(2),
            "bandwidth factor must be an even multiple of commodity bandwidth"
        );
        let mut cfg = Self::stacked_cache_8x();
        cfg.topology.channels = factor / 2;
        cfg
    }

    /// The paper's commodity DIMM main memory (Table 1): 2 channels,
    /// 8 banks/rank, 64-bit bus at 800 MHz DDR.
    pub fn commodity_memory() -> Self {
        DramConfig {
            topology: DramTopology {
                channels: 2,
                ranks_per_channel: 1,
                banks_per_rank: 8,
                row_bytes: 2048,
                beat_bytes: 8,
                beat_cpu_cycles: 2,
                subarrays_per_bank: 1,
            },
            timings: DramTimings::table1(),
            read_queue_capacity: 32,
            write_queue_capacity: 32,
            write_drain_high: 24,
            write_drain_low: 8,
            sched_window: 16,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError::Config`] describing the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), SimError> {
        let err = |reason: &str| Err(SimError::config("dram", reason));
        let t = &self.topology;
        if t.channels == 0 || t.ranks_per_channel == 0 || t.banks_per_rank == 0 {
            return err("topology dimensions must be non-zero");
        }
        if t.row_bytes == 0 || t.beat_bytes == 0 || t.beat_cpu_cycles == 0 {
            return err("row/beat sizes must be non-zero");
        }
        if t.subarrays_per_bank == 0 {
            return err("subarrays_per_bank must be at least 1");
        }
        if self.read_queue_capacity == 0 || self.write_queue_capacity == 0 {
            return err("queue capacities must be non-zero");
        }
        if self.write_drain_low >= self.write_drain_high {
            return err("write_drain_low must be below write_drain_high");
        }
        if self.write_drain_high > self.write_queue_capacity {
            return err("write_drain_high exceeds write queue capacity");
        }
        if self.sched_window == 0 {
            return err("sched_window must be non-zero");
        }
        Ok(())
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        Self::stacked_cache_8x()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_defaults() {
        let t = DramTimings::default();
        assert_eq!((t.t_cas, t.t_rcd, t.t_rp, t.t_ras), (36, 36, 36, 144));
    }

    #[test]
    fn stacked_is_8x_commodity_bandwidth() {
        // Peak bytes per CPU cycle across all channels.
        let peak =
            |t: DramTopology| t.channels as f64 * t.beat_bytes as f64 / t.beat_cpu_cycles as f64;
        let ratio = peak(DramConfig::stacked_cache_8x().topology)
            / peak(DramConfig::commodity_memory().topology);
        assert!((ratio - 8.0).abs() < 1e-9, "ratio was {ratio}");
    }

    #[test]
    fn transfer_cycles_for_tad_and_line() {
        let cache = DramConfig::stacked_cache_8x().topology;
        // 80-byte TAD = 5 beats = 5 CPU cycles on the stacked bus.
        assert_eq!(cache.beats_for(80), 5);
        assert_eq!(cache.beats_for(80) * cache.beat_cpu_cycles, 5);
        let mem = DramConfig::commodity_memory().topology;
        // 64-byte line = 8 beats = 16 CPU cycles on the DIMM bus.
        assert_eq!(mem.beats_for(64), 8);
        assert_eq!(mem.beats_for(64) * mem.beat_cpu_cycles, 16);
    }

    #[test]
    fn bus_clock_matches_beat_rate() {
        let t = DramConfig::commodity_memory().topology;
        assert_eq!(
            t.beat_cpu_cycles, 2,
            "the DIMM bus runs at half the CPU clock"
        );
    }

    #[test]
    fn beats_round_up() {
        let t = DramConfig::stacked_cache_8x().topology;
        assert_eq!(t.beats_for(1), 1);
        assert_eq!(t.beats_for(16), 1);
        assert_eq!(t.beats_for(17), 2);
    }

    #[test]
    fn bank_counts() {
        let t = DramConfig::stacked_cache_8x().topology;
        assert_eq!(t.total_banks(), 64);
        assert_eq!(t.banks_per_channel(), 16);
    }

    #[test]
    fn bandwidth_factor_scaling() {
        assert_eq!(DramConfig::stacked_cache_bandwidth(4).topology.channels, 2);
        assert_eq!(DramConfig::stacked_cache_bandwidth(8).topology.channels, 4);
        assert_eq!(DramConfig::stacked_cache_bandwidth(16).topology.channels, 8);
    }

    #[test]
    #[should_panic(expected = "even multiple")]
    fn odd_bandwidth_factor_panics() {
        DramConfig::stacked_cache_bandwidth(3);
    }

    #[test]
    fn validation_catches_bad_watermarks() {
        let ok = DramConfig::default();
        assert!(ok.validate().is_ok());
        let bad = DramConfig {
            write_drain_low: ok.write_drain_high,
            ..ok
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn validation_catches_zero_dims() {
        let base = DramConfig::default();
        let mut bad_channels = base;
        bad_channels.topology.channels = 0;
        assert!(bad_channels.validate().is_err());
        let mut bad_subarrays = base;
        bad_subarrays.topology.subarrays_per_bank = 0;
        assert!(bad_subarrays.validate().is_err());
        let mut bad_beats = base;
        bad_beats.topology.beat_bytes = 0;
        assert!(bad_beats.validate().is_err());
        let bad_window = DramConfig {
            sched_window: 0,
            ..base
        };
        assert!(bad_window.validate().is_err());
        let bad_watermark = DramConfig {
            write_drain_high: base.write_queue_capacity + 1,
            ..base
        };
        assert!(bad_watermark.validate().is_err());
        let bad_queue = DramConfig {
            read_queue_capacity: 0,
            ..base
        };
        assert!(bad_queue.validate().is_err());
    }
}
