//! DRAM-cache (L4) controllers.
//!
//! Every organization the paper evaluates implements [`L4Cache`]: the
//! baseline Alloy family with the BEAR techniques ([`alloy`]), the Loh-Hill
//! and Mostly-Clean row-associative designs ([`loh_hill`]), the
//! Tags-in-SRAM and Sector Cache comparison points ([`sram_tags`]), and the
//! no-DRAM-cache pass-through (`no_cache`). [`placement`] maps cache sets
//! onto DRAM rows/banks/channels. The organization-independent transaction
//! skeleton lives in [`engine`], and the composable BEAR techniques in
//! [`stack`]; controllers implement only placement, tag state, and hit/miss
//! policy on top of those two. Tag state comes from two stores: the
//! direct-mapped `contents::DirectStore` (Alloy) and `bear_cache`'s
//! set-associative LRU `SetAssocCache` (Loh-Hill rows, TIS tags, and the
//! Sector Cache's sectors through `SectorTagStore`).

pub mod alloy;
pub mod engine;
pub mod loh_hill;
mod no_cache;
pub mod placement;
pub mod sram_tags;
pub mod stack;

use crate::config::{DesignKind, SystemConfig};
use crate::events::ObsEvent;
use crate::harness::DeviceHarness;
use bear_sim::faultinject::FaultKind;
use bear_sim::invariants::InvariantSink;
use bear_sim::stats::RunningMean;
use bear_sim::time::Cycle;

/// A demand line returning to the L3/core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// Line address (byte address / 64).
    pub line: u64,
    /// Whether the line was serviced from the DRAM cache.
    pub l4_hit: bool,
    /// Whether the line resides in the DRAM cache after this transaction
    /// (sets the L3's DRAM-Cache-Presence bit).
    pub in_l4: bool,
}

/// Per-tick outputs of an L4 controller.
#[derive(Debug, Default)]
pub struct L4Outputs {
    /// Demand lines completing this tick.
    pub deliveries: Vec<Delivery>,
    /// Lines evicted from the DRAM cache this tick (drives DCP clearing and
    /// inclusive back-invalidation).
    pub evictions: Vec<u64>,
    /// Oracle observation events emitted this tick, in decision order.
    /// Always empty unless observation was armed via
    /// [`L4Cache::set_observe`].
    pub events: Vec<ObsEvent>,
}

impl L4Outputs {
    /// Clears all lists for reuse across ticks.
    pub fn clear(&mut self) {
        self.deliveries.clear();
        self.evictions.clear();
        self.events.clear();
    }
}

/// Statistics common to every L4 organization.
#[derive(Debug, Clone, Default)]
pub struct L4Stats {
    /// Demand reads submitted.
    pub read_lookups: u64,
    /// Demand reads serviced by the DRAM cache.
    pub read_hits: u64,
    /// Writebacks submitted.
    pub wb_lookups: u64,
    /// Writebacks that found their line present.
    pub wb_hits: u64,
    /// Demand-hit latency (submit → data), CPU cycles.
    pub hit_latency: RunningMean,
    /// Demand-miss latency (submit → data), CPU cycles.
    pub miss_latency: RunningMean,
    /// Lines delivered to the processor from the DRAM cache (the Bloat
    /// Factor denominator).
    pub useful_lines: u64,
    /// Miss fills performed.
    pub fills: u64,
    /// Miss fills bypassed.
    pub bypasses: u64,
    /// Miss Probes avoided by the NTC.
    pub miss_probes_avoided: u64,
    /// Writeback Probes avoided by DCP.
    pub wb_probes_avoided: u64,
    /// Parallel memory accesses squashed by the NTC.
    pub parallel_squashed: u64,
    /// Parallel memory accesses that proved wasteful (probe hit anyway).
    pub wasted_parallel: u64,
    /// Lines evicted from the DRAM cache.
    pub evictions: u64,
}

impl L4Stats {
    /// Demand-read hit rate.
    pub fn hit_rate(&self) -> f64 {
        if self.read_lookups == 0 {
            0.0
        } else {
            self.read_hits as f64 / self.read_lookups as f64
        }
    }

    /// Writeback hit rate.
    pub fn wb_hit_rate(&self) -> f64 {
        if self.wb_lookups == 0 {
            0.0
        } else {
            self.wb_hits as f64 / self.wb_lookups as f64
        }
    }

    /// Mean demand latency across hits and misses.
    pub fn avg_latency(&self) -> f64 {
        let n = self.hit_latency.count() + self.miss_latency.count();
        if n == 0 {
            0.0
        } else {
            (self.hit_latency.sum() + self.miss_latency.sum()) / n as f64
        }
    }

    /// Resets all counters and latency accumulators.
    pub fn reset(&mut self) {
        *self = L4Stats::default();
    }
}

/// Point-in-time controller internals exposed to the telemetry sampler.
///
/// Everything here is a cheap snapshot of state the controller already
/// keeps; designs that lack a given mechanism leave its fields zero.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ControllerProbe {
    /// Valid lines currently resident.
    pub occupied_lines: u64,
    /// Resident lines that are dirty.
    pub dirty_lines: u64,
    /// Total lines the organization can hold.
    pub capacity_lines: u64,
    /// BAB duel counters `[baseline misses, baseline accesses, PB misses,
    /// PB accesses]`.
    pub bab_psel: [u16; 4],
    /// Whether the BAB followers currently apply probabilistic bypass.
    pub bab_engaged: bool,
    /// Cumulative fills bypassed by the bypass policy.
    pub bab_bypassed: u64,
    /// Cumulative fills performed by the bypass policy.
    pub bab_filled: u64,
    /// NTC answers: line known present.
    pub ntc_hits_present: u64,
    /// NTC answers: line known absent.
    pub ntc_hits_absent: u64,
    /// NTC answers: unknown (probe required).
    pub ntc_unknowns: u64,
    /// MAP-I predictions that proved correct.
    pub predictor_correct: u64,
    /// MAP-I predictions that proved wrong.
    pub predictor_wrong: u64,
}

/// Interface every DRAM-cache organization implements.
///
/// The controller owns both DRAM devices (stacked cache and commodity
/// memory); all memory-system traffic flows through it.
pub trait L4Cache {
    /// Submits a demand read for `line` (64 B line address) issued by
    /// instruction `pc` on `core`.
    fn submit_read(&mut self, line: u64, pc: u64, core: u32, now: Cycle);

    /// Submits a writeback of a dirty line evicted from the L3.
    ///
    /// `dcp_hint` carries the L3's DRAM-Cache-Presence bit when the DCP
    /// technique is active (`None` otherwise).
    fn submit_writeback(&mut self, line: u64, dcp_hint: Option<bool>, now: Cycle);

    /// Writes `line` directly to main memory (inclusive back-invalidation
    /// of a dirty L3 line, or writebacks in the no-cache design).
    fn submit_direct_mem_write(&mut self, line: u64, now: Cycle);

    /// Advances one CPU cycle: progresses DRAM devices and transaction
    /// state machines, appending results to `out`.
    fn tick(&mut self, now: Cycle, out: &mut L4Outputs);

    /// Statistics view.
    fn stats(&self) -> &L4Stats;

    /// Resets statistics (including device byte counters).
    fn reset_stats(&mut self);

    /// Device harness (byte accounting lives on the devices).
    fn harness(&self) -> &DeviceHarness;

    /// Mutable device harness (the telemetry layer arms/drains the DRAM
    /// transfer log through this).
    fn harness_mut(&mut self) -> &mut DeviceHarness;

    /// Point-in-time snapshot of controller internals for the telemetry
    /// sampler. `None` for designs that expose nothing beyond [`L4Stats`].
    fn telemetry_probe(&self) -> Option<ControllerProbe> {
        None
    }

    /// Outstanding transactions (for drain checks in tests).
    fn pending_txns(&self) -> usize;

    /// Earliest cycle at which the controller *itself* — excluding the
    /// DRAM devices — can act without a device completion arriving first.
    /// [`Cycle::NEVER`] means "purely completion-driven": with no new
    /// submissions, the controller does nothing until a device completes.
    /// This is the controller's one busy hint, and it must cover every
    /// internal time-based queue. The fast-forward in `System` uses it to
    /// prove that a window of cycles can run entirely inside the devices;
    /// the conservative default (`now`) declares the controller always
    /// busy, which disables fast-forwarding but is never wrong.
    fn controller_idle_until(&self, now: Cycle) -> Cycle {
        now
    }

    /// Earliest cycle at which a [`L4Cache::tick`] can change any state:
    /// ticks strictly before the returned cycle are guaranteed no-ops, so
    /// an event-driven driver may skip them. Composes the controller's own
    /// hint with the device harness's; implementations do not override it.
    fn next_busy_cycle(&self, now: Cycle) -> Cycle {
        self.controller_idle_until(now)
            .min(self.harness().next_busy_cycle(now))
    }

    /// Runs design-specific structural self-checks, reporting violations to
    /// `sink`. Controllers without internal redundancy inherit the no-op
    /// default; the byte-conservation check is design-independent and runs
    /// at the system level instead.
    fn self_check(&self, _now: Cycle, _sink: &mut InvariantSink) {}

    /// Whether `line` resides in the DRAM cache, for designs that track
    /// exact contents (`None` when the design cannot say).
    fn contains_line(&self, _line: u64) -> Option<bool> {
        None
    }

    /// Applies one injected corruption; returns whether a target existed
    /// (the fault-injection harness re-arms the fault otherwise).
    fn inject_fault(&mut self, _fault: FaultKind) -> bool {
        false
    }

    /// Arms (or disarms) oracle observation: when on, the controller emits
    /// [`ObsEvent`]s into [`L4Outputs::events`] at every functional
    /// decision instant. Off by default; the default impl ignores the
    /// request (valid only for controllers that emit no events).
    fn set_observe(&mut self, _on: bool) {}
}

/// Builds the controller for `cfg.design`.
pub fn build_controller(cfg: &SystemConfig) -> Box<dyn L4Cache> {
    match cfg.design {
        DesignKind::NoCache => Box::new(no_cache::NoCacheController::new(cfg)),
        DesignKind::Alloy | DesignKind::InclusiveAlloy | DesignKind::BwOpt => {
            Box::new(alloy::AlloyController::new(cfg))
        }
        DesignKind::LohHill | DesignKind::MostlyClean => {
            Box::new(loh_hill::LohHillController::new(cfg))
        }
        DesignKind::TagsInSram => Box::new(sram_tags::TisController::new(cfg)),
        DesignKind::SectorCache => Box::new(sram_tags::SectorController::new(cfg)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_rates() {
        let mut s = L4Stats::default();
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.wb_hit_rate(), 0.0);
        assert_eq!(s.avg_latency(), 0.0);
        s.read_lookups = 10;
        s.read_hits = 6;
        s.wb_lookups = 4;
        s.wb_hits = 3;
        s.hit_latency.record(100.0);
        s.miss_latency.record(300.0);
        assert!((s.hit_rate() - 0.6).abs() < 1e-12);
        assert!((s.wb_hit_rate() - 0.75).abs() < 1e-12);
        assert!((s.avg_latency() - 200.0).abs() < 1e-12);
        s.reset();
        assert_eq!(s.read_lookups, 0);
    }

    #[test]
    fn outputs_clear() {
        let mut o = L4Outputs::default();
        o.deliveries.push(Delivery {
            line: 1,
            l4_hit: true,
            in_l4: true,
        });
        o.evictions.push(9);
        o.clear();
        assert!(o.deliveries.is_empty() && o.evictions.is_empty());
    }

    #[test]
    fn build_controller_covers_every_design() {
        use crate::config::SystemConfig;
        for design in [
            DesignKind::NoCache,
            DesignKind::Alloy,
            DesignKind::InclusiveAlloy,
            DesignKind::BwOpt,
            DesignKind::LohHill,
            DesignKind::MostlyClean,
            DesignKind::TagsInSram,
            DesignKind::SectorCache,
        ] {
            let cfg = SystemConfig::paper_baseline(design);
            let ctrl = build_controller(&cfg);
            assert_eq!(ctrl.pending_txns(), 0, "{design:?} starts idle");
        }
    }
}
