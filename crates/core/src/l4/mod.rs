//! DRAM-cache (L4) controllers.
//!
//! Every organization the paper evaluates implements [`L4Cache`]: the
//! baseline Alloy family with the BEAR techniques ([`alloy`]), the Loh-Hill
//! and Mostly-Clean row-associative designs ([`loh_hill`]), the
//! Tags-in-SRAM and Sector Cache comparison points ([`sram_tags`]), and the
//! no-DRAM-cache pass-through (`no_cache`). [`placement`] maps cache sets
//! onto DRAM rows/banks/channels. Each controller embeds an
//! [`engine::Engine`], which owns the devices, statistics, transaction
//! ids, demand-read accounting and eviction reporting, and the engine
//! carries the composable BEAR techniques of [`stack`]. A controller adds
//! only placement, tag state, and hit/miss policy, and implements the
//! trait's submit/tick half; the trait provides the rest through
//! [`L4Cache::engine`]. Tag state comes from two stores: the
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
use crate::l4::engine::Engine;
use bear_sim::faultinject::FaultKind;
use bear_sim::invariants::InvariantSink;
use bear_sim::stats::RunningMean;
use bear_sim::time::Cycle;

/// Beats of a bare 64 B line on the stacked cache's 16 B bus.
pub(crate) const LINE_BEATS: u64 = 4;

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
/// memory) through its [`Engine`]; all memory-system traffic flows
/// through it. An organization implements the engine accessors, the
/// submit/tick half and its own queries; the statistics, harness,
/// observation and direct-write plumbing is provided once here.
pub trait L4Cache {
    /// The controller's shared transaction engine.
    fn engine(&self) -> &Engine;

    /// Mutable access to the controller's shared transaction engine.
    fn engine_mut(&mut self) -> &mut Engine;

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
    fn submit_direct_mem_write(&mut self, line: u64, now: Cycle) {
        self.engine_mut().direct_mem_write(line, now);
    }

    /// Advances one CPU cycle: progresses DRAM devices and transaction
    /// state machines, appending results to `out`.
    fn tick(&mut self, now: Cycle, out: &mut L4Outputs);

    /// Statistics view.
    fn stats(&self) -> &L4Stats {
        &self.engine().stats
    }

    /// Resets statistics (including device byte counters).
    fn reset_stats(&mut self) {
        self.engine_mut().reset_stats();
    }

    /// Device harness (byte accounting lives on the devices).
    fn harness(&self) -> &DeviceHarness {
        &self.engine().harness
    }

    /// Mutable device harness (the telemetry layer arms/drains the DRAM
    /// transfer log through this).
    fn harness_mut(&mut self) -> &mut DeviceHarness {
        &mut self.engine_mut().harness
    }

    /// Point-in-time snapshot of controller internals for the telemetry
    /// sampler. `None` for designs that expose nothing beyond [`L4Stats`].
    fn telemetry_probe(&self) -> Option<ControllerProbe> {
        None
    }

    /// Outstanding transactions (for drain checks in tests). The default
    /// counts the engine's known-outcome reads.
    fn pending_txns(&self) -> usize {
        self.engine().pending_reads()
    }

    /// Earliest cycle at which the controller *itself* — excluding the
    /// DRAM devices — can act without a device completion arriving first.
    /// [`Cycle::NEVER`] means "purely completion-driven": with no new
    /// submissions, the controller does nothing until a device completes.
    /// This is the controller's one busy hint, and it must cover every
    /// internal time-based queue. Through [`L4Cache::next_busy_cycle`]
    /// the `System` uses it to prove that a window of cycles can run
    /// entirely inside the devices.
    /// The default is the engine's own hint (busy while a submit-time
    /// eviction awaits its report); an organization with a queue of its
    /// own composes that queue's hint with it.
    fn controller_idle_until(&self, now: Cycle) -> Cycle {
        self.engine().idle_until(now)
    }

    /// Earliest cycle at which a [`L4Cache::tick`] can have an effect
    /// outside the DRAM devices: controller work, a retiring completion or
    /// a drainable retry head. Ticks strictly before it only move DRAM
    /// channels internally, and the devices replay those at the next tick
    /// (see [`DeviceHarness::next_busy_cycle`]), so an event-driven driver
    /// may skip them. Composes the controller's own hint with the device
    /// harness's; implementations do not override it.
    fn next_busy_cycle(&self, now: Cycle) -> Cycle {
        self.controller_idle_until(now)
            .min(self.harness().next_busy_cycle(now))
    }

    /// Runs design-specific structural self-checks, reporting violations to
    /// `sink`. Controllers without internal redundancy inherit the no-op
    /// default; the byte-conservation check is design-independent and runs
    /// at the system level instead.
    fn self_check(&self, _now: Cycle, _sink: &mut InvariantSink) {}

    /// Whether `line` resides in the DRAM cache. Every organization
    /// tracks its exact contents.
    fn contains_line(&self, line: u64) -> bool;

    /// Applies one injected corruption; returns whether a target existed
    /// (the fault-injection harness re-arms the fault otherwise).
    fn inject_fault(&mut self, _fault: FaultKind) -> bool {
        false
    }

    /// Arms (or disarms) oracle observation: when on, the controller emits
    /// [`ObsEvent`]s into [`L4Outputs::events`] at every functional
    /// decision instant. Off by default.
    fn set_observe(&mut self, on: bool) {
        self.engine_mut().set_observe(on);
    }
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
        DesignKind::TagsInSram | DesignKind::SectorCache => {
            Box::new(sram_tags::SramTagController::new(cfg))
        }
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

    /// TIS, SC and BW-Opt evict at submit time when a writeback
    /// allocates over a full set: the victim reaches `out.evictions` on
    /// the next tick, and until then the controller reports itself busy.
    #[test]
    fn submit_time_evictions_report_on_the_next_tick() {
        use crate::traffic::MemTraffic;
        for design in [
            DesignKind::TagsInSram,
            DesignKind::SectorCache,
            DesignKind::BwOpt,
        ] {
            let cfg = SystemConfig::paper_baseline(design);
            // Lines `stride` apart share a set (a TIS set, a sector set, or
            // a direct-mapped slot); line 64 opens a sector.
            let (stride, ways) = match design {
                DesignKind::BwOpt => (cfg.l4_lines(), 1),
                _ => (cfg.l4_lines() / 32, 32),
            };
            let mut ctrl = build_controller(&cfg);
            let mut out = L4Outputs::default();
            let mut t = 0;
            for k in 0..=ways {
                let now = Cycle(t);
                ctrl.submit_writeback(64 + k * stride, None, now);
                if k == ways {
                    assert_eq!(ctrl.controller_idle_until(now), now, "{design:?}");
                    assert_eq!(ctrl.next_busy_cycle(now), now, "{design:?}");
                    assert!(out.evictions.is_empty(), "{design:?}");
                }
                while ctrl.pending_txns() > 0 || ctrl.harness().pending() > 0 || t == now.0 {
                    ctrl.tick(Cycle(t), &mut out);
                    t += 1;
                }
            }
            assert_eq!(out.evictions, vec![64], "{design:?}");
            assert_eq!(ctrl.stats().evictions, 1, "{design:?}");
            assert_eq!(ctrl.controller_idle_until(Cycle(t)), Cycle::NEVER);
            assert_eq!(
                ctrl.harness()
                    .mem
                    .bytes_in_class(MemTraffic::VictimWrite.class()),
                64,
                "{design:?}: the dirty victim goes to memory"
            );
        }
    }
}
