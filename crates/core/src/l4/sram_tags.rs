//! Tags-in-SRAM designs (Section 8): the idealized TIS cache and the
//! Sector Cache.
//!
//! Both keep their tags on chip, so probes cost no DRAM-cache bandwidth and
//! no latency (the paper explicitly does not penalize them for the SRAM
//! storage or its access time). The DRAM array holds data only: hits move
//! 64 B, fills write 64 B, and replacing a dirty victim requires reading its
//! data out of the cache (the *Dirty Eviction* traffic of Figure 16) before
//! writing it to memory. The Sector Cache amplifies that cost: evicting a
//! 4 KB sector can push up to 64 dirty blocks.
//!
//! Built on the shared [`Engine`]: this file keeps only the on-chip tag
//! models and their hit/miss policy. Demand fills consult the technique
//! stack's fill hook, so Bandwidth-Aware Bypass composes with the SRAM-tag
//! organizations too (the paper-default stack is always-fill, which leaves
//! behavior bit-identical to the pre-engine controllers).

use crate::config::{DesignKind, SystemConfig};
use crate::events::{FillCause, ObsEvent};
use crate::harness::{DeviceHarness, Leg};
use crate::l4::engine::Engine;
use crate::l4::placement::SetPlacement;
use crate::l4::stack::TechniqueStack;
use crate::l4::{Delivery, L4Cache, L4Outputs, L4Stats};
use crate::traffic::{BloatCategory, MemTraffic};
use bear_cache::{CacheGeometry, SectorProbe, SectorTagStore, SetAssocCache};
use bear_dram::request::DramLocation;
use bear_sim::time::Cycle;
use std::collections::HashMap;

/// Beats per 64 B line on the stacked bus.
const LINE_BEATS: u64 = 4;

#[derive(Debug, Clone, Copy)]
struct ReadTxn {
    line: u64,
    arrival: Cycle,
    expect_hit: bool,
}

/// Shared implementation: hit/miss policy is delegated to the tag model.
#[derive(Debug)]
enum TagModel {
    Tis(SetAssocCache<()>),
    Sector(SectorTagStore),
}

/// Tags-in-SRAM controller (32-way, idealized on-chip tags).
#[derive(Debug)]
pub struct TisController {
    inner: SramTagController,
}

/// Sector Cache controller (4 KB sectors, 64 B blocks, 32-way).
#[derive(Debug)]
pub struct SectorController {
    inner: SramTagController,
}

#[derive(Debug)]
struct SramTagController {
    tags: TagModel,
    placement: SetPlacement,
    /// Shared transaction skeleton + technique stack.
    engine: Engine,
    reads: HashMap<u64, ReadTxn>,
    /// Evictions produced by submit-path writebacks, re-emitted on the
    /// next tick (the trait reports evictions through `tick` outputs).
    pending_evictions: Vec<u64>,
}

impl TisController {
    /// Builds the TIS controller for `cfg`.
    pub fn new(cfg: &SystemConfig) -> Self {
        assert_eq!(cfg.design, DesignKind::TagsInSram);
        TisController {
            inner: SramTagController::new(
                cfg,
                TagModel::Tis(SetAssocCache::new(CacheGeometry::new(
                    cfg.l4_capacity(),
                    32,
                    64,
                ))),
            ),
        }
    }
}

impl SectorController {
    /// Builds the Sector Cache controller for `cfg`.
    pub fn new(cfg: &SystemConfig) -> Self {
        assert_eq!(cfg.design, DesignKind::SectorCache);
        TisControllerDelegate::assert_capacity(cfg);
        SectorController {
            inner: SramTagController::new(
                cfg,
                TagModel::Sector(SectorTagStore::new(cfg.l4_capacity(), 32, 4096, 64)),
            ),
        }
    }
}

/// Internal helper namespace for shared assertions.
struct TisControllerDelegate;

impl TisControllerDelegate {
    fn assert_capacity(cfg: &SystemConfig) {
        assert!(
            cfg.l4_capacity().is_multiple_of(32 * 4096),
            "sector cache capacity must hold whole sector sets"
        );
    }
}

impl SramTagController {
    fn new(cfg: &SystemConfig, tags: TagModel) -> Self {
        // Data-only rows: 32 lines of 64 B per 2 KB row.
        let placement = SetPlacement::new(cfg.cache_dram.topology, 32);
        let stack = TechniqueStack::from_config(cfg, placement.total_banks());
        SramTagController {
            tags,
            placement,
            engine: Engine::new(cfg, stack),
            reads: HashMap::new(),
            pending_evictions: Vec::new(),
        }
    }

    /// Data location: lines are striped row-by-row in line order.
    fn locate(&self, line: u64) -> DramLocation {
        self.placement.locate(line)
    }

    /// Tag-model set index for `line`, used as the bypass-duel group key.
    fn duel_set(&self, line: u64) -> u64 {
        match &self.tags {
            TagModel::Tis(t) => line % t.geometry().sets().max(1),
            TagModel::Sector(s) => (line * 64 / 4096) % s.sets().max(1),
        }
    }

    /// Is the line present (no stats side effects beyond the tag model's)?
    fn present(&mut self, line: u64) -> bool {
        match &mut self.tags {
            TagModel::Tis(t) => t.contains(line * 64),
            TagModel::Sector(s) => s.peek(line * 64) == SectorProbe::BlockHit,
        }
    }

    /// Installs `line`, charging victim traffic; returns evicted lines.
    fn install(&mut self, line: u64, dirty: bool, now: Cycle, out: &mut L4Outputs) {
        match &mut self.tags {
            TagModel::Tis(t) => {
                if let Some(v) = t.fill(line * 64, dirty, ()) {
                    let vline = v.addr / 64;
                    self.engine.stats.evictions += 1;
                    out.evictions.push(vline);
                    self.engine.emit(ObsEvent::Evicted {
                        line: vline,
                        dirty: v.dirty,
                    });
                    if v.dirty {
                        let txn = self.engine.alloc_txn();
                        self.engine.harness.cache_read(
                            txn,
                            Leg::CacheData,
                            self.placement.locate(vline),
                            LINE_BEATS,
                            BloatCategory::VictimRead.class(),
                            now,
                        );
                        let txn = self.engine.alloc_txn();
                        self.engine.harness.mem_write(
                            txn,
                            vline,
                            MemTraffic::VictimWrite.class(),
                            now,
                        );
                    }
                }
            }
            TagModel::Sector(s) => match s.peek(line * 64) {
                SectorProbe::BlockHit => {
                    if dirty {
                        s.mark_dirty(line * 64);
                    }
                }
                SectorProbe::BlockMiss => s.fill_block(line * 64, dirty),
                SectorProbe::SectorMiss => {
                    if let Some(v) = s.fill_sector(line * 64, dirty) {
                        let first_vline = v.addr / 64;
                        self.engine.stats.evictions += u64::from(v.valid_blocks);
                        // Every dirty block of the victim sector is read
                        // out and pushed to memory — the SC's Achilles heel.
                        for i in 0..v.dirty_blocks as u64 {
                            let vline = first_vline + i;
                            out.evictions.push(vline);
                            self.engine.emit(ObsEvent::Evicted {
                                line: vline,
                                dirty: true,
                            });
                            let txn = self.engine.alloc_txn();
                            self.engine.harness.cache_read(
                                txn,
                                Leg::CacheData,
                                self.placement.locate(vline),
                                LINE_BEATS,
                                BloatCategory::VictimRead.class(),
                                now,
                            );
                            let txn = self.engine.alloc_txn();
                            self.engine.harness.mem_write(
                                txn,
                                vline,
                                MemTraffic::VictimWrite.class(),
                                now,
                            );
                        }
                        // Clean evicted blocks just vanish; report them so
                        // DCP-style listeners stay coherent.
                        for i in v.dirty_blocks as u64..v.valid_blocks as u64 {
                            out.evictions.push(first_vline + i);
                            self.engine.emit(ObsEvent::Evicted {
                                line: first_vline + i,
                                dirty: false,
                            });
                        }
                    }
                }
            },
        }
        self.engine.emit(ObsEvent::Filled {
            line,
            dirty,
            cause: if dirty {
                FillCause::Writeback
            } else {
                FillCause::Demand
            },
        });
    }

    fn submit_read(&mut self, line: u64, now: Cycle) {
        self.engine.stats.read_lookups += 1;
        let hit = match &mut self.tags {
            TagModel::Tis(t) => t.access(line * 64, false).is_some(),
            TagModel::Sector(s) => s.probe(line * 64) == SectorProbe::BlockHit,
        };
        self.engine.emit(ObsEvent::ReadClassified { line, hit });
        let txn = self.engine.alloc_txn();
        self.reads.insert(
            txn,
            ReadTxn {
                line,
                arrival: now,
                expect_hit: hit,
            },
        );
        if hit {
            self.engine.harness.cache_read(
                txn,
                Leg::CacheProbe,
                self.locate(line),
                LINE_BEATS,
                BloatCategory::Hit.class(),
                now,
            );
        } else {
            self.engine
                .harness
                .mem_read(txn, line, MemTraffic::DemandRead.class(), now);
        }
    }

    fn submit_writeback(&mut self, line: u64, now: Cycle, out: &mut L4Outputs) {
        self.engine.stats.wb_lookups += 1;
        let hit = self.present(line);
        self.engine.emit(ObsEvent::WbResolved {
            line,
            hit,
            probe_skipped: true, // on-chip tags: presence known without probing
            allocated: !hit,
        });
        if hit {
            self.engine.stats.wb_hits += 1;
            self.engine.stats.wb_probes_avoided += 1; // on-chip tags: no probe ever
            match &mut self.tags {
                TagModel::Tis(t) => {
                    t.access(line * 64, true);
                }
                TagModel::Sector(s) => {
                    s.mark_dirty(line * 64);
                }
            }
            let txn = self.engine.alloc_txn();
            self.engine.harness.cache_write(
                txn,
                self.locate(line),
                LINE_BEATS,
                BloatCategory::WritebackUpdate.class(),
                now,
            );
        } else {
            // Write-allocate.
            self.install(line, true, now, out);
            let txn = self.engine.alloc_txn();
            self.engine.harness.cache_write(
                txn,
                self.locate(line),
                LINE_BEATS,
                BloatCategory::WritebackFill.class(),
                now,
            );
        }
    }

    fn tick(&mut self, now: Cycle, out: &mut L4Outputs) {
        let completions = self.engine.begin_tick(now);
        for c in &completions {
            match c.leg {
                Leg::CacheProbe | Leg::MemRead => {
                    let Some(txn) = self.reads.remove(&c.txn) else {
                        continue;
                    };
                    if txn.expect_hit {
                        self.engine.stats.read_hits += 1;
                        self.engine.stats.useful_lines += 1;
                        self.engine
                            .stats
                            .hit_latency
                            .record((c.finish - txn.arrival) as f64);
                        out.deliveries.push(Delivery {
                            line: txn.line,
                            l4_hit: true,
                            in_l4: true,
                        });
                    } else {
                        self.engine
                            .stats
                            .miss_latency
                            .record((c.finish - txn.arrival) as f64);
                        let fill = self.engine.stack.on_fill_decision(self.duel_set(txn.line));
                        if fill {
                            self.engine.stats.fills += 1;
                            self.install(txn.line, false, c.finish, out);
                            let t = self.engine.alloc_txn();
                            self.engine.harness.cache_write(
                                t,
                                self.locate(txn.line),
                                LINE_BEATS,
                                BloatCategory::MissFill.class(),
                                c.finish,
                            );
                        } else {
                            self.engine.stats.bypasses += 1;
                            self.engine.emit(ObsEvent::Bypassed { line: txn.line });
                        }
                        out.deliveries.push(Delivery {
                            line: txn.line,
                            l4_hit: false,
                            in_l4: fill,
                        });
                    }
                }
                Leg::CacheData | Leg::PostedWrite => {}
            }
        }
        self.engine.finish_tick(completions, out);
    }
}

macro_rules! delegate_l4 {
    ($ty:ty) => {
        impl L4Cache for $ty {
            fn submit_read(&mut self, line: u64, _pc: u64, _core: u32, now: Cycle) {
                self.inner.submit_read(line, now);
            }

            fn submit_writeback(&mut self, line: u64, _dcp_hint: Option<bool>, now: Cycle) {
                // SRAM-tag designs never need DCP: presence is known
                // on-chip. Outputs are routed through a scratch buffer
                // because the trait splits submit and tick; evictions are
                // re-emitted on the next tick.
                let mut scratch = L4Outputs::default();
                self.inner.submit_writeback(line, now, &mut scratch);
                self.inner
                    .pending_evictions
                    .extend(scratch.evictions.drain(..));
            }

            fn submit_direct_mem_write(&mut self, line: u64, now: Cycle) {
                self.inner.engine.direct_mem_write(line, now);
            }

            fn tick(&mut self, now: Cycle, out: &mut L4Outputs) {
                out.evictions.append(&mut self.inner.pending_evictions);
                self.inner.tick(now, out);
            }

            fn stats(&self) -> &L4Stats {
                &self.inner.engine.stats
            }

            fn reset_stats(&mut self) {
                self.inner.engine.reset_stats();
            }

            fn harness(&self) -> &DeviceHarness {
                &self.inner.engine.harness
            }

            fn harness_mut(&mut self) -> &mut DeviceHarness {
                &mut self.inner.engine.harness
            }

            fn pending_txns(&self) -> usize {
                self.inner.reads.len()
            }

            fn controller_idle_until(&self, now: Cycle) -> Cycle {
                // The deferred-eviction backlog is the only non-device
                // work and flushes at the start of the next tick; with it
                // empty the controller waits on completions.
                if self.inner.pending_evictions.is_empty() {
                    Cycle::NEVER
                } else {
                    now
                }
            }

            fn contains_line(&self, line: u64) -> Option<bool> {
                Some(match &self.inner.tags {
                    TagModel::Tis(t) => t.contains(line * 64),
                    TagModel::Sector(s) => s.peek(line * 64) == SectorProbe::BlockHit,
                })
            }

            fn set_observe(&mut self, on: bool) {
                self.inner.engine.set_observe(on);
            }
        }
    };
}

delegate_l4!(TisController);
delegate_l4!(SectorController);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BearFeatures, FillPolicy};

    fn tis() -> TisController {
        TisController::new(&SystemConfig::paper_baseline(DesignKind::TagsInSram))
    }

    fn sc() -> SectorController {
        SectorController::new(&SystemConfig::paper_baseline(DesignKind::SectorCache))
    }

    fn drain(ctrl: &mut dyn L4Cache, out: &mut L4Outputs, start: u64) -> u64 {
        let mut t = start;
        while ctrl.pending_txns() > 0 || ctrl.harness().pending() > 0 {
            ctrl.tick(Cycle(t), out);
            t += 1;
            assert!(t < start + 200_000, "did not drain");
        }
        t
    }

    #[test]
    fn tis_hit_moves_64_bytes_no_probe_traffic() {
        let mut c = tis();
        let mut out = L4Outputs::default();
        c.submit_read(0x50, 0, 0, Cycle(0));
        let t = drain(&mut c, &mut out, 0);
        c.submit_read(0x50, 0, 0, Cycle(t));
        drain(&mut c, &mut out, t);
        assert_eq!(c.stats().read_hits, 1);
        let h = c.harness();
        assert_eq!(h.cache.bytes_in_class(BloatCategory::Hit.class()), 64);
        assert_eq!(h.cache.bytes_in_class(BloatCategory::MissProbe.class()), 0);
        assert_eq!(h.cache.bytes_in_class(BloatCategory::MissFill.class()), 64);
    }

    #[test]
    fn tis_writeback_updates_without_probe() {
        let mut c = tis();
        let mut out = L4Outputs::default();
        c.submit_read(0x60, 0, 0, Cycle(0));
        let t = drain(&mut c, &mut out, 0);
        c.submit_writeback(0x60, None, Cycle(t));
        drain(&mut c, &mut out, t);
        assert_eq!(c.stats().wb_hits, 1);
        let h = c.harness();
        assert_eq!(
            h.cache
                .bytes_in_class(BloatCategory::WritebackProbe.class()),
            0
        );
        assert_eq!(
            h.cache
                .bytes_in_class(BloatCategory::WritebackUpdate.class()),
            64
        );
    }

    #[test]
    fn tis_dirty_victim_charged_as_victim_read() {
        let mut c = tis();
        let sets = (c.inner_capacity_lines()) / 32;
        let mut out = L4Outputs::default();
        let mut t = 0;
        // Fill one set with 32 dirty lines then overflow it.
        for w in 0..33u64 {
            c.submit_writeback(5 + w * sets, None, Cycle(t));
            t = drain(&mut c, &mut out, t);
        }
        assert!(c.stats().evictions >= 1);
        let h = c.harness();
        assert!(h.cache.bytes_in_class(BloatCategory::VictimRead.class()) >= 64);
        assert!(h.mem.bytes_in_class(MemTraffic::VictimWrite.class()) >= 64);
    }

    #[test]
    fn sector_block_states_drive_traffic() {
        let mut c = sc();
        let mut out = L4Outputs::default();
        // Block 0 of a fresh sector: sector miss.
        c.submit_read(0x100, 0, 0, Cycle(0));
        let t = drain(&mut c, &mut out, 0);
        // Block 1 of the same sector: block miss (fetch from memory).
        c.submit_read(0x101, 0, 0, Cycle(t));
        let t = drain(&mut c, &mut out, t);
        // Block 0 again: hit.
        c.submit_read(0x100, 0, 0, Cycle(t));
        drain(&mut c, &mut out, t);
        let s = c.stats();
        assert_eq!(s.read_lookups, 3);
        assert_eq!(s.read_hits, 1);
        assert_eq!(
            c.harness().cache.bytes_in_class(BloatCategory::Hit.class()),
            64
        );
    }

    #[test]
    fn sector_eviction_floods_dirty_blocks() {
        let mut c = sc();
        let mut out = L4Outputs::default();
        let sector_sets = {
            // capacity / (32 ways × 4096 B sector)
            let cfg = SystemConfig::paper_baseline(DesignKind::SectorCache);
            cfg.l4_capacity() / (32 * 4096)
        };
        let mut t = 0;
        // Dirty 8 blocks of one victim-to-be sector.
        for b in 0..8u64 {
            c.submit_writeback(0x100 + b, None, Cycle(t));
            t = drain(&mut c, &mut out, t);
        }
        // Thrash the set with 32 more sectors mapping to the same set.
        let sector_lines = 4096 / 64;
        for w in 1..=32u64 {
            let line = 0x100 + w * sector_sets * sector_lines;
            c.submit_read(line, 0, 0, Cycle(t));
            t = drain(&mut c, &mut out, t);
        }
        // The dirtied sector must eventually flood 8 victim reads.
        assert!(
            c.harness()
                .cache
                .bytes_in_class(BloatCategory::VictimRead.class())
                >= 8 * 64,
            "dirty sector eviction must read all dirty blocks"
        );
    }

    #[test]
    fn bypassing_stack_composes_with_sram_tags() {
        // Same controller, bypassing stack: demand misses stay out of the
        // tag store and deliveries report absence.
        let mut cfg = SystemConfig::paper_baseline(DesignKind::TagsInSram);
        cfg.bear = BearFeatures {
            fill_policy: FillPolicy::Probabilistic(1.0),
            ..cfg.bear
        };
        let mut c = TisController::new(&cfg);
        let mut out = L4Outputs::default();
        c.submit_read(0x50, 0, 0, Cycle(0));
        drain(&mut c, &mut out, 0);
        assert_eq!(c.stats().bypasses, 1);
        assert_eq!(c.stats().fills, 0);
        assert_eq!(c.contains_line(0x50), Some(false));
        assert!(!out.deliveries[0].in_l4);
    }

    impl TisController {
        fn inner_capacity_lines(&self) -> u64 {
            match &self.inner.tags {
                TagModel::Tis(t) => t.geometry().lines(),
                TagModel::Sector(_) => unreachable!(),
            }
        }
    }
}
