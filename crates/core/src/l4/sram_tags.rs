//! Tags-in-SRAM designs (Section 8): the idealized TIS cache and the
//! Sector Cache, one controller whose tag model picks the design.
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
//! organizations too (the paper-default stack is always-fill).

use crate::config::{DesignKind, SystemConfig};
use crate::events::{FillCause, ObsEvent};
use crate::l4::engine::Engine;
use crate::l4::placement::SetPlacement;
use crate::l4::stack::TechniqueStack;
use crate::l4::{L4Cache, L4Outputs, LINE_BEATS};
use crate::traffic::BloatCategory;
use bear_cache::{CacheGeometry, SectorProbe, SectorTagStore, SetAssocCache};
use bear_sim::time::Cycle;

/// The on-chip tags, which decide the design.
#[derive(Debug)]
enum TagModel {
    /// Tags-in-SRAM: 32-way, one tag per 64 B line.
    Tis(SetAssocCache<()>),
    /// Sector Cache: 32-way, one tag per 4 KB sector of 64 B blocks.
    Sector(SectorTagStore),
}

/// Controller for Tags-in-SRAM (`DesignKind::TagsInSram`) and the Sector
/// Cache (`DesignKind::SectorCache`).
#[derive(Debug)]
pub struct SramTagController {
    tags: TagModel,
    placement: SetPlacement,
    /// Shared transaction skeleton + technique stack.
    engine: Engine,
}

impl SramTagController {
    /// Builds the controller.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.design` is not `TagsInSram` or `SectorCache`, or
    /// the capacity is not a whole number of tag sets.
    pub fn new(cfg: &SystemConfig) -> Self {
        let tags = match cfg.design {
            DesignKind::TagsInSram => TagModel::Tis(SetAssocCache::new(CacheGeometry::new(
                cfg.l4_capacity(),
                32,
                64,
            ))),
            DesignKind::SectorCache => {
                TagModel::Sector(SectorTagStore::new(cfg.l4_capacity(), 32, 4096, 64))
            }
            other => panic!("SramTagController built for {other:?}"),
        };
        // Data-only rows: 32 lines of 64 B per 2 KB row, striped row by
        // row in line order.
        let placement = SetPlacement::new(cfg.cache_dram.topology, 32);
        let stack = TechniqueStack::from_config(cfg, placement.total_banks());
        SramTagController {
            tags,
            placement,
            engine: Engine::new(cfg, stack),
        }
    }

    /// Tag-model set index for `line`, used as the bypass-duel group key.
    fn duel_set(&self, line: u64) -> u64 {
        match &self.tags {
            TagModel::Tis(t) => line % t.geometry().sets().max(1),
            TagModel::Sector(s) => (line * 64 / 4096) % s.sets().max(1),
        }
    }

    /// Evicts `line`; a dirty one is read out and written to memory.
    fn evict(&mut self, line: u64, dirty: bool, now: Cycle) {
        self.engine.evict(line, dirty);
        if dirty {
            let loc = self.placement.locate(line);
            self.engine.write_back_victim(line, Some(loc), now);
        }
    }

    /// Installs `line`, evicting what it displaces.
    fn install(&mut self, line: u64, dirty: bool, now: Cycle) {
        match &mut self.tags {
            TagModel::Tis(t) => {
                if let Some(v) = t.fill(line * 64, dirty, ()) {
                    self.evict(v.addr / 64, v.dirty, now);
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
                        // Every valid block of the victim sector leaves
                        // the cache, and every dirty one is read out and
                        // pushed to memory — the SC's Achilles heel.
                        let first_vline = v.addr / 64;
                        for i in (0..64).filter(|i| (v.valid >> i) & 1 != 0) {
                            self.evict(first_vline + i, (v.dirty >> i) & 1 != 0, now);
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
}

impl L4Cache for SramTagController {
    fn engine(&self) -> &Engine {
        &self.engine
    }

    fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    fn submit_read(&mut self, line: u64, _pc: u64, _core: u32, now: Cycle) {
        self.engine.stats.read_lookups += 1;
        let hit = match &mut self.tags {
            TagModel::Tis(t) => t.access(line * 64, false).is_some(),
            TagModel::Sector(s) => s.probe(line * 64) == SectorProbe::BlockHit,
        };
        self.engine.emit(ObsEvent::ReadClassified { line, hit });
        let hit_at = hit.then(|| (self.placement.locate(line), LINE_BEATS));
        self.engine.issue_read(line, now, hit_at, now);
    }

    fn submit_writeback(&mut self, line: u64, _dcp_hint: Option<bool>, now: Cycle) {
        // SRAM-tag designs never need DCP: presence is known on-chip.
        self.engine.stats.wb_lookups += 1;
        let hit = self.contains_line(line);
        self.engine.emit(ObsEvent::WbResolved {
            line,
            hit,
            probe_skipped: true, // on-chip tags: presence known without probing
            allocated: !hit,
        });
        let class = if hit {
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
            BloatCategory::WritebackUpdate
        } else {
            // Write-allocate.
            self.install(line, true, now);
            BloatCategory::WritebackFill
        };
        self.engine.harness.cache_write(
            self.placement.locate(line),
            LINE_BEATS,
            class.class(),
            now,
        );
    }

    fn tick(&mut self, now: Cycle, out: &mut L4Outputs) {
        let completions = self.engine.begin_tick(now);
        for c in &completions {
            let Some(txn) = self.engine.finish_read(c, out) else {
                continue;
            };
            if !txn.expect_hit
                && self.engine.fill_or_bypass(
                    txn.line,
                    txn.arrival,
                    c.finish,
                    self.duel_set(txn.line),
                    out,
                )
            {
                self.install(txn.line, false, c.finish);
                self.engine.harness.cache_write(
                    self.placement.locate(txn.line),
                    LINE_BEATS,
                    BloatCategory::MissFill.class(),
                    c.finish,
                );
            }
        }
        self.engine.finish_tick(completions, out);
    }

    fn contains_line(&self, line: u64) -> bool {
        match &self.tags {
            TagModel::Tis(t) => t.contains(line * 64),
            TagModel::Sector(s) => s.peek(line * 64) == SectorProbe::BlockHit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BearFeatures, FillPolicy};
    use crate::traffic::MemTraffic;

    fn tis() -> SramTagController {
        SramTagController::new(&SystemConfig::paper_baseline(DesignKind::TagsInSram))
    }

    fn sc() -> SramTagController {
        SramTagController::new(&SystemConfig::paper_baseline(DesignKind::SectorCache))
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
        let TagModel::Tis(t) = &c.tags else {
            unreachable!()
        };
        let sets = t.geometry().sets();
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
    fn sector_victim_reports_exactly_its_valid_blocks() {
        // A dirty writeback of line 5 (block 5 of sector 0), then 32
        // sector fills of the same set: the victim is sector 0, which
        // holds block 5 alone.
        let mut c = sc();
        c.set_observe(true);
        let mut out = L4Outputs::default();
        let stride = SystemConfig::paper_baseline(DesignKind::SectorCache).l4_lines() / 32;
        c.submit_writeback(5, None, Cycle(0));
        let mut t = drain(&mut c, &mut out, 0);
        for w in 1..=32u64 {
            c.submit_read(w * stride, 0, 0, Cycle(t));
            t = drain(&mut c, &mut out, t);
        }
        assert_eq!(out.evictions, vec![5]);
        let evicted: Vec<_> = out
            .events
            .iter()
            .filter(|e| matches!(e, ObsEvent::Evicted { .. }))
            .collect();
        assert_eq!(
            evicted,
            [&ObsEvent::Evicted {
                line: 5,
                dirty: true
            }]
        );
        let h = c.harness();
        assert_eq!(
            h.cache.bytes_in_class(BloatCategory::VictimRead.class()),
            64
        );
        assert_eq!(h.mem.bytes_in_class(MemTraffic::VictimWrite.class()), 64);
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
        let mut c = SramTagController::new(&cfg);
        let mut out = L4Outputs::default();
        c.submit_read(0x50, 0, 0, Cycle(0));
        drain(&mut c, &mut out, 0);
        assert_eq!(c.stats().bypasses, 1);
        assert_eq!(c.stats().fills, 0);
        assert!(!c.contains_line(0x50));
        assert!(!out.deliveries[0].in_l4);
    }
}
