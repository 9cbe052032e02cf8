//! Loh-Hill cache and its Mostly-Clean extension.
//!
//! The Loh-Hill design stores a 29-way set in each 2 KB DRAM row: the first
//! three lines hold the 29 tags, the rest the data. An on-chip MissMap
//! tracks presence exactly, so misses never probe the DRAM cache — at the
//! price of adding the LLC's 24-cycle latency to every request. A hit
//! transfers the 3 tag lines plus the data line (256 B). The Mostly-Clean
//! variant drops the MissMap latency (the paper models it as a perfect
//! hit/miss predictor with self-balancing dispatch).
//!
//! Built on the shared [`Engine`]: this file keeps only the MissMap
//! front-end, the staged-latency queue, and the row-associative hit/miss
//! policy. Demand fills consult the technique stack's fill hook, so
//! Bandwidth-Aware Bypass composes with this organization too (the
//! paper-default Loh-Hill stack is always-fill, which leaves behavior
//! bit-identical to the pre-engine controller).

use crate::config::{DesignKind, SystemConfig};
use crate::events::{FillCause, ObsEvent};
use crate::harness::{DeviceHarness, Leg};
use crate::l4::engine::Engine;
use crate::l4::placement::SetPlacement;
use crate::l4::stack::TechniqueStack;
use crate::l4::{Delivery, L4Cache, L4Outputs, L4Stats};
use crate::traffic::{BloatCategory, MemTraffic};
use bear_cache::{CacheGeometry, MissMap, SetAssocCache};
use bear_dram::request::DramLocation;
use bear_sim::time::Cycle;
use std::collections::{HashMap, VecDeque};

/// Ways per Loh-Hill set (per 2 KB row).
const WAYS: u32 = 29;
/// Beats of a hit access: 3 tag lines + 1 data line = 256 B.
const HIT_BEATS: u64 = 16;
/// Beats of a tag-group read: 192 B.
const TAG_BEATS: u64 = 12;
/// Beats of a data-line transfer: 64 B.
const DATA_BEATS: u64 = 4;
/// Beats of a combined tag+data write: 80 B.
const FILL_BEATS: u64 = 5;
/// Beats of an LRU-state update write.
const LRU_BEATS: u64 = 1;

#[derive(Debug, Clone, Copy)]
enum Staged {
    Read { line: u64, submitted: Cycle },
    Writeback { line: u64 },
}

#[derive(Debug, Clone, Copy)]
struct ReadTxn {
    line: u64,
    arrival: Cycle,
    expect_hit: bool,
}

/// Controller for Loh-Hill (`DesignKind::LohHill`) and Mostly-Clean
/// (`DesignKind::MostlyClean`).
#[derive(Debug)]
pub struct LohHillController {
    /// The in-DRAM tags: one 29-way LRU set per row, addressed by byte
    /// address (`line * 64`).
    store: SetAssocCache<()>,
    missmap: MissMap,
    placement: SetPlacement,
    /// Shared transaction skeleton + technique stack.
    pub engine: Engine,
    /// Extra lookup latency in CPU cycles (24 for LH, 0 for MC).
    front_latency: u64,
    staged: VecDeque<(Cycle, Staged)>,
    reads: HashMap<u64, ReadTxn>,
}

impl LohHillController {
    /// Builds the controller.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.design` is not `LohHill` or `MostlyClean`.
    pub fn new(cfg: &SystemConfig) -> Self {
        let front_latency = match cfg.design {
            DesignKind::LohHill => cfg.l3_latency,
            DesignKind::MostlyClean => 0,
            other => panic!("LohHillController built for {other:?}"),
        };
        let sets = cfg.l4_capacity() / 2048;
        let placement = SetPlacement::new(cfg.cache_dram.topology, 1);
        let stack = TechniqueStack::from_config(cfg, placement.total_banks());
        LohHillController {
            store: SetAssocCache::new(CacheGeometry::new(sets.max(1) * WAYS as u64 * 64, WAYS, 64)),
            missmap: MissMap::new(),
            placement,
            engine: Engine::new(cfg, stack),
            front_latency,
            staged: VecDeque::new(),
            reads: HashMap::new(),
        }
    }

    /// The row-set holding `line`.
    fn set_of(&self, line: u64) -> u64 {
        self.store.geometry().decompose(line * 64).0
    }

    fn locate(&self, line: u64) -> DramLocation {
        self.placement.locate(self.set_of(line))
    }

    /// Fills `line` (dirty or clean): writes tag+data, reads out a dirty
    /// victim's data, and keeps the MissMap current. Victim selection uses
    /// the tag state already held by the row's most recent access; only
    /// dirty-victim data transfer costs bus bandwidth.
    fn do_fill(
        &mut self,
        line: u64,
        dirty: bool,
        class: BloatCategory,
        now: Cycle,
        out: &mut L4Outputs,
    ) {
        let loc = self.locate(line);
        let victim = self
            .store
            .fill(line * 64, dirty, ())
            .map(|v| (v.addr / 64, v.dirty));
        self.missmap.insert(line * 64);
        if let Some((vline, vdirty)) = victim {
            self.engine.emit(ObsEvent::Evicted {
                line: vline,
                dirty: vdirty,
            });
        }
        self.engine.emit(ObsEvent::Filled {
            line,
            dirty,
            // Demand fills install clean; only writeback-allocate dirty.
            cause: if dirty {
                FillCause::Writeback
            } else {
                FillCause::Demand
            },
        });
        let t = self.engine.alloc_txn();
        self.engine
            .harness
            .cache_write(t, loc, FILL_BEATS, class.class(), now);
        if let Some((vline, vdirty)) = victim {
            self.engine.stats.evictions += 1;
            self.missmap.remove(vline * 64);
            out.evictions.push(vline);
            if vdirty {
                let t = self.engine.alloc_txn();
                self.engine.harness.cache_read(
                    t,
                    Leg::CacheData,
                    loc,
                    DATA_BEATS,
                    BloatCategory::VictimRead.class(),
                    now,
                );
                let t = self.engine.alloc_txn();
                self.engine
                    .harness
                    .mem_write(t, vline, MemTraffic::VictimWrite.class(), now);
            }
        }
    }

    fn process(&mut self, staged: Staged, now: Cycle, out: &mut L4Outputs) {
        match staged {
            Staged::Read { line, submitted } => {
                let txn = self.engine.alloc_txn();
                let hit = self.missmap.contains(line * 64);
                self.engine.emit(ObsEvent::ReadClassified { line, hit });
                if hit {
                    // Known hit: one row access returns tags + data.
                    self.reads.insert(
                        txn,
                        ReadTxn {
                            line,
                            arrival: submitted,
                            expect_hit: true,
                        },
                    );
                    self.engine.harness.cache_read(
                        txn,
                        Leg::CacheProbe,
                        self.locate(line),
                        HIT_BEATS,
                        BloatCategory::Hit.class(),
                        now,
                    );
                } else {
                    // Known miss: dispatch straight to memory.
                    self.reads.insert(
                        txn,
                        ReadTxn {
                            line,
                            arrival: submitted,
                            expect_hit: false,
                        },
                    );
                    self.engine
                        .harness
                        .mem_read(txn, line, MemTraffic::DemandRead.class(), now);
                }
            }
            Staged::Writeback { line } => {
                let hit = self.missmap.contains(line * 64);
                self.engine.emit(ObsEvent::WbResolved {
                    line,
                    hit,
                    // The MissMap resolves presence exactly on-chip; the
                    // tag-group read is way discovery, not a probe of
                    // uncertain outcome.
                    probe_skipped: true,
                    allocated: !hit,
                });
                if hit {
                    self.engine.stats.wb_hits += 1;
                    // Way discovery: read the tag group; then write data +
                    // tag/LRU state.
                    let loc = self.locate(line);
                    let t = self.engine.alloc_txn();
                    self.engine.harness.cache_read(
                        t,
                        Leg::CacheData,
                        loc,
                        TAG_BEATS,
                        BloatCategory::WritebackProbe.class(),
                        now,
                    );
                    self.store.access(line * 64, true);
                    let t = self.engine.alloc_txn();
                    self.engine.harness.cache_write(
                        t,
                        loc,
                        FILL_BEATS,
                        BloatCategory::WritebackUpdate.class(),
                        now,
                    );
                } else {
                    // Write-allocate path.
                    self.do_fill(line, true, BloatCategory::WritebackFill, now, out);
                }
            }
        }
    }

    fn on_gating_completion(&mut self, txn_id: u64, finish: Cycle, out: &mut L4Outputs) {
        let Some(txn) = self.reads.remove(&txn_id) else {
            // Fill-stage / victim reads complete silently.
            return;
        };
        if txn.expect_hit {
            self.engine.stats.read_hits += 1;
            self.engine.stats.useful_lines += 1;
            self.engine
                .stats
                .hit_latency
                .record((finish - txn.arrival) as f64);
            // LRU promotion written back to the in-DRAM tag state
            // (footnote 3's replacement-update bloat).
            self.store.access(txn.line * 64, false);
            let t = self.engine.alloc_txn();
            self.engine.harness.cache_write(
                t,
                self.locate(txn.line),
                LRU_BEATS,
                BloatCategory::LruUpdate.class(),
                finish,
            );
            out.deliveries.push(Delivery {
                line: txn.line,
                l4_hit: true,
                in_l4: true,
            });
        } else {
            self.engine
                .stats
                .miss_latency
                .record((finish - txn.arrival) as f64);
            let set = self.set_of(txn.line);
            let fill = self.engine.stack.on_fill_decision(set);
            if fill {
                self.do_fill(txn.line, false, BloatCategory::MissFill, finish, out);
                self.engine.stats.fills += 1;
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
}

impl L4Cache for LohHillController {
    fn submit_read(&mut self, line: u64, _pc: u64, _core: u32, now: Cycle) {
        self.engine.stats.read_lookups += 1;
        self.staged.push_back((
            now + self.front_latency,
            Staged::Read {
                line,
                submitted: now,
            },
        ));
    }

    fn submit_writeback(&mut self, line: u64, _dcp_hint: Option<bool>, now: Cycle) {
        self.engine.stats.wb_lookups += 1;
        self.staged
            .push_back((now + self.front_latency, Staged::Writeback { line }));
    }

    fn submit_direct_mem_write(&mut self, line: u64, now: Cycle) {
        self.engine.direct_mem_write(line, now);
    }

    fn tick(&mut self, now: Cycle, out: &mut L4Outputs) {
        while matches!(self.staged.front(), Some((ready, _)) if *ready <= now) {
            let (_, staged) = self.staged.pop_front().expect("front checked");
            self.process(staged, now, out);
        }
        let completions = self.engine.begin_tick(now);
        for c in &completions {
            match c.leg {
                Leg::CacheProbe | Leg::MemRead => self.on_gating_completion(c.txn, c.finish, out),
                Leg::CacheData | Leg::PostedWrite => {}
            }
        }
        self.engine.finish_tick(completions, out);
    }

    fn stats(&self) -> &L4Stats {
        &self.engine.stats
    }

    fn reset_stats(&mut self) {
        self.engine.reset_stats();
    }

    fn harness(&self) -> &DeviceHarness {
        &self.engine.harness
    }

    fn harness_mut(&mut self) -> &mut DeviceHarness {
        &mut self.engine.harness
    }

    fn pending_txns(&self) -> usize {
        self.reads.len() + self.staged.len()
    }

    fn controller_idle_until(&self, now: Cycle) -> Cycle {
        // Only the staged delay queue can act without a device completion.
        // It is FIFO with a constant latency, so the front entry carries
        // the earliest ready time.
        match self.staged.front() {
            Some((ready, _)) => (*ready).max(now),
            None => Cycle::NEVER,
        }
    }

    fn contains_line(&self, line: u64) -> Option<bool> {
        Some(self.store.contains(line * 64))
    }

    fn set_observe(&mut self, on: bool) {
        self.engine.set_observe(on);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BearFeatures, FillPolicy};

    fn controller(design: DesignKind) -> LohHillController {
        LohHillController::new(&SystemConfig::paper_baseline(design))
    }

    /// Removes `line` from the store, returning its dirty bit if present.
    fn take_dirty(ctrl: &mut LohHillController, line: u64) -> Option<bool> {
        ctrl.store.invalidate(line * 64).map(|v| v.dirty)
    }

    fn drain(ctrl: &mut LohHillController, out: &mut L4Outputs, start: u64) -> u64 {
        let mut t = start;
        while ctrl.pending_txns() > 0 || ctrl.engine.harness.pending() > 0 {
            ctrl.tick(Cycle(t), out);
            t += 1;
            assert!(t < start + 200_000, "did not drain");
        }
        t
    }

    #[test]
    fn miss_skips_cache_and_fills() {
        let mut ctrl = controller(DesignKind::LohHill);
        let mut out = L4Outputs::default();
        ctrl.submit_read(0x40, 0, 0, Cycle(0));
        drain(&mut ctrl, &mut out, 0);
        assert_eq!(out.deliveries.len(), 1);
        assert!(!out.deliveries[0].l4_hit);
        assert!(ctrl.store.contains(0x40 * 64));
        // Fill charged a tag+data write on the cache bus.
        let fill_bytes = ctrl
            .engine
            .harness
            .cache
            .bytes_in_class(BloatCategory::MissFill.class());
        assert_eq!(fill_bytes, 80);
    }

    #[test]
    fn hit_transfers_256_bytes_plus_lru_update() {
        let mut ctrl = controller(DesignKind::LohHill);
        let mut out = L4Outputs::default();
        ctrl.submit_read(0x40, 0, 0, Cycle(0));
        let t = drain(&mut ctrl, &mut out, 0);
        ctrl.submit_read(0x40, 0, 0, Cycle(t));
        drain(&mut ctrl, &mut out, t);
        assert_eq!(ctrl.stats().read_hits, 1);
        assert_eq!(
            ctrl.engine
                .harness
                .cache
                .bytes_in_class(BloatCategory::Hit.class()),
            256
        );
        assert_eq!(
            ctrl.engine
                .harness
                .cache
                .bytes_in_class(BloatCategory::LruUpdate.class()),
            16
        );
    }

    #[test]
    fn lh_adds_front_latency_over_mc() {
        let mut lh = controller(DesignKind::LohHill);
        let mut mc = controller(DesignKind::MostlyClean);
        let mut out = L4Outputs::default();
        lh.submit_read(0x40, 0, 0, Cycle(0));
        mc.submit_read(0x40, 0, 0, Cycle(0));
        drain(&mut lh, &mut out, 0);
        drain(&mut mc, &mut out, 0);
        let lh_lat = lh.stats().miss_latency.mean();
        let mc_lat = mc.stats().miss_latency.mean();
        assert!(
            lh_lat >= mc_lat + 20.0,
            "LH {lh_lat} should exceed MC {mc_lat} by ~24"
        );
    }

    #[test]
    fn writeback_hit_updates_without_missmap_miss() {
        let mut ctrl = controller(DesignKind::MostlyClean);
        let mut out = L4Outputs::default();
        ctrl.submit_read(0x99, 0, 0, Cycle(0));
        let t = drain(&mut ctrl, &mut out, 0);
        ctrl.submit_writeback(0x99, None, Cycle(t));
        drain(&mut ctrl, &mut out, t);
        assert_eq!(ctrl.stats().wb_hits, 1);
        assert_eq!(take_dirty(&mut ctrl, 0x99), Some(true));
        assert!(
            ctrl.engine
                .harness
                .cache
                .bytes_in_class(BloatCategory::WritebackUpdate.class())
                > 0
        );
    }

    #[test]
    fn writeback_miss_allocates() {
        let mut ctrl = controller(DesignKind::MostlyClean);
        let mut out = L4Outputs::default();
        ctrl.submit_writeback(0x123, None, Cycle(0));
        drain(&mut ctrl, &mut out, 0);
        assert!(ctrl.store.contains(0x123 * 64));
        assert_eq!(take_dirty(&mut ctrl, 0x123), Some(true));
        assert!(
            ctrl.engine
                .harness
                .cache
                .bytes_in_class(BloatCategory::WritebackFill.class())
                > 0
        );
    }

    #[test]
    fn dirty_victim_read_out_and_written_to_memory() {
        let mut ctrl = controller(DesignKind::MostlyClean);
        let sets = ctrl.store.geometry().sets();
        let mut out = L4Outputs::default();
        // Fill one set completely with dirty lines, then overflow it.
        let mut t = 0;
        for w in 0..=WAYS as u64 {
            ctrl.submit_writeback(7 + w * sets, None, Cycle(t));
            t = drain(&mut ctrl, &mut out, t);
        }
        assert!(ctrl.stats().evictions >= 1);
        assert!(!out.evictions.is_empty());
        assert!(
            ctrl.engine
                .harness
                .cache
                .bytes_in_class(BloatCategory::VictimRead.class())
                >= 64
        );
        assert!(
            ctrl.engine
                .harness
                .mem
                .bytes_in_class(MemTraffic::VictimWrite.class())
                >= 64
        );
    }

    #[test]
    fn missmap_stays_consistent_with_store() {
        let mut ctrl = controller(DesignKind::MostlyClean);
        let sets = ctrl.store.geometry().sets();
        let mut out = L4Outputs::default();
        let mut t = 0;
        for w in 0..=WAYS as u64 {
            ctrl.submit_read(3 + w * sets, 0, 0, Cycle(t));
            t = drain(&mut ctrl, &mut out, t);
        }
        // One line was evicted; MissMap must reflect exactly the store.
        for w in 0..=WAYS as u64 {
            let line = 3 + w * sets;
            assert_eq!(
                ctrl.missmap.contains(line * 64),
                ctrl.store.contains(line * 64),
                "line {line}"
            );
        }
    }

    #[test]
    fn bypassing_stack_composes_with_loh_hill() {
        // A degenerate probabilistic-bypass stack (p = 1.0) must keep every
        // demand miss out of the cache while the paper-default always-fill
        // stack installs it — same controller, different stack.
        let mut cfg = SystemConfig::paper_baseline(DesignKind::MostlyClean);
        cfg.bear = BearFeatures {
            fill_policy: FillPolicy::Probabilistic(1.0),
            ..cfg.bear
        };
        let mut ctrl = LohHillController::new(&cfg);
        let mut out = L4Outputs::default();
        ctrl.submit_read(0x77, 0, 0, Cycle(0));
        drain(&mut ctrl, &mut out, 0);
        assert_eq!(ctrl.stats().bypasses, 1);
        assert_eq!(ctrl.stats().fills, 0);
        assert!(!ctrl.store.contains(0x77 * 64));
        assert_eq!(out.deliveries.len(), 1);
        assert!(!out.deliveries[0].in_l4);
    }
}
