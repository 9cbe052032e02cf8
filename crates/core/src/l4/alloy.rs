//! The Alloy Cache family: baseline Alloy, BEAR (BAB/DCP/NTC), inclusive
//! Alloy, and the idealized Bandwidth-Optimized cache.
//!
//! Baseline demand flow (Section 2): a MAP-I prediction chooses between a
//! serialized cache probe (predicted hit) and a probe issued in parallel
//! with the memory access (predicted miss). The probe is a 5-beat TAD read;
//! on a tag match the data within the TAD services the request (Hit Probe),
//! otherwise memory data services it (Miss Probe) and, policy permitting,
//! the line is filled (Miss Fill). Writebacks probe before updating
//! (Writeback Probe / Update / Fill).
//!
//! All BEAR technique logic (BAB, DCP, NTC, and the MAP-I predictor)
//! reaches this controller through [`TechniqueStack`] hooks on the shared
//! [`Engine`]; the controller itself owns only the direct-mapped
//! organization — placement, the tag store, and the probe/fill/writeback
//! routing.

use crate::config::{DesignKind, SystemConfig};
use crate::contents::DirectStore;
use crate::events::{FillCause, ObsEvent};
use crate::harness::{DeviceHarness, Leg};
use crate::l4::engine::{Engine, TxnTable};
use crate::l4::placement::SetPlacement;
use crate::l4::stack::TechniqueStack;
use crate::l4::{ControllerProbe, Delivery, L4Cache, L4Outputs, L4Stats};
use crate::traffic::{BloatCategory, MemTraffic};
use bear_sim::faultinject::FaultKind;
use bear_sim::invariants::InvariantSink;
use bear_sim::time::Cycle;

/// Beats per TAD transfer (80 B on a 16 B bus).
const TAD_BEATS: u64 = 5;
/// Beats per bare-line transfer (64 B).
const LINE_BEATS: u64 = 4;

#[derive(Debug, Clone, Copy)]
struct ReadTxn {
    line: u64,
    pc: u64,
    core: u32,
    arrival: Cycle,
    probe_outstanding: bool,
    mem_outstanding: bool,
    /// Set when the probe resolved: `Some(true)` hit, `Some(false)` miss.
    probe_hit: Option<bool>,
    mem_done: bool,
    /// Line already delivered (probe hit with a parallel access pending).
    delivered: bool,
    /// NTC guaranteed absence with a clean victim: no probe issued.
    ntc_skip: bool,
}

#[derive(Debug, Clone, Copy)]
struct WbTxn {
    line: u64,
}

/// An in-flight transaction of either flavor. Reads and writebacks share
/// one [`TxnTable`] so a probe completion can be routed by matching the
/// variant — a slot id alone could alias across two separate tables.
#[derive(Debug, Clone, Copy)]
enum Txn {
    Read(ReadTxn),
    Wb(WbTxn),
}

/// Controller for the Alloy family.
#[derive(Debug)]
pub struct AlloyController {
    design: DesignKind,
    store: DirectStore,
    placement: SetPlacement,
    /// Shared transaction skeleton: devices, stats, technique stack,
    /// txn ids, and observation staging. Public so tests and harness
    /// tooling can reach devices and techniques directly.
    pub engine: Engine,
    writeback_allocate: bool,
    /// In-flight demand reads and writeback probes, arena-indexed. Ids
    /// come from the table (deterministic slot + generation), not from
    /// [`Engine::alloc_txn`], which remains the source for fire-and-forget
    /// posted-write legs that are never routed back.
    txns: TxnTable<Txn>,
}

impl AlloyController {
    /// Builds the controller for an Alloy-family `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.design` is not in the Alloy family or fails
    /// validation.
    pub fn new(cfg: &SystemConfig) -> Self {
        assert!(
            matches!(
                cfg.design,
                DesignKind::Alloy | DesignKind::InclusiveAlloy | DesignKind::BwOpt
            ),
            "AlloyController built for {:?}",
            cfg.design
        );
        if let Err(e) = cfg.validate() {
            panic!("invalid system configuration: {e}");
        }
        let placement = SetPlacement::alloy(cfg.cache_dram.topology);
        let stack = TechniqueStack::from_config(cfg, placement.total_banks());
        AlloyController {
            design: cfg.design,
            store: DirectStore::new(cfg.l4_lines()),
            placement,
            engine: Engine::new(cfg, stack),
            writeback_allocate: cfg.writeback_allocate,
            txns: TxnTable::new(),
        }
    }

    fn is_ideal(&self) -> bool {
        self.design == DesignKind::BwOpt
    }

    /// Copies out the in-flight read named by `id`, if it is one.
    fn read_txn(&self, id: u64) -> Option<ReadTxn> {
        match self.txns.get(id) {
            Some(Txn::Read(r)) => Some(*r),
            _ => None,
        }
    }

    /// Writes an updated read back into its slot.
    fn store_read(&mut self, id: u64, txn: ReadTxn) {
        if let Some(slot) = self.txns.get_mut(id) {
            *slot = Txn::Read(txn);
        }
    }

    /// Installs `line` after a demand miss, handling the victim.
    fn do_fill(&mut self, line: u64, dirty: bool, now: Cycle, out: &mut L4Outputs) {
        let (set, _) = self.store.decompose(line);
        if let Some((victim_line, victim_dirty)) = self.store.install(line, dirty) {
            self.engine.stats.evictions += 1;
            out.evictions.push(victim_line);
            self.engine.emit(ObsEvent::Evicted {
                line: victim_line,
                dirty: victim_dirty,
            });
            if victim_dirty {
                self.engine.victim_mem_write(victim_line, now);
            }
        }
        self.engine.emit(ObsEvent::Filled {
            line,
            dirty,
            // Alloy demand fills install clean; only writeback-allocate
            // installs dirty.
            cause: if dirty {
                FillCause::Writeback
            } else {
                FillCause::Demand
            },
        });
        self.engine
            .stack
            .on_eviction(&self.placement, &self.store, set);
    }

    fn finish_demand_miss(&mut self, txn_id: u64, txn: ReadTxn, now: Cycle, out: &mut L4Outputs) {
        self.engine
            .stats
            .miss_latency
            .record((now - txn.arrival) as f64);
        let (set, _) = self.store.decompose(txn.line);
        let fill = self.engine.stack.on_fill_decision(set);
        if fill {
            self.engine.stats.fills += 1;
            self.do_fill(txn.line, false, now, out);
            if !self.is_ideal() {
                let wtxn = self.engine.alloc_txn();
                self.engine.harness.cache_write(
                    wtxn,
                    self.placement.locate(set),
                    TAD_BEATS,
                    BloatCategory::MissFill.class(),
                    now,
                );
            }
        } else {
            self.engine.stats.bypasses += 1;
            self.engine.emit(ObsEvent::Bypassed { line: txn.line });
        }
        out.deliveries.push(Delivery {
            line: txn.line,
            l4_hit: false,
            in_l4: fill,
        });
        self.txns.remove(txn_id);
    }

    fn on_probe_complete(&mut self, txn_id: u64, finish: Cycle, out: &mut L4Outputs) {
        let Some(mut txn) = self.read_txn(txn_id) else {
            return;
        };
        txn.probe_outstanding = false;
        let (set, _) = self.store.decompose(txn.line);
        self.engine
            .stack
            .on_tad_transfer(&self.placement, &self.store, set);
        let hit = self.store.contains(txn.line);
        txn.probe_hit = Some(hit);
        self.engine.stack.train(txn.core, txn.pc, set, hit);
        self.engine.emit(ObsEvent::ReadClassified {
            line: txn.line,
            hit,
        });

        if hit {
            self.engine.stats.read_hits += 1;
            self.engine.stats.useful_lines += 1;
            self.engine
                .stats
                .hit_latency
                .record((finish - txn.arrival) as f64);
            out.deliveries.push(Delivery {
                line: txn.line,
                l4_hit: true,
                in_l4: true,
            });
            if txn.mem_outstanding {
                // The parallel access was wasted; keep the txn to absorb
                // the memory completion.
                self.engine.stats.wasted_parallel += 1;
                txn.delivered = true;
                self.store_read(txn_id, txn);
            } else {
                self.txns.remove(txn_id);
            }
            return;
        }

        // Miss: memory data either arrived already, is on its way, or must
        // be requested now (serialized predicted-hit path).
        if txn.mem_done {
            self.finish_demand_miss(txn_id, txn, finish, out);
        } else if txn.mem_outstanding {
            self.store_read(txn_id, txn);
        } else {
            txn.mem_outstanding = true;
            self.engine
                .harness
                .mem_read(txn_id, txn.line, MemTraffic::DemandRead.class(), finish);
            self.store_read(txn_id, txn);
        }
    }

    fn on_mem_complete(&mut self, txn_id: u64, finish: Cycle, out: &mut L4Outputs) {
        let Some(mut txn) = self.read_txn(txn_id) else {
            return;
        };
        txn.mem_outstanding = false;
        txn.mem_done = true;
        if txn.delivered {
            // Wasted parallel access on a probe hit; transaction is done.
            self.txns.remove(txn_id);
            return;
        }
        match txn.probe_hit {
            Some(false) => self.finish_demand_miss(txn_id, txn, finish, out),
            Some(true) => {
                // Probe hit already delivered (handled via `delivered`),
                // defensive path.
                self.txns.remove(txn_id);
            }
            None if txn.ntc_skip => {
                // NTC guaranteed the miss; no probe was ever issued.
                self.finish_demand_miss(txn_id, txn, finish, out);
            }
            None => {
                // Parallel access returned before the probe: wait for it.
                self.store_read(txn_id, txn);
            }
        }
    }

    fn on_wb_probe_complete(&mut self, txn_id: u64, finish: Cycle, out: &mut L4Outputs) {
        let Some(Txn::Wb(txn)) = self.txns.remove(txn_id) else {
            return;
        };
        let (set, _) = self.store.decompose(txn.line);
        self.engine
            .stack
            .on_tad_transfer(&self.placement, &self.store, set);
        let hit = self.store.contains(txn.line);
        self.engine.emit(ObsEvent::WbResolved {
            line: txn.line,
            hit,
            probe_skipped: false,
            allocated: !hit && self.writeback_allocate,
        });
        if hit {
            self.engine.stats.wb_hits += 1;
            self.store.mark_dirty(txn.line);
            self.engine
                .stack
                .on_eviction(&self.placement, &self.store, set);
            let wtxn = self.engine.alloc_txn();
            self.engine.harness.cache_write(
                wtxn,
                self.placement.locate(set),
                TAD_BEATS,
                BloatCategory::WritebackUpdate.class(),
                finish,
            );
        } else if self.writeback_allocate {
            self.do_fill(txn.line, true, finish, out);
            let wtxn = self.engine.alloc_txn();
            self.engine.harness.cache_write(
                wtxn,
                self.placement.locate(set),
                TAD_BEATS,
                BloatCategory::WritebackFill.class(),
                finish,
            );
        } else {
            self.engine.direct_mem_write(txn.line, finish);
        }
    }
}

impl L4Cache for AlloyController {
    fn submit_read(&mut self, line: u64, pc: u64, core: u32, now: Cycle) {
        self.engine.stats.read_lookups += 1;
        let (set, tag) = self.store.decompose(line);

        if self.is_ideal() {
            // BW-Opt: perfect knowledge, 64 B hit transfers, free misses.
            // Hits classify (and record their duel access) at probe
            // completion like every other design; classifying here too
            // would double-count the access.
            let hit = self.store.contains(line);
            if !hit {
                self.engine.stack.record_access(set, hit);
                self.engine.emit(ObsEvent::ReadClassified { line, hit });
            }
            if hit {
                let txn_id = self.txns.insert(Txn::Read(ReadTxn {
                    line,
                    pc,
                    core,
                    arrival: now,
                    probe_outstanding: true,
                    mem_outstanding: false,
                    probe_hit: None,
                    mem_done: false,
                    delivered: false,
                    ntc_skip: false,
                }));
                self.engine.harness.cache_read(
                    txn_id,
                    Leg::CacheProbe,
                    self.placement.locate(set),
                    LINE_BEATS,
                    BloatCategory::Hit.class(),
                    now,
                );
            } else {
                let txn_id = self.txns.insert(Txn::Read(ReadTxn {
                    line,
                    pc,
                    core,
                    arrival: now,
                    probe_outstanding: false,
                    mem_outstanding: true,
                    probe_hit: None,
                    mem_done: false,
                    delivered: false,
                    ntc_skip: true,
                }));
                self.engine
                    .harness
                    .mem_read(txn_id, line, MemTraffic::DemandRead.class(), now);
            }
            return;
        }

        // NTC consultation precedes the predictor (Section 6.1); the plan
        // resolves the probe/parallel-memory decision matrix.
        let plan = self
            .engine
            .stack
            .on_read_lookup(&self.placement, set, tag, core, pc);
        if let Some(answer) = plan.ntc_answer {
            self.engine.emit(ObsEvent::NtcConsulted { line, answer });
        }
        if plan.squashed_parallel {
            self.engine.stats.parallel_squashed += 1;
        }
        if plan.probe_avoided {
            self.engine.stats.miss_probes_avoided += 1;
        }

        let txn_id = self.txns.insert(Txn::Read(ReadTxn {
            line,
            pc,
            core,
            arrival: now,
            probe_outstanding: plan.issue_probe,
            mem_outstanding: plan.issue_parallel_mem,
            probe_hit: None,
            mem_done: false,
            delivered: false,
            ntc_skip: plan.ntc_skip,
        }));

        if plan.issue_probe {
            let class = if plan.probe_class_is_hit() {
                BloatCategory::Hit.class()
            } else {
                BloatCategory::MissProbe.class()
            };
            self.engine.harness.cache_read(
                txn_id,
                Leg::CacheProbe,
                self.placement.locate(set),
                TAD_BEATS,
                class,
                now,
            );
        }
        if plan.issue_parallel_mem {
            self.engine
                .harness
                .mem_read(txn_id, line, MemTraffic::DemandRead.class(), now);
        }
        if plan.ntc_skip {
            // NTC-guaranteed miss over a clean line: train the predictor
            // with the known outcome.
            self.engine.stack.train(core, pc, set, false);
            self.engine
                .emit(ObsEvent::ReadClassified { line, hit: false });
        }
    }

    fn submit_writeback(&mut self, line: u64, dcp_hint: Option<bool>, now: Cycle) {
        self.engine.stats.wb_lookups += 1;
        let (set, _) = self.store.decompose(line);

        if self.is_ideal() {
            // Free secondary operations: contents updated logically.
            let hit = self.store.contains(line);
            self.engine.emit(ObsEvent::WbResolved {
                line,
                hit,
                probe_skipped: true,
                allocated: !hit && self.writeback_allocate,
            });
            if hit {
                self.engine.stats.wb_hits += 1;
                self.store.mark_dirty(line);
            } else if self.writeback_allocate {
                if let Some((victim_line, victim_dirty)) = self.store.install(line, true) {
                    self.engine.stats.evictions += 1;
                    self.engine.emit(ObsEvent::Evicted {
                        line: victim_line,
                        dirty: victim_dirty,
                    });
                    if victim_dirty {
                        self.engine.victim_mem_write(victim_line, now);
                    }
                }
                self.engine.emit(ObsEvent::Filled {
                    line,
                    dirty: true,
                    cause: FillCause::Writeback,
                });
            } else {
                self.engine.direct_mem_write(line, now);
            }
            return;
        }

        // Inclusive caches guarantee writeback hits (Section 5.1); DCP
        // provides the same guarantee per-line when its bit is set.
        let known_present = self
            .engine
            .stack
            .on_writeback_probe(self.design == DesignKind::InclusiveAlloy, dcp_hint);
        if known_present && self.store.contains(line) {
            self.engine.emit(ObsEvent::WbResolved {
                line,
                hit: true,
                probe_skipped: true,
                allocated: false,
            });
            self.engine.stats.wb_hits += 1;
            self.engine.stats.wb_probes_avoided += 1;
            self.store.mark_dirty(line);
            self.engine
                .stack
                .on_eviction(&self.placement, &self.store, set);
            let t = self.engine.alloc_txn();
            self.engine.harness.cache_write(
                t,
                self.placement.locate(set),
                TAD_BEATS,
                BloatCategory::WritebackUpdate.class(),
                now,
            );
            return;
        }

        // Probe path (baseline, or DCP says absent: probe is still needed
        // to learn whether the victim being replaced is dirty).
        let txn_id = self.txns.insert(Txn::Wb(WbTxn { line }));
        self.engine.harness.cache_read(
            txn_id,
            Leg::CacheProbe,
            self.placement.locate(set),
            TAD_BEATS,
            BloatCategory::WritebackProbe.class(),
            now,
        );
    }

    fn submit_direct_mem_write(&mut self, line: u64, now: Cycle) {
        self.engine.direct_mem_write(line, now);
    }

    fn tick(&mut self, now: Cycle, out: &mut L4Outputs) {
        let completions = self.engine.begin_tick(now);
        for c in &completions {
            match c.leg {
                Leg::CacheProbe => match self.txns.get(c.txn) {
                    Some(Txn::Read(_)) => self.on_probe_complete(c.txn, c.finish, out),
                    Some(Txn::Wb(_)) => self.on_wb_probe_complete(c.txn, c.finish, out),
                    None => {}
                },
                Leg::MemRead => self.on_mem_complete(c.txn, c.finish, out),
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

    fn telemetry_probe(&self) -> Option<ControllerProbe> {
        let (occupied_lines, dirty_lines) = self.store.occupancy_and_dirty();
        Some(
            self.engine
                .probe(occupied_lines, dirty_lines, self.store.sets()),
        )
    }

    fn pending_txns(&self) -> usize {
        self.txns.len()
    }

    fn controller_idle_until(&self, _now: Cycle) -> Cycle {
        // Purely completion-driven: every read/writeback transaction is
        // waiting on a device leg.
        Cycle::NEVER
    }

    /// NTC-mirror invariant: every NTC entry must agree with the tag
    /// store's occupant for its set — the eviction hook refreshes entries
    /// on every store mutation, so at tick boundaries the mirror is exact.
    /// BW-Opt mutates the store without syncing (its NTC is never
    /// consulted), so the check is scoped to the realistic designs.
    fn self_check(&self, now: Cycle, sink: &mut InvariantSink) {
        if !sink.enabled() || self.is_ideal() {
            return;
        }
        self.engine.stack.check_ntc_mirror(&self.store, now, sink);
    }

    fn contains_line(&self, line: u64) -> Option<bool> {
        Some(self.store.contains(line))
    }

    fn inject_fault(&mut self, fault: FaultKind) -> bool {
        match fault {
            // Corrupt the tag store under a set the NTC currently mirrors
            // as occupied, so the desync is observable.
            FaultKind::TagFlip => match self.engine.stack.first_mirrored_set() {
                Some(set) => self.store.corrupt_tag(set),
                None => false,
            },
            FaultKind::NtcDesync => self.engine.stack.corrupt_ntc(),
            FaultKind::ByteAccounting => {
                self.engine.harness.corrupt_expected_bytes();
                true
            }
            // Handled at the system level (the DCP bit lives in the L3).
            FaultKind::PresenceFlip => false,
        }
    }

    fn set_observe(&mut self, on: bool) {
        self.engine.set_observe(on);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BearFeatures;

    fn controller(design: DesignKind, bear: BearFeatures) -> AlloyController {
        let mut cfg = SystemConfig::paper_baseline(design);
        cfg.bear = bear;
        AlloyController::new(&cfg)
    }

    fn drain(ctrl: &mut AlloyController, out: &mut L4Outputs, start: u64, max: u64) -> u64 {
        let mut t = start;
        while ctrl.pending_txns() > 0 || ctrl.engine.harness.pending() > 0 {
            ctrl.tick(Cycle(t), out);
            t += 1;
            assert!(t < start + max, "controller did not drain");
        }
        t
    }

    #[test]
    fn cold_read_misses_then_hits() {
        let mut ctrl = controller(DesignKind::Alloy, BearFeatures::none());
        let mut out = L4Outputs::default();
        ctrl.submit_read(0x1000, 0x400000, 0, Cycle(0));
        let t = drain(&mut ctrl, &mut out, 0, 100_000);
        assert_eq!(out.deliveries.len(), 1);
        assert!(!out.deliveries[0].l4_hit);
        assert!(out.deliveries[0].in_l4, "baseline fills on miss");

        out.clear();
        ctrl.submit_read(0x1000, 0x400000, 0, Cycle(t));
        drain(&mut ctrl, &mut out, t, 100_000);
        assert_eq!(out.deliveries.len(), 1);
        assert!(out.deliveries[0].l4_hit);
        assert_eq!(ctrl.stats().read_hits, 1);
        assert_eq!(ctrl.stats().read_lookups, 2);
        assert_eq!(ctrl.stats().useful_lines, 1);
    }

    #[test]
    fn hit_latency_below_miss_latency() {
        let mut ctrl = controller(DesignKind::Alloy, BearFeatures::none());
        let mut out = L4Outputs::default();
        ctrl.submit_read(0x2000, 0x400000, 0, Cycle(0));
        let t = drain(&mut ctrl, &mut out, 0, 100_000);
        ctrl.submit_read(0x2000, 0x400000, 0, Cycle(t));
        drain(&mut ctrl, &mut out, t, 100_000);
        let s = ctrl.stats();
        assert!(s.hit_latency.mean() > 0.0);
        assert!(s.hit_latency.mean() < s.miss_latency.mean());
    }

    #[test]
    fn conflict_evicts_and_reports() {
        let mut ctrl = controller(DesignKind::Alloy, BearFeatures::none());
        let lines = ctrl.store.sets();
        let mut out = L4Outputs::default();
        ctrl.submit_read(7, 0x400000, 0, Cycle(0));
        let t = drain(&mut ctrl, &mut out, 0, 100_000);
        out.clear();
        // Same set, different tag.
        ctrl.submit_read(7 + lines, 0x400000, 0, Cycle(t));
        drain(&mut ctrl, &mut out, t, 100_000);
        assert_eq!(out.evictions, vec![7]);
        assert_eq!(ctrl.stats().evictions, 1);
        assert!(ctrl.store.contains(7 + lines));
        assert!(!ctrl.store.contains(7));
    }

    #[test]
    fn writeback_probe_then_update_on_hit() {
        let mut ctrl = controller(DesignKind::Alloy, BearFeatures::none());
        let mut out = L4Outputs::default();
        ctrl.submit_read(0x99, 0x400000, 0, Cycle(0));
        let t = drain(&mut ctrl, &mut out, 0, 100_000);
        ctrl.submit_writeback(0x99, None, Cycle(t));
        drain(&mut ctrl, &mut out, t, 100_000);
        let s = ctrl.stats();
        assert_eq!(s.wb_lookups, 1);
        assert_eq!(s.wb_hits, 1);
        assert_eq!(s.wb_probes_avoided, 0);
        let probe_bytes = ctrl
            .engine
            .harness
            .cache
            .bytes_in_class(BloatCategory::WritebackProbe.class());
        let update_bytes = ctrl
            .engine
            .harness
            .cache
            .bytes_in_class(BloatCategory::WritebackUpdate.class());
        assert_eq!(probe_bytes, 80);
        assert_eq!(update_bytes, 80);
        assert_eq!(ctrl.store.occupant(0x99).map(|o| o.dirty), Some(true));
    }

    #[test]
    fn writeback_miss_allocates_with_write_allocate() {
        let mut ctrl = controller(DesignKind::Alloy, BearFeatures::none());
        let mut out = L4Outputs::default();
        ctrl.submit_writeback(0x5000, None, Cycle(0));
        drain(&mut ctrl, &mut out, 0, 100_000);
        assert_eq!(ctrl.stats().wb_hits, 0);
        assert!(ctrl.store.contains(0x5000), "write-allocate fills");
        let fill_bytes = ctrl
            .engine
            .harness
            .cache
            .bytes_in_class(BloatCategory::WritebackFill.class());
        assert_eq!(fill_bytes, 80);
    }

    #[test]
    fn dcp_hint_skips_writeback_probe() {
        let mut ctrl = controller(DesignKind::Alloy, BearFeatures::bab_dcp());
        let mut out = L4Outputs::default();
        ctrl.submit_read(0x77, 0x400000, 0, Cycle(0));
        let t = drain(&mut ctrl, &mut out, 0, 100_000);
        let filled = ctrl.store.contains(0x77);
        ctrl.submit_writeback(0x77, Some(filled), Cycle(t));
        drain(&mut ctrl, &mut out, t, 100_000);
        if filled {
            assert_eq!(ctrl.stats().wb_probes_avoided, 1);
            assert_eq!(
                ctrl.engine
                    .harness
                    .cache
                    .bytes_in_class(BloatCategory::WritebackProbe.class()),
                0
            );
        }
    }

    #[test]
    fn inclusive_never_probes_writebacks() {
        let mut ctrl = controller(DesignKind::InclusiveAlloy, BearFeatures::none());
        let mut out = L4Outputs::default();
        ctrl.submit_read(0x31, 0x400000, 0, Cycle(0));
        let t = drain(&mut ctrl, &mut out, 0, 100_000);
        ctrl.submit_writeback(0x31, None, Cycle(t));
        drain(&mut ctrl, &mut out, t, 100_000);
        assert_eq!(ctrl.stats().wb_probes_avoided, 1);
        assert_eq!(
            ctrl.engine
                .harness
                .cache
                .bytes_in_class(BloatCategory::WritebackProbe.class()),
            0
        );
    }

    #[test]
    fn bwopt_hits_move_only_64_bytes() {
        let mut ctrl = controller(DesignKind::BwOpt, BearFeatures::none());
        let mut out = L4Outputs::default();
        ctrl.submit_read(0x42, 0x400000, 0, Cycle(0));
        let t = drain(&mut ctrl, &mut out, 0, 100_000);
        // Miss consumed zero cache-bus bytes.
        assert_eq!(ctrl.engine.harness.cache.total_bytes(), 0);
        ctrl.submit_read(0x42, 0x400000, 0, Cycle(t));
        drain(&mut ctrl, &mut out, t, 100_000);
        assert_eq!(ctrl.engine.harness.cache.total_bytes(), 64);
        assert_eq!(ctrl.stats().useful_lines, 1);
    }

    #[test]
    fn probabilistic_bypass_skips_fills() {
        let mut bear = BearFeatures::none();
        bear.fill_policy = crate::config::FillPolicy::Probabilistic(1.0);
        let mut ctrl = controller(DesignKind::Alloy, bear);
        let mut out = L4Outputs::default();
        ctrl.submit_read(0x123, 0x400000, 0, Cycle(0));
        drain(&mut ctrl, &mut out, 0, 100_000);
        assert_eq!(ctrl.stats().bypasses, 1);
        assert_eq!(ctrl.stats().fills, 0);
        assert!(!ctrl.store.contains(0x123));
        assert!(!out.deliveries[0].in_l4);
        assert_eq!(
            ctrl.engine
                .harness
                .cache
                .bytes_in_class(BloatCategory::MissFill.class()),
            0
        );
    }

    #[test]
    fn ntc_skips_probe_for_known_absent_clean_set() {
        let mut ctrl = controller(DesignKind::Alloy, BearFeatures::full());
        let sets = ctrl.store.sets();
        let mut out = L4Outputs::default();
        // Read line in set 10 → probe streams neighbor tag of set 11
        // (empty → AbsentClean for any tag).
        ctrl.submit_read(10, 0x400000, 0, Cycle(0));
        let t = drain(&mut ctrl, &mut out, 0, 100_000);
        let before = ctrl.stats().miss_probes_avoided;
        // Now read some line mapping to set 11: NTC knows it is absent.
        ctrl.submit_read(11 + sets * 3, 0x400000, 0, Cycle(t));
        drain(&mut ctrl, &mut out, t, 100_000);
        assert_eq!(ctrl.stats().miss_probes_avoided, before + 1);
    }

    #[test]
    fn ntc_squashes_parallel_access_for_known_present_line() {
        // NTC on, but fills must be deterministic (no BAB bypass).
        let bear = BearFeatures {
            ntc: true,
            ..BearFeatures::none()
        };
        let mut ctrl = controller(DesignKind::Alloy, bear);
        let mut out = L4Outputs::default();
        // Fill set 21 by reading it (this also trains the predictor toward
        // miss for this PC, making the parallel access likely next time).
        ctrl.submit_read(20, 0xA0, 0, Cycle(0));
        let mut t = drain(&mut ctrl, &mut out, 0, 100_000);
        ctrl.submit_read(21, 0xA0, 0, Cycle(t));
        t = drain(&mut ctrl, &mut out, t, 100_000);
        // Read set 20 again → probe streams set 21's tag into the NTC.
        ctrl.submit_read(20, 0xA0, 0, Cycle(t));
        t = drain(&mut ctrl, &mut out, t, 100_000);
        // Train the predictor to predict miss for a fresh PC.
        for _ in 0..8 {
            ctrl.engine.stack.train_predictor(0, 0xB0, false);
        }
        let squashed_before = ctrl.stats().parallel_squashed;
        ctrl.submit_read(21, 0xB0, 0, Cycle(t));
        drain(&mut ctrl, &mut out, t, 100_000);
        assert_eq!(ctrl.stats().parallel_squashed, squashed_before + 1);
    }

    #[test]
    fn parallel_access_wasted_when_prediction_wrong() {
        let mut ctrl = controller(DesignKind::Alloy, BearFeatures::none());
        let mut out = L4Outputs::default();
        ctrl.submit_read(0x800, 0xC0, 0, Cycle(0));
        let mut t = drain(&mut ctrl, &mut out, 0, 100_000);
        // Train toward miss, then access the present line: parallel access
        // is issued and wasted.
        for _ in 0..8 {
            ctrl.engine.stack.train_predictor(0, 0xC0, false);
        }
        ctrl.submit_read(0x800, 0xC0, 0, Cycle(t));
        t = drain(&mut ctrl, &mut out, t, 100_000);
        let _ = t;
        assert_eq!(ctrl.stats().wasted_parallel, 1);
        assert_eq!(ctrl.stats().read_hits, 1);
    }

    #[test]
    fn writeback_noallocate_sends_misses_to_memory() {
        let mut cfg = SystemConfig::paper_baseline(DesignKind::Alloy);
        cfg.writeback_allocate = false;
        let mut ctrl = AlloyController::new(&cfg);
        let mut out = L4Outputs::default();
        ctrl.submit_writeback(0x5000, None, Cycle(0));
        drain(&mut ctrl, &mut out, 0, 100_000);
        assert!(!ctrl.store.contains(0x5000), "no-allocate must not fill");
        assert_eq!(
            ctrl.engine
                .harness
                .cache
                .bytes_in_class(BloatCategory::WritebackFill.class()),
            0
        );
        assert_eq!(
            ctrl.engine
                .harness
                .mem
                .bytes_in_class(MemTraffic::Writeback.class()),
            64
        );
    }

    #[test]
    fn ntc_dirty_neighbor_still_probes() {
        // A dirty occupant recorded in the NTC forbids skipping the probe
        // (the dirty victim must be read out for correctness).
        let bear = BearFeatures {
            ntc: true,
            ..BearFeatures::none()
        };
        let mut ctrl = controller(DesignKind::Alloy, bear);
        let sets = ctrl.store.sets();
        let mut out = L4Outputs::default();
        // Install line in set 31 dirty (writeback-allocate) and stream its
        // tag into the NTC by probing set 30.
        ctrl.submit_writeback(31, None, Cycle(0));
        let t = drain(&mut ctrl, &mut out, 0, 100_000);
        ctrl.submit_read(30, 0x400000, 0, Cycle(t));
        let t = drain(&mut ctrl, &mut out, t, 100_000);
        // Read a conflicting line in set 31: NTC answers AbsentDirty, so
        // the miss probe must NOT be skipped.
        let before = ctrl.stats().miss_probes_avoided;
        let probe_bytes_before = ctrl
            .engine
            .harness
            .cache
            .bytes_in_class(BloatCategory::MissProbe.class())
            + ctrl
                .engine
                .harness
                .cache
                .bytes_in_class(BloatCategory::Hit.class());
        ctrl.submit_read(31 + sets, 0x400000, 0, Cycle(t));
        drain(&mut ctrl, &mut out, t, 100_000);
        assert_eq!(ctrl.stats().miss_probes_avoided, before);
        let probe_bytes_after = ctrl
            .engine
            .harness
            .cache
            .bytes_in_class(BloatCategory::MissProbe.class())
            + ctrl
                .engine
                .harness
                .cache
                .bytes_in_class(BloatCategory::Hit.class());
        assert!(probe_bytes_after > probe_bytes_before, "probe must issue");
    }

    #[test]
    fn temporal_ntc_caches_demanded_sets() {
        // §9.4 extension: with temporal mode, re-reading a line whose set
        // was previously demanded answers Present without a predictor
        // parallel access, even when no neighbor transfer covered it.
        let bear = BearFeatures {
            ntc: true,
            ntc_temporal: true,
            ..BearFeatures::none()
        };
        let mut ctrl = controller(DesignKind::Alloy, bear);
        let mut out = L4Outputs::default();
        // Read a set with NO valid neighbor (last TAD of a row: set 27).
        ctrl.submit_read(27, 0xA0, 0, Cycle(0));
        let t = drain(&mut ctrl, &mut out, 0, 100_000);
        ctrl.submit_read(27, 0xA0, 0, Cycle(t));
        let t = drain(&mut ctrl, &mut out, t, 100_000);
        // Train a fresh PC toward miss, then re-read: NTC squashes.
        for _ in 0..8 {
            ctrl.engine.stack.train_predictor(0, 0xB0, false);
        }
        let before = ctrl.stats().parallel_squashed;
        ctrl.submit_read(27, 0xB0, 0, Cycle(t));
        drain(&mut ctrl, &mut out, t, 100_000);
        assert_eq!(ctrl.stats().parallel_squashed, before + 1);
    }

    #[test]
    fn dirty_victim_writes_back_to_memory() {
        let mut ctrl = controller(DesignKind::Alloy, BearFeatures::none());
        let lines = ctrl.store.sets();
        let mut out = L4Outputs::default();
        // Install line 3 dirty via writeback-allocate.
        ctrl.submit_writeback(3, None, Cycle(0));
        let t = drain(&mut ctrl, &mut out, 0, 100_000);
        // Conflict-miss the set: dirty victim must go to memory.
        ctrl.submit_read(3 + lines, 0x400000, 0, Cycle(t));
        drain(&mut ctrl, &mut out, t, 100_000);
        assert_eq!(
            ctrl.engine
                .harness
                .mem
                .bytes_in_class(MemTraffic::VictimWrite.class()),
            64
        );
    }

    /// Acceptance guard for the refactor: technique logic reaches this
    /// controller only through the stack's hooks, and the B/BD/BDN
    /// ablations differ from Alloy-base only in the stack configuration.
    #[test]
    fn ablations_share_the_controller_and_differ_in_stack() {
        let base = controller(DesignKind::Alloy, BearFeatures::none());
        let b = controller(DesignKind::Alloy, BearFeatures::bab());
        let bd = controller(DesignKind::Alloy, BearFeatures::bab_dcp());
        let bdn = controller(DesignKind::Alloy, BearFeatures::full());
        for ctrl in [&base, &b, &bd, &bdn] {
            assert_eq!(ctrl.design, DesignKind::Alloy);
            assert_eq!(ctrl.store.sets(), base.store.sets());
        }
        let sets = [&base, &b, &bd, &bdn].map(|c| c.engine.stack.techniques());
        for (i, a) in sets.iter().enumerate() {
            for b in sets.iter().skip(i + 1) {
                assert_ne!(a, b, "ablations must differ in the stack");
            }
        }
    }
}
