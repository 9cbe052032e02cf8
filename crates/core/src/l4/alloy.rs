//! The Alloy Cache family: baseline Alloy, BEAR (BAB/DCP/NTC), inclusive
//! Alloy, and the idealized Bandwidth-Optimized cache.
//!
//! Baseline demand flow (Section 2): a MAP-I prediction chooses between a
//! serialized cache probe (predicted hit) and a probe issued in parallel
//! with the memory access (predicted miss). The probe is a 5-beat TAD read;
//! on a tag match the data within the TAD services the request (Hit Probe),
//! otherwise memory data services it (Miss Probe) and, policy permitting,
//! the line is filled (Miss Fill). Writebacks probe before updating
//! (Writeback Probe / Update / Fill). BW-Opt knows each read's outcome
//! ([`ReadPlan::known`]): a hit moves only the 64 B line, a miss goes
//! straight to memory.
//!
//! All BEAR technique logic (BAB, DCP, NTC, and the MAP-I predictor)
//! reaches this controller through [`TechniqueStack`] hooks on the shared
//! [`Engine`]; the controller itself owns only the direct-mapped
//! organization — placement, the tag store, and the probe/fill/writeback
//! routing.

use crate::config::{DesignKind, SystemConfig};
use crate::contents::DirectStore;
use crate::events::{FillCause, ObsEvent};
use crate::harness::Leg;
use crate::l4::engine::{Engine, TxnTable};
use crate::l4::placement::SetPlacement;
use crate::l4::stack::{ReadPlan, TechniqueStack};
use crate::l4::{ControllerProbe, L4Cache, L4Outputs, LINE_BEATS};
use crate::traffic::{BloatCategory, MemTraffic};
use bear_sim::faultinject::FaultKind;
use bear_sim::invariants::InvariantSink;
use bear_sim::time::Cycle;

/// Beats per TAD transfer (80 B on a 16 B bus).
const TAD_BEATS: u64 = 5;

/// A demand read's memory leg.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MemLeg {
    /// Not issued: a serialized read waits for its probe to miss.
    Idle,
    /// Issued and in flight.
    Pending,
    /// Returned before the probe resolved.
    Done,
}

/// A demand read in flight: a TAD probe leg and a memory leg.
#[derive(Debug, Clone, Copy)]
struct ReadTxn {
    line: u64,
    pc: u64,
    core: u32,
    arrival: Cycle,
    /// `None` while the probe is in flight; `Some(false)` from submit for
    /// a known miss (no probe). A hit leaves at once unless memory is
    /// `Pending`, so `Some(true)` is a delivered hit awaiting that access.
    hit: Option<bool>,
    mem: MemLeg,
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
    /// eviction reporting, and observation staging.
    engine: Engine,
    writeback_allocate: bool,
    /// In-flight demand reads and writeback probes, arena-indexed.
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

    /// Installs `line`, handling the victim. A dirty victim goes straight
    /// to memory: the probe's TAD already carried its data (and BW-Opt's
    /// secondary transfers are free).
    fn do_fill(&mut self, line: u64, dirty: bool, now: Cycle) {
        let (set, _) = self.store.decompose(line);
        if let Some((victim_line, victim_dirty)) = self.store.install(line, dirty) {
            self.engine.evict(victim_line, victim_dirty);
            if victim_dirty {
                self.engine.write_back_victim(victim_line, None, now);
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
        let (set, _) = self.store.decompose(txn.line);
        if self
            .engine
            .fill_or_bypass(txn.line, txn.arrival, now, set, out)
        {
            self.do_fill(txn.line, false, now);
            if !self.is_ideal() {
                self.engine.harness.cache_write(
                    self.placement.locate(set),
                    TAD_BEATS,
                    BloatCategory::MissFill.class(),
                    now,
                );
            }
        }
        self.txns.remove(txn_id);
    }

    fn on_probe_complete(&mut self, txn_id: u64, finish: Cycle, out: &mut L4Outputs) {
        let Some(mut txn) = self.read_txn(txn_id) else {
            return;
        };
        let (set, _) = self.store.decompose(txn.line);
        self.engine
            .stack
            .on_tad_transfer(&self.placement, &self.store, set);
        let hit = self.store.contains(txn.line);
        txn.hit = Some(hit);
        self.engine.stack.train(txn.core, txn.pc, set, hit);
        self.engine.emit(ObsEvent::ReadClassified {
            line: txn.line,
            hit,
        });

        if hit {
            self.engine.deliver_hit(txn.line, txn.arrival, finish, out);
            if txn.mem != MemLeg::Idle {
                self.engine.stats.wasted_parallel += 1;
            }
            if txn.mem == MemLeg::Pending {
                // Keep the txn to absorb the memory completion.
                self.store_read(txn_id, txn);
            } else {
                self.txns.remove(txn_id);
            }
            return;
        }

        // Miss: memory data either arrived already, is on its way, or must
        // be requested now (serialized predicted-hit path).
        match txn.mem {
            MemLeg::Done => self.finish_demand_miss(txn_id, txn, finish, out),
            MemLeg::Pending => self.store_read(txn_id, txn),
            MemLeg::Idle => {
                txn.mem = MemLeg::Pending;
                self.engine.harness.mem_read(
                    txn_id,
                    txn.line,
                    MemTraffic::DemandRead.class(),
                    finish,
                );
                self.store_read(txn_id, txn);
            }
        }
    }

    fn on_mem_complete(&mut self, txn_id: u64, finish: Cycle, out: &mut L4Outputs) {
        let Some(mut txn) = self.read_txn(txn_id) else {
            return;
        };
        match txn.hit {
            Some(false) => self.finish_demand_miss(txn_id, txn, finish, out),
            // A wasted parallel access: the probe hit already delivered.
            Some(true) => {
                self.txns.remove(txn_id);
            }
            // Parallel access returned before the probe: wait for it.
            None => {
                txn.mem = MemLeg::Done;
                self.store_read(txn_id, txn);
            }
        }
    }

    fn on_wb_probe_complete(&mut self, txn_id: u64, finish: Cycle) {
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
            self.engine.harness.cache_write(
                self.placement.locate(set),
                TAD_BEATS,
                BloatCategory::WritebackUpdate.class(),
                finish,
            );
        } else if self.writeback_allocate {
            self.do_fill(txn.line, true, finish);
            self.engine.harness.cache_write(
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
    fn engine(&self) -> &Engine {
        &self.engine
    }

    fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    fn submit_read(&mut self, line: u64, pc: u64, core: u32, now: Cycle) {
        self.engine.stats.read_lookups += 1;
        let (set, tag) = self.store.decompose(line);

        // BW-Opt knows the outcome; the others consult the NTC before the
        // predictor (Section 6.1), and the plan resolves the
        // probe/parallel-memory decision matrix.
        let ideal = self.is_ideal();
        let plan = if ideal {
            ReadPlan::known(self.store.contains(line))
        } else {
            self.engine
                .stack
                .on_read_lookup(&self.placement, set, tag, core, pc)
        };
        if let Some(answer) = plan.ntc_answer {
            self.engine.emit(ObsEvent::NtcConsulted { line, answer });
        }
        if plan.squashed_parallel() {
            self.engine.stats.parallel_squashed += 1;
        }
        if plan.probe_avoided() {
            self.engine.stats.miss_probes_avoided += 1;
        }

        let txn_id = self.txns.insert(Txn::Read(ReadTxn {
            line,
            pc,
            core,
            arrival: now,
            hit: (!plan.issue_probe).then_some(false),
            mem: if plan.issue_parallel_mem {
                MemLeg::Pending
            } else {
                MemLeg::Idle
            },
        }));

        if plan.issue_probe {
            let class = if plan.probe_class_is_hit() {
                BloatCategory::Hit.class()
            } else {
                BloatCategory::MissProbe.class()
            };
            // BW-Opt's hits move only the 64 B line.
            let beats = if ideal { LINE_BEATS } else { TAD_BEATS };
            self.engine.harness.cache_read(
                Some(txn_id),
                self.placement.locate(set),
                beats,
                class,
                now,
            );
        }
        if plan.issue_parallel_mem {
            self.engine
                .harness
                .mem_read(txn_id, line, MemTraffic::DemandRead.class(), now);
        }
        if !plan.issue_probe {
            // A known miss resolves at submit. An NTC skip trains the
            // predictor with it; BW-Opt made no prediction, so it records
            // only the duel access.
            if plan.probe_avoided() {
                self.engine.stack.train(core, pc, set, false);
            } else {
                self.engine.stack.record_access(set, false);
            }
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
                self.do_fill(line, true, now);
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
            self.engine.harness.cache_write(
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
            Some(txn_id),
            self.placement.locate(set),
            TAD_BEATS,
            BloatCategory::WritebackProbe.class(),
            now,
        );
    }

    fn tick(&mut self, now: Cycle, out: &mut L4Outputs) {
        let completions = self.engine.begin_tick(now);
        for c in &completions {
            match c.leg {
                Leg::CacheProbe => match self.txns.get(c.txn) {
                    Some(Txn::Read(_)) => self.on_probe_complete(c.txn, c.finish, out),
                    Some(Txn::Wb(_)) => self.on_wb_probe_complete(c.txn, c.finish),
                    None => {}
                },
                Leg::MemRead => self.on_mem_complete(c.txn, c.finish, out),
            }
        }
        self.engine.finish_tick(completions, out);
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

    fn contains_line(&self, line: u64) -> bool {
        self.store.contains(line)
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BearFeatures;
    use bear_dram::config::DramTimings;

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
    fn bwopt_writeback_allocate_reports_its_victim() {
        let mut ctrl = controller(DesignKind::BwOpt, BearFeatures::none());
        let sets = ctrl.store.sets();
        let mut out = L4Outputs::default();
        ctrl.submit_writeback(3, None, Cycle(0));
        ctrl.submit_writeback(3 + sets, None, Cycle(0));
        assert_eq!(ctrl.stats().evictions, 1);
        let t = drain(&mut ctrl, &mut out, 0, 100_000);
        ctrl.tick(Cycle(t), &mut out);
        assert_eq!(out.evictions, vec![3], "the ideal path reports its victim");
        assert!(ctrl.store.contains(3 + sets));
        assert_eq!(ctrl.store.occupant(3).map(|o| o.dirty), Some(true));
        assert_eq!(
            ctrl.engine
                .harness
                .mem
                .bytes_in_class(MemTraffic::VictimWrite.class()),
            64
        );
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
        let t = drain(&mut ctrl, &mut out, 0, 100_000);
        // Train toward miss, then access the present line: parallel access
        // is issued and wasted.
        for _ in 0..8 {
            ctrl.engine.stack.train_predictor(0, 0xC0, false);
        }
        ctrl.submit_read(0x800, 0xC0, 0, Cycle(t));
        let (states, _) = leg_states(&mut ctrl, &mut out, 0x800, t);
        // Leg order (b): the probe hits while the access is in flight.
        assert_eq!(
            shapes(&states),
            [
                Some((None, MemLeg::Pending)),
                Some((Some(true), MemLeg::Pending)),
                None
            ]
        );
        assert_eq!(ctrl.stats().wasted_parallel, 1);
        assert_eq!(ctrl.stats().read_hits, 1);
    }

    /// A controller whose cache DRAM is ten times slower than memory, so a
    /// parallel memory access returns before the probe.
    fn slow_cache_controller() -> AlloyController {
        let mut cfg = SystemConfig::paper_baseline(DesignKind::Alloy);
        cfg.cache_dram.timings = DramTimings {
            t_cas: 360,
            t_rcd: 360,
            t_rp: 360,
            t_ras: 1440,
            ..DramTimings::table1()
        };
        AlloyController::new(&cfg)
    }

    type LegState = Option<(Option<bool>, MemLeg)>;

    /// Drives `ctrl` one cycle at a time from `start` until it drains.
    /// Returns each state the read of `line` passes through with the
    /// cycle it was first seen at (`None` once retired), and the cycle
    /// its delivery came out at.
    fn leg_states(
        ctrl: &mut AlloyController,
        out: &mut L4Outputs,
        line: u64,
        start: u64,
    ) -> (Vec<(u64, LegState)>, u64) {
        let state = |ctrl: &AlloyController| {
            ctrl.txns.iter().find_map(|t| match t {
                Txn::Read(r) if r.line == line => Some((r.hit, r.mem)),
                _ => None,
            })
        };
        let mut states = vec![(start, state(ctrl))];
        let mut delivered = None;
        let mut t = start;
        while ctrl.pending_txns() > 0 || ctrl.engine.harness.pending() > 0 {
            ctrl.tick(Cycle(t), out);
            let now = state(ctrl);
            if states.last().map(|s| s.1) != Some(now) {
                states.push((t, now));
            }
            if delivered.is_none() && out.deliveries.iter().any(|d| d.line == line) {
                delivered = Some(t);
            }
            t += 1;
            assert!(t < start + 100_000, "controller did not drain");
        }
        (states, delivered.expect("the read was delivered"))
    }

    fn shapes(states: &[(u64, LegState)]) -> Vec<LegState> {
        states.iter().map(|s| s.1).collect()
    }

    /// Leg order (a): a serialized predicted-hit read misses, so its
    /// memory read goes out when the probe completes.
    #[test]
    fn serialized_miss_issues_memory_at_probe_completion() {
        let mut ctrl = controller(DesignKind::Alloy, BearFeatures::none());
        let mut out = L4Outputs::default();
        // A fresh predictor predicts a hit: no parallel access.
        ctrl.submit_read(0x3000, 0x400000, 0, Cycle(0));
        let (states, delivered) = leg_states(&mut ctrl, &mut out, 0x3000, 0);
        assert_eq!(
            shapes(&states),
            [
                Some((None, MemLeg::Idle)),
                Some((Some(false), MemLeg::Pending)),
                None
            ]
        );
        assert_eq!(delivered, states[2].0);
        assert!(!out.deliveries[0].l4_hit);
        assert_eq!(ctrl.stats().wasted_parallel, 0);
    }

    /// Leg order (c): the parallel memory access returns before a probe
    /// miss; the line is delivered when the probe finishes.
    #[test]
    fn parallel_memory_first_then_probe_miss_delivers_at_probe() {
        let mut ctrl = slow_cache_controller();
        let mut out = L4Outputs::default();
        for _ in 0..8 {
            ctrl.engine.stack.train_predictor(0, 0xC0, false);
        }
        ctrl.submit_read(0x3000, 0xC0, 0, Cycle(0));
        let (states, delivered) = leg_states(&mut ctrl, &mut out, 0x3000, 0);
        assert_eq!(
            shapes(&states),
            [
                Some((None, MemLeg::Pending)),
                Some((None, MemLeg::Done)),
                None
            ]
        );
        assert_eq!(delivered, states[2].0, "delivered at the probe's finish");
        assert!(!out.deliveries[0].l4_hit && out.deliveries[0].in_l4);
        assert_eq!(ctrl.stats().wasted_parallel, 0);
    }

    /// Leg order (d): the parallel memory access returns before a probe
    /// hit; the hit is delivered and the access counts as wasted.
    #[test]
    fn parallel_memory_first_then_probe_hit_counts_wasted() {
        let mut ctrl = slow_cache_controller();
        let mut out = L4Outputs::default();
        ctrl.submit_read(0x800, 0x400000, 0, Cycle(0));
        let t = drain(&mut ctrl, &mut out, 0, 100_000);
        out.clear();
        for _ in 0..8 {
            ctrl.engine.stack.train_predictor(0, 0xC0, false);
        }
        ctrl.submit_read(0x800, 0xC0, 0, Cycle(t));
        let (states, delivered) = leg_states(&mut ctrl, &mut out, 0x800, t);
        assert_eq!(
            shapes(&states),
            [
                Some((None, MemLeg::Pending)),
                Some((None, MemLeg::Done)),
                None
            ]
        );
        assert_eq!(delivered, states[2].0);
        assert!(out.deliveries[0].l4_hit);
        assert_eq!(ctrl.stats().read_hits, 1);
        assert_eq!(ctrl.stats().wasted_parallel, 1);
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
