//! No-DRAM-cache pass-through controller.
//!
//! Figure 17 normalizes every DRAM-cache design against a system without
//! one: all LLC misses fetch from commodity memory and all dirty LLC
//! evictions write back to it. Built on the shared [`Engine`] like every
//! other organization; it simply never touches the cache device or the
//! technique stack.

use crate::config::SystemConfig;
use crate::events::ObsEvent;
use crate::harness::{DeviceHarness, Leg};
use crate::l4::engine::Engine;
use crate::l4::stack::TechniqueStack;
use crate::l4::{Delivery, L4Cache, L4Outputs, L4Stats};
use crate::traffic::MemTraffic;
use bear_sim::time::Cycle;
use std::collections::HashMap;

/// Pass-through "controller": memory only.
#[derive(Debug)]
pub struct NoCacheController {
    /// Shared transaction skeleton (the cache device stays idle).
    pub engine: Engine,
    reads: HashMap<u64, (u64, Cycle)>,
}

impl NoCacheController {
    /// Builds the pass-through controller.
    pub fn new(cfg: &SystemConfig) -> Self {
        let stack = TechniqueStack::from_config(cfg, 1);
        NoCacheController {
            engine: Engine::new(cfg, stack),
            reads: HashMap::new(),
        }
    }
}

impl L4Cache for NoCacheController {
    fn submit_read(&mut self, line: u64, _pc: u64, _core: u32, now: Cycle) {
        self.engine.stats.read_lookups += 1;
        // There is no cache: every demand read is a miss by construction.
        self.engine
            .emit(ObsEvent::ReadClassified { line, hit: false });
        let txn = self.engine.alloc_txn();
        self.reads.insert(txn, (line, now));
        self.engine
            .harness
            .mem_read(txn, line, MemTraffic::DemandRead.class(), now);
    }

    fn submit_writeback(&mut self, line: u64, _dcp_hint: Option<bool>, now: Cycle) {
        self.engine.stats.wb_lookups += 1;
        self.engine.emit(ObsEvent::WbResolved {
            line,
            hit: false,
            probe_skipped: true,
            allocated: false,
        });
        self.engine.direct_mem_write(line, now);
    }

    fn submit_direct_mem_write(&mut self, line: u64, now: Cycle) {
        self.engine.direct_mem_write(line, now);
    }

    fn tick(&mut self, now: Cycle, out: &mut L4Outputs) {
        let completions = self.engine.begin_tick(now);
        for c in &completions {
            if c.leg == Leg::MemRead {
                if let Some((line, arrival)) = self.reads.remove(&c.txn) {
                    self.engine
                        .stats
                        .miss_latency
                        .record((c.finish - arrival) as f64);
                    out.deliveries.push(Delivery {
                        line,
                        l4_hit: false,
                        in_l4: false,
                    });
                }
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
        self.reads.len()
    }

    fn controller_idle_until(&self, _now: Cycle) -> Cycle {
        // Purely completion-driven: all transaction state waits on device
        // completions.
        Cycle::NEVER
    }

    fn contains_line(&self, _line: u64) -> Option<bool> {
        Some(false)
    }

    fn set_observe(&mut self, on: bool) {
        self.engine.set_observe(on);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DesignKind, SystemConfig};

    #[test]
    fn reads_come_from_memory_only() {
        let cfg = SystemConfig::paper_baseline(DesignKind::NoCache);
        let mut ctrl = NoCacheController::new(&cfg);
        let mut out = L4Outputs::default();
        ctrl.submit_read(0x10, 0, 0, Cycle(0));
        let mut t = 0u64;
        while ctrl.pending_txns() > 0 {
            ctrl.tick(Cycle(t), &mut out);
            t += 1;
            assert!(t < 100_000);
        }
        assert_eq!(out.deliveries.len(), 1);
        assert!(!out.deliveries[0].l4_hit);
        assert!(!out.deliveries[0].in_l4);
        assert_eq!(
            ctrl.engine.harness.cache.total_bytes(),
            0,
            "cache device unused"
        );
        assert_eq!(
            ctrl.engine
                .harness
                .mem
                .bytes_in_class(MemTraffic::DemandRead.class()),
            64
        );
        assert_eq!(ctrl.stats().hit_rate(), 0.0);
        assert!(ctrl.stats().miss_latency.mean() > 0.0);
    }

    #[test]
    fn writebacks_go_to_memory() {
        let cfg = SystemConfig::paper_baseline(DesignKind::NoCache);
        let mut ctrl = NoCacheController::new(&cfg);
        let mut out = L4Outputs::default();
        ctrl.submit_writeback(0x20, None, Cycle(0));
        for t in 0..50_000u64 {
            ctrl.tick(Cycle(t), &mut out);
        }
        assert_eq!(
            ctrl.engine
                .harness
                .mem
                .bytes_in_class(MemTraffic::Writeback.class()),
            64
        );
        assert_eq!(ctrl.stats().wb_lookups, 1);
    }
}
