//! Shared transaction engine for L4 controllers.
//!
//! Every organization used to re-implement the same skeleton: a device
//! harness, an [`L4Stats`] block, a transaction-id allocator, a reusable
//! completion buffer for the harness tick, and the staged-event machinery
//! for oracle observation. [`Engine`] hoists that skeleton into one place
//! and carries the [`TechniqueStack`] with it, so a controller owns only
//! its genuinely organization-specific core: placement, tag state, and
//! the hit/miss policy that routes completions.
//!
//! Tick protocol: call [`Engine::begin_tick`] to advance the DRAM devices
//! and take the completion list, route each completion through the
//! organization's handlers, then [`Engine::finish_tick`] to return the
//! buffer and flush staged observation events in decision order.

use crate::config::SystemConfig;
use crate::events::ObsEvent;
use crate::harness::{DeviceHarness, RoutedCompletion};
use crate::l4::stack::TechniqueStack;
use crate::l4::{ControllerProbe, L4Outputs, L4Stats};
use crate::traffic::MemTraffic;
use bear_sim::time::Cycle;

/// Generational arena for in-flight transaction state.
///
/// Controllers used to keep their transactions in `HashMap<u64, Txn>`,
/// which scatters the per-completion lookup across the heap and re-hashes
/// an id that is already dense. `TxnTable` stores transactions in slot
/// order (structure-of-arrays friendly: slots vector + generations
/// vector), recycles slots through a free list, and folds a 30-bit
/// generation into the id so a stale id from a recycled slot can never
/// alias a live transaction. Ids are nonzero and fit in 62 bits, leaving
/// the two low bits free for the harness leg encoding
/// (`DeviceHarness::encode_id`).
///
/// Allocation order is deterministic (LIFO free list), so the ids a run
/// produces — and everything keyed on them, like completion routing —
/// are identical across runs.
#[derive(Debug, Clone, Default)]
pub struct TxnTable<T> {
    slots: Vec<Option<T>>,
    gens: Vec<u32>,
    free: Vec<u32>,
}

/// Generation mask: 30 bits, keeping `(gen << 32) | slot` within 62 bits.
const GEN_MASK: u64 = (1 << 30) - 1;

impl<T> TxnTable<T> {
    /// Creates an empty table.
    pub fn new() -> Self {
        TxnTable {
            slots: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Inserts a transaction, returning its id (nonzero, ≤ 62 bits).
    pub fn insert(&mut self, value: T) -> u64 {
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(value);
                s
            }
            None => {
                let s = self.slots.len() as u32;
                assert!(
                    u64::from(s) < u64::from(u32::MAX),
                    "transaction table overflow"
                );
                self.slots.push(Some(value));
                self.gens.push(0);
                s
            }
        };
        let gen = u64::from(self.gens[slot as usize]) & GEN_MASK;
        (gen << 32) | (u64::from(slot) + 1)
    }

    fn decode(&self, id: u64) -> Option<usize> {
        let slot = (id & 0xFFFF_FFFF).checked_sub(1)? as usize;
        let gen = (id >> 32) & GEN_MASK;
        if self.gens.get(slot).copied().map(u64::from) == Some(gen)
            && self.slots.get(slot).is_some_and(Option::is_some)
        {
            Some(slot)
        } else {
            None
        }
    }

    /// Whether `id` names a live transaction.
    pub fn contains(&self, id: u64) -> bool {
        self.decode(id).is_some()
    }

    /// The live transaction named by `id`, if any.
    pub fn get(&self, id: u64) -> Option<&T> {
        let slot = self.decode(id)?;
        self.slots[slot].as_ref()
    }

    /// Mutable access to the live transaction named by `id`, if any.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        let slot = self.decode(id)?;
        self.slots[slot].as_mut()
    }

    /// Removes and returns the transaction named by `id`, bumping the
    /// slot's generation so the stale id can never resolve again.
    pub fn remove(&mut self, id: u64) -> Option<T> {
        let slot = self.decode(id)?;
        let value = self.slots[slot].take();
        self.gens[slot] = self.gens[slot].wrapping_add(1) & (GEN_MASK as u32);
        self.free.push(slot as u32);
        value
    }

    /// Number of live transactions.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Whether the table holds no live transactions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates live transactions in slot order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().filter_map(Option::as_ref)
    }
}

/// The organization-independent half of an L4 controller.
#[derive(Debug)]
pub struct Engine {
    /// Both DRAM devices (stacked cache and commodity memory).
    pub harness: DeviceHarness,
    /// Statistics common to every organization.
    pub stats: L4Stats,
    /// The BEAR technique stack the organization invokes through hooks.
    pub stack: TechniqueStack,
    next_txn: u64,
    completions: Vec<RoutedCompletion>,
    observe: bool,
    staged_events: Vec<ObsEvent>,
}

impl Engine {
    /// Builds the engine for `cfg` around a pre-built technique stack
    /// (the stack needs the organization's bank count, which only the
    /// controller's placement knows).
    pub fn new(cfg: &SystemConfig, stack: TechniqueStack) -> Self {
        Engine {
            harness: DeviceHarness::new(cfg.cache_dram, cfg.mem_dram),
            stats: L4Stats::default(),
            stack,
            next_txn: 0,
            completions: Vec::with_capacity(16),
            observe: false,
            staged_events: Vec::new(),
        }
    }

    /// Allocates a fresh transaction id (never zero).
    pub fn alloc_txn(&mut self) -> u64 {
        self.next_txn += 1;
        self.next_txn
    }

    /// Stages an observation event (no-op unless observation is armed).
    /// Submit-time decisions have no `L4Outputs` in scope, so events are
    /// staged here and drained by [`finish_tick`](Engine::finish_tick),
    /// preserving decision order.
    pub fn emit(&mut self, ev: ObsEvent) {
        if self.observe {
            self.staged_events.push(ev);
        }
    }

    /// Whether oracle observation is armed.
    pub fn observing(&self) -> bool {
        self.observe
    }

    /// Arms (or disarms) oracle observation.
    pub fn set_observe(&mut self, on: bool) {
        self.observe = on;
    }

    /// Advances the DRAM devices one cycle and returns the completions
    /// they produced. The returned buffer must come back through
    /// [`finish_tick`](Engine::finish_tick) so its capacity is reused.
    pub fn begin_tick(&mut self, now: Cycle) -> Vec<RoutedCompletion> {
        let mut completions = std::mem::take(&mut self.completions);
        completions.clear();
        self.harness.tick(now, &mut completions);
        completions
    }

    /// Returns the completion buffer and flushes staged observation
    /// events into `out`.
    pub fn finish_tick(&mut self, completions: Vec<RoutedCompletion>, out: &mut L4Outputs) {
        self.completions = completions;
        if self.observe {
            out.events.append(&mut self.staged_events);
        }
    }

    /// Writes `line` straight to commodity memory as a writeback.
    pub fn direct_mem_write(&mut self, line: u64, now: Cycle) {
        let txn = self.alloc_txn();
        self.harness
            .mem_write(txn, line, MemTraffic::Writeback.class(), now);
    }

    /// Writes a dirty victim of the cache to commodity memory.
    pub fn victim_mem_write(&mut self, line: u64, now: Cycle) {
        let txn = self.alloc_txn();
        self.harness
            .mem_write(txn, line, MemTraffic::VictimWrite.class(), now);
    }

    /// Earliest cycle at which ticking the devices can change state (see
    /// [`DeviceHarness::next_busy_cycle`]). Controllers with no internal
    /// time-based queues can use this directly as their event hint.
    pub fn next_busy_cycle(&self, now: Cycle) -> Cycle {
        self.harness.next_busy_cycle(now)
    }

    /// Resets statistics across the engine, stack, and devices.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
        self.stack.reset_stats();
        self.harness.reset_device_stats();
    }

    /// Assembles a telemetry probe from occupancy figures the controller
    /// supplies plus the stack's technique counters.
    pub fn probe(
        &self,
        occupied_lines: u64,
        dirty_lines: u64,
        capacity_lines: u64,
    ) -> ControllerProbe {
        let mut probe = ControllerProbe {
            occupied_lines,
            dirty_lines,
            capacity_lines,
            ..ControllerProbe::default()
        };
        self.stack.fill_probe(&mut probe);
        probe
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DesignKind, SystemConfig};

    fn engine() -> Engine {
        let cfg = SystemConfig::paper_baseline(DesignKind::Alloy);
        let stack = TechniqueStack::from_config(&cfg, 64);
        Engine::new(&cfg, stack)
    }

    #[test]
    fn txn_ids_are_unique_and_nonzero() {
        let mut e = engine();
        let a = e.alloc_txn();
        let b = e.alloc_txn();
        assert!(a > 0 && b > a);
    }

    #[test]
    fn txn_table_round_trips_and_recycles() {
        let mut t = TxnTable::new();
        let a = t.insert("a");
        let b = t.insert("b");
        assert!(a > 0 && b > 0 && a != b);
        assert!(a >> 62 == 0 && b >> 62 == 0, "ids must fit in 62 bits");
        assert_eq!(t.get(a), Some(&"a"));
        assert_eq!(t.len(), 2);
        *t.get_mut(b).unwrap() = "b2";
        assert_eq!(t.remove(b), Some("b2"));
        assert_eq!(t.len(), 1);
        // The recycled slot gets a new generation: the stale id is dead.
        let c = t.insert("c");
        assert_ne!(c, b);
        assert!(!t.contains(b));
        assert_eq!(t.remove(b), None);
        assert_eq!(t.get(c), Some(&"c"));
        assert_eq!(t.iter().count(), 2);
    }

    #[test]
    fn txn_table_rejects_garbage_ids() {
        let mut t: TxnTable<u8> = TxnTable::new();
        let id = t.insert(7);
        for bad in [0, id + 1, id | (1 << 32), u64::MAX] {
            if bad != id {
                assert!(!t.contains(bad), "{bad:#x} must not resolve");
                assert_eq!(t.get(bad), None);
            }
        }
    }

    #[test]
    fn txn_table_allocation_is_deterministic() {
        // Two tables fed the same insert/remove schedule hand out the
        // same ids — the property thread-count invariance leans on.
        let mut x = TxnTable::new();
        let mut y = TxnTable::new();
        let mut ids_x = Vec::new();
        let mut ids_y = Vec::new();
        for round in 0..3 {
            for i in 0..5 {
                ids_x.push(x.insert((round, i)));
                ids_y.push(y.insert((round, i)));
            }
            x.remove(ids_x[ids_x.len() - 2]);
            y.remove(ids_y[ids_y.len() - 2]);
        }
        assert_eq!(ids_x, ids_y);
    }

    #[test]
    fn events_stage_only_while_observing() {
        let mut e = engine();
        let mut out = L4Outputs::default();
        e.emit(ObsEvent::Bypassed { line: 1 });
        let c = e.begin_tick(Cycle(0));
        e.finish_tick(c, &mut out);
        assert!(out.events.is_empty(), "disarmed engine stages nothing");

        e.set_observe(true);
        e.emit(ObsEvent::Bypassed { line: 2 });
        let c = e.begin_tick(Cycle(1));
        e.finish_tick(c, &mut out);
        assert_eq!(out.events.len(), 1);
    }

    #[test]
    fn direct_writes_reach_memory() {
        let mut e = engine();
        let mut out = L4Outputs::default();
        e.direct_mem_write(0x40, Cycle(0));
        let mut t = 0;
        while e.harness.pending() > 0 {
            let c = e.begin_tick(Cycle(t));
            e.finish_tick(c, &mut out);
            t += 1;
            assert!(t < 100_000, "engine did not drain");
        }
        assert_eq!(
            e.harness.mem.bytes_in_class(MemTraffic::Writeback.class()),
            64
        );
    }

    #[test]
    fn probe_carries_occupancy_and_stack_counters() {
        let mut e = engine();
        e.stack.on_fill_decision(9);
        let p = e.probe(3, 1, 100);
        assert_eq!(p.occupied_lines, 3);
        assert_eq!(p.dirty_lines, 1);
        assert_eq!(p.capacity_lines, 100);
        assert_eq!(p.bab_bypassed + p.bab_filled, 1);
    }
}
