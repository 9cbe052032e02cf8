//! The organization-independent half of every L4 controller.
//!
//! [`Engine`] owns the mechanism all organizations share: both DRAM
//! devices, the [`L4Stats`] block, the [`TechniqueStack`], the table of
//! demand reads whose outcome the tags resolved at issue, the hit/miss
//! accounting and delivery of demand reads, eviction reporting, and the
//! staged observation events. A controller keeps only its organization:
//! placement, tag state, and the policy that routes completions.
//!
//! Tick protocol: call [`Engine::begin_tick`] to advance the DRAM devices
//! and take the routed completions, handle each one, then
//! [`Engine::finish_tick`] to return the buffer and flush the staged
//! evictions and observation events, each in decision order.

use crate::config::SystemConfig;
use crate::events::ObsEvent;
use crate::harness::{DeviceHarness, RoutedCompletion};
use crate::l4::stack::TechniqueStack;
use crate::l4::{ControllerProbe, Delivery, L4Outputs, L4Stats, LINE_BEATS};
use crate::traffic::{BloatCategory, MemTraffic};
use bear_dram::request::DramLocation;
use bear_sim::time::Cycle;

/// Generational arena for in-flight transaction state.
///
/// Transactions sit in slot order, slots are recycled through a free
/// list, and a 30-bit generation is folded into the id so a stale id from
/// a recycled slot can never alias a live transaction. Ids are nonzero
/// and fit in 62 bits, leaving the two low bits free for the harness leg
/// encoding.
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

/// A demand read whose outcome the tags resolved at issue (Loh-Hill,
/// TIS/SC, no cache). It waits on one routed leg: the cache data read of
/// a hit, or the memory read of a miss.
#[derive(Debug, Clone, Copy)]
pub struct ReadTxn {
    /// Line address.
    pub line: u64,
    /// Cycle the read reached the controller (the latency origin).
    pub arrival: Cycle,
    /// Whether the tags classified it a hit.
    pub expect_hit: bool,
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
    reads: TxnTable<ReadTxn>,
    completions: Vec<RoutedCompletion>,
    /// Evicted lines not yet reported through [`L4Outputs::evictions`].
    evictions: Vec<u64>,
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
            reads: TxnTable::new(),
            completions: Vec::with_capacity(16),
            evictions: Vec::new(),
            observe: false,
            staged_events: Vec::new(),
        }
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

    /// Arms (or disarms) oracle observation.
    pub fn set_observe(&mut self, on: bool) {
        self.observe = on;
    }

    /// Advances the DRAM devices one cycle and returns the completions
    /// they routed. The returned buffer must come back through
    /// [`finish_tick`](Engine::finish_tick) so its capacity is reused.
    pub fn begin_tick(&mut self, now: Cycle) -> Vec<RoutedCompletion> {
        let mut completions = std::mem::take(&mut self.completions);
        completions.clear();
        self.harness.tick(now, &mut completions);
        completions
    }

    /// Returns the completion buffer and flushes the staged evictions and
    /// observation events into `out`.
    pub fn finish_tick(&mut self, completions: Vec<RoutedCompletion>, out: &mut L4Outputs) {
        self.completions = completions;
        out.evictions.append(&mut self.evictions);
        if self.observe {
            out.events.append(&mut self.staged_events);
        }
    }

    /// The engine's busy hint: `now` while a submit-time eviction or a
    /// staged observation event waits for the next tick to report it,
    /// else [`Cycle::NEVER`]. (A submission whose DRAM request waits
    /// behind a full channel leaves the harness idle, so the events it
    /// staged must keep the controller busy on their own.)
    pub fn idle_until(&self, now: Cycle) -> Cycle {
        if self.evictions.is_empty() && self.staged_events.is_empty() {
            Cycle::NEVER
        } else {
            now
        }
    }

    /// Issues a demand read whose outcome the tags already know: a hit
    /// reads `beats` from the cache at `loc`, a miss reads memory.
    pub fn issue_read(
        &mut self,
        line: u64,
        arrival: Cycle,
        hit_at: Option<(DramLocation, u64)>,
        now: Cycle,
    ) {
        let txn = self.reads.insert(ReadTxn {
            line,
            arrival,
            expect_hit: hit_at.is_some(),
        });
        match hit_at {
            Some((loc, beats)) => {
                self.harness
                    .cache_read(Some(txn), loc, beats, BloatCategory::Hit.class(), now);
            }
            None => self
                .harness
                .mem_read(txn, line, MemTraffic::DemandRead.class(), now),
        }
    }

    /// Retires the [`issue_read`](Engine::issue_read) read that `c`
    /// completes. A hit is counted and delivered here; a miss is returned
    /// for the organization's fill decision.
    pub fn finish_read(&mut self, c: &RoutedCompletion, out: &mut L4Outputs) -> Option<ReadTxn> {
        let txn = self.reads.remove(c.txn)?;
        if txn.expect_hit {
            self.deliver_hit(txn.line, txn.arrival, c.finish, out);
        }
        Some(txn)
    }

    /// Reads issued through [`issue_read`](Engine::issue_read) and not
    /// yet retired.
    pub fn pending_reads(&self) -> usize {
        self.reads.len()
    }

    /// Counts a demand hit that completed at `finish` and delivers it.
    pub fn deliver_hit(&mut self, line: u64, arrival: Cycle, finish: Cycle, out: &mut L4Outputs) {
        self.stats.read_hits += 1;
        self.stats.useful_lines += 1;
        self.stats.hit_latency.record((finish - arrival) as f64);
        out.deliveries.push(Delivery {
            line,
            l4_hit: true,
            in_l4: true,
        });
    }

    /// Records a demand miss that completed at `finish` and delivers it.
    pub fn deliver_miss(
        &mut self,
        line: u64,
        arrival: Cycle,
        finish: Cycle,
        in_l4: bool,
        out: &mut L4Outputs,
    ) {
        self.stats.miss_latency.record((finish - arrival) as f64);
        out.deliveries.push(Delivery {
            line,
            l4_hit: false,
            in_l4,
        });
    }

    /// Retires a demand miss: the stack's fill hook decides, for the
    /// bypass duel group `duel_set`, whether to fill or bypass; the
    /// choice is counted and the line delivered. Returns whether the
    /// organization must install the line.
    pub fn fill_or_bypass(
        &mut self,
        line: u64,
        arrival: Cycle,
        finish: Cycle,
        duel_set: u64,
        out: &mut L4Outputs,
    ) -> bool {
        let fill = self.stack.on_fill_decision(duel_set);
        if fill {
            self.stats.fills += 1;
        } else {
            self.stats.bypasses += 1;
            self.emit(ObsEvent::Bypassed { line });
        }
        self.deliver_miss(line, arrival, finish, fill, out);
        fill
    }

    /// Reports `line` evicted from the DRAM cache: counts it, emits
    /// [`ObsEvent::Evicted`], and stages it for the next
    /// [`L4Outputs::evictions`].
    pub fn evict(&mut self, line: u64, dirty: bool) {
        self.stats.evictions += 1;
        self.emit(ObsEvent::Evicted { line, dirty });
        self.evictions.push(line);
    }

    /// Writes a dirty victim back to memory, first reading its data out
    /// of the cache at `readout` when the organization did not already
    /// move it (Alloy's probe carries it).
    pub fn write_back_victim(&mut self, line: u64, readout: Option<DramLocation>, now: Cycle) {
        if let Some(loc) = readout {
            self.harness.cache_read(
                None,
                loc,
                LINE_BEATS,
                BloatCategory::VictimRead.class(),
                now,
            );
        }
        self.harness
            .mem_write(line, MemTraffic::VictimWrite.class(), now);
    }

    /// Writes `line` straight to commodity memory as a writeback.
    pub fn direct_mem_write(&mut self, line: u64, now: Cycle) {
        self.harness
            .mem_write(line, MemTraffic::Writeback.class(), now);
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
    use crate::harness::Leg;

    fn engine() -> Engine {
        let cfg = SystemConfig::paper_baseline(DesignKind::Alloy);
        let stack = TechniqueStack::from_config(&cfg, 64);
        Engine::new(&cfg, stack)
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
        // A staged event keeps the engine busy until a tick reports it.
        assert_eq!(e.idle_until(Cycle(1)), Cycle(1));
        let c = e.begin_tick(Cycle(1));
        e.finish_tick(c, &mut out);
        assert_eq!(out.events.len(), 1);
        assert_eq!(e.idle_until(Cycle(2)), Cycle::NEVER);
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

    #[test]
    fn unrouted_completions_never_reach_the_controller() {
        let mut e = engine();
        let mut out = L4Outputs::default();
        let loc = DramLocation {
            channel: 0,
            rank: 0,
            bank: 0,
            row: 1,
        };
        // The read takes read-table id 1; a posted write, a victim
        // read-out and a victim write run beside it without an id.
        e.issue_read(0x40, Cycle(0), None, Cycle(0));
        e.harness
            .cache_write(loc, 5, BloatCategory::MissFill.class(), Cycle(0));
        e.write_back_victim(0xC0, Some(loc), Cycle(0));
        e.direct_mem_write(0x80, Cycle(0));
        let mut routed = Vec::new();
        let mut t = 0;
        while e.harness.pending() > 0 {
            let completions = e.begin_tick(Cycle(t));
            for c in &completions {
                routed.push((c.txn, c.leg));
                let txn = e.finish_read(c, &mut out).expect("a live read");
                assert_eq!((txn.line, txn.expect_hit), (0x40, false));
            }
            e.finish_tick(completions, &mut out);
            t += 1;
            assert!(t < 1_000_000, "engine did not drain");
        }
        assert_eq!(routed, vec![(1, Leg::MemRead)]);
        assert_eq!(e.pending_reads(), 0);
        assert_eq!(
            e.harness
                .cache
                .bytes_in_class(BloatCategory::VictimRead.class()),
            64
        );
    }

    #[test]
    fn evictions_report_on_the_next_tick_in_order() {
        let mut e = engine();
        let mut out = L4Outputs::default();
        e.set_observe(true);
        e.evict(7, true);
        e.evict(3, false);
        assert_eq!(e.stats.evictions, 2);
        assert_eq!(e.idle_until(Cycle(5)), Cycle(5), "busy until reported");
        let c = e.begin_tick(Cycle(5));
        e.finish_tick(c, &mut out);
        assert_eq!(out.evictions, vec![7, 3]);
        assert_eq!(
            out.events,
            vec![
                ObsEvent::Evicted {
                    line: 7,
                    dirty: true
                },
                ObsEvent::Evicted {
                    line: 3,
                    dirty: false
                },
            ]
        );
        assert_eq!(e.idle_until(Cycle(6)), Cycle::NEVER);
    }
}
