//! Device harness: plumbing shared by every L4 controller.
//!
//! Each controller owns two DRAM devices (the stacked cache and commodity
//! memory) plus retry queues that apply backpressure when a device channel
//! queue is full — the mechanism through which bandwidth bloat becomes
//! queuing delay. Requests carry `(transaction id, leg)` so completions can
//! be routed back to the owning state machine.

use crate::ledger::AttributionLedger;
use bear_dram::config::DramConfig;
use bear_dram::device::{Completion, DramDevice};
use bear_dram::mapping::{AddressMapper, Interleave};
use bear_dram::request::{DramLocation, DramRequest, TrafficClass};
use bear_sim::invariants::InvariantSink;
use bear_sim::time::Cycle;
use std::collections::VecDeque;

/// Which step of a transaction a DRAM request implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Leg {
    /// Tag/data probe read on the cache device.
    CacheProbe = 0,
    /// Demand line read on the memory device.
    MemRead = 1,
    /// Posted write (fill/update/victim); completions are ignored.
    PostedWrite = 2,
    /// Data read on the cache device whose completion gates the
    /// transaction (LH data stage, TIS/SC hit reads, victim reads).
    CacheData = 3,
}

impl Leg {
    fn from_bits(b: u64) -> Leg {
        match b {
            0 => Leg::CacheProbe,
            1 => Leg::MemRead,
            2 => Leg::PostedWrite,
            _ => Leg::CacheData,
        }
    }
}

/// A routed completion: which transaction, which leg, when.
#[derive(Debug, Clone, Copy)]
pub struct RoutedCompletion {
    /// Transaction identifier supplied at issue time.
    pub txn: u64,
    /// Which leg finished.
    pub leg: Leg,
    /// Finish time of the last data beat.
    pub finish: Cycle,
}

/// Both DRAM devices plus issue/retry queues and completion routing.
#[derive(Debug)]
pub struct DeviceHarness {
    /// The stacked-DRAM cache device.
    pub cache: DramDevice,
    /// The commodity main-memory device.
    pub mem: DramDevice,
    mem_mapper: AddressMapper,
    cache_retry: VecDeque<DramRequest>,
    mem_retry: VecDeque<DramRequest>,
    scratch: Vec<Completion>,
    /// Bytes submitted to the cache device since the last stats reset —
    /// the "expected" side of the byte-conservation invariant.
    expected_cache_bytes: u64,
    /// Per-class byte attribution for both devices, charged at submit
    /// time — the "expected" side of the attribution-conservation
    /// invariant and the source feeding window samples and metrics.
    ledger: AttributionLedger,
    /// When set, [`DeviceHarness::tick`] elides channels whose memoized
    /// busy hint proves this cycle a no-op (see
    /// [`DramDevice::tick_gated`]). Both settings produce bit-identical
    /// device state; the flag only trades per-tick walk cost for hint
    /// reads, so the event-driven driver arms it and the per-cycle
    /// polling baseline leaves it off.
    event_gated: bool,
}

impl DeviceHarness {
    /// Builds the harness from the two device configurations.
    pub fn new(cache_cfg: DramConfig, mem_cfg: DramConfig) -> Self {
        DeviceHarness {
            cache: DramDevice::new(cache_cfg),
            mem: DramDevice::new(mem_cfg),
            mem_mapper: AddressMapper::new(mem_cfg.topology, Interleave::ChannelFirst),
            cache_retry: VecDeque::new(),
            mem_retry: VecDeque::new(),
            scratch: Vec::with_capacity(16),
            expected_cache_bytes: 0,
            ledger: AttributionLedger::new(),
            event_gated: false,
        }
    }

    /// Arms (or disarms) per-channel tick elision (see
    /// [`DeviceHarness::tick`]'s `event_gated` field).
    pub fn set_event_gating(&mut self, on: bool) {
        self.event_gated = on;
    }

    fn encode_id(txn: u64, leg: Leg) -> u64 {
        (txn << 2) | leg as u64
    }

    /// Queues a read on the cache device at `location`.
    pub fn cache_read(
        &mut self,
        txn: u64,
        leg: Leg,
        location: DramLocation,
        beats: u64,
        class: TrafficClass,
        now: Cycle,
    ) {
        debug_assert!(matches!(leg, Leg::CacheProbe | Leg::CacheData));
        let bytes = beats * self.cache.config().topology.beat_bytes;
        self.expected_cache_bytes += bytes;
        self.ledger.charge(class, bytes);
        self.cache_retry.push_back(DramRequest::read(
            Self::encode_id(txn, leg),
            location,
            beats,
            class,
            now,
        ));
    }

    /// Queues a posted write on the cache device.
    pub fn cache_write(
        &mut self,
        txn: u64,
        location: DramLocation,
        beats: u64,
        class: TrafficClass,
        now: Cycle,
    ) {
        let bytes = beats * self.cache.config().topology.beat_bytes;
        self.expected_cache_bytes += bytes;
        self.ledger.charge(class, bytes);
        self.cache_retry.push_back(DramRequest::write(
            Self::encode_id(txn, Leg::PostedWrite),
            location,
            beats,
            class,
            now,
        ));
    }

    /// Queues a demand line read on the memory device (address-mapped).
    pub fn mem_read(&mut self, txn: u64, line_addr: u64, class: TrafficClass, now: Cycle) {
        let loc = self.mem_mapper.map(line_addr * 64);
        let beats = self.mem.config().topology.beats_for(64);
        self.ledger
            .charge(class, beats * self.mem.config().topology.beat_bytes);
        self.mem_retry.push_back(DramRequest::read(
            Self::encode_id(txn, Leg::MemRead),
            loc,
            beats,
            class,
            now,
        ));
    }

    /// Queues a posted 64 B write on the memory device.
    pub fn mem_write(&mut self, txn: u64, line_addr: u64, class: TrafficClass, now: Cycle) {
        let loc = self.mem_mapper.map(line_addr * 64);
        let beats = self.mem.config().topology.beats_for(64);
        self.ledger
            .charge(class, beats * self.mem.config().topology.beat_bytes);
        self.mem_retry.push_back(DramRequest::write(
            Self::encode_id(txn, Leg::PostedWrite),
            loc,
            beats,
            class,
            now,
        ));
    }

    /// Drains retry queues into the devices (respecting backpressure),
    /// advances both devices one cycle, and routes completions.
    ///
    /// Posted-write completions are filtered out; only gating legs are
    /// returned.
    pub fn tick(&mut self, now: Cycle, out: &mut Vec<RoutedCompletion>) {
        // Issue as many queued requests as the channels will accept.
        Self::drain(&mut self.cache_retry, &mut self.cache);
        Self::drain(&mut self.mem_retry, &mut self.mem);

        self.scratch.clear();
        if self.event_gated {
            self.cache.tick_gated(now, &mut self.scratch);
            self.mem.tick_gated(now, &mut self.scratch);
        } else {
            self.cache.tick(now, &mut self.scratch);
            self.mem.tick(now, &mut self.scratch);
        }
        for c in &self.scratch {
            let leg = Leg::from_bits(c.request.id & 3);
            if leg == Leg::PostedWrite {
                continue;
            }
            out.push(RoutedCompletion {
                txn: c.request.id >> 2,
                leg,
                finish: c.finish,
            });
        }
    }

    fn drain(queue: &mut VecDeque<DramRequest>, device: &mut DramDevice) {
        // In-order per queue; head-of-line blocking is intentional (it is
        // the backpressure signal). A request the device rejects (full or
        // out-of-range channel) stays at the head; a permanently rejected
        // head therefore stalls the queue and surfaces as a watchdog
        // `Stalled` outcome rather than a panic.
        while let Some(req) = queue.pop_front() {
            if let Err(req) = device.try_enqueue(req) {
                queue.push_front(req);
                break;
            }
        }
    }

    /// Outstanding work anywhere in the harness.
    pub fn pending(&self) -> usize {
        self.cache.pending() + self.mem.pending() + self.cache_retry.len() + self.mem_retry.len()
    }

    /// Earliest cycle at which ticking the harness can change state: ticks
    /// strictly before it are guaranteed no-ops. Retry queues drain at tick
    /// start, so any backlog makes the harness busy immediately; otherwise
    /// the devices' own hints govern. [`Cycle::NEVER`] when fully drained.
    pub fn next_busy_cycle(&self, now: Cycle) -> Cycle {
        if !self.cache_retry.is_empty() || !self.mem_retry.is_empty() {
            return now;
        }
        let cache = self.cache.next_busy_cycle(now);
        if cache <= now {
            return cache;
        }
        cache.min(self.mem.next_busy_cycle(now))
    }

    /// A cycle strictly before which no device can produce a completion,
    /// provided nothing is submitted in the meantime (min over both
    /// devices' [`DramDevice::completion_horizon`]). Retry backlog makes
    /// the horizon `now` — a drained request could issue and pipeline
    /// behind in-flight work in ways only real ticking resolves.
    pub fn completion_horizon(&self, now: Cycle) -> Cycle {
        if !self.cache_retry.is_empty() || !self.mem_retry.is_empty() {
            return now;
        }
        self.cache
            .completion_horizon(now)
            .min(self.mem.completion_horizon(now))
    }

    /// Advances both devices from `now` to `horizon` with
    /// [`DramDevice::advance_span`], replaying each channel's busy ticks
    /// exactly as per-cycle driving would. The caller must have
    /// established `horizon <= self.completion_horizon(now)` and must not
    /// submit requests during the span; under that contract no completion
    /// occurs.
    pub fn advance_span(&mut self, now: Cycle, horizon: Cycle) {
        debug_assert!(
            self.cache_retry.is_empty() && self.mem_retry.is_empty(),
            "span advance with retry backlog"
        );
        self.cache.advance_span(now, horizon);
        self.mem.advance_span(now, horizon);
    }

    /// Requests waiting in retry queues (backpressure depth).
    pub fn retry_depth(&self) -> usize {
        self.cache_retry.len() + self.mem_retry.len()
    }

    /// Bytes sitting in the cache-device retry queue.
    fn cache_retry_bytes(&self) -> u64 {
        let beat_bytes = self.cache.config().topology.beat_bytes;
        self.cache_retry.iter().map(|r| r.beats * beat_bytes).sum()
    }

    /// The bandwidth-attribution ledger (per-class bytes, both devices).
    pub fn ledger(&self) -> &AttributionLedger {
        &self.ledger
    }

    /// Per-class bytes held in retry queues (both devices), not yet
    /// visible to either device's meters or channel queues.
    fn retry_bytes_by_class(&self) -> [u64; TrafficClass::COUNT] {
        let mut out = [0u64; TrafficClass::COUNT];
        let cache_beat = self.cache.config().topology.beat_bytes;
        for r in &self.cache_retry {
            out[(r.class.0 as usize).min(TrafficClass::COUNT - 1)] += r.beats * cache_beat;
        }
        let mem_beat = self.mem.config().topology.beat_bytes;
        for r in &self.mem_retry {
            out[(r.class.0 as usize).min(TrafficClass::COUNT - 1)] += r.beats * mem_beat;
        }
        out
    }

    /// Per-class bytes observable outside the ledger: device meters
    /// (counted at CAS issue) plus channel queues plus retry queues,
    /// summed over both devices. The attribution-conservation invariant
    /// compares this against the ledger class by class.
    fn observed_bytes_by_class(&self) -> [u64; TrafficClass::COUNT] {
        let mut out = self.retry_bytes_by_class();
        let cache_queued = self.cache.queued_bytes_by_class();
        let mem_queued = self.mem.queued_bytes_by_class();
        for (idx, slot) in out.iter_mut().enumerate() {
            let class = TrafficClass(idx as u8);
            *slot += self.cache.bytes_in_class(class)
                + self.mem.bytes_in_class(class)
                + cache_queued[idx]
                + mem_queued[idx];
        }
        out
    }

    /// Resets both devices' statistics and re-seeds the expected-bytes
    /// counter so the byte-conservation invariant stays balanced across a
    /// reset: transferred bytes restart at zero, so only bytes still
    /// queued (channel queues + retry queue) remain expected. Requests
    /// already issued to a bank were accounted at CAS time and drop out of
    /// both sides.
    pub fn reset_device_stats(&mut self) {
        self.cache.reset_stats();
        self.mem.reset_stats();
        self.expected_cache_bytes = self.cache.queued_bytes() + self.cache_retry_bytes();
        // Reseed the ledger the same way, class by class: transferred
        // bytes restart at zero, so only bytes still queued (channel
        // queues + retry queues, both devices) remain attributed.
        let mut seed = self.retry_bytes_by_class();
        let cache_queued = self.cache.queued_bytes_by_class();
        let mem_queued = self.mem.queued_bytes_by_class();
        for (idx, slot) in seed.iter_mut().enumerate() {
            *slot += cache_queued[idx] + mem_queued[idx];
        }
        self.ledger.reseed(seed);
    }

    /// Perturbs the expected-bytes counter (fault injection only).
    pub fn corrupt_expected_bytes(&mut self) {
        self.expected_cache_bytes ^= 0x40;
    }

    /// Byte-conservation invariant: every byte submitted on the cache bus
    /// is either transferred (device statistics), queued in a channel, or
    /// waiting in the retry queue. Holds at tick boundaries for every
    /// design because all cache-device traffic funnels through
    /// [`DeviceHarness::cache_read`] / [`DeviceHarness::cache_write`].
    pub fn check_byte_conservation(&self, now: Cycle, sink: &mut InvariantSink) {
        if !sink.enabled() {
            return;
        }
        let transferred = self.cache.total_bytes();
        let queued = self.cache.queued_bytes();
        let retry = self.cache_retry_bytes();
        let observed = transferred + queued + retry;
        let expected = self.expected_cache_bytes;
        if observed != expected {
            sink.report("byte-conservation", now.0, || {
                format!(
                    "expected {expected} cache-bus bytes but observed {observed} \
                     (transferred {transferred} + queued {queued} + retry {retry})"
                )
            });
        }
    }

    /// Attribution-conservation invariant: the per-class refinement of
    /// [`DeviceHarness::check_byte_conservation`], over *both* devices.
    /// Every byte the ledger attributed to a class must be transferred,
    /// queued in a channel, or waiting in a retry queue under that same
    /// class — so per-source attributed bytes always sum to total bytes
    /// moved, with nothing double-counted or dropped.
    pub fn check_attribution(&self, now: Cycle, sink: &mut InvariantSink) {
        if !sink.enabled() {
            return;
        }
        let observed = self.observed_bytes_by_class();
        for (idx, &seen) in observed.iter().enumerate() {
            let class = TrafficClass(idx as u8);
            let attributed = self.ledger.bytes_in_class(class);
            if attributed != seen {
                sink.report("attribution-conservation", now.0, || {
                    format!(
                        "class {idx}: ledger attributed {attributed} bytes \
                         but devices observed {seen}"
                    )
                });
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::{BloatCategory, MemTraffic};

    fn harness() -> DeviceHarness {
        DeviceHarness::new(
            DramConfig::stacked_cache_8x(),
            DramConfig::commodity_memory(),
        )
    }

    fn loc(channel: u32, bank: u32, row: u64) -> DramLocation {
        DramLocation {
            channel,
            rank: 0,
            bank,
            row,
        }
    }

    fn run(h: &mut DeviceHarness, want: usize, max: u64) -> Vec<RoutedCompletion> {
        let mut out = Vec::new();
        let mut t = Cycle(0);
        while out.len() < want && t.0 < max {
            h.tick(t, &mut out);
            t += 1;
        }
        out
    }

    #[test]
    fn cache_read_completion_routed_with_txn_and_leg() {
        let mut h = harness();
        h.cache_read(
            42,
            Leg::CacheProbe,
            loc(0, 0, 1),
            5,
            BloatCategory::MissProbe.class(),
            Cycle(0),
        );
        let done = run(&mut h, 1, 10_000);
        assert_eq!(done[0].txn, 42);
        assert_eq!(done[0].leg, Leg::CacheProbe);
        assert_eq!(h.cache.bytes_in_class(BloatCategory::MissProbe.class()), 80);
    }

    #[test]
    fn posted_writes_complete_silently() {
        let mut h = harness();
        h.cache_write(
            7,
            loc(1, 0, 1),
            5,
            BloatCategory::MissFill.class(),
            Cycle(0),
        );
        let mut out = Vec::new();
        for t in 0..5_000u64 {
            h.tick(Cycle(t), &mut out);
        }
        assert!(out.is_empty(), "posted write must not be routed");
        assert_eq!(h.cache.bytes_in_class(BloatCategory::MissFill.class()), 80);
        assert_eq!(h.pending(), 0);
    }

    #[test]
    fn mem_read_and_write_are_mapped_and_counted() {
        let mut h = harness();
        h.mem_read(1, 0x1000, MemTraffic::DemandRead.class(), Cycle(0));
        h.mem_write(2, 0x2000, MemTraffic::VictimWrite.class(), Cycle(0));
        let done = run(&mut h, 1, 100_000);
        assert_eq!(done[0].leg, Leg::MemRead);
        assert_eq!(h.mem.bytes_in_class(MemTraffic::DemandRead.class()), 64);
        // Writes are posted and drain after reads; keep ticking.
        let mut out = Vec::new();
        let mut t = Cycle(100_000);
        while h.pending() > 0 {
            h.tick(t, &mut out);
            t += 1;
            assert!(t.0 < 1_000_000, "write never drained");
        }
        assert_eq!(h.mem.bytes_in_class(MemTraffic::VictimWrite.class()), 64);
    }

    #[test]
    fn retry_queue_applies_backpressure_without_loss() {
        let mut h = DeviceHarness::new(
            {
                let mut c = DramConfig::stacked_cache_8x();
                c.read_queue_capacity = 2;
                c
            },
            DramConfig::commodity_memory(),
        );
        for i in 0..20 {
            h.cache_read(
                i,
                Leg::CacheProbe,
                loc(0, 0, i),
                5,
                BloatCategory::Hit.class(),
                Cycle(0),
            );
        }
        assert!(h.retry_depth() > 0 || h.pending() == 20);
        let done = run(&mut h, 20, 1_000_000);
        assert_eq!(done.len(), 20, "all requests eventually serviced");
        assert_eq!(h.pending(), 0);
    }

    #[test]
    fn ledger_matches_devices_at_every_tick() {
        use bear_sim::invariants::{CheckMode, InvariantSink};
        let mut h = harness();
        let mut sink = InvariantSink::new(CheckMode::Record);
        h.cache_read(
            1,
            Leg::CacheProbe,
            loc(0, 0, 1),
            5,
            BloatCategory::MissProbe.class(),
            Cycle(0),
        );
        h.cache_write(
            2,
            loc(1, 0, 2),
            5,
            BloatCategory::MissFill.class(),
            Cycle(0),
        );
        h.mem_read(3, 0x1000, MemTraffic::DemandRead.class(), Cycle(0));
        h.mem_write(4, 0x2000, MemTraffic::VictimWrite.class(), Cycle(0));
        let mut out = Vec::new();
        let mut t = Cycle(0);
        while h.pending() > 0 && t.0 < 1_000_000 {
            h.tick(t, &mut out);
            h.check_attribution(t, &mut sink);
            h.check_byte_conservation(t, &mut sink);
            t += 1;
        }
        assert_eq!(h.pending(), 0);
        assert!(sink.violations().is_empty(), "{:?}", sink.violations());
        // Fully drained: attribution equals the device meters exactly.
        assert_eq!(
            h.ledger().bytes_in_class(BloatCategory::MissProbe.class()),
            h.cache.bytes_in_class(BloatCategory::MissProbe.class())
        );
        assert_eq!(
            h.ledger().total(),
            h.cache.total_bytes() + h.mem.total_bytes()
        );
    }

    #[test]
    fn ledger_survives_stats_reset_with_queued_work() {
        use bear_sim::invariants::{CheckMode, InvariantSink};
        let mut h = harness();
        for i in 0..12 {
            h.cache_read(
                i,
                Leg::CacheProbe,
                loc(0, 0, i),
                5,
                BloatCategory::Hit.class(),
                Cycle(0),
            );
            h.mem_write(
                100 + i,
                0x3000 + i * 64,
                MemTraffic::Writeback.class(),
                Cycle(0),
            );
        }
        // Advance a little so some requests are mid-flight, then reset.
        let mut out = Vec::new();
        for t in 0..40u64 {
            h.tick(Cycle(t), &mut out);
        }
        h.reset_device_stats();
        let mut sink = InvariantSink::new(CheckMode::Record);
        h.check_attribution(Cycle(40), &mut sink);
        let mut t = Cycle(41);
        while h.pending() > 0 && t.0 < 1_000_000 {
            h.tick(t, &mut out);
            h.check_attribution(t, &mut sink);
            t += 1;
        }
        assert!(sink.violations().is_empty(), "{:?}", sink.violations());
    }

    #[test]
    fn corrupted_ledger_trips_the_invariant() {
        use bear_sim::invariants::{CheckMode, InvariantSink};
        let mut h = harness();
        h.cache_read(
            1,
            Leg::CacheProbe,
            loc(0, 0, 1),
            5,
            BloatCategory::Hit.class(),
            Cycle(0),
        );
        h.ledger.corrupt();
        let mut sink = InvariantSink::new(CheckMode::Record);
        h.check_attribution(Cycle(0), &mut sink);
        assert_eq!(sink.violations().len(), 1);
        assert!(sink.violations()[0].detail.contains("ledger attributed"));
    }

    #[test]
    fn distinct_legs_of_one_txn_distinguished() {
        let mut h = harness();
        h.cache_read(
            9,
            Leg::CacheProbe,
            loc(0, 0, 1),
            5,
            BloatCategory::MissProbe.class(),
            Cycle(0),
        );
        h.mem_read(9, 0x40, MemTraffic::DemandRead.class(), Cycle(0));
        let done = run(&mut h, 2, 100_000);
        let legs: std::collections::HashSet<_> = done.iter().map(|c| c.leg).collect();
        assert!(legs.contains(&Leg::CacheProbe));
        assert!(legs.contains(&Leg::MemRead));
        assert!(done.iter().all(|c| c.txn == 9));
    }
}
