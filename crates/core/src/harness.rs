//! Device harness: plumbing shared by every L4 controller.
//!
//! Each controller owns two DRAM devices (the stacked cache and commodity
//! memory) plus retry queues that apply backpressure when a device channel
//! queue is full — the mechanism through which bandwidth bloat becomes
//! queuing delay. A request a transaction waits on carries `(transaction
//! id, leg)` so its completion can be routed back to the owning state
//! machine; every other request (posted writes, victim-data and
//! way-discovery reads) carries no id, and the harness drops its
//! completion.
//! Event-driven, the devices lag: the harness is ticked only when a
//! completion can retire or a retry head can drain, and each tick first
//! replays the channel ticks the devices deferred.

use crate::ledger::AttributionLedger;
use bear_dram::channel::DramWork;
use bear_dram::config::DramConfig;
use bear_dram::device::{Completion, DramDevice};
use bear_dram::mapping::{AddressMapper, Interleave};
use bear_dram::request::{DramLocation, DramRequest, TrafficClass};
use bear_sim::invariants::InvariantSink;
use bear_sim::time::Cycle;
use std::collections::VecDeque;

/// Which routed step of a transaction a DRAM request implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Leg {
    /// Read on the cache device that a transaction waits on: a tag/data
    /// probe, or the data read of a hit the tags already resolved.
    CacheProbe = 0,
    /// Demand line read on the memory device.
    MemRead = 1,
}

/// Request id of a request no transaction waits on (the leg bits of no
/// [`Leg`]); its completion is dropped.
const UNROUTED: u64 = 2;

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

    /// Queues a read on the cache device at `location`. With `Some(txn)`
    /// its completion is routed back to `txn` as [`Leg::CacheProbe`];
    /// with `None` nothing waits on it.
    pub fn cache_read(
        &mut self,
        txn: Option<u64>,
        location: DramLocation,
        beats: u64,
        class: TrafficClass,
        now: Cycle,
    ) {
        let id = txn.map_or(UNROUTED, |t| Self::encode_id(t, Leg::CacheProbe));
        self.cache_request(DramRequest::read(id, location, beats, class, now));
    }

    /// Queues a posted write on the cache device.
    pub fn cache_write(
        &mut self,
        location: DramLocation,
        beats: u64,
        class: TrafficClass,
        now: Cycle,
    ) {
        self.cache_request(DramRequest::write(UNROUTED, location, beats, class, now));
    }

    fn cache_request(&mut self, req: DramRequest) {
        let bytes = req.beats * self.cache.config().topology.beat_bytes;
        self.expected_cache_bytes += bytes;
        self.ledger.charge(req.class, bytes);
        self.cache_retry.push_back(req);
    }

    /// Queues a demand line read on the memory device (address-mapped),
    /// routed back to `txn` as [`Leg::MemRead`].
    pub fn mem_read(&mut self, txn: u64, line_addr: u64, class: TrafficClass, now: Cycle) {
        let id = Self::encode_id(txn, Leg::MemRead);
        self.mem_request(id, line_addr, false, class, now);
    }

    /// Queues a posted 64 B write on the memory device.
    pub fn mem_write(&mut self, line_addr: u64, class: TrafficClass, now: Cycle) {
        self.mem_request(UNROUTED, line_addr, true, class, now);
    }

    fn mem_request(
        &mut self,
        id: u64,
        line_addr: u64,
        is_write: bool,
        class: TrafficClass,
        now: Cycle,
    ) {
        let beats = self.mem.config().topology.beats_for(64);
        self.ledger
            .charge(class, beats * self.mem.config().topology.beat_bytes);
        self.mem_retry.push_back(DramRequest {
            id,
            location: self.mem_mapper.map(line_addr * 64),
            beats,
            is_write,
            class,
            arrival: now,
        });
    }

    /// Replays the ticks both devices deferred before `now`, drains retry
    /// queues into the devices (respecting backpressure), advances both
    /// devices one cycle, and routes completions. The replay comes first,
    /// so the drain reads current channel queues.
    ///
    /// Only routed legs are returned; completions of requests nothing
    /// waits on are dropped here.
    pub fn tick(&mut self, now: Cycle, out: &mut Vec<RoutedCompletion>) {
        self.catch_up(now);
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
            let leg = match c.request.id & 3 {
                0 => Leg::CacheProbe,
                1 => Leg::MemRead,
                _ => continue,
            };
            out.push(RoutedCompletion {
                txn: c.request.id >> 2,
                leg,
                finish: c.finish,
            });
        }
    }

    /// Replays the device ticks deferred before `now` (see
    /// [`DramDevice::catch_up`]): the sync point before anything reads
    /// device state other than [`DeviceHarness::pending`].
    pub fn catch_up(&mut self, now: Cycle) {
        self.cache.catch_up(now);
        self.mem.catch_up(now);
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

    /// Earliest cycle at which a harness tick can have an effect outside
    /// the devices: a completion retiring, routed or not (each one changes
    /// [`DeviceHarness::pending`]), or a retry head draining. Ticks strictly
    /// before it only move channels internally, and the devices replay
    /// those when next touched. Retry queues drain at tick start, so a
    /// head its channel can accept makes the harness busy `now`; a blocked
    /// head waits for a tick of its own channel to free a slot and drains
    /// on the tick after (see [`DramDevice::accept_cycle`]). Exact on
    /// lagging devices. [`Cycle::NEVER`] when fully drained.
    pub fn next_busy_cycle(&self, now: Cycle) -> Cycle {
        let head = |queue: &VecDeque<DramRequest>, device: &DramDevice| {
            queue.front().map_or(Cycle::NEVER, |r| {
                device.accept_cycle(r.location.channel, r.is_write, now)
            })
        };
        head(&self.cache_retry, &self.cache)
            .min(head(&self.mem_retry, &self.mem))
            .min(self.cache.retire_horizon(now))
            .min(self.mem.retire_horizon(now))
    }

    /// Host-work counters of both DRAM devices (diagnostics; see
    /// [`DramWork`]).
    pub fn dram_work(&self) -> DramWork {
        let mut work = self.cache.work();
        work += self.mem.work();
        work
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
            Some(42),
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
        h.cache_write(loc(1, 0, 1), 5, BloatCategory::MissFill.class(), Cycle(0));
        h.cache_read(
            None,
            loc(1, 0, 1),
            4,
            BloatCategory::VictimRead.class(),
            Cycle(0),
        );
        h.mem_write(0x40, MemTraffic::VictimWrite.class(), Cycle(0));
        let mut out = Vec::new();
        for t in 0..50_000u64 {
            h.tick(Cycle(t), &mut out);
        }
        assert!(out.is_empty(), "unrouted requests must not be routed");
        assert_eq!(h.cache.bytes_in_class(BloatCategory::MissFill.class()), 80);
        assert_eq!(
            h.cache.bytes_in_class(BloatCategory::VictimRead.class()),
            64
        );
        assert_eq!(h.mem.bytes_in_class(MemTraffic::VictimWrite.class()), 64);
        assert_eq!(h.pending(), 0);
    }

    #[test]
    fn mem_read_and_write_are_mapped_and_counted() {
        let mut h = harness();
        h.mem_read(1, 0x1000, MemTraffic::DemandRead.class(), Cycle(0));
        h.mem_write(0x2000, MemTraffic::VictimWrite.class(), Cycle(0));
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
                Some(i),
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
            Some(1),
            loc(0, 0, 1),
            5,
            BloatCategory::MissProbe.class(),
            Cycle(0),
        );
        h.cache_write(loc(1, 0, 2), 5, BloatCategory::MissFill.class(), Cycle(0));
        h.mem_read(3, 0x1000, MemTraffic::DemandRead.class(), Cycle(0));
        h.mem_write(0x2000, MemTraffic::VictimWrite.class(), Cycle(0));
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
                Some(i),
                loc(0, 0, i),
                5,
                BloatCategory::Hit.class(),
                Cycle(0),
            );
            h.mem_write(0x3000 + i * 64, MemTraffic::Writeback.class(), Cycle(0));
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
            Some(1),
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
            Some(9),
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

    /// A harness whose cache channels hold at most two reads.
    fn narrow_harness() -> DeviceHarness {
        let mut cache = DramConfig::stacked_cache_8x();
        cache.read_queue_capacity = 2;
        DeviceHarness::new(cache, DramConfig::commodity_memory())
    }

    /// Three reads to one bank of channel 0: two fill its queue, the third
    /// waits in the retry queue.
    fn submit_three(h: &mut DeviceHarness) {
        for (txn, row) in [(1, 4), (2, 4), (3, 9)] {
            h.cache_read(
                Some(txn),
                loc(0, 0, row),
                5,
                BloatCategory::Hit.class(),
                Cycle(0),
            );
        }
    }

    #[test]
    fn blocked_backlog_waits_for_its_channel() {
        let t = DramConfig::stacked_cache_8x().timings;
        let mut h = narrow_harness();
        h.set_event_gating(true);
        submit_three(&mut h);
        assert_eq!(h.next_busy_cycle(Cycle(0)), Cycle(0), "the head can drain");
        let mut out = Vec::new();
        h.tick(Cycle(0), &mut out); // drains two reads, issues the ACT
        assert_eq!(h.retry_depth(), 1);
        // The full channel frees a slot only when the row hit's CAS issues
        // (tRCD after the ACT), and the drain that uses it runs one tick
        // later; no completion can come sooner.
        let cas = h.cache.next_busy_cycle(Cycle(1));
        assert_eq!(cas, Cycle(t.t_rcd));
        assert_eq!(h.next_busy_cycle(Cycle(1)), cas + 1);
        h.tick(cas, &mut out); // the CAS frees a slot
        assert_eq!(h.retry_depth(), 1, "the drain ran before the CAS");
        assert_eq!(
            h.next_busy_cycle(cas + 1),
            cas + 1,
            "the backlog drains next"
        );
        h.tick(cas + 1, &mut out);
        assert_eq!(h.retry_depth(), 0);
    }

    /// The tick that frees a blocked head's slot is deferred: the driver
    /// jumps from cycle 0 to the hint, and the device replays the CAS at
    /// `b` when touched at `b + 1`. The head still drains at `b + 1`, as
    /// under per-cycle driving: the replay runs before the drain, so the
    /// drain never reads the stale full queue, and a lagging device whose
    /// freeing tick is due reads busy at any later `now`.
    #[test]
    fn lagging_device_drains_the_backlog_as_polling_does() {
        let key = |c: &RoutedCompletion| (c.txn, c.leg, c.finish);
        let mut polled = narrow_harness();
        submit_three(&mut polled);
        let mut polled_done = Vec::new();
        let mut drained_at = None;
        for t in 0..5_000u64 {
            polled.tick(Cycle(t), &mut polled_done);
            if drained_at.is_none() && polled.retry_depth() == 0 && t > 0 {
                drained_at = Some(Cycle(t));
            }
        }
        let drained_at = drained_at.expect("the backlog drains");

        let mut lazy = narrow_harness();
        lazy.set_event_gating(true);
        submit_three(&mut lazy);
        let mut lazy_done = Vec::new();
        lazy.tick(Cycle(0), &mut lazy_done);
        let b = lazy.cache.next_busy_cycle(Cycle(1));
        assert_eq!(drained_at, b + 1, "polling drains the tick after the CAS");
        assert_eq!(lazy.next_busy_cycle(Cycle(1)), b + 1);
        assert_eq!(
            lazy.next_busy_cycle(b + 7),
            b + 7,
            "a lagging device with a due freeing tick reads busy"
        );
        lazy.tick(b + 1, &mut lazy_done);
        assert_eq!(lazy.retry_depth(), 0, "the head drained at b + 1");
        assert!(
            lazy.dram_work().replayed_ticks > 0,
            "the CAS was not deferred"
        );
        let mut now = b + 2;
        while lazy.pending() > 0 {
            now = lazy.next_busy_cycle(now);
            assert!(now.0 < 5_000, "lazy driving stalled");
            lazy.tick(now, &mut lazy_done);
            now += 1;
        }
        assert_eq!(
            polled_done.iter().map(key).collect::<Vec<_>>(),
            lazy_done.iter().map(key).collect::<Vec<_>>()
        );
    }

    /// A retire is an external event even when nothing waits on it: it
    /// lowers [`DeviceHarness::pending`], which `System::is_drained` reads.
    /// Hinted driving of posted writes alone must visit each retire and
    /// see the harness drain on the cycle polling does.
    #[test]
    fn unrouted_retires_are_visited() {
        let submit = |h: &mut DeviceHarness| {
            h.cache_write(loc(1, 0, 1), 5, BloatCategory::MissFill.class(), Cycle(0));
            h.cache_write(loc(2, 3, 7), 5, BloatCategory::MissFill.class(), Cycle(0));
            h.mem_write(0x40, MemTraffic::VictimWrite.class(), Cycle(0));
        };
        let mut polled = harness();
        submit(&mut polled);
        let mut out = Vec::new();
        let mut polled_pending = Vec::new();
        let mut t = Cycle(0);
        while polled.pending() > 0 {
            polled.tick(t, &mut out);
            polled_pending.push((t, polled.pending()));
            t += 1;
            assert!(t.0 < 100_000, "polled writes never drained");
        }
        let mut hinted = harness();
        hinted.set_event_gating(true);
        submit(&mut hinted);
        let (mut now, mut visits) = (Cycle(0), 0);
        loop {
            assert!(now.0 < 100_000, "hinted driving skipped a retire");
            hinted.tick(now, &mut out);
            visits += 1;
            let seen = polled_pending.iter().find(|&&(at, _)| at == now);
            assert_eq!(seen, Some(&(now, hinted.pending())), "pending at {now:?}");
            if hinted.pending() == 0 {
                break;
            }
            now = hinted.next_busy_cycle(now + 1);
        }
        assert!(out.is_empty(), "unrouted requests must not be routed");
        assert_eq!(now + 1, t, "drained on another cycle");
        assert!(
            visits < 10,
            "{visits} visits: internal ticks kept the harness busy"
        );
    }

    #[test]
    fn hinted_driving_matches_per_cycle_under_backpressure() {
        let key = |c: &RoutedCompletion| (c.txn, c.leg, c.finish);
        let mut polled = narrow_harness();
        submit_three(&mut polled);
        let mut polled_done = Vec::new();
        for t in 0..5_000u64 {
            polled.tick(Cycle(t), &mut polled_done);
        }
        assert_eq!(polled_done.len(), 3);
        let mut hinted = narrow_harness();
        hinted.set_event_gating(true);
        submit_three(&mut hinted);
        let mut hinted_done = Vec::new();
        let (mut now, mut ticks) = (Cycle(0), 0);
        while hinted.pending() > 0 {
            assert!(now.0 < 5_000, "hinted driving stalled");
            hinted.tick(now, &mut hinted_done);
            ticks += 1;
            now = hinted.next_busy_cycle(now + 1);
        }
        assert_eq!(
            polled_done.iter().map(key).collect::<Vec<_>>(),
            hinted_done.iter().map(key).collect::<Vec<_>>()
        );
        assert!(
            ticks < 20,
            "{ticks} hinted ticks: the backlog kept the harness busy"
        );
    }

    #[test]
    fn permanently_rejected_head_neither_panics_nor_overflows() {
        let mut h = harness();
        h.set_event_gating(true);
        // Channel 9 does not exist: the device rejects the head forever.
        h.cache_read(
            Some(1),
            loc(9, 0, 1),
            5,
            BloatCategory::Hit.class(),
            Cycle(0),
        );
        let mut out = Vec::new();
        for t in 0..4u64 {
            h.tick(Cycle(t), &mut out);
        }
        assert_eq!(h.retry_depth(), 1);
        assert_eq!(h.next_busy_cycle(Cycle(4)), Cycle::NEVER);
        // Behind work on a real channel, the hints follow that channel.
        h.mem_read(2, 0x40, MemTraffic::DemandRead.class(), Cycle(4));
        assert_eq!(h.next_busy_cycle(Cycle(4)), Cycle(4));
        h.tick(Cycle(4), &mut out);
        let busy = h.next_busy_cycle(Cycle(5));
        assert!(busy > Cycle(5) && busy < Cycle::NEVER, "{busy:?}");
    }
}
