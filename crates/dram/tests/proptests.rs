//! Property tests for DRAM timing invariants, driven by the in-tree
//! [`bear_sim::check`] engine: every request completes, no data transfer
//! violates the bus occupancy, and latencies respect the tRCD+tCAS floor.
//! The channel's [`RequestQueue`] is checked against a `VecDeque` model.

use bear_dram::config::DramConfig;
use bear_dram::device::DramDevice;
use bear_dram::mapping::{AddressMapper, Interleave};
use bear_dram::request::{DramLocation, DramRequest, RequestQueue, TrafficClass};
use bear_sim::check::{check, PropResult, Source};
use bear_sim::time::Cycle;
use bear_sim::{prop_assert, prop_assert_eq};
use std::collections::{HashMap, VecDeque};

/// Draws a location valid for `cfg`'s topology.
fn any_location(src: &mut Source, cfg: &DramConfig) -> DramLocation {
    let t = cfg.topology;
    DramLocation {
        channel: src.u32_in(0..t.channels),
        rank: src.u32_in(0..t.ranks_per_channel),
        bank: src.u32_in(0..t.banks_per_rank),
        row: src.u64_in(0..64),
    }
}

/// Every accepted request eventually completes, exactly once, with a
/// latency at least the tRCD+tCAS+burst floor, and the per-class byte
/// accounting matches the requests issued.
#[test]
fn all_requests_complete_with_floor_latency() {
    check(64, |src: &mut Source| {
        let seeds = src.vec_with(1..40, |s| (s.u8_in(0..255), s.u64_in(1..8), s.bool()));
        let cfg = DramConfig::stacked_cache_8x();
        let mut dev = DramDevice::new(cfg);
        let mut expect_bytes = [0u64; 4];
        let mut issued = Vec::new();
        let mut rng_row = 0u64;
        for (i, (sel, beats, is_write)) in seeds.iter().enumerate() {
            rng_row = rng_row
                .wrapping_mul(6364136223846793005)
                .wrapping_add(*sel as u64);
            let t = cfg.topology;
            let loc = DramLocation {
                channel: (*sel as u32) % t.channels,
                rank: 0,
                bank: (rng_row as u32) % t.banks_per_rank,
                row: rng_row % 32,
            };
            let class = TrafficClass((i % 4) as u8);
            let req = if *is_write {
                DramRequest::write(i as u64, loc, *beats, class, Cycle(0))
            } else {
                DramRequest::read(i as u64, loc, *beats, class, Cycle(0))
            };
            if dev.try_enqueue(req).is_ok() {
                expect_bytes[i % 4] += beats * t.beat_bytes;
                issued.push(req);
            }
        }
        let mut done = Vec::new();
        let mut t = Cycle(0);
        while done.len() < issued.len() && t.0 < 1_000_000 {
            dev.tick(t, &mut done);
            t += 1;
        }
        prop_assert_eq!(done.len(), issued.len(), "requests lost");
        let mut ids: Vec<u64> = done.iter().map(|c| c.request.id).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), issued.len(), "duplicate completions");
        let floor = cfg.timings.t_rcd + cfg.timings.t_cas;
        for c in &done {
            prop_assert!(c.finish.raw() >= floor + c.request.beats);
        }
        for (k, &expect) in expect_bytes.iter().enumerate() {
            prop_assert_eq!(dev.bytes_in_class(TrafficClass(k as u8)), expect);
        }
        prop_assert_eq!(dev.pending(), 0);
        Ok(())
    });
}

/// Address mapping always lands inside the topology.
#[test]
fn mapping_in_bounds() {
    check(256, |src: &mut Source| {
        let addr = src.any_u64();
        for interleave in [Interleave::ChannelFirst, Interleave::BankFirst] {
            let t = DramConfig::commodity_memory().topology;
            let m = AddressMapper::new(t, interleave);
            let loc = m.map(addr);
            prop_assert!(loc.channel < t.channels);
            prop_assert!(loc.rank < t.ranks_per_channel);
            prop_assert!(loc.bank < t.banks_per_rank);
        }
        Ok(())
    });
}

/// Distinct line addresses within one row stripe map to the same row;
/// mapping is deterministic.
#[test]
fn mapping_deterministic() {
    check(256, |src: &mut Source| {
        let addr = src.u64_in(0..(1 << 44));
        let t = DramConfig::commodity_memory().topology;
        let m = AddressMapper::new(t, Interleave::ChannelFirst);
        prop_assert_eq!(m.map(addr), m.map(addr));
        Ok(())
    });
}

/// Generated-location smoke check (uses the helper).
#[test]
fn any_location_helper_is_usable() {
    check(16, |src: &mut Source| {
        let cfg = DramConfig::stacked_cache_8x();
        let loc = any_location(src, &cfg);
        prop_assert!(loc.channel < cfg.topology.channels);
        Ok(())
    });
}

/// Draws a request with every field varied, so that a misaligned column
/// in the queue's structure-of-arrays layout shows up as a mismatch.
fn any_request(src: &mut Source, id: u64, banks_per_rank: u32) -> DramRequest {
    let location = DramLocation {
        channel: src.u32_in(0..4),
        rank: src.u32_in(0..4),
        bank: src.u32_in(0..banks_per_rank),
        row: src.u64_in(0..1 << 20),
    };
    let beats = src.u64_in(1..13);
    let class = TrafficClass(src.u8_in(0..TrafficClass::COUNT as u8));
    if src.bool() {
        DramRequest::write(id, location, beats, class, Cycle(id))
    } else {
        DramRequest::read(id, location, beats, class, Cycle(id))
    }
}

/// `q` holds exactly `model`'s requests in FIFO order, and the hot scan
/// columns (`row`, `bank_index`) agree with the reconstructed requests.
fn queue_agrees(
    q: &RequestQueue,
    model: &VecDeque<DramRequest>,
    cap: usize,
    banks_per_rank: u32,
) -> PropResult {
    prop_assert_eq!(q.len(), model.len());
    prop_assert_eq!(q.is_empty(), model.is_empty());
    prop_assert_eq!(q.is_full(), model.len() == cap);
    for (i, want) in model.iter().enumerate() {
        let got = q.get(i);
        prop_assert_eq!(got.map(|r| r.id), Some(want.id), "FIFO order at {}", i);
        prop_assert_eq!(got, Some(*want));
        prop_assert_eq!(q.row(i), want.location.row);
        prop_assert_eq!(
            q.bank_index(i),
            want.location.bank_in_channel(banks_per_rank)
        );
    }
    prop_assert_eq!(q.get(model.len()), None);
    Ok(())
}

/// The request queue behaves exactly like a VecDeque with a length cap
/// under interleaved pushes, out-of-order removals and lookups.
#[test]
fn queue_matches_model() {
    check(256, |src: &mut Source| {
        let cap = src.usize_in(1..16);
        let banks_per_rank = src.u32_in(1..17);
        let ops = src.vec_with(1..200, |s| (s.u8_in(0..3), s.usize_in(0..18)));
        let mut q = RequestQueue::new(cap, banks_per_rank);
        let mut model = VecDeque::new();
        let mut next = 0u64;
        for (op, idx) in ops {
            match op {
                0 => {
                    let req = any_request(src, next, banks_per_rank);
                    next += 1;
                    match q.try_push(req) {
                        Ok(()) => {
                            prop_assert!(model.len() < cap, "push accepted when full");
                            model.push_back(req);
                        }
                        Err(back) => {
                            prop_assert_eq!(model.len(), cap, "push rejected with room");
                            prop_assert_eq!(back, req, "rejected request must come back");
                        }
                    }
                }
                1 => prop_assert_eq!(q.remove(idx), model.remove(idx)),
                _ => prop_assert_eq!(q.get(idx), model.get(idx).copied()),
            }
            queue_agrees(&q, &model, cap, banks_per_rank)?;
        }
        Ok(())
    });
}

/// Out-of-order removal preserves the order of the remainder and keeps
/// the scan columns aligned with it.
#[test]
fn queue_remove_preserves_order() {
    check(256, |src: &mut Source| {
        let n = src.usize_in(2..12);
        let idx = src.usize_in(0..12);
        let banks_per_rank = src.u32_in(1..17);
        let mut q = RequestQueue::new(16, banks_per_rank);
        let mut model = VecDeque::new();
        for id in 0..n as u64 {
            let req = any_request(src, id, banks_per_rank);
            q.try_push(req).unwrap();
            model.push_back(req);
        }
        let removed = q.remove(idx);
        prop_assert_eq!(removed.is_some(), idx < n);
        prop_assert_eq!(removed, model.remove(idx));
        let ids: Vec<u64> = (0..q.len()).map(|i| q.get(i).unwrap().id).collect();
        let mut expect: Vec<u64> = (0..n as u64).collect();
        if idx < n {
            expect.remove(idx);
        }
        prop_assert_eq!(ids, expect);
        queue_agrees(&q, &model, 16, banks_per_rank)
    });
}

/// How [`drive_stream`] advances the device.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Driving {
    /// `tick` at every cycle.
    Polled,
    /// `tick_gated` at every cycle.
    GatedEveryCycle,
    /// `tick_gated` only at cycles the hints name (`next_busy_cycle`, an
    /// arrival, or the cycle after a blocked head's channel freed a slot).
    Hinted,
    /// `tick_gated` only at arrivals, blocked-head cycles
    /// (`accept_cycle`) and `retire_horizon` cycles; the device replays
    /// the busy ticks in between, catching up before each offer.
    Lazy,
}

/// What one drive observed.
struct Drive {
    /// `(id, finish)` in completion order.
    done: Vec<(u64, Cycle)>,
    /// `(visited cycle, channel, finish)` of every completion, in order.
    retired: Vec<(Cycle, u32, Cycle)>,
    /// Per-channel statistics, formatted.
    stats: String,
    /// `(cycle, next_busy_cycle, retire_horizon)` at every visited
    /// cycle, taken after offering requests and before ticking.
    hints: Vec<(Cycle, Cycle, Cycle)>,
    /// Channel ticks the device replayed late.
    replayed: u64,
}

/// Offers `stream` (sorted by arrival) to a fresh device in order, head of
/// line, each request retried until accepted, and ticks it as `driving`
/// says until it drains.
fn drive_stream(cfg: DramConfig, stream: &[DramRequest], driving: Driving) -> Drive {
    let mut dev = DramDevice::new(cfg);
    let mut completions = Vec::new();
    let mut hints = Vec::new();
    let mut retired = Vec::new();
    let (mut next, mut now) = (0, Cycle(0));
    loop {
        if driving == Driving::Lazy {
            dev.catch_up(now);
        }
        while let Some(&req) = stream.get(next) {
            if req.arrival > now || dev.try_enqueue(req).is_err() {
                break;
            }
            next += 1;
        }
        hints.push((now, dev.next_busy_cycle(now), dev.retire_horizon(now)));
        let before = completions.len();
        match driving {
            Driving::Polled => dev.tick(now, &mut completions),
            _ => dev.tick_gated(now, &mut completions),
        }
        retired.extend(
            completions[before..]
                .iter()
                .map(|c| (now, c.request.location.channel, c.finish)),
        );
        if next == stream.len() && dev.pending() == 0 {
            break;
        }
        assert!(now.0 < 1_000_000, "device stalled");
        now = match (driving, stream.get(next)) {
            (Driving::Hinted, Some(head))
                if head.arrival <= now + 1
                    && dev.can_accept(head.location.channel, head.is_write) =>
            {
                now + 1
            }
            (Driving::Hinted, head) => {
                let busy = dev.next_busy_cycle(now + 1);
                head.map_or(busy, |h| busy.min(h.arrival.max(now + 1)))
            }
            (Driving::Lazy, head) => {
                let at = now + 1;
                let offer = head.map_or(Cycle::NEVER, |h| {
                    if h.arrival > at {
                        h.arrival
                    } else {
                        dev.accept_cycle(h.location.channel, h.is_write, at)
                    }
                });
                dev.retire_horizon(at).min(offer).max(at)
            }
            _ => now + 1,
        };
    }
    Drive {
        done: completions
            .iter()
            .map(|c| (c.request.id, c.finish))
            .collect(),
        retired,
        stats: format!(
            "{:?} {}",
            dev.channel_stats().collect::<Vec<_>>(),
            dev.row_hits()
        ),
        hints,
        replayed: dev.work().replayed_ticks,
    }
}

/// The order a channel's in-flight FIFO relies on: each completion
/// arrives at the visited cycle it finishes, and each channel's finishes
/// strictly increase, so a channel retires at most one per visit.
fn retire_order_holds(drive: &Drive) -> PropResult {
    let mut last = HashMap::new();
    for &(at, channel, finish) in &drive.retired {
        prop_assert_eq!(at, finish, "channel {} retired late", channel);
        if let Some(prev) = last.insert(channel, finish) {
            prop_assert!(
                prev < finish,
                "channel {} retired {:?} after {:?}",
                channel,
                finish,
                prev
            );
        }
    }
    Ok(())
}

/// Skipping to the busy hints is exact under backpressure: queues of 2–4
/// entries, 1/2/8 subarrays per bank, refresh on and off, and scheduler
/// windows of 1/4/16. Hinted `tick_gated` driving gives the same
/// completions and statistics as per-cycle `tick`, and the same hint
/// values as per-cycle `tick_gated` at every cycle it visits. Lazy
/// driving, which leaves every internal tick to the device's replay, does
/// too. Under every driving each channel retires in finish order, one
/// transfer per visit at most.
#[test]
fn hinted_gated_driving_matches_per_cycle_ticking() {
    let mut replayed = 0;
    check(96, |src: &mut Source| {
        let mut cfg = DramConfig::stacked_cache_8x();
        cfg.topology.channels = src.u32_in(1..3);
        cfg.topology.banks_per_rank = src.u32_in(1..5);
        cfg.topology.subarrays_per_bank = [1, 2, 8][src.usize_in(0..3)];
        cfg.read_queue_capacity = src.usize_in(2..5);
        cfg.write_queue_capacity = src.usize_in(2..5);
        cfg.write_drain_high = src.usize_in(1..cfg.write_queue_capacity + 1);
        cfg.write_drain_low = src.usize_in(0..cfg.write_drain_high);
        cfg.sched_window = [1, 4, 16][src.usize_in(0..3)];
        if src.bool() {
            cfg.timings.t_refi = src.u64_in(300..2_000);
            cfg.timings.t_rfc = src.u64_in(20..200);
        }
        let t = cfg.topology;
        let mut arrival = 0;
        let mut id = 0;
        let stream = src.vec_with(1..60, |s| {
            arrival += s.u64_in(0..40);
            id += 1;
            let loc = DramLocation {
                channel: s.u32_in(0..t.channels),
                rank: 0,
                bank: s.u32_in(0..t.banks_per_rank),
                row: s.u64_in(0..12),
            };
            let (beats, class) = (s.u64_in(1..9), TrafficClass(s.u8_in(0..4)));
            if s.bool() {
                DramRequest::write(id, loc, beats, class, Cycle(arrival))
            } else {
                DramRequest::read(id, loc, beats, class, Cycle(arrival))
            }
        });
        let polled = drive_stream(cfg, &stream, Driving::Polled);
        let gated = drive_stream(cfg, &stream, Driving::GatedEveryCycle);
        let hinted = drive_stream(cfg, &stream, Driving::Hinted);
        let lazy = drive_stream(cfg, &stream, Driving::Lazy);
        prop_assert_eq!(polled.done.len(), stream.len(), "requests lost");
        for drive in [&polled, &gated, &hinted, &lazy] {
            retire_order_holds(drive)?;
        }
        for drive in [&gated, &hinted, &lazy] {
            prop_assert_eq!(&drive.done, &polled.done);
            prop_assert_eq!(&drive.stats, &polled.stats);
            let mut every_cycle = gated.hints.iter();
            for &(at, busy, horizon) in &drive.hints {
                let same_cycle = every_cycle.find(|h| h.0 == at);
                prop_assert_eq!(same_cycle, Some(&(at, busy, horizon)), "hints at {:?}", at);
            }
        }
        prop_assert_eq!(hinted.replayed, 0, "hinted driving visits every busy cycle");
        prop_assert!(hinted.hints.len() <= gated.hints.len());
        prop_assert!(lazy.hints.len() <= hinted.hints.len());
        replayed += lazy.replayed;
        Ok(())
    });
    assert!(replayed > 0, "lazy driving never deferred a tick");
}
