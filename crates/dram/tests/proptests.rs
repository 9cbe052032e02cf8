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
use std::collections::VecDeque;

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
