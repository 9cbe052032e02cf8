//! Property tests: the set-associative cache against reference models,
//! driven by the in-tree [`bear_sim::check`] engine.

use bear_cache::{CacheGeometry, MissMap, SetAssocCache};
use bear_sim::check::{check, Source};
use bear_sim::{prop_assert, prop_assert_eq};
use std::collections::{HashMap, HashSet};

/// Contents always agree with a naive map model (ignoring replacement
/// choice): a line reported present was filled and not displaced, no
/// resident line is lost, and the number of valid lines never exceeds the
/// capacity.
#[test]
fn set_assoc_contents_sound() {
    check(256, |src: &mut Source| {
        let addrs = src.vec_with(1..300, |s| s.u64_in(0..4096));
        let writes = src.vec_with(1..300, |s| s.bool());
        let geom = CacheGeometry::new(2048, 2, 64); // 16 sets × 2 ways
        let mut cache: SetAssocCache<()> = SetAssocCache::new(geom);
        let mut resident: HashSet<u64> = HashSet::new();
        for (i, &a) in addrs.iter().enumerate() {
            let addr = a * 64;
            let w = writes[i % writes.len()];
            let hit = cache.access(addr, w).is_some();
            prop_assert_eq!(hit, resident.contains(&addr), "addr {}", addr);
            if !hit {
                if let Some(v) = cache.fill(addr, false, ()) {
                    prop_assert!(resident.remove(&v.addr), "victim {:x} unknown", v.addr);
                }
                resident.insert(addr);
            }
            prop_assert!(resident.len() as u64 <= geom.lines());
        }
        prop_assert_eq!(cache.occupancy(), resident.len() as u64);
        for &addr in &resident {
            prop_assert!(cache.contains(addr), "line {:x} lost", addr);
        }
        Ok(())
    });
}

/// Replacement is exact LRU: over random access/fill/peek/invalidate
/// sequences, every victim's address and dirty bit equal the head of a
/// reference per-set recency list (least recent first). Demand accesses
/// and fills move a line to the tail; peeks never reorder; an
/// invalidated line leaves a free way, so the set's next fill evicts
/// nothing. Geometries: `(sets, ways)` with 2, 16 and 29 ways, including
/// non-power-of-two set counts.
#[test]
fn set_assoc_victims_are_exact_lru() {
    let shapes: [(u64, u32); 4] = [(8, 2), (3, 2), (4, 16), (5, 29)];
    check(256, |src: &mut Source| {
        let (sets, ways) = shapes[src.usize_in(0..shapes.len())];
        let geom = CacheGeometry::new(sets * ways as u64 * 64, ways, 64);
        // Enough distinct lines per set to overflow it by half again.
        let span = sets * (ways as u64 * 3 / 2 + 2);
        let ops = src.vec_with(1..400, |s| (s.u8_in(0..4), s.u64_in(0..span), s.bool()));
        let mut cache: SetAssocCache<()> = SetAssocCache::new(geom);
        // Per set: (address, dirty), least recently used first.
        let mut lru: Vec<Vec<(u64, bool)>> = vec![Vec::new(); sets as usize];
        for &(op, line, flag) in &ops {
            let addr = line * 64;
            let set = &mut lru[(line % sets) as usize];
            let pos = set.iter().position(|&(a, _)| a == addr);
            match op {
                // Demand access; `flag` is a write.
                0 => {
                    prop_assert_eq!(cache.access(addr, flag).is_some(), pos.is_some());
                    if let Some(p) = pos {
                        let (a, dirty) = set.remove(p);
                        set.push((a, dirty || flag));
                    }
                }
                // Fill of an absent line; `flag` is its dirty bit.
                1 => {
                    if pos.is_some() {
                        continue;
                    }
                    let victim = cache.fill(addr, flag, ()).map(|v| (v.addr, v.dirty));
                    let expect = if set.len() == ways as usize {
                        Some(set.remove(0))
                    } else {
                        None
                    };
                    prop_assert_eq!(victim, expect, "fill {:x}", addr);
                    set.push((addr, flag));
                }
                // Peek: presence only, recency untouched.
                2 => prop_assert_eq!(cache.peek(addr).is_some(), pos.is_some()),
                _ => {
                    let removed = cache.invalidate(addr).map(|v| (v.addr, v.dirty));
                    prop_assert_eq!(removed, pos.map(|p| set.remove(p)));
                }
            }
        }
        Ok(())
    });
}

/// Dirty state round-trips: a line written is dirty at eviction unless
/// marked clean in between.
#[test]
fn dirty_bits_tracked() {
    check(256, |src: &mut Source| {
        let ops = src.vec_with(1..200, |s| (s.u64_in(0..64), s.bool()));
        let geom = CacheGeometry::new(1024, 2, 64); // 8 sets × 2 ways
        let mut cache: SetAssocCache<()> = SetAssocCache::new(geom);
        let mut dirty: HashMap<u64, bool> = HashMap::new();
        for &(a, w) in &ops {
            let addr = a * 64;
            if cache.access(addr, w).is_some() {
                if w {
                    dirty.insert(addr, true);
                }
            } else {
                if let Some(v) = cache.fill(addr, w, ()) {
                    let expect = dirty.remove(&v.addr).unwrap_or(false);
                    prop_assert_eq!(v.dirty, expect, "victim {:x}", v.addr);
                }
                dirty.insert(addr, w);
            }
        }
        Ok(())
    });
}

/// The MissMap is an exact set.
#[test]
fn missmap_is_a_set() {
    check(256, |src: &mut Source| {
        let ops = src.vec_with(1..300, |s| (s.u64_in(0..1024), s.bool()));
        let mut m = MissMap::new();
        let mut model: HashSet<u64> = HashSet::new();
        for &(line, insert) in &ops {
            let addr = line * 64;
            if insert {
                m.insert(addr);
                model.insert(line);
            } else {
                m.remove(addr);
                model.remove(&line);
            }
            prop_assert_eq!(m.contains(addr), model.contains(&line));
        }
        prop_assert_eq!(m.len(), model.len() as u64);
        Ok(())
    });
}

/// Geometry decompose/recompose is a bijection on line addresses.
#[test]
fn geometry_roundtrip() {
    check(256, |src: &mut Source| {
        let addr = src.u64_in(0..(1 << 40));
        let geom = CacheGeometry::new(8 << 20, 16, 64);
        let aligned = addr & !63;
        let (set, tag) = geom.decompose(aligned);
        prop_assert!(set < geom.sets());
        prop_assert_eq!(geom.recompose(set, tag), aligned);
        Ok(())
    });
}
