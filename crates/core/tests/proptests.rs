//! Property tests for the BEAR core structures, driven by the in-tree
//! [`bear_sim::check`] engine.

use bear_cache::{CacheGeometry, SetAssocCache};
use bear_core::bab::{BypassPolicy, SetGroup};
use bear_core::contents::DirectStore;
use bear_core::ntc::{NeighboringTagCache, NtcAnswer};
use bear_sim::check::{check, Source};
use bear_sim::{prop_assert, prop_assert_eq};
use std::collections::HashMap;

/// DirectStore agrees with a HashMap model of (set → (tag, dirty)).
#[test]
fn direct_store_matches_model() {
    check(256, |src: &mut Source| {
        let ops = src.vec_with(1..300, |s| (s.u64_in(0..512), s.u8_in(0..3)));
        let sets = 32;
        let mut store = DirectStore::new(sets);
        let mut model: HashMap<u64, (u64, bool)> = HashMap::new();
        for &(line, op) in &ops {
            let (set, tag) = store.decompose(line);
            match op {
                0 => {
                    let victim = store.install(line, false);
                    let prev = model.insert(set, (tag, false));
                    let expect = match prev {
                        Some((ptag, pdirty)) if ptag != tag => {
                            Some((store.recompose(set, ptag), pdirty))
                        }
                        _ => None,
                    };
                    prop_assert_eq!(victim, expect);
                }
                1 => {
                    let marked = store.mark_dirty(line);
                    let expect = matches!(model.get(&set), Some((t, _)) if *t == tag);
                    prop_assert_eq!(marked, expect);
                    if marked {
                        model.insert(set, (tag, true));
                    }
                }
                _ => {
                    let present = store.contains(line);
                    let expect = matches!(model.get(&set), Some((t, _)) if *t == tag);
                    prop_assert_eq!(present, expect);
                }
            }
        }
        Ok(())
    });
}

/// The associative store behind the Loh-Hill organization (a
/// `SetAssocCache`, here 8 sets × 4 ways) never exceeds its capacity and
/// never loses a line without reporting it as a victim.
#[test]
fn assoc_store_conservation() {
    check(256, |src: &mut Source| {
        let lines = src.vec_with(1..200, |s| s.u64_in(0..256));
        let mut store: SetAssocCache<()> =
            SetAssocCache::new(CacheGeometry::new(8 * 4 * 64, 4, 64));
        let mut resident: Vec<u64> = Vec::new();
        for &line in &lines {
            let addr = line * 64;
            if store.contains(addr) {
                continue;
            }
            if let Some(v) = store.fill(addr, false, ()) {
                let pos = resident.iter().position(|&a| a == v.addr);
                prop_assert!(pos.is_some(), "victim {:x} unknown", v.addr);
                resident.remove(pos.unwrap());
            }
            resident.push(addr);
            prop_assert!(resident.len() <= 8 * 4);
            for &a in &resident {
                prop_assert!(store.contains(a), "line {:x} lost", a);
            }
        }
        prop_assert_eq!(store.occupancy(), resident.len() as u64);
        Ok(())
    });
}

/// NTC answers are always consistent with the last recorded state.
#[test]
fn ntc_consistent_with_records() {
    check(256, |src: &mut Source| {
        let records = src.vec_with(1..100, |s| {
            (s.u64_in(0..64), s.option_of(|s| s.u64_in(0..8)), s.bool())
        });
        let query_set = src.u64_in(0..64);
        let query_tag = src.u64_in(0..8);
        let mut ntc = NeighboringTagCache::new(1, 128); // roomy: no replacement
        let mut model: HashMap<u64, (Option<u64>, bool)> = HashMap::new();
        for &(set, tag, dirty) in &records {
            ntc.record(0, set, tag, dirty);
            // Recording an empty set forces clean state (an invalid entry
            // never needs a correctness probe).
            model.insert(set, (tag, dirty && tag.is_some()));
        }
        let answer = ntc.lookup(0, query_set, query_tag);
        let expect = match model.get(&query_set) {
            None => NtcAnswer::Unknown,
            Some((Some(t), _)) if *t == query_tag => NtcAnswer::Present,
            Some((_, true)) => NtcAnswer::AbsentDirty,
            Some((_, false)) => NtcAnswer::AbsentClean,
        };
        prop_assert_eq!(answer, expect);
        Ok(())
    });
}

/// BAB group assignment is stable and monitors are rare.
#[test]
fn bab_groups_stable() {
    check(256, |src: &mut Source| {
        let set = src.u64_in(0..(1 << 24));
        let p = BypassPolicy::paper_bab();
        prop_assert_eq!(p.group(set), p.group(set));
        // Baseline monitor sets never bypass.
        let mut p2 = BypassPolicy::paper_bab();
        if p.group(set) == SetGroup::BaselineMonitor {
            for _ in 0..8 {
                prop_assert!(!p2.should_bypass(set));
            }
        }
        Ok(())
    });
}
