//! The on-chip shared L3 (LLC) with BEAR's DRAM-Cache-Presence metadata.
//!
//! The L3 is an 8 MB, 16-way, 24-cycle SRAM cache (Table 1). For BEAR it
//! carries one extra bit per line — the DCP bit of Section 5 — which tracks
//! whether the line is also resident in the DRAM cache:
//!
//! - set on L3 fill to whether the line was present in (or filled into) the
//!   DRAM cache;
//! - cleared when the DRAM cache evicts the line (the eviction notification
//!   an inclusive hierarchy would use to back-invalidate);
//! - consulted when a dirty line is evicted: a set bit lets the writeback
//!   skip its probe.

use bear_cache::{CacheGeometry, SetAssocCache};

/// Per-line L3 metadata.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct L3Meta {
    /// DRAM-Cache Presence bit (Section 5.2).
    dcp: bool,
}

/// Outcome of an L3 demand access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L3Result {
    /// Line present; completes after the L3 latency.
    Hit,
    /// Line absent; must be fetched from the L4/memory.
    Miss,
}

/// A dirty line leaving the L3 (becomes an L4 writeback).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L3Writeback {
    /// Line address.
    pub line: u64,
    /// The line's DCP bit at eviction.
    pub dcp: bool,
}

/// Any line displaced by an L3 fill, clean or dirty. Clean victims carry
/// no traffic but must still be visible so the differential oracle can
/// track L3 membership exactly from the event stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L3Victim {
    /// Line address.
    pub line: u64,
    /// Whether the victim was dirty (and therefore becomes a writeback).
    pub dirty: bool,
    /// The line's DCP bit at eviction.
    pub dcp: bool,
}

/// The shared LLC model.
#[derive(Debug)]
pub struct L3Cache {
    cache: SetAssocCache<L3Meta>,
}

impl L3Cache {
    /// Creates an empty L3.
    pub fn new(capacity_bytes: u64, ways: u32) -> Self {
        L3Cache {
            cache: SetAssocCache::new(CacheGeometry::new(capacity_bytes, ways, 64)),
        }
    }

    /// Demand access for `line`; stores dirty the line on hits.
    pub fn access(&mut self, line: u64, is_store: bool) -> L3Result {
        match self.cache.access(line * 64, is_store) {
            Some(_) => L3Result::Hit,
            None => L3Result::Miss,
        }
    }

    /// Fills `line` after a miss. `dirty` marks store-triggered fills;
    /// `in_l4` initializes the DCP bit. Returns the displaced victim
    /// (clean or dirty), if any.
    ///
    /// A dirty victim's [`L3Victim::dcp`] becomes its writeback's
    /// probe-skip hint, so a stale bit here silently corrupts the DRAM
    /// cache. Two independent checks guard this instant: the system's
    /// `dcp-at-eviction` invariant compares the bit against the DRAM
    /// cache's actual contents the moment the victim is displaced, and
    /// the differential oracle re-derives the bit from its shadow
    /// hierarchy when the `WbSubmitted` event is observed.
    pub fn fill(&mut self, line: u64, dirty: bool, in_l4: bool) -> Option<L3Victim> {
        let victim = self.cache.fill(line * 64, dirty, L3Meta { dcp: in_l4 })?;
        Some(L3Victim {
            line: victim.addr / 64,
            dirty: victim.dirty,
            dcp: victim.meta.dcp,
        })
    }

    /// Whether `line` is present (no recency/stat side effects).
    pub fn contains(&self, line: u64) -> bool {
        self.cache.peek(line * 64).is_some()
    }

    /// Clears the DCP bit of `line` (DRAM-cache eviction notification).
    /// Returns whether the line was present.
    pub fn clear_dcp(&mut self, line: u64) -> bool {
        self.cache.update_meta(line * 64, |m| m.dcp = false)
    }

    /// Invalidates `line` (inclusive back-invalidation). Returns the dirty
    /// writeback the invalidation displaced, if any — inclusive victims
    /// dirty in the L3 must still reach main memory.
    pub fn back_invalidate(&mut self, line: u64) -> Option<L3Writeback> {
        let v = self.cache.invalidate(line * 64)?;
        v.dirty.then_some(L3Writeback {
            line: v.addr / 64,
            dcp: v.meta.dcp,
        })
    }

    /// DCP bit of `line`, if present.
    pub fn dcp(&self, line: u64) -> Option<bool> {
        self.cache.peek(line * 64).map(|m| m.dcp)
    }

    /// Demand hit rate.
    pub fn hit_rate(&self) -> f64 {
        self.cache.stats.hit_rate()
    }

    /// Demand misses observed.
    pub fn misses(&self) -> u64 {
        self.cache.stats.misses
    }

    /// Demand hits observed.
    pub fn hits(&self) -> u64 {
        self.cache.stats.hits
    }

    /// Iterates over resident lines as `(line address, DCP bit)`. Used by
    /// the DCP-coherence invariant scan.
    pub fn resident_lines(&self) -> impl Iterator<Item = (u64, bool)> + '_ {
        self.cache
            .iter()
            .map(|(addr, _, meta)| (addr / 64, meta.dcp))
    }

    /// Forces the DCP bit of `line` to `value` (fault injection only).
    /// Returns whether the line was present.
    pub fn force_dcp(&mut self, line: u64, value: bool) -> bool {
        self.cache.update_meta(line * 64, |m| m.dcp = value)
    }

    /// Resets hit/miss statistics (contents preserved).
    pub fn reset_stats(&mut self) {
        self.cache.stats = Default::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l3() -> L3Cache {
        // Tiny L3: 8 sets × 2 ways.
        L3Cache::new(1024, 2)
    }

    #[test]
    fn miss_fill_hit_roundtrip() {
        let mut c = l3();
        assert_eq!(c.access(5, false), L3Result::Miss);
        assert!(c.fill(5, false, true).is_none());
        assert_eq!(c.access(5, false), L3Result::Hit);
        assert_eq!(c.dcp(5), Some(true));
    }

    #[test]
    fn store_hits_dirty_lines_and_eviction_writes_back() {
        let mut c = l3();
        c.fill(5, false, true);
        c.access(5, true);
        // Conflict-evict line 5 (8 sets: same set = line % 8).
        c.fill(5 + 8, false, false);
        let wb = c.fill(5 + 16, false, false).expect("victim");
        assert_eq!(wb.line, 5);
        assert!(wb.dirty);
        assert!(wb.dcp, "DCP travels with the writeback");
    }

    #[test]
    fn clean_evictions_are_visible_but_not_dirty() {
        let mut c = l3();
        c.fill(3, false, false);
        c.fill(3 + 8, false, false);
        let v = c.fill(3 + 16, false, false).expect("clean victim visible");
        assert_eq!(v.line, 3);
        assert!(!v.dirty, "clean victim must not claim a writeback");
    }

    #[test]
    fn store_miss_fill_can_start_dirty() {
        let mut c = l3();
        c.fill(2, true, true);
        c.fill(2 + 8, false, false);
        let wb = c.fill(2 + 16, false, false).expect("victim");
        assert_eq!(wb.line, 2);
        assert!(wb.dirty);
    }

    #[test]
    fn dcp_clear_and_query() {
        let mut c = l3();
        c.fill(7, false, true);
        assert_eq!(c.dcp(7), Some(true));
        assert!(c.clear_dcp(7));
        assert_eq!(c.dcp(7), Some(false));
        assert!(!c.clear_dcp(99));
        assert_eq!(c.dcp(99), None);
    }

    #[test]
    fn back_invalidate_returns_dirty_writeback() {
        let mut c = l3();
        c.fill(4, false, true);
        c.access(4, true);
        let wb = c.back_invalidate(4).expect("dirty line must write back");
        assert_eq!(wb.line, 4);
        assert!(!c.contains(4));
        assert!(c.back_invalidate(4).is_none());
    }

    #[test]
    fn back_invalidate_clean_is_silent() {
        let mut c = l3();
        c.fill(6, false, true);
        assert!(c.back_invalidate(6).is_none());
        assert!(!c.contains(6));
    }

    #[test]
    fn resident_lines_and_forced_dcp() {
        let mut c = l3();
        c.fill(5, false, true);
        c.fill(9, false, false);
        let mut seen: Vec<_> = c.resident_lines().collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![(5, true), (9, false)]);
        assert!(c.force_dcp(9, true));
        assert_eq!(c.dcp(9), Some(true));
        assert!(!c.force_dcp(42, true));
    }

    #[test]
    fn stats_and_capacity() {
        let mut c = l3();
        assert_eq!(c.cache.geometry().lines(), 16);
        c.access(1, false);
        c.fill(1, false, false);
        c.access(1, false);
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(c.misses(), 1);
        c.reset_stats();
        assert_eq!(c.misses(), 0);
    }
}
