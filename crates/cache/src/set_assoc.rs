//! Generic set-associative LRU cache with per-line metadata.
//!
//! [`SetAssocCache`] models contents and replacement only — timing belongs
//! to the system model in `bear-core`. Every set-associative structure in
//! the paper is LRU (the L3, the Loh-Hill rows, the TIS tags and the
//! Sector Cache's sectors), so LRU is built in. The metadata type
//! parameter `M` lets the L3 carry its BEAR *DRAM Cache Presence* bit, and
//! the sector store its block bitmasks, without this crate knowing
//! anything about DRAM caches.

/// Size/shape description of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Associativity.
    pub ways: u32,
    /// Line size in bytes.
    pub line_bytes: u64,
}

impl CacheGeometry {
    /// Creates a geometry.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or capacity is not an exact multiple
    /// of `ways * line_bytes`.
    pub fn new(capacity_bytes: u64, ways: u32, line_bytes: u64) -> Self {
        assert!(capacity_bytes > 0 && ways > 0 && line_bytes > 0);
        assert!(
            capacity_bytes.is_multiple_of(ways as u64 * line_bytes),
            "capacity must be a whole number of sets"
        );
        CacheGeometry {
            capacity_bytes,
            ways,
            line_bytes,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.capacity_bytes / (self.ways as u64 * self.line_bytes)
    }

    /// Total number of lines.
    pub fn lines(&self) -> u64 {
        self.capacity_bytes / self.line_bytes
    }

    /// Splits a byte address into (set, tag).
    #[inline]
    pub fn decompose(&self, addr: u64) -> (u64, u64) {
        let line = addr / self.line_bytes;
        (line % self.sets(), line / self.sets())
    }

    /// Reconstructs a line-aligned byte address from (set, tag).
    #[inline]
    pub fn recompose(&self, set: u64, tag: u64) -> u64 {
        (tag * self.sets() + set) * self.line_bytes
    }
}

#[derive(Debug, Clone)]
struct Line<M> {
    valid: bool,
    tag: u64,
    dirty: bool,
    /// LRU stamp: the low 32 bits of the cache's access clock.
    stamp: u32,
    meta: M,
}

/// Description of an evicted line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Victim<M> {
    /// Line-aligned byte address of the evicted line.
    pub addr: u64,
    /// Whether the line was dirty.
    pub dirty: bool,
    /// Its metadata at eviction.
    pub meta: M,
}

/// Hit/contents statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    /// Demand probes that hit.
    pub hits: u64,
    /// Demand probes that missed.
    pub misses: u64,
    /// Fills performed.
    pub fills: u64,
    /// Evictions of dirty lines.
    pub dirty_evictions: u64,
    /// Evictions of clean lines.
    pub clean_evictions: u64,
}

impl CacheStats {
    /// Hit ratio over demand probes (0 if no probes).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A set-associative cache holding tags and metadata (no data payloads —
/// this is an architectural content model).
#[derive(Debug, Clone)]
pub struct SetAssocCache<M> {
    geom: CacheGeometry,
    lines: Vec<Line<M>>,
    /// Counts demand hits and fills; stamps the touched line.
    clock: u64,
    /// Access statistics.
    pub stats: CacheStats,
}

impl<M: Clone + Default> SetAssocCache<M> {
    /// Creates an empty cache.
    pub fn new(geom: CacheGeometry) -> Self {
        let n = (geom.sets() * geom.ways as u64) as usize;
        SetAssocCache {
            geom,
            lines: vec![
                Line {
                    valid: false,
                    tag: 0,
                    dirty: false,
                    stamp: 0,
                    meta: M::default(),
                };
                n
            ],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Advances the clock and returns the stamp for the line it touches.
    #[inline]
    fn next_stamp(&mut self) -> u32 {
        self.clock += 1;
        self.clock as u32
    }

    /// The geometry this cache was built with.
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    #[inline]
    fn set_range(&self, set: u64) -> std::ops::Range<usize> {
        let start = (set * self.geom.ways as u64) as usize;
        start..start + self.geom.ways as usize
    }

    fn find(&self, addr: u64) -> Option<usize> {
        let (set, tag) = self.geom.decompose(addr);
        let range = self.set_range(set);
        self.lines[range.clone()]
            .iter()
            .position(|l| l.valid && l.tag == tag)
            .map(|i| range.start + i)
    }

    /// Non-updating presence check.
    pub fn contains(&self, addr: u64) -> bool {
        self.find(addr).is_some()
    }

    /// Looks up `addr` *without* recording a demand access (no stats, no
    /// recency update). Returns the metadata if present.
    pub fn peek(&self, addr: u64) -> Option<&M> {
        self.find(addr).map(|i| &self.lines[i].meta)
    }

    /// Demand access: updates recency and hit/miss statistics. `is_write`
    /// marks the line dirty on a hit. Returns a mutable reference to the
    /// line's metadata on a hit.
    pub fn access(&mut self, addr: u64, is_write: bool) -> Option<&mut M> {
        match self.find(addr) {
            Some(i) => {
                self.stats.hits += 1;
                let stamp = self.next_stamp();
                let line = &mut self.lines[i];
                line.stamp = stamp;
                if is_write {
                    line.dirty = true;
                }
                Some(&mut self.lines[i].meta)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Alias for [`SetAssocCache::access`] with `is_write == false`,
    /// returning an immutable view.
    pub fn probe(&mut self, addr: u64) -> Option<&M> {
        self.access(addr, false).map(|m| &*m)
    }

    /// Inserts `addr`, evicting if the set is full. Returns the victim, if
    /// a valid line was displaced.
    pub fn fill(&mut self, addr: u64, dirty: bool, meta: M) -> Option<Victim<M>> {
        debug_assert!(
            self.find(addr).is_none(),
            "fill of a line already present: {addr:#x}"
        );
        self.stats.fills += 1;
        let (set, tag) = self.geom.decompose(addr);
        let range = self.set_range(set);

        // The first invalid way, else the first least-recently-used one.
        let ways = &self.lines[range.clone()];
        let way = ways.iter().position(|l| !l.valid);
        let (idx, victim) = match way {
            Some(w) => (range.start + w, None),
            None => {
                let lru = ways
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, l)| l.stamp)
                    .map_or(0, |(w, _)| w);
                let idx = range.start + lru;
                let v = &self.lines[idx];
                let victim = Victim {
                    addr: self.geom.recompose(set, v.tag),
                    dirty: v.dirty,
                    meta: v.meta.clone(),
                };
                if v.dirty {
                    self.stats.dirty_evictions += 1;
                } else {
                    self.stats.clean_evictions += 1;
                }
                (idx, Some(victim))
            }
        };

        let stamp = self.next_stamp();
        let line = &mut self.lines[idx];
        line.valid = true;
        line.tag = tag;
        line.dirty = dirty;
        line.stamp = stamp;
        line.meta = meta;
        victim
    }

    /// Removes `addr` if present, returning its victim descriptor (used for
    /// back-invalidation in the inclusive design).
    pub fn invalidate(&mut self, addr: u64) -> Option<Victim<M>> {
        self.find(addr).map(|i| {
            let line = &mut self.lines[i];
            line.valid = false;
            Victim {
                addr,
                dirty: line.dirty,
                meta: line.meta.clone(),
            }
        })
    }

    /// Applies `f` to the metadata of `addr` if present (no recency update).
    /// Returns whether the line was present.
    pub fn update_meta(&mut self, addr: u64, f: impl FnOnce(&mut M)) -> bool {
        match self.find(addr) {
            Some(i) => {
                f(&mut self.lines[i].meta);
                true
            }
            None => false,
        }
    }

    /// Number of valid lines (O(n); diagnostics only).
    pub fn occupancy(&self) -> u64 {
        self.lines.iter().filter(|l| l.valid).count() as u64
    }

    /// Iterates over valid lines as `(line-aligned byte address, dirty,
    /// metadata)` in storage order. Used by whole-cache invariant scans.
    pub fn iter(&self) -> impl Iterator<Item = (u64, bool, &M)> + '_ {
        let ways = self.geom.ways as u64;
        self.lines
            .iter()
            .enumerate()
            .filter(|(_, l)| l.valid)
            .map(move |(i, l)| {
                let set = i as u64 / ways;
                (self.geom.recompose(set, l.tag), l.dirty, &l.meta)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SetAssocCache<u8> {
        // 4 sets × 2 ways × 64 B lines.
        SetAssocCache::new(CacheGeometry::new(512, 2, 64))
    }

    fn addr(set: u64, tag: u64) -> u64 {
        (tag * 4 + set) * 64
    }

    #[test]
    fn geometry_math() {
        let g = CacheGeometry::new(8 << 20, 16, 64);
        assert_eq!(g.sets(), 8192);
        assert_eq!(g.lines(), 131072);
        let a = 0xDEAD_BEEF & !63;
        let (s, t) = g.decompose(a);
        assert_eq!(g.recompose(s, t), a);
    }

    #[test]
    #[should_panic(expected = "whole number of sets")]
    fn ragged_geometry_panics() {
        CacheGeometry::new(1000, 3, 64);
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small();
        assert!(c.access(addr(1, 5), false).is_none());
        assert!(c.fill(addr(1, 5), false, 7).is_none());
        assert_eq!(c.access(addr(1, 5), false).copied(), Some(7));
        assert_eq!(c.stats.hits, 1);
        assert_eq!(c.stats.misses, 1);
        assert_eq!(c.stats.fills, 1);
    }

    #[test]
    fn eviction_reports_victim_address() {
        let mut c = small();
        c.fill(addr(2, 1), false, 0);
        c.fill(addr(2, 2), false, 0);
        // Set 2 is full; next fill evicts the LRU line (tag 1).
        let v = c.fill(addr(2, 3), false, 0).expect("victim expected");
        assert_eq!(v.addr, addr(2, 1));
        assert!(!v.dirty);
        assert!(!c.contains(addr(2, 1)));
        assert!(c.contains(addr(2, 2)));
        assert!(c.contains(addr(2, 3)));
    }

    #[test]
    fn lru_respects_recency() {
        let mut c = small();
        c.fill(addr(0, 1), false, 0);
        c.fill(addr(0, 2), false, 0);
        c.access(addr(0, 1), false); // make tag 1 MRU
        let v = c.fill(addr(0, 3), false, 0).unwrap();
        assert_eq!(v.addr, addr(0, 2));
    }

    #[test]
    fn writes_set_dirty_and_dirty_evictions_counted() {
        let mut c = small();
        c.fill(addr(3, 1), false, 0);
        c.access(addr(3, 1), true);
        c.fill(addr(3, 2), false, 0);
        let v = c.fill(addr(3, 3), false, 0).unwrap();
        assert_eq!(v.addr, addr(3, 1));
        assert!(v.dirty);
        assert_eq!(c.stats.dirty_evictions, 1);
        assert_eq!(c.stats.clean_evictions, 0);
    }

    #[test]
    fn fill_dirty_flag_preserved() {
        let mut c = small();
        c.fill(addr(0, 1), true, 0);
        c.fill(addr(0, 2), false, 0);
        let v = c.fill(addr(0, 3), false, 0).unwrap();
        assert!(v.dirty, "dirty-at-fill line must write back");
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = small();
        c.fill(addr(1, 1), true, 9);
        let v = c.invalidate(addr(1, 1)).unwrap();
        assert!(v.dirty);
        assert_eq!(v.meta, 9);
        assert!(!c.contains(addr(1, 1)));
        assert!(c.invalidate(addr(1, 1)).is_none());
    }

    #[test]
    fn peek_does_not_touch_stats_or_recency() {
        let mut c = small();
        c.fill(addr(0, 1), false, 3);
        c.fill(addr(0, 2), false, 4);
        for _ in 0..10 {
            assert_eq!(c.peek(addr(0, 1)).copied(), Some(3));
        }
        assert_eq!(c.stats.hits, 0);
        // tag 1 is still LRU despite the peeks.
        let v = c.fill(addr(0, 3), false, 0).unwrap();
        assert_eq!(v.addr, addr(0, 1));
    }

    #[test]
    fn update_meta_edits_resident_lines_only() {
        let mut c = small();
        c.fill(addr(2, 2), true, 1);
        assert!(c.update_meta(addr(2, 2), |m| *m = 42));
        assert_eq!(c.peek(addr(2, 2)).copied(), Some(42));
        assert!(!c.update_meta(0xFFFF_0000, |_| {}));
    }

    #[test]
    fn occupancy_and_hit_rate() {
        let mut c = small();
        assert_eq!(c.occupancy(), 0);
        c.fill(addr(0, 1), false, 0);
        c.fill(addr(1, 1), false, 0);
        assert_eq!(c.occupancy(), 2);
        c.access(addr(0, 1), false);
        c.access(addr(3, 9), false);
        assert!((c.stats.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn iter_reports_resident_lines_with_state() {
        let mut c = small();
        c.fill(addr(1, 5), true, 7);
        c.fill(addr(3, 2), false, 9);
        let mut seen: Vec<_> = c.iter().map(|(a, d, m)| (a, d, *m)).collect();
        seen.sort_unstable();
        let mut want = vec![(addr(1, 5), true, 7u8), (addr(3, 2), false, 9u8)];
        want.sort_unstable();
        assert_eq!(seen, want);
        c.invalidate(addr(1, 5));
        assert_eq!(c.iter().count(), 1);
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = small();
        for set in 0..4 {
            c.fill(addr(set, 1), false, 0);
            c.fill(addr(set, 2), false, 0);
        }
        assert_eq!(c.occupancy(), 8);
        for set in 0..4 {
            assert!(c.contains(addr(set, 1)));
            assert!(c.contains(addr(set, 2)));
        }
    }
}
