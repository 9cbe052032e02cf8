//! MissMap: line-presence tracking for the Loh-Hill cache.
//!
//! The Loh-Hill design consults an on-chip *MissMap* before accessing the
//! DRAM cache so that definite misses skip the in-DRAM tag lookup. The
//! paper models the MissMap as having the LLC's latency (24 cycles) and,
//! for the Mostly-Clean variant, as a perfect hit/miss predictor. We model
//! the content exactly (a presence set at line granularity, organized in
//! segments like the original proposal) and let `bear-core` attach the
//! latency.

use std::collections::HashMap;

/// Presence map over cache-line addresses, bucketed into page-sized
/// segments (the original MissMap's organization: one bit vector per 4 KB
/// segment).
#[derive(Debug, Clone, Default)]
pub struct MissMap {
    segments: HashMap<u64, u64>,
    line_bytes: u64,
    lines_per_segment: u32,
}

impl MissMap {
    /// Creates an empty map with 64 B lines and 4 KB segments.
    pub fn new() -> Self {
        Self::with_shape(64, 4096)
    }

    /// Creates an empty map with explicit line/segment sizes.
    ///
    /// # Panics
    ///
    /// Panics if the segment does not hold a whole number of ≤64 lines.
    fn with_shape(line_bytes: u64, segment_bytes: u64) -> Self {
        assert!(line_bytes > 0 && segment_bytes.is_multiple_of(line_bytes));
        let lines_per_segment = (segment_bytes / line_bytes) as u32;
        assert!(
            lines_per_segment <= 64,
            "segment bit vector limited to 64 lines"
        );
        MissMap {
            segments: HashMap::new(),
            line_bytes,
            lines_per_segment,
        }
    }

    fn key(&self, addr: u64) -> (u64, u64) {
        let line = addr / self.line_bytes;
        let seg = line / self.lines_per_segment as u64;
        let bit = line % self.lines_per_segment as u64;
        (seg, bit)
    }

    /// Whether the line holding `addr` is marked present.
    pub fn contains(&self, addr: u64) -> bool {
        let (seg, bit) = self.key(addr);
        self.segments
            .get(&seg)
            .is_some_and(|mask| mask & (1 << bit) != 0)
    }

    /// Marks the line present.
    pub fn insert(&mut self, addr: u64) {
        let (seg, bit) = self.key(addr);
        *self.segments.entry(seg).or_insert(0) |= 1 << bit;
    }

    /// Marks the line absent.
    pub fn remove(&mut self, addr: u64) {
        let (seg, bit) = self.key(addr);
        if let Some(mask) = self.segments.get_mut(&seg) {
            *mask &= !(1 << bit);
            if *mask == 0 {
                self.segments.remove(&seg);
            }
        }
    }

    /// Number of lines marked present.
    pub fn len(&self) -> u64 {
        self.segments.values().map(|m| m.count_ones() as u64).sum()
    }

    /// Whether no lines are present.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut m = MissMap::new();
        assert!(!m.contains(0x1000));
        m.insert(0x1000);
        assert!(m.contains(0x1000));
        assert!(m.contains(0x1010), "same 64B line");
        assert!(!m.contains(0x1040), "next line");
        m.remove(0x1000);
        assert!(!m.contains(0x1000));
        assert!(m.is_empty());
    }

    #[test]
    fn lines_within_a_segment_share_a_mask() {
        let mut m = MissMap::new();
        for i in 0..64 {
            m.insert(i * 64);
        }
        assert_eq!(m.segments.len(), 1);
        assert_eq!(m.len(), 64);
        m.insert(64 * 64);
        assert_eq!(m.segments.len(), 2);
    }

    #[test]
    fn empty_segments_are_reclaimed() {
        let mut m = MissMap::new();
        m.insert(0);
        m.insert(64);
        m.remove(0);
        assert_eq!(m.segments.len(), 1);
        m.remove(64);
        assert_eq!(m.segments.len(), 0);
    }

    #[test]
    fn remove_absent_is_noop() {
        let mut m = MissMap::new();
        m.remove(0xABC0);
        assert!(m.is_empty());
    }

    #[test]
    fn custom_shape() {
        let mut m = MissMap::with_shape(64, 2048);
        m.insert(0);
        m.insert(2048);
        assert_eq!(m.segments.len(), 2);
    }

    #[test]
    #[should_panic(expected = "64 lines")]
    fn oversized_segment_panics() {
        MissMap::with_shape(64, 64 * 128);
    }
}
