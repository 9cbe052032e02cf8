//! Sector-cache tag store (the SC design of Section 8).
//!
//! A sector cache reduces SRAM tag overhead by keeping one tag per large
//! *sector* (4 KB in the paper) with per-block (64 B) valid and dirty bits:
//! 1 GB of data needs only ~6 MB of SRAM. The cost, which Figure 16 shows
//! dominating, is that replacing a sector can force a burst of dirty-block
//! writebacks.

use crate::replacement::{ReplState, ReplacementPolicy, Replacer};

/// Result of probing a block address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SectorProbe {
    /// Sector present and the requested block valid.
    BlockHit,
    /// Sector present but the block not yet fetched.
    BlockMiss,
    /// Sector absent entirely.
    SectorMiss,
}

#[derive(Debug, Clone)]
struct Sector {
    valid: bool,
    tag: u64,
    repl: ReplState,
    valid_blocks: u64,
    dirty_blocks: u64,
}

/// Outcome of a sector replacement: which blocks of the victim must be
/// written back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectorVictim {
    /// Sector-aligned byte address of the evicted sector.
    pub addr: u64,
    /// Number of dirty blocks that must be written back to memory.
    pub dirty_blocks: u32,
    /// Number of valid blocks held at eviction.
    pub valid_blocks: u32,
}

/// Set-associative sector tag store.
#[derive(Debug, Clone)]
pub struct SectorTagStore {
    sets: u64,
    ways: u32,
    sector_bytes: u64,
    block_bytes: u64,
    sectors: Vec<Sector>,
    replacer: Replacer,
    /// Block-level hits.
    pub block_hits: u64,
    /// Block misses within a present sector.
    pub block_misses: u64,
    /// Whole-sector misses.
    pub sector_misses: u64,
}

impl SectorTagStore {
    /// Creates a store covering `capacity_bytes` of data with the given
    /// sector/block sizes and associativity.
    ///
    /// # Panics
    ///
    /// Panics if sizes are zero, the sector is not a multiple of the block,
    /// more than 64 blocks per sector are requested, or the capacity is not
    /// a whole number of sets.
    pub fn new(
        capacity_bytes: u64,
        ways: u32,
        sector_bytes: u64,
        block_bytes: u64,
        policy: ReplacementPolicy,
    ) -> Self {
        assert!(capacity_bytes > 0 && ways > 0 && sector_bytes > 0 && block_bytes > 0);
        assert!(
            sector_bytes.is_multiple_of(block_bytes),
            "sector must be a whole number of blocks"
        );
        let blocks_per_sector = (sector_bytes / block_bytes) as u32;
        assert!(
            blocks_per_sector <= 64,
            "bitmask supports at most 64 blocks per sector"
        );
        assert!(
            capacity_bytes.is_multiple_of(ways as u64 * sector_bytes),
            "capacity must be a whole number of sets"
        );
        let sets = capacity_bytes / (ways as u64 * sector_bytes);
        SectorTagStore {
            sets,
            ways,
            sector_bytes,
            block_bytes,
            sectors: vec![
                Sector {
                    valid: false,
                    tag: 0,
                    repl: 0,
                    valid_blocks: 0,
                    dirty_blocks: 0,
                };
                (sets * ways as u64) as usize
            ],
            replacer: Replacer::new(policy, 0x5EC7),
            block_hits: 0,
            block_misses: 0,
            sector_misses: 0,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.sets
    }

    fn decompose(&self, addr: u64) -> (u64, u64, u32) {
        let block = (addr % self.sector_bytes) / self.block_bytes;
        let sector = addr / self.sector_bytes;
        (sector % self.sets, sector / self.sets, block as u32)
    }

    fn set_range(&self, set: u64) -> std::ops::Range<usize> {
        let start = (set * self.ways as u64) as usize;
        start..start + self.ways as usize
    }

    fn find(&self, set: u64, tag: u64) -> Option<usize> {
        let range = self.set_range(set);
        self.sectors[range.clone()]
            .iter()
            .position(|s| s.valid && s.tag == tag)
            .map(|i| range.start + i)
    }

    /// Probes a block address, updating statistics and recency on sector
    /// hits.
    pub fn probe(&mut self, addr: u64) -> SectorProbe {
        let (set, tag, block) = self.decompose(addr);
        match self.find(set, tag) {
            Some(i) => {
                self.replacer.on_hit(&mut self.sectors[i].repl);
                if self.sectors[i].valid_blocks & (1 << block) != 0 {
                    self.block_hits += 1;
                    SectorProbe::BlockHit
                } else {
                    self.block_misses += 1;
                    SectorProbe::BlockMiss
                }
            }
            None => {
                self.sector_misses += 1;
                SectorProbe::SectorMiss
            }
        }
    }

    /// Checks presence without updating statistics.
    pub fn peek(&self, addr: u64) -> SectorProbe {
        let (set, tag, block) = self.decompose(addr);
        match self.find(set, tag) {
            Some(i) if self.sectors[i].valid_blocks & (1 << block) != 0 => SectorProbe::BlockHit,
            Some(_) => SectorProbe::BlockMiss,
            None => SectorProbe::SectorMiss,
        }
    }

    /// Installs a block whose sector is already present.
    ///
    /// # Panics
    ///
    /// Panics if the sector is absent.
    pub fn fill_block(&mut self, addr: u64, dirty: bool) {
        let (set, tag, block) = self.decompose(addr);
        let i = self
            .find(set, tag)
            .expect("fill_block requires the sector to be present");
        self.sectors[i].valid_blocks |= 1 << block;
        if dirty {
            self.sectors[i].dirty_blocks |= 1 << block;
        }
    }

    /// Allocates a sector for `addr` (installing the referenced block) and
    /// returns the victim sector if one was displaced.
    pub fn fill_sector(&mut self, addr: u64, dirty: bool) -> Option<SectorVictim> {
        let (set, tag, block) = self.decompose(addr);
        debug_assert!(self.find(set, tag).is_none(), "sector already present");
        let range = self.set_range(set);
        let empty = self.sectors[range.clone()].iter().position(|s| !s.valid);
        let (idx, victim) = match empty {
            Some(w) => (range.start + w, None),
            None => {
                let mut states: Vec<ReplState> =
                    self.sectors[range.clone()].iter().map(|s| s.repl).collect();
                let w = self.replacer.pick_victim(&mut states);
                for (s, st) in self.sectors[range.clone()].iter_mut().zip(states) {
                    s.repl = st;
                }
                let idx = range.start + w;
                let v = &self.sectors[idx];
                let victim = SectorVictim {
                    addr: (v.tag * self.sets + set) * self.sector_bytes,
                    dirty_blocks: v.dirty_blocks.count_ones(),
                    valid_blocks: v.valid_blocks.count_ones(),
                };
                (idx, Some(victim))
            }
        };
        let s = &mut self.sectors[idx];
        s.valid = true;
        s.tag = tag;
        s.valid_blocks = 1 << block;
        s.dirty_blocks = if dirty { 1 << block } else { 0 };
        self.replacer.on_fill(&mut s.repl);
        victim
    }

    /// Marks a present block dirty. Returns whether the block was present.
    pub fn mark_dirty(&mut self, addr: u64) -> bool {
        let (set, tag, block) = self.decompose(addr);
        match self.find(set, tag) {
            Some(i) if self.sectors[i].valid_blocks & (1 << block) != 0 => {
                self.sectors[i].dirty_blocks |= 1 << block;
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> SectorTagStore {
        // 8 sectors of 512 B (8 blocks of 64 B), 2-way → 4 sets.
        SectorTagStore::new(4096, 2, 512, 64, ReplacementPolicy::Lru)
    }

    fn sector_addr(set: u64, tag: u64) -> u64 {
        (tag * 4 + set) * 512
    }

    #[test]
    fn shape() {
        let s = store();
        assert_eq!(s.sets(), 4);
        assert_eq!(s.sector_bytes / s.block_bytes, 8, "blocks per sector");
    }

    #[test]
    fn probe_states() {
        let mut s = store();
        let a = sector_addr(1, 3);
        assert_eq!(s.probe(a), SectorProbe::SectorMiss);
        s.fill_sector(a, false);
        assert_eq!(s.probe(a), SectorProbe::BlockHit);
        // Another block in the same sector: present sector, absent block.
        assert_eq!(s.probe(a + 64), SectorProbe::BlockMiss);
        s.fill_block(a + 64, false);
        assert_eq!(s.probe(a + 64), SectorProbe::BlockHit);
        assert_eq!(s.block_hits, 2);
        assert_eq!(s.block_misses, 1);
        assert_eq!(s.sector_misses, 1);
    }

    #[test]
    fn peek_does_not_count() {
        let mut s = store();
        let a = sector_addr(0, 1);
        assert_eq!(s.peek(a), SectorProbe::SectorMiss);
        s.fill_sector(a, false);
        assert_eq!(s.peek(a), SectorProbe::BlockHit);
        assert_eq!(s.peek(a + 64), SectorProbe::BlockMiss);
        assert_eq!(s.block_hits, 0);
        assert_eq!(s.sector_misses, 0);
    }

    #[test]
    fn victim_reports_dirty_block_count() {
        let mut s = store();
        let a = sector_addr(2, 1);
        s.fill_sector(a, true); // block 0 dirty
        s.fill_block(a + 64, true);
        s.fill_block(a + 128, false);
        s.fill_sector(sector_addr(2, 2), false);
        let v = s.fill_sector(sector_addr(2, 3), false).expect("victim");
        assert_eq!(v.addr, a);
        assert_eq!(v.dirty_blocks, 2);
        assert_eq!(v.valid_blocks, 3);
    }

    #[test]
    fn mark_dirty_only_on_valid_blocks() {
        let mut s = store();
        let a = sector_addr(3, 1);
        assert!(!s.mark_dirty(a));
        s.fill_sector(a, false);
        assert!(s.mark_dirty(a));
        assert!(!s.mark_dirty(a + 64), "block not yet filled");
        s.fill_block(a + 64, false);
        assert!(s.mark_dirty(a + 64));
        s.fill_sector(sector_addr(3, 2), false);
        let v = s.fill_sector(sector_addr(3, 9), false).unwrap();
        assert_eq!(v.dirty_blocks, 2);
    }

    #[test]
    fn lru_across_sectors() {
        let mut s = store();
        s.fill_sector(sector_addr(0, 1), false);
        s.fill_sector(sector_addr(0, 2), false);
        s.probe(sector_addr(0, 1)); // touch tag 1
        let v = s.fill_sector(sector_addr(0, 3), false).unwrap();
        assert_eq!(v.addr, sector_addr(0, 2));
    }

    #[test]
    #[should_panic(expected = "sector to be present")]
    fn fill_block_without_sector_panics() {
        let mut s = store();
        s.fill_block(sector_addr(0, 1), false);
    }

    #[test]
    #[should_panic(expected = "at most 64 blocks")]
    fn too_many_blocks_per_sector_panics() {
        SectorTagStore::new(1 << 20, 2, 8192, 64, ReplacementPolicy::Lru);
    }

    #[test]
    fn paper_scale_tag_store_cost() {
        // The paper's SC: 1 GB data, 4 KB sectors, 64 B blocks, 32-way.
        let s = SectorTagStore::new(1 << 30, 32, 4096, 64, ReplacementPolicy::Lru);
        let sectors = (1u64 << 30) / 4096;
        assert_eq!(s.sets() * 32, sectors);
        // ~6 MB SRAM: 262144 sectors × ~24 B (tag + 2×64-bit masks + state).
        let sram_bytes = sectors * 24;
        assert!(sram_bytes <= 7 << 20);
    }
}
