//! Sector-cache tag store (the SC design of Section 8).
//!
//! A sector cache reduces SRAM tag overhead by keeping one tag per large
//! *sector* (4 KB in the paper) with per-block (64 B) valid and dirty bits:
//! 1 GB of data needs only ~6 MB of SRAM. The cost, which Figure 16 shows
//! dominating, is that replacing a sector can force a burst of dirty-block
//! writebacks.
//!
//! The store is a [`SetAssocCache`] with one line per sector: LRU runs over
//! sectors, and each line's metadata holds its sector's block bitmasks.

use crate::set_assoc::{CacheGeometry, SetAssocCache};

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

/// Per-sector block state: bit `i` stands for block `i` of the sector.
#[derive(Debug, Clone, Copy, Default)]
struct Blocks {
    valid: u64,
    dirty: u64,
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
    block_bytes: u64,
    sectors: SetAssocCache<Blocks>,
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
    pub fn new(capacity_bytes: u64, ways: u32, sector_bytes: u64, block_bytes: u64) -> Self {
        assert!(sector_bytes > 0 && block_bytes > 0);
        assert!(
            sector_bytes.is_multiple_of(block_bytes),
            "sector must be a whole number of blocks"
        );
        assert!(
            sector_bytes / block_bytes <= 64,
            "bitmask supports at most 64 blocks per sector"
        );
        SectorTagStore {
            block_bytes,
            sectors: SetAssocCache::new(CacheGeometry::new(capacity_bytes, ways, sector_bytes)),
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.sectors.geometry().sets()
    }

    /// The bit of `addr`'s block within its sector's bitmasks.
    fn block_bit(&self, addr: u64) -> u64 {
        1 << ((addr % self.sectors.geometry().line_bytes) / self.block_bytes)
    }

    fn classify(blocks: Option<&Blocks>, bit: u64) -> SectorProbe {
        match blocks {
            Some(b) if b.valid & bit != 0 => SectorProbe::BlockHit,
            Some(_) => SectorProbe::BlockMiss,
            None => SectorProbe::SectorMiss,
        }
    }

    /// Probes a block address, updating recency on sector hits.
    pub fn probe(&mut self, addr: u64) -> SectorProbe {
        let bit = self.block_bit(addr);
        Self::classify(self.sectors.probe(addr), bit)
    }

    /// Checks presence without updating recency.
    pub fn peek(&self, addr: u64) -> SectorProbe {
        Self::classify(self.sectors.peek(addr), self.block_bit(addr))
    }

    /// Installs a block whose sector is already present.
    ///
    /// # Panics
    ///
    /// Panics if the sector is absent.
    pub fn fill_block(&mut self, addr: u64, dirty: bool) {
        let bit = self.block_bit(addr);
        let present = self.sectors.update_meta(addr, |b| {
            b.valid |= bit;
            if dirty {
                b.dirty |= bit;
            }
        });
        assert!(present, "fill_block requires the sector to be present");
    }

    /// Allocates a sector for `addr` (installing the referenced block) and
    /// returns the victim sector if one was displaced.
    pub fn fill_sector(&mut self, addr: u64, dirty: bool) -> Option<SectorVictim> {
        let bit = self.block_bit(addr);
        let blocks = Blocks {
            valid: bit,
            dirty: if dirty { bit } else { 0 },
        };
        // Dirtiness is per block, so the line's own dirty bit stays clear.
        self.sectors
            .fill(addr, false, blocks)
            .map(|v| SectorVictim {
                addr: v.addr,
                dirty_blocks: v.meta.dirty.count_ones(),
                valid_blocks: v.meta.valid.count_ones(),
            })
    }

    /// Marks a present block dirty. Returns whether the block was present.
    pub fn mark_dirty(&mut self, addr: u64) -> bool {
        let bit = self.block_bit(addr);
        let mut marked = false;
        self.sectors.update_meta(addr, |b| {
            if b.valid & bit != 0 {
                b.dirty |= bit;
                marked = true;
            }
        });
        marked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> SectorTagStore {
        // 8 sectors of 512 B (8 blocks of 64 B), 2-way → 4 sets.
        SectorTagStore::new(4096, 2, 512, 64)
    }

    fn sector_addr(set: u64, tag: u64) -> u64 {
        (tag * 4 + set) * 512
    }

    #[test]
    fn shape() {
        let s = store();
        assert_eq!(s.sets(), 4);
        // 8 blocks per sector: the last block of a sector maps to bit 7.
        assert_eq!(s.block_bit(sector_addr(0, 1) + 7 * 64), 1 << 7);
        assert_eq!(s.block_bit(sector_addr(0, 2)), 1);
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
    }

    #[test]
    fn peek_does_not_count() {
        let mut s = store();
        let a = sector_addr(0, 1);
        assert_eq!(s.peek(a), SectorProbe::SectorMiss);
        s.fill_sector(a, false);
        assert_eq!(s.peek(a), SectorProbe::BlockHit);
        assert_eq!(s.peek(a + 64), SectorProbe::BlockMiss);
        // Peeks leave recency alone: tag 1 is still the LRU sector.
        s.fill_sector(sector_addr(0, 2), false);
        s.peek(a);
        let v = s.fill_sector(sector_addr(0, 3), false).unwrap();
        assert_eq!(v.addr, a);
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
        SectorTagStore::new(1 << 20, 2, 8192, 64);
    }

    #[test]
    fn paper_scale_tag_store_cost() {
        // The paper's SC: 1 GB data, 4 KB sectors, 64 B blocks, 32-way.
        let s = SectorTagStore::new(1 << 30, 32, 4096, 64);
        let sectors = (1u64 << 30) / 4096;
        assert_eq!(s.sets() * 32, sectors);
        // ~6 MB SRAM: 262144 sectors × ~24 B (tag + 2×64-bit masks + state).
        let sram_bytes = sectors * 24;
        assert!(sram_bytes <= 7 << 20);
    }
}
