//! Address pools that aim adversarial patterns at structural hot spots.
//!
//! The generators in `bear_workloads::adversarial` are address-agnostic;
//! the pools built here supply the aim. Cores issue *virtual* addresses
//! that [`bear_core::system::translate`] permutes page-wise before the
//! caches see them, so a pool that wants DRAM-cache set collisions must
//! search the translation: scan virtual pages, translate each, and keep
//! the addresses whose physical lines land where the pattern needs them.

use bear_core::config::SystemConfig;
use bear_core::system::translate;

/// Lines per 4 KB page (translation preserves page offsets).
const PAGE_LINES: u64 = 64;
/// Virtual pages scanned when hunting for collisions. With ≥4096-set
/// caches this bounds pool construction to a few milliseconds.
const SCAN_PAGES: u64 = 1 << 16;

/// Physical line of the first line in virtual page `page`.
fn page_base_line(page: u64) -> u64 {
    translate(page * 4096) / 64
}

/// Virtual byte addresses whose physical lines all map to the same
/// DRAM-cache set (distinct tags for one direct-mapped slot).
///
/// Scans virtual pages in order and keeps every page that covers the
/// first page's base set; each contributes the one in-page line that
/// lands on the target set.
pub fn set_collision_pool(cfg: &SystemConfig, want: usize) -> Vec<u64> {
    let sets = cfg.l4_lines();
    let target = page_base_line(0) % sets;
    let mut pool = Vec::with_capacity(want);
    for page in 0..SCAN_PAGES {
        let base = page_base_line(page) % sets;
        // Page offset (in lines) that lands on the target set, if the
        // page's 64-line window covers it.
        let offset = (target + sets - base) % sets;
        if offset < PAGE_LINES {
            pool.push(page * 4096 + offset * 64);
            if pool.len() == want {
                break;
            }
        }
    }
    pool
}

/// Virtual byte addresses in even/odd pairs mapping to *adjacent*
/// DRAM-cache sets — the layout whose tags stream into the NTC together.
///
/// Entry `2k` maps to some set `s` and entry `2k + 1` to `s + 1`, with a
/// fresh tag pair each time, so NTC neighbor entries are recorded and
/// aliased in tight succession.
pub fn neighbor_pair_pool(cfg: &SystemConfig, want_pairs: usize) -> Vec<u64> {
    let sets = cfg.l4_lines();
    let target = page_base_line(0) % sets;
    let mut pool = Vec::with_capacity(want_pairs * 2);
    for page in 0..SCAN_PAGES {
        let base = page_base_line(page) % sets;
        let offset = (target + sets - base) % sets;
        // Need both the target set and its successor inside the page.
        if offset + 1 < PAGE_LINES {
            pool.push(page * 4096 + offset * 64);
            pool.push(page * 4096 + (offset + 1) * 64);
            if pool.len() == want_pairs * 2 {
                break;
            }
        }
    }
    pool
}

/// Distinct lines spread over a footprint larger than the L3, so a
/// store-heavy sweep continuously displaces dirty lines.
pub fn footprint_pool(cfg: &SystemConfig, factor: u64) -> Vec<u64> {
    let lines = cfg.l3_capacity() / 64 * factor.max(1);
    // One line per page: maximal set spread after translation.
    (0..lines).map(|i| i * 4096).collect()
}

/// Sector size and associativity of the Sector Cache's tag store
/// (`DesignKind::SectorCache`: 32-way, one tag per 4 KB sector).
const SECTOR_BYTES: u64 = 4096;
const SECTOR_WAYS: u64 = 32;

/// Virtual byte addresses covering `blocks` non-zero blocks of each of
/// `sectors` 4 KB sectors that all map to one Sector Cache sector set.
///
/// With more sectors than the set has ways, fills evict whole sectors
/// whose valid blocks are scattered (never a prefix, never block 0), so a
/// victim's exact block mask decides which lines leave the cache. Block
/// offsets rotate per sector (`1 + (7·page + 13·j) mod 63`, distinct for
/// `blocks <= 63`); the pool lists sector after sector.
pub fn sector_set_pool(cfg: &SystemConfig, sectors: usize, blocks: u64) -> Vec<u64> {
    let sets = (cfg.l4_capacity() / SECTOR_BYTES / SECTOR_WAYS).max(1);
    // A 4 KB page is one sector: translation keeps page offsets.
    let set_of = |page: u64| page_base_line(page) / PAGE_LINES % sets;
    let target = set_of(0);
    let mut pool = Vec::with_capacity(sectors * blocks as usize);
    let mut found = 0;
    for page in (0..SCAN_PAGES).filter(|&p| set_of(p) == target) {
        pool.extend((0..blocks.min(63)).map(|j| page * 4096 + (1 + (7 * page + 13 * j) % 63) * 64));
        found += 1;
        if found == sectors {
            break;
        }
    }
    pool
}

#[cfg(test)]
mod tests {
    use super::*;
    use bear_core::config::DesignKind;

    fn cfg() -> SystemConfig {
        SystemConfig {
            scale_shift: 12,
            ..SystemConfig::paper_baseline(DesignKind::Alloy)
        }
    }

    #[test]
    fn collision_pool_really_collides() {
        let cfg = cfg();
        let sets = cfg.l4_lines();
        let pool = set_collision_pool(&cfg, 64);
        assert!(pool.len() >= 16, "scan found only {} colliders", pool.len());
        let first = translate(pool[0]) / 64 % sets;
        for &addr in &pool {
            assert_eq!(translate(addr) / 64 % sets, first);
        }
        // Distinct tags: all physical lines differ.
        let mut lines: Vec<u64> = pool.iter().map(|&a| translate(a) / 64).collect();
        lines.sort_unstable();
        lines.dedup();
        assert_eq!(lines.len(), pool.len());
    }

    #[test]
    fn neighbor_pairs_map_to_adjacent_sets() {
        let cfg = cfg();
        let sets = cfg.l4_lines();
        let pool = neighbor_pair_pool(&cfg, 32);
        assert!(pool.len() >= 32 && pool.len().is_multiple_of(2));
        for pair in pool.chunks(2) {
            let a = translate(pair[0]) / 64 % sets;
            let b = translate(pair[1]) / 64 % sets;
            assert_eq!(b, (a + 1) % sets, "pair not adjacent");
        }
    }

    #[test]
    fn footprint_pool_exceeds_l3() {
        let cfg = cfg();
        let pool = footprint_pool(&cfg, 4);
        assert!(pool.len() as u64 > cfg.l3_capacity() / 64);
    }

    #[test]
    fn sector_pool_overflows_one_sector_set_off_block_zero() {
        let cfg = SystemConfig {
            scale_shift: 12,
            ..SystemConfig::paper_baseline(DesignKind::SectorCache)
        };
        let sets = cfg.l4_capacity() / SECTOR_BYTES / SECTOR_WAYS;
        let pool = sector_set_pool(&cfg, 96, 8);
        assert_eq!(pool.len(), 96 * 8);
        let sector = |addr: u64| translate(addr) / SECTOR_BYTES;
        let mut sectors: Vec<u64> = pool.iter().map(|&a| sector(a)).collect();
        sectors.dedup();
        assert_eq!(sectors.len(), 96, "sectors are listed one after another");
        assert!(sectors.len() as u64 > 2 * SECTOR_WAYS);
        assert!(sectors.iter().all(|s| s % sets == sectors[0] % sets));
        for chunk in pool.chunks(8) {
            let mut blocks: Vec<u64> = chunk.iter().map(|&a| translate(a) / 64 % 64).collect();
            assert!(blocks.iter().all(|&b| b != 0), "block 0 is never touched");
            blocks.sort_unstable();
            blocks.dedup();
            assert_eq!(blocks.len(), 8, "distinct blocks per sector");
        }
    }
}
