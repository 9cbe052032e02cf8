//! Set-to-row placement for tags-in-DRAM caches.
//!
//! The Alloy Cache places consecutive cache sets in the same DRAM row (28
//! 80-byte TADs fit in a 2 KB row), which is what makes the Neighboring Tag
//! Cache possible: reading set *S* also moves the tag of set *S+1* across
//! the bus. Rows are then striped across channels and banks.

use bear_dram::config::DramTopology;
use bear_dram::request::DramLocation;

/// Maps set indices onto DRAM (channel, rank, bank, row) coordinates, with
/// a configurable number of sets sharing one row.
#[derive(Debug, Clone, Copy)]
pub struct SetPlacement {
    channels: u64,
    banks_per_channel: u64,
    banks_per_rank: u64,
    sets_per_row: u64,
}

impl SetPlacement {
    /// Creates a placement for `topology` with `sets_per_row` consecutive
    /// sets per DRAM row.
    ///
    /// # Panics
    ///
    /// Panics if `sets_per_row` is zero.
    pub fn new(topology: DramTopology, sets_per_row: u64) -> Self {
        assert!(sets_per_row > 0);
        SetPlacement {
            channels: topology.channels as u64,
            banks_per_channel: topology.banks_per_channel() as u64,
            banks_per_rank: topology.banks_per_rank as u64,
            sets_per_row,
        }
    }

    /// The Alloy layout: 28 TADs (72 B each) per 2 KB row.
    pub fn alloy(topology: DramTopology) -> Self {
        Self::new(topology, 28)
    }

    /// Whether `set` and `set + 1` share a DRAM row (the NTC neighbor
    /// condition).
    pub fn has_neighbor(&self, set: u64, total_sets: u64) -> bool {
        set % self.sets_per_row != self.sets_per_row - 1 && set + 1 < total_sets
    }

    /// DRAM coordinates of `set`.
    pub fn locate(&self, set: u64) -> DramLocation {
        let row_id = set / self.sets_per_row;
        let channel = row_id % self.channels;
        let rest = row_id / self.channels;
        let bank_in_channel = rest % self.banks_per_channel;
        let row = rest / self.banks_per_channel;
        DramLocation {
            channel: channel as u32,
            rank: (bank_in_channel / self.banks_per_rank) as u32,
            bank: (bank_in_channel % self.banks_per_rank) as u32,
            row,
        }
    }

    /// Flat bank identifier across the whole device (for NTC indexing).
    pub fn global_bank(&self, set: u64) -> usize {
        let loc = self.locate(set);
        (loc.channel as u64 * self.banks_per_channel
            + loc.rank as u64 * self.banks_per_rank
            + loc.bank as u64) as usize
    }

    /// Total banks across the device.
    pub fn total_banks(&self) -> usize {
        (self.channels * self.banks_per_channel) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bear_dram::config::DramConfig;

    fn placement() -> SetPlacement {
        SetPlacement::alloy(DramConfig::stacked_cache_8x().topology)
    }

    #[test]
    fn consecutive_sets_share_a_row() {
        let p = placement();
        let a = p.locate(0);
        let b = p.locate(27);
        assert_eq!(a, b, "all 28 sets of a row map identically");
        let c = p.locate(28);
        assert_ne!(a, c);
    }

    #[test]
    fn rows_stripe_across_channels_first() {
        let p = placement();
        assert_eq!(p.locate(0).channel, 0);
        assert_eq!(p.locate(28).channel, 1);
        assert_eq!(p.locate(56).channel, 2);
        assert_eq!(p.locate(84).channel, 3);
        assert_eq!(p.locate(112).channel, 0);
        assert_eq!(p.locate(112).bank, 1);
    }

    #[test]
    fn neighbor_condition_respects_row_boundary() {
        let p = placement();
        let total = 1 << 20;
        assert!(p.has_neighbor(0, total));
        assert!(p.has_neighbor(26, total));
        assert!(
            !p.has_neighbor(27, total),
            "last TAD of row has no neighbor"
        );
        assert!(!p.has_neighbor(total - 1, total), "last set of cache");
    }

    #[test]
    fn global_bank_covers_all_banks() {
        let p = placement();
        let mut seen = std::collections::HashSet::new();
        for set in (0..100_000u64).step_by(28) {
            seen.insert(p.global_bank(set));
        }
        assert_eq!(seen.len(), p.total_banks());
        assert_eq!(p.total_banks(), 64);
    }

    #[test]
    fn rows_advance_once_banks_cycle() {
        let p = placement();
        let sets_per_bank_pass = 28 * 64; // all channels × banks
        let a = p.locate(0);
        let b = p.locate(sets_per_bank_pass as u64);
        assert_eq!(b.channel, a.channel);
        assert_eq!(b.bank, a.bank);
        assert_eq!(b.row, a.row + 1);
    }

    #[test]
    fn custom_sets_per_row() {
        let p = SetPlacement::new(DramConfig::stacked_cache_8x().topology, 32);
        assert_eq!(p.sets_per_row, 32);
        assert_eq!(p.locate(31), p.locate(0));
        assert!(!p.has_neighbor(31, 1 << 20));
    }
}
