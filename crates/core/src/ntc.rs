//! Neighboring Tag Cache (Section 6).
//!
//! An Alloy TAD read moves 80 bytes over a 16-byte-per-beat bus, but the TAD
//! itself is 72 bytes — the trailing 8 bytes are the *next set's tag*,
//! fetched for free. The NTC buffers those neighbor tags (8 entries per
//! DRAM-cache bank) so that a later LLC miss to that set can be answered
//! on-chip:
//!
//! - set match + tag match → the line is **guaranteed present**: probe the
//!   cache only (squash the predictor's parallel memory access);
//! - set match + tag mismatch, recorded line clean → the line is
//!   **guaranteed absent**: skip the Miss Probe and go straight to memory;
//! - set match + tag mismatch, recorded line dirty → a probe is still
//!   required for correctness (the dirty victim must be read out);
//! - no set match → no guarantee.

/// Outcome of an NTC lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NtcAnswer {
    /// The requested line is present in the DRAM cache.
    Present,
    /// The requested line is absent and the set's occupant is clean: the
    /// Miss Probe can be skipped.
    AbsentClean,
    /// The requested line is absent but the occupant is dirty: a probe is
    /// still required for correctness.
    AbsentDirty,
    /// No information for this set.
    Unknown,
}

#[derive(Debug, Clone, Copy)]
struct NtcEntry {
    set: u64,
    tag: u64,
    dirty: bool,
    /// Insertion stamp for FIFO replacement within the bank.
    stamp: u64,
}

/// The Neighboring Tag Cache: `entries_per_bank` records per DRAM-cache
/// bank.
#[derive(Debug, Clone)]
pub struct NeighboringTagCache {
    banks: Vec<Vec<NtcEntry>>,
    entries_per_bank: usize,
    clock: u64,
    /// Lookups answered Present.
    pub hits_present: u64,
    /// Lookups answered AbsentClean (probes saved).
    pub hits_absent: u64,
    /// Lookups with no set match.
    pub unknowns: u64,
}

impl NeighboringTagCache {
    /// Creates an empty NTC for `banks` banks with `entries_per_bank`
    /// entries each (the paper: 64 banks × 8 entries).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(banks: usize, entries_per_bank: usize) -> Self {
        assert!(banks > 0 && entries_per_bank > 0);
        NeighboringTagCache {
            banks: vec![Vec::with_capacity(entries_per_bank); banks],
            entries_per_bank,
            clock: 0,
            hits_present: 0,
            hits_absent: 0,
            unknowns: 0,
        }
    }

    /// Records the (tag, dirty) state of `set` as observed on a TAD
    /// transfer. `occupied == false` records an invalid/empty set.
    ///
    /// An existing entry for the set is overwritten (the NTC is kept
    /// up-to-date on fills and evictions); otherwise the oldest entry in
    /// the bank is replaced.
    pub fn record(&mut self, bank: usize, set: u64, tag: Option<u64>, dirty: bool) {
        self.clock += 1;
        let (tag, dirty, stamp) = match tag {
            Some(t) => (t, dirty, self.clock),
            // Empty set: encode as an impossible tag with clean state so
            // lookups answer AbsentClean.
            None => (u64::MAX, false, self.clock),
        };
        let nbanks = self.banks.len();
        let entries = &mut self.banks[bank % nbanks];
        if let Some(e) = entries.iter_mut().find(|e| e.set == set) {
            e.tag = tag;
            e.dirty = dirty;
            e.stamp = stamp;
            return;
        }
        if entries.len() < self.entries_per_bank {
            entries.push(NtcEntry {
                set,
                tag,
                dirty,
                stamp,
            });
        } else {
            let oldest = entries
                .iter_mut()
                .min_by_key(|e| e.stamp)
                .expect("bank non-empty");
            *oldest = NtcEntry {
                set,
                tag,
                dirty,
                stamp,
            };
        }
    }

    /// Records the state of `set` from a tag-store occupant view:
    /// `Some(o)` records the occupant's tag and dirty bit, `None` records
    /// the set as empty (which lookups answer `AbsentClean`).
    pub fn record_occupant(
        &mut self,
        bank: usize,
        set: u64,
        occupant: Option<&crate::contents::Occupant>,
    ) {
        match occupant {
            Some(o) => self.record(bank, set, Some(o.tag), o.dirty),
            None => self.record(bank, set, None, false),
        }
    }

    /// Answers a presence query for (`set`, `tag`), updating statistics.
    pub fn lookup(&mut self, bank: usize, set: u64, tag: u64) -> NtcAnswer {
        let entries = &self.banks[bank % self.banks.len()];
        match entries.iter().find(|e| e.set == set) {
            Some(e) if e.tag == tag => {
                self.hits_present += 1;
                NtcAnswer::Present
            }
            Some(e) if e.dirty => NtcAnswer::AbsentDirty,
            Some(_) => {
                self.hits_absent += 1;
                NtcAnswer::AbsentClean
            }
            None => {
                self.unknowns += 1;
                NtcAnswer::Unknown
            }
        }
    }

    /// Whether the NTC currently holds an entry for `set` (no statistics
    /// update). Used to refresh — but never insert — entries when cache
    /// contents change.
    pub fn lookup_silent(&self, bank: usize, set: u64) -> bool {
        self.banks[bank % self.banks.len()]
            .iter()
            .any(|e| e.set == set)
    }

    /// Iterates over all recorded entries as `(bank, set, occupant)` where
    /// the occupant is `Some((tag, dirty))`, or `None` for a set recorded
    /// as empty. Used by the NTC-mirror invariant scan.
    pub fn entries(&self) -> impl Iterator<Item = (usize, u64, Option<(u64, bool)>)> + '_ {
        self.banks.iter().enumerate().flat_map(|(bank, entries)| {
            entries.iter().map(move |e| {
                let occupant = (e.tag != u64::MAX).then_some((e.tag, e.dirty));
                (bank, e.set, occupant)
            })
        })
    }

    /// Flips the low tag bit of the first recorded entry (fault injection
    /// only). Returns whether an entry existed to corrupt.
    pub fn corrupt_first_entry(&mut self) -> bool {
        for entries in &mut self.banks {
            if let Some(e) = entries.first_mut() {
                e.tag ^= 1;
                return true;
            }
        }
        false
    }

    /// Resets statistics (contents are preserved).
    pub fn reset_stats(&mut self) {
        self.hits_present = 0;
        self.hits_absent = 0;
        self.unknowns = 0;
    }

    /// Storage bytes (Table 5: 44 bytes per bank for 8 entries).
    pub fn storage_bytes(&self) -> u64 {
        // ~5.5 bytes per entry (tag fragment + set index + dirty).
        (self.banks.len() as u64 * self.entries_per_bank as u64 * 11).div_ceil(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_without_entry() {
        let mut ntc = NeighboringTagCache::new(4, 8);
        assert_eq!(ntc.lookup(0, 5, 1), NtcAnswer::Unknown);
        assert_eq!(ntc.unknowns, 1);
    }

    #[test]
    fn present_on_tag_match() {
        let mut ntc = NeighboringTagCache::new(4, 8);
        ntc.record(2, 100, Some(7), false);
        assert_eq!(ntc.lookup(2, 100, 7), NtcAnswer::Present);
        assert_eq!(ntc.hits_present, 1);
    }

    #[test]
    fn absent_clean_and_dirty() {
        let mut ntc = NeighboringTagCache::new(4, 8);
        ntc.record(1, 50, Some(7), false);
        ntc.record(1, 51, Some(9), true);
        assert_eq!(ntc.lookup(1, 50, 8), NtcAnswer::AbsentClean);
        assert_eq!(ntc.lookup(1, 51, 8), NtcAnswer::AbsentDirty);
        assert_eq!(ntc.hits_absent, 1);
    }

    #[test]
    fn empty_set_recorded_as_absent_clean() {
        let mut ntc = NeighboringTagCache::new(2, 8);
        ntc.record(0, 9, None, false);
        assert_eq!(ntc.lookup(0, 9, 3), NtcAnswer::AbsentClean);
    }

    #[test]
    fn record_overwrites_existing_set_entry() {
        let mut ntc = NeighboringTagCache::new(2, 8);
        ntc.record(0, 9, Some(1), false);
        ntc.record(0, 9, Some(2), true);
        assert_eq!(ntc.lookup(0, 9, 2), NtcAnswer::Present);
        assert_eq!(ntc.lookup(0, 9, 1), NtcAnswer::AbsentDirty);
    }

    #[test]
    fn fifo_replacement_within_bank() {
        let mut ntc = NeighboringTagCache::new(1, 2);
        ntc.record(0, 1, Some(1), false);
        ntc.record(0, 2, Some(2), false);
        ntc.record(0, 3, Some(3), false); // evicts set 1
        assert_eq!(ntc.lookup(0, 1, 1), NtcAnswer::Unknown);
        assert_eq!(ntc.lookup(0, 2, 2), NtcAnswer::Present);
        assert_eq!(ntc.lookup(0, 3, 3), NtcAnswer::Present);
    }

    #[test]
    fn banks_are_independent() {
        let mut ntc = NeighboringTagCache::new(2, 4);
        ntc.record(0, 7, Some(4), false);
        assert_eq!(ntc.lookup(1, 7, 4), NtcAnswer::Unknown);
        assert_eq!(ntc.lookup(0, 7, 4), NtcAnswer::Present);
    }

    #[test]
    fn storage_matches_table5_scale() {
        // 64 banks × 8 entries ≈ 3.2 KB (paper: 44 B/bank × 64 = 2816 B).
        let ntc = NeighboringTagCache::new(64, 8);
        let b = ntc.storage_bytes();
        assert!((2500..=3500).contains(&b), "storage {b}");
        assert_eq!(ntc.banks.len(), 64);
    }

    #[test]
    fn entries_expose_occupants_and_empty_markers() {
        let mut ntc = NeighboringTagCache::new(2, 4);
        ntc.record(0, 5, Some(3), true);
        ntc.record(1, 9, None, false);
        let mut all: Vec<_> = ntc.entries().collect();
        all.sort_unstable();
        assert_eq!(all, vec![(0, 5, Some((3, true))), (1, 9, None)]);
    }

    #[test]
    fn corrupting_an_entry_changes_its_answer() {
        let mut ntc = NeighboringTagCache::new(1, 2);
        assert!(!ntc.corrupt_first_entry());
        ntc.record(0, 5, Some(4), false);
        assert!(ntc.corrupt_first_entry());
        assert_eq!(ntc.lookup(0, 5, 4), NtcAnswer::AbsentClean);
        assert_eq!(ntc.lookup(0, 5, 5), NtcAnswer::Present);
    }

    #[test]
    fn record_occupant_mirrors_record() {
        use crate::contents::Occupant;
        let mut ntc = NeighboringTagCache::new(2, 4);
        let occ = Occupant {
            tag: 6,
            dirty: true,
        };
        ntc.record_occupant(0, 3, Some(&occ));
        assert_eq!(ntc.lookup(0, 3, 6), NtcAnswer::Present);
        assert_eq!(ntc.lookup(0, 3, 7), NtcAnswer::AbsentDirty);
        ntc.record_occupant(0, 3, None);
        assert_eq!(ntc.lookup(0, 3, 6), NtcAnswer::AbsentClean);
    }

    #[test]
    fn reset_stats_preserves_contents() {
        let mut ntc = NeighboringTagCache::new(1, 2);
        ntc.record(0, 1, Some(1), false);
        ntc.lookup(0, 1, 1);
        ntc.reset_stats();
        assert_eq!(ntc.hits_present, 0);
        assert_eq!(ntc.lookup(0, 1, 1), NtcAnswer::Present);
    }
}
