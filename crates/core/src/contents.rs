//! Functional content model for the direct-mapped tags-in-DRAM caches.
//!
//! The DRAM-cache *timing* is produced by `bear-dram`; [`DirectStore`]
//! models what the in-DRAM tag store would say — which line occupies each
//! set and whether it is dirty — for the Alloy family (one TAD per set).
//! The 29-way Loh-Hill rows use `bear_cache::SetAssocCache`, the one
//! set-associative LRU store.

/// Occupant of a direct-mapped set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Occupant {
    /// Tag (line address divided by set count).
    pub tag: u64,
    /// Dirty bit.
    pub dirty: bool,
}

/// Direct-mapped tag/dirty store (the Alloy Cache's contents).
#[derive(Debug, Clone)]
pub struct DirectStore {
    /// Per-set packed entry: `tag << 2 | dirty << 1 | valid`.
    slots: Vec<u64>,
    sets: u64,
}

impl DirectStore {
    /// Creates an empty store with `sets` sets.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is zero.
    pub fn new(sets: u64) -> Self {
        assert!(sets > 0);
        DirectStore {
            slots: vec![0; sets as usize],
            sets,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.sets
    }

    /// Splits a line address into (set, tag).
    #[inline]
    pub fn decompose(&self, line: u64) -> (u64, u64) {
        (line % self.sets, line / self.sets)
    }

    /// Reconstructs a line address.
    #[inline]
    pub fn recompose(&self, set: u64, tag: u64) -> u64 {
        tag * self.sets + set
    }

    /// Current occupant of `set`.
    #[inline]
    pub fn occupant(&self, set: u64) -> Option<Occupant> {
        let e = self.slots[set as usize];
        if e & 1 == 0 {
            None
        } else {
            Some(Occupant {
                tag: e >> 2,
                dirty: e & 2 != 0,
            })
        }
    }

    /// Whether `line` is present.
    pub fn contains(&self, line: u64) -> bool {
        let (set, tag) = self.decompose(line);
        matches!(self.occupant(set), Some(o) if o.tag == tag)
    }

    /// Installs `line`, returning the displaced line address and dirty
    /// state, if the set held a *different* line.
    pub fn install(&mut self, line: u64, dirty: bool) -> Option<(u64, bool)> {
        let (set, tag) = self.decompose(line);
        let prev = self.occupant(set);
        self.slots[set as usize] = (tag << 2) | ((dirty as u64) << 1) | 1;
        match prev {
            Some(o) if o.tag != tag => Some((self.recompose(set, o.tag), o.dirty)),
            _ => None,
        }
    }

    /// Marks `line` dirty if present; returns whether it was present.
    pub fn mark_dirty(&mut self, line: u64) -> bool {
        let (set, tag) = self.decompose(line);
        match self.occupant(set) {
            Some(o) if o.tag == tag => {
                self.slots[set as usize] |= 2;
                true
            }
            _ => false,
        }
    }

    /// Removes `line` if present; returns whether it was present.
    pub fn remove(&mut self, line: u64) -> bool {
        let (set, tag) = self.decompose(line);
        match self.occupant(set) {
            Some(o) if o.tag == tag => {
                self.slots[set as usize] = 0;
                true
            }
            _ => false,
        }
    }

    /// Number of valid sets (O(n); diagnostics).
    pub fn occupancy(&self) -> u64 {
        self.slots.iter().filter(|&&e| e & 1 != 0).count() as u64
    }

    /// `(valid, dirty)` set counts in one scan (O(n); telemetry sampling).
    pub fn occupancy_and_dirty(&self) -> (u64, u64) {
        let mut valid = 0;
        let mut dirty = 0;
        for &e in &self.slots {
            valid += e & 1;
            dirty += (e >> 1) & (e & 1);
        }
        (valid, dirty)
    }

    /// Flips the low tag bit of `set`'s occupant (fault injection only).
    /// Returns whether the set held a valid line.
    pub fn corrupt_tag(&mut self, set: u64) -> bool {
        match self.slots.get_mut(set as usize) {
            Some(e) if *e & 1 != 0 => {
                *e ^= 1 << 2;
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_install_and_lookup() {
        let mut s = DirectStore::new(16);
        assert!(!s.contains(5));
        assert_eq!(s.install(5, false), None);
        assert!(s.contains(5));
        assert!(!s.contains(5 + 16), "same set, different tag");
        assert_eq!(s.occupancy(), 1);
    }

    #[test]
    fn direct_conflict_reports_victim() {
        let mut s = DirectStore::new(16);
        s.install(5, true);
        let v = s.install(5 + 16, false);
        assert_eq!(v, Some((5, true)));
        assert!(s.contains(5 + 16));
        assert!(!s.contains(5));
    }

    #[test]
    fn direct_reinstall_same_line_no_victim() {
        let mut s = DirectStore::new(16);
        s.install(5, false);
        assert_eq!(s.install(5, true), None);
        assert_eq!(
            s.occupant(5),
            Some(Occupant {
                tag: 0,
                dirty: true
            })
        );
    }

    #[test]
    fn direct_dirty_and_remove() {
        let mut s = DirectStore::new(16);
        s.install(7, false);
        assert!(s.mark_dirty(7));
        assert!(!s.mark_dirty(7 + 16));
        assert_eq!(s.occupant(7).map(|o| o.dirty), Some(true));
        assert!(s.remove(7));
        assert!(!s.remove(7));
        assert_eq!(s.occupancy(), 0);
    }

    #[test]
    fn direct_corrupt_tag_changes_occupant() {
        let mut s = DirectStore::new(16);
        assert!(!s.corrupt_tag(5), "empty set has nothing to corrupt");
        s.install(5 + 16, true); // set 5, tag 1
        assert!(s.corrupt_tag(5));
        assert_eq!(
            s.occupant(5),
            Some(Occupant {
                tag: 0,
                dirty: true
            })
        );
        assert!(!s.corrupt_tag(99), "out-of-range set is a no-op");
    }

    #[test]
    fn direct_decompose_recompose() {
        let s = DirectStore::new(1024);
        let line = 0x0DEA_DBEE;
        let (set, tag) = s.decompose(line);
        assert_eq!(s.recompose(set, tag), line);
    }
}
