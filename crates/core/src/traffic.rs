//! The paper's bandwidth-bloat taxonomy (Section 2.3).
//!
//! Every byte that crosses the DRAM-cache data bus is charged to one of
//! these categories; [`crate::metrics::BloatBreakdown`] then computes the
//! Bloat Factor (Equation 1) and its per-category decomposition (Figures 4
//! and 13).

use bear_dram::request::TrafficClass;

/// Categories of DRAM-cache bus traffic.
///
/// The first six are the paper's taxonomy; `VictimRead` is the "dirty
/// eviction" traffic Section 8 attributes to the SRAM-tag designs (and the
/// Loh-Hill fill path), and `LruUpdate` is the replacement-update traffic
/// footnote 3 attributes to set-associative tags-in-DRAM designs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum BloatCategory {
    /// Transfer that services an LLC miss that hits in the DRAM cache. The
    /// 64 useful bytes live here; anything beyond (the co-transferred tag)
    /// is hit-probe bloat.
    Hit = 0,
    /// Tag+data fetched to discover a miss.
    MissProbe = 1,
    /// Writing a missed line (and tag) into the cache.
    MissFill = 2,
    /// Tag fetched to decide whether a writeback hits.
    WritebackProbe = 3,
    /// Updating a present line on writeback.
    WritebackUpdate = 4,
    /// Allocating an absent line on writeback (write-allocate policy).
    WritebackFill = 5,
    /// Reading a dirty victim's data out of the cache before replacement.
    VictimRead = 6,
    /// Replacement-state (LRU) updates written back to in-DRAM tags.
    LruUpdate = 7,
}

impl BloatCategory {
    /// All categories, in display order.
    pub const ALL: [BloatCategory; 8] = [
        BloatCategory::Hit,
        BloatCategory::MissProbe,
        BloatCategory::MissFill,
        BloatCategory::WritebackProbe,
        BloatCategory::WritebackUpdate,
        BloatCategory::WritebackFill,
        BloatCategory::VictimRead,
        BloatCategory::LruUpdate,
    ];

    /// Short label used in harness output.
    pub fn label(self) -> &'static str {
        match self {
            BloatCategory::Hit => "Hit",
            BloatCategory::MissProbe => "MissProbe",
            BloatCategory::MissFill => "MissFill",
            BloatCategory::WritebackProbe => "WbProbe",
            BloatCategory::WritebackUpdate => "WbUpdate",
            BloatCategory::WritebackFill => "WbFill",
            BloatCategory::VictimRead => "VictimRead",
            BloatCategory::LruUpdate => "LruUpdate",
        }
    }

    /// The DRAM-model traffic class used for byte accounting.
    pub fn class(self) -> TrafficClass {
        TrafficClass(self as u8)
    }
}

/// Traffic classes used on the *memory* (commodity DRAM) device. Memory
/// bandwidth is not part of the Bloat Factor but is reported for
/// diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum MemTraffic {
    /// Demand line fetch on a DRAM-cache miss.
    DemandRead = 8,
    /// Dirty victim evicted from the DRAM cache.
    VictimWrite = 9,
    /// Writeback sent to memory (no-allocate policy or no DRAM cache).
    Writeback = 10,
    /// Parallel access issued on a predicted miss that turned out to hit.
    WastedParallel = 11,
}

impl MemTraffic {
    /// Every memory-traffic kind, in class order.
    pub const ALL: [MemTraffic; 4] = [
        MemTraffic::DemandRead,
        MemTraffic::VictimWrite,
        MemTraffic::Writeback,
        MemTraffic::WastedParallel,
    ];

    /// Short snake_case label (report keys, metrics labels).
    pub fn label(self) -> &'static str {
        match self {
            MemTraffic::DemandRead => "demand_read",
            MemTraffic::VictimWrite => "victim_write",
            MemTraffic::Writeback => "writeback",
            MemTraffic::WastedParallel => "wasted_parallel",
        }
    }

    /// The DRAM-model traffic class for this memory traffic kind.
    pub fn class(self) -> TrafficClass {
        TrafficClass(self as u8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categories_round_trip_through_classes() {
        let from_class =
            |class: TrafficClass| BloatCategory::ALL.into_iter().find(|c| c.class() == class);
        for c in BloatCategory::ALL {
            assert_eq!(from_class(c.class()), Some(c));
        }
        assert_eq!(from_class(TrafficClass(14)), None);
    }

    #[test]
    fn classes_do_not_collide() {
        let mut seen = std::collections::HashSet::new();
        for c in BloatCategory::ALL {
            assert!(seen.insert(c.class().0));
        }
        for m in [
            MemTraffic::DemandRead,
            MemTraffic::VictimWrite,
            MemTraffic::Writeback,
            MemTraffic::WastedParallel,
        ] {
            assert!(seen.insert(m.class().0), "mem class collides");
        }
    }

    #[test]
    fn labels_unique_and_nonempty() {
        let labels: std::collections::HashSet<_> =
            BloatCategory::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), BloatCategory::ALL.len());
        assert!(labels.iter().all(|l| !l.is_empty()));
    }
}
