//! End-of-run reconciliation audits.
//!
//! After a run quiesces (every queue drained, every transaction retired),
//! the oracle's independent [`EventCounts`] must reconcile exactly with
//! the cycle model's [`L4Stats`] counters and with the byte meters on
//! both DRAM devices. The byte audits recompute, per traffic class and
//! from first principles (the paper's Table 2 costs), how many bytes each
//! design must have moved for the observed event mix — so a controller
//! that double-charges, drops, or misclassifies traffic is caught even
//! when its hit/miss behaviour is perfect.
//!
//! Deliberately unaudited (documented, not forgotten):
//!
//! - **memory `DemandRead` for the non-ideal Alloy family** — MAP-I
//!   launches parallel memory reads on predicted misses, so the class
//!   mixes useful fetches with speculation the event stream does not
//!   (and should not) describe;
//! - **`WastedParallel`** — pure speculation byproduct, same reason;
//! - latencies and queue depths — timing is the cycle model's own
//!   domain; the oracle is untimed by design.

use crate::counts::EventCounts;
use bear_core::config::{DesignKind, SystemConfig};
use bear_core::l4::{L4Cache, L4Stats};
use bear_core::traffic::{BloatCategory, MemTraffic};
use bear_sim::error::SimError;

/// Bytes in one data beat on the stacked-DRAM interface.
const BEAT: u64 = 16;
/// Bytes in a cache line.
const LINE: u64 = 64;
/// Bytes in an Alloy tag-and-data transfer (80 B TAD).
const TAD: u64 = 80;

fn mismatch(check: &str, cycle_view: String, oracle_view: String) -> SimError {
    // Audits compare end states, so they carry the final cycle number of
    // the run instead of a per-event timestamp.
    SimError::divergence(u64::MAX, check, cycle_view, oracle_view)
}

/// Reconciles the controller's counters with the oracle's event tallies.
///
/// # Errors
///
/// Returns [`SimError::Divergence`] naming the first counter that
/// disagrees.
pub fn audit_counters(stats: &L4Stats, counts: &EventCounts) -> Result<(), SimError> {
    let pairs: [(&str, u64, u64); 7] = [
        ("read_lookups", stats.read_lookups, counts.reads),
        ("read_hits", stats.read_hits, counts.read_hits),
        ("wb_lookups", stats.wb_lookups, counts.wb_resolved),
        ("wb_hits", stats.wb_hits, counts.wb_hits),
        ("fills", stats.fills, counts.filled_demand),
        ("bypasses", stats.bypasses, counts.bypassed),
        ("evictions", stats.evictions, counts.evictions),
    ];
    for (name, cycle, oracle) in pairs {
        if cycle != oracle {
            return Err(mismatch(
                "counter-audit",
                format!("stats.{name} = {cycle}"),
                format!("event stream implies {oracle}"),
            ));
        }
    }
    Ok(())
}

/// One expected byte total for a traffic class, or `None` when the class
/// is deliberately unaudited for this design.
type Expectation = (&'static str, Option<u64>);

fn cache_expectations(design: DesignKind, c: &EventCounts) -> [Expectation; 8] {
    use BloatCategory as B;
    let zero = |_: B| Some(0);
    match design {
        DesignKind::NoCache => B::ALL.map(|b| (label(b), zero(b))),
        DesignKind::Alloy | DesignKind::InclusiveAlloy => [
            // The controller classifies the TAD read at issue time from
            // the predictor, not the outcome, so Hit vs MissProbe split
            // is timing-dependent; their *sum* is exact: one 80 B TAD per
            // demand lookup the NTC did not elide.
            ("Hit+MissProbe", Some(TAD * (c.reads - c.ntc_absent_clean))),
            ("Hit+MissProbe", None),
            (label(B::MissFill), Some(TAD * c.filled_demand)),
            (label(B::WritebackProbe), Some(TAD * c.wb_probes)),
            (label(B::WritebackUpdate), Some(TAD * c.wb_hits)),
            (label(B::WritebackFill), Some(TAD * c.wb_miss_allocated)),
            (label(B::VictimRead), Some(0)),
            (label(B::LruUpdate), Some(0)),
        ],
        DesignKind::BwOpt => [
            (label(B::Hit), Some(LINE * c.read_hits)),
            (label(B::MissProbe), Some(0)),
            (label(B::MissFill), Some(0)),
            (label(B::WritebackProbe), Some(0)),
            (label(B::WritebackUpdate), Some(0)),
            (label(B::WritebackFill), Some(0)),
            (label(B::VictimRead), Some(0)),
            (label(B::LruUpdate), Some(0)),
        ],
        DesignKind::LohHill | DesignKind::MostlyClean => [
            // A Loh-Hill hit streams the whole 29-way set (16 beats) and
            // writes back LRU state (1 beat).
            (label(B::Hit), Some(16 * BEAT * c.read_hits)),
            (label(B::MissProbe), Some(0)),
            (label(B::MissFill), Some(5 * BEAT * c.filled_demand)),
            (label(B::WritebackProbe), Some(12 * BEAT * c.wb_hits)),
            (label(B::WritebackUpdate), Some(5 * BEAT * c.wb_hits)),
            (label(B::WritebackFill), Some(5 * BEAT * c.filled_writeback)),
            (label(B::VictimRead), Some(LINE * c.evicted_dirty)),
            (label(B::LruUpdate), Some(BEAT * c.read_hits)),
        ],
        DesignKind::TagsInSram | DesignKind::SectorCache => [
            // Tags are on-chip: every DRAM-side transfer is a bare line.
            (label(B::Hit), Some(LINE * c.read_hits)),
            (label(B::MissProbe), Some(0)),
            (label(B::MissFill), Some(LINE * c.filled_demand)),
            (label(B::WritebackProbe), Some(0)),
            (label(B::WritebackUpdate), Some(LINE * c.wb_hits)),
            (
                label(B::WritebackFill),
                Some(LINE * (c.wb_resolved - c.wb_hits)),
            ),
            (label(B::VictimRead), Some(LINE * c.evicted_dirty)),
            (label(B::LruUpdate), Some(0)),
        ],
    }
}

fn mem_expectations(design: DesignKind, c: &EventCounts) -> [Expectation; 4] {
    use MemTraffic as M;
    let misses = c.reads - c.read_hits;
    match design {
        DesignKind::NoCache => [
            (label_mem(M::DemandRead), Some(LINE * c.reads)),
            (label_mem(M::VictimWrite), Some(0)),
            (
                label_mem(M::Writeback),
                Some(LINE * (c.wb_resolved + c.direct_mem_writes)),
            ),
            (label_mem(M::WastedParallel), None),
        ],
        DesignKind::Alloy | DesignKind::InclusiveAlloy => [
            // Predicted-miss parallel reads pollute DemandRead; unaudited.
            (label_mem(M::DemandRead), None),
            (label_mem(M::VictimWrite), Some(LINE * c.evicted_dirty)),
            (
                label_mem(M::Writeback),
                Some(LINE * (c.wb_miss_unallocated + c.direct_mem_writes)),
            ),
            (label_mem(M::WastedParallel), None),
        ],
        DesignKind::BwOpt => [
            (label_mem(M::DemandRead), Some(LINE * misses)),
            (label_mem(M::VictimWrite), Some(LINE * c.evicted_dirty)),
            (
                label_mem(M::Writeback),
                Some(LINE * (c.wb_miss_unallocated + c.direct_mem_writes)),
            ),
            (label_mem(M::WastedParallel), None),
        ],
        DesignKind::LohHill
        | DesignKind::MostlyClean
        | DesignKind::TagsInSram
        | DesignKind::SectorCache => [
            (label_mem(M::DemandRead), Some(LINE * misses)),
            (label_mem(M::VictimWrite), Some(LINE * c.evicted_dirty)),
            (label_mem(M::Writeback), Some(LINE * c.direct_mem_writes)),
            (label_mem(M::WastedParallel), None),
        ],
    }
}

fn label(b: BloatCategory) -> &'static str {
    match b {
        BloatCategory::Hit => "Hit",
        BloatCategory::MissProbe => "MissProbe",
        BloatCategory::MissFill => "MissFill",
        BloatCategory::WritebackProbe => "WritebackProbe",
        BloatCategory::WritebackUpdate => "WritebackUpdate",
        BloatCategory::WritebackFill => "WritebackFill",
        BloatCategory::VictimRead => "VictimRead",
        BloatCategory::LruUpdate => "LruUpdate",
    }
}

fn label_mem(m: MemTraffic) -> &'static str {
    match m {
        MemTraffic::DemandRead => "DemandRead",
        MemTraffic::VictimWrite => "VictimWrite",
        MemTraffic::Writeback => "Writeback",
        MemTraffic::WastedParallel => "WastedParallel",
    }
}

/// Reconciles both devices' per-class byte meters with the totals the
/// event mix implies for this design.
///
/// # Errors
///
/// Returns [`SimError::Divergence`] naming the first class whose metered
/// bytes disagree with the oracle's recomputation.
pub fn audit_bytes(
    cfg: &SystemConfig,
    l4: &dyn L4Cache,
    counts: &EventCounts,
) -> Result<(), SimError> {
    let harness = l4.harness();
    // Cache device: the Alloy family's Hit/MissProbe classes are audited
    // as a sum (issue-time classification); everything else per class.
    let expected = cache_expectations(cfg.design, counts);
    if let ("Hit+MissProbe", Some(total)) = expected[0] {
        let metered = harness.cache.bytes_in_class(BloatCategory::Hit.class())
            + harness
                .cache
                .bytes_in_class(BloatCategory::MissProbe.class());
        if metered != total {
            return Err(mismatch(
                "byte-audit",
                format!("cache Hit+MissProbe moved {metered} B"),
                format!("event stream implies {total} B"),
            ));
        }
    }
    for (cat, (name, want)) in BloatCategory::ALL.iter().zip(expected.iter()) {
        if name == &"Hit+MissProbe" {
            continue;
        }
        let Some(want) = want else { continue };
        let metered = harness.cache.bytes_in_class(cat.class());
        if metered != *want {
            return Err(mismatch(
                "byte-audit",
                format!("cache {name} moved {metered} B"),
                format!("event stream implies {want} B"),
            ));
        }
    }
    let mem_classes = [
        MemTraffic::DemandRead,
        MemTraffic::VictimWrite,
        MemTraffic::Writeback,
        MemTraffic::WastedParallel,
    ];
    for (m, (name, want)) in mem_classes.iter().zip(mem_expectations(cfg.design, counts)) {
        let Some(want) = want else { continue };
        let metered = harness.mem.bytes_in_class(m.class());
        if metered != want {
            return Err(mismatch(
                "byte-audit",
                format!("memory {name} moved {metered} B"),
                format!("event stream implies {want} B"),
            ));
        }
    }
    Ok(())
}

/// Reconciles the bandwidth-attribution ledger against both devices'
/// byte meters, class by class plus in total. Only meaningful after a
/// full drain (queued and retrying bytes are zero then), where the
/// conservation law degenerates to exact per-class equality: bytes
/// attributed at submit time == bytes the devices metered at CAS issue,
/// and their sum == total bytes moved.
///
/// # Errors
///
/// The first class whose attribution disagrees with the device meter,
/// as a `divergence` (same shape as the other audits).
pub fn audit_ledger(l4: &dyn L4Cache) -> Result<(), SimError> {
    let harness = l4.harness();
    let ledger = harness.ledger();
    for cat in BloatCategory::ALL {
        let attributed = ledger.bytes_in_class(cat.class());
        let metered = harness.cache.bytes_in_class(cat.class());
        if attributed != metered {
            return Err(mismatch(
                "ledger-audit",
                format!("cache {} metered {metered} B", cat.label()),
                format!("ledger attributed {attributed} B"),
            ));
        }
    }
    for m in MemTraffic::ALL {
        let attributed = ledger.bytes_in_class(m.class());
        let metered = harness.mem.bytes_in_class(m.class());
        if attributed != metered {
            return Err(mismatch(
                "ledger-audit",
                format!("memory {} metered {metered} B", m.label()),
                format!("ledger attributed {attributed} B"),
            ));
        }
    }
    let moved = harness.cache.total_bytes() + harness.mem.total_bytes();
    if ledger.total() != moved {
        return Err(mismatch(
            "ledger-audit",
            format!("devices moved {moved} B"),
            format!("ledger attributed {} B", ledger.total()),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_audit_flags_first_mismatch() {
        let stats = L4Stats {
            read_lookups: 10,
            ..L4Stats::default()
        };
        let counts = EventCounts {
            reads: 9,
            ..EventCounts::default()
        };
        let err = audit_counters(&stats, &counts).unwrap_err();
        assert_eq!(err.kind(), "divergence");
        assert!(err.to_string().contains("read_lookups"));
        let ok = EventCounts {
            reads: 10,
            ..EventCounts::default()
        };
        audit_counters(&stats, &ok).unwrap();
    }

    #[test]
    fn expectations_cover_every_class_or_document_the_gap() {
        let c = EventCounts::default();
        for design in DesignKind::ALL {
            // Shape invariants: 8 cache rows, 4 memory rows, and the only
            // unaudited classes are the documented speculation-polluted
            // ones.
            let cache = cache_expectations(design, &c);
            assert_eq!(cache.len(), 8);
            for (name, want) in &cache {
                if want.is_none() {
                    assert!(
                        *name == "Hit+MissProbe",
                        "{design:?}: unaudited cache class {name}"
                    );
                }
            }
            let mem = mem_expectations(design, &c);
            for (name, want) in &mem {
                if want.is_none() {
                    assert!(
                        *name == "WastedParallel" || *name == "DemandRead",
                        "{design:?}: unaudited memory class {name}"
                    );
                }
            }
        }
    }
}
