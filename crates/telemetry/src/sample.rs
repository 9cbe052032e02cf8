//! One windowed time-series snapshot and its JSONL encoding.

use crate::{escape_json, json_num};

/// JSON keys for the per-category DRAM-cache byte counters, in the same
/// order as `bear_core::traffic::BloatCategory::ALL` (a test over there
/// pins the correspondence).
pub const CACHE_BYTE_KEYS: [&str; 8] = [
    "hit",
    "miss_probe",
    "miss_fill",
    "wb_probe",
    "wb_update",
    "wb_fill",
    "victim_read",
    "lru_update",
];

/// One sample window.
///
/// All counter fields are **deltas over the window** (counters reset
/// between windows), so summing any field across a run's samples yields
/// exactly the end-of-run aggregate. `occupied_lines` / `dirty_lines` /
/// `bab_psel` / `bab_engaged` / `bank_queue_depths` are point-in-time
/// state at the window's closing edge.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Sample {
    /// Window index, starting at 0 at the warmup→measure boundary.
    pub window: u64,
    /// First cycle covered (inclusive).
    pub start_cycle: u64,
    /// Cycle the window closed at (exclusive).
    pub end_cycle: u64,
    /// Instructions retired across all cores during the window.
    pub insts_retired: u64,
    /// L3 hits during the window.
    pub l3_hits: u64,
    /// L3 misses during the window.
    pub l3_misses: u64,
    /// L4 demand-read lookups.
    pub read_lookups: u64,
    /// L4 demand-read hits.
    pub read_hits: u64,
    /// L4 writeback lookups.
    pub wb_lookups: u64,
    /// L4 writeback hits (update-in-place).
    pub wb_hits: u64,
    /// L4 fills.
    pub fills: u64,
    /// BAB bypasses.
    pub bypasses: u64,
    /// L4 evictions.
    pub evictions: u64,
    /// Useful (demanded) lines delivered.
    pub useful_lines: u64,
    /// Miss Probes avoided (NTC / SRAM tags).
    pub miss_probes_avoided: u64,
    /// Writeback Probes avoided (DCP / inclusive / SRAM tags).
    pub wb_probes_avoided: u64,
    /// Parallel memory reads squashed before issue.
    pub parallel_squashed: u64,
    /// Parallel memory reads issued but wasted.
    pub wasted_parallel: u64,
    /// DRAM-cache bus bytes by `BloatCategory` (see [`CACHE_BYTE_KEYS`]),
    /// metered at CAS issue by the device model.
    pub cache_bytes_by_class: [u64; 8],
    /// Main-memory bus bytes.
    pub mem_bytes: u64,
    /// DRAM-cache bytes *attributed* by the bandwidth-attribution ledger
    /// during the window, same key order as `cache_bytes_by_class`.
    /// Charged at submit time, so a window's attribution can lead the
    /// device meters by whatever is still queued; over a whole run the
    /// two columns reconcile (the conservation invariant).
    pub attributed_bytes_by_class: [u64; 8],
    /// Instantaneous Bloat Factor over the window (cache bytes moved per
    /// useful byte delivered), as computed by the core's accounting.
    pub bloat_factor: f64,
    /// Valid L4 lines at the window edge.
    pub occupied_lines: u64,
    /// Dirty L4 lines at the window edge.
    pub dirty_lines: u64,
    /// Total L4 line capacity (0 when the design exposes no probe).
    pub capacity_lines: u64,
    /// BAB set-dueling counters `[base misses, base accesses, PB misses,
    /// PB accesses]` at the window edge.
    pub bab_psel: [u64; 4],
    /// Whether follower sets currently use the bypass policy.
    pub bab_engaged: bool,
    /// Demand misses bypassed during the window.
    pub bab_bypassed: u64,
    /// Demand misses filled during the window.
    pub bab_filled: u64,
    /// NTC answers "present" during the window.
    pub ntc_hits_present: u64,
    /// NTC answers "absent" during the window.
    pub ntc_hits_absent: u64,
    /// NTC answers "unknown" during the window.
    pub ntc_unknowns: u64,
    /// MAP-I predictions proven correct during the window.
    pub predictor_correct: u64,
    /// MAP-I predictions proven wrong during the window.
    pub predictor_wrong: u64,
    /// Per-bank DRAM-cache queue depth (queued + in flight) at the window
    /// edge, indexed `channel * banks_per_channel + bank`.
    pub bank_queue_depths: Vec<u32>,
}

impl Sample {
    /// L4 demand-read hit rate within the window.
    pub fn read_hit_rate(&self) -> f64 {
        ratio(self.read_hits, self.read_lookups)
    }

    /// L3 hit rate within the window.
    pub fn l3_hit_rate(&self) -> f64 {
        ratio(self.l3_hits, self.l3_hits + self.l3_misses)
    }

    /// Fraction of L4 lines valid at the window edge.
    pub fn occupancy(&self) -> f64 {
        ratio(self.occupied_lines, self.capacity_lines)
    }

    /// Fraction of L4 lines dirty at the window edge.
    pub fn dirty_fraction(&self) -> f64 {
        ratio(self.dirty_lines, self.capacity_lines)
    }

    /// Total DRAM-cache bus bytes in the window.
    pub fn cache_bytes(&self) -> u64 {
        self.cache_bytes_by_class.iter().sum()
    }

    /// Serializes the sample as one JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut s = String::with_capacity(640);
        s.push('{');
        s.push_str(&format!(
            "\"window\":{},\"start\":{},\"end\":{},\"insts\":{},",
            self.window, self.start_cycle, self.end_cycle, self.insts_retired
        ));
        s.push_str(&format!(
            "\"l3\":{{\"hits\":{},\"misses\":{}}},",
            self.l3_hits, self.l3_misses
        ));
        s.push_str(&format!(
            "\"l4\":{{\"read_lookups\":{},\"read_hits\":{},\"wb_lookups\":{},\"wb_hits\":{},\
             \"fills\":{},\"bypasses\":{},\"evictions\":{},\"useful_lines\":{},\
             \"miss_probes_avoided\":{},\"wb_probes_avoided\":{},\"parallel_squashed\":{},\
             \"wasted_parallel\":{}}},",
            self.read_lookups,
            self.read_hits,
            self.wb_lookups,
            self.wb_hits,
            self.fills,
            self.bypasses,
            self.evictions,
            self.useful_lines,
            self.miss_probes_avoided,
            self.wb_probes_avoided,
            self.parallel_squashed,
            self.wasted_parallel
        ));
        s.push_str("\"bytes\":{");
        for (key, bytes) in CACHE_BYTE_KEYS.iter().zip(self.cache_bytes_by_class) {
            s.push_str(&format!("\"{}\":{},", escape_json(key), bytes));
        }
        s.push_str(&format!("\"mem\":{}}},", self.mem_bytes));
        s.push_str("\"attr\":{");
        for (i, (key, bytes)) in CACHE_BYTE_KEYS
            .iter()
            .zip(self.attributed_bytes_by_class)
            .enumerate()
        {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{}\":{}", escape_json(key), bytes));
        }
        s.push_str("},");
        s.push_str(&format!(
            "\"bloat_factor\":{},",
            json_num(self.bloat_factor)
        ));
        s.push_str(&format!(
            "\"occupancy\":{{\"lines\":{},\"dirty\":{},\"capacity\":{}}},",
            self.occupied_lines, self.dirty_lines, self.capacity_lines
        ));
        s.push_str(&format!(
            "\"bab\":{{\"psel\":[{},{},{},{}],\"engaged\":{},\"bypassed\":{},\"filled\":{}}},",
            self.bab_psel[0],
            self.bab_psel[1],
            self.bab_psel[2],
            self.bab_psel[3],
            self.bab_engaged,
            self.bab_bypassed,
            self.bab_filled
        ));
        s.push_str(&format!(
            "\"ntc\":{{\"hits_present\":{},\"hits_absent\":{},\"unknowns\":{}}},",
            self.ntc_hits_present, self.ntc_hits_absent, self.ntc_unknowns
        ));
        s.push_str(&format!(
            "\"map_i\":{{\"correct\":{},\"wrong\":{}}},",
            self.predictor_correct, self.predictor_wrong
        ));
        s.push_str("\"bank_depths\":[");
        for (i, d) in self.bank_queue_depths.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("{d}"));
        }
        s.push_str("]}");
        s
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_is_balanced_and_carries_keys() {
        let mut s = Sample {
            window: 3,
            start_cycle: 30_000,
            end_cycle: 40_000,
            read_lookups: 10,
            read_hits: 7,
            bloat_factor: 1.625,
            bank_queue_depths: vec![0, 2, 5],
            ..Sample::default()
        };
        s.cache_bytes_by_class[1] = 96;
        s.attributed_bytes_by_class[1] = 96;
        let line = s.to_json_line();
        assert_eq!(
            line.matches('{').count(),
            line.matches('}').count(),
            "unbalanced braces in {line}"
        );
        assert!(!line.contains('\n'));
        for key in [
            "\"window\":3",
            "\"miss_probe\":96",
            "\"bloat_factor\":1.625",
            "\"bank_depths\":[0,2,5]",
            "\"read_hits\":7",
            "\"attr\":{\"hit\":0,\"miss_probe\":96",
        ] {
            assert!(line.contains(key), "missing {key} in {line}");
        }
    }

    #[test]
    fn rates_handle_empty_windows() {
        let s = Sample::default();
        assert_eq!(s.read_hit_rate(), 0.0);
        assert_eq!(s.occupancy(), 0.0);
    }

    #[test]
    fn rates_compute() {
        let s = Sample {
            read_lookups: 8,
            read_hits: 6,
            l3_hits: 1,
            l3_misses: 3,
            occupied_lines: 50,
            dirty_lines: 25,
            capacity_lines: 100,
            predictor_correct: 9,
            predictor_wrong: 1,
            ..Sample::default()
        };
        assert_eq!(s.read_hit_rate(), 0.75);
        assert_eq!(s.l3_hit_rate(), 0.25);
        assert_eq!(s.occupancy(), 0.5);
        assert_eq!(s.dirty_fraction(), 0.25);
    }
}
