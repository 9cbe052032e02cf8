//! Per-benchmark workload profiles.
//!
//! Each profile encodes the published characteristics of one SPEC CPU2006
//! benchmark from Table 2 of the paper (L3 MPKI, footprint) together with
//! locality knobs chosen to reproduce the behaviours the paper's figures
//! depend on: which workloads are hurt by naive bypass (hit-rate-sensitive
//! GemsFDTD/zeusmp), which have writeback-heavy streams that reward DCP
//! (omnetpp/gcc), and which stream sequentially (libquantum/lbm/bwaves).

/// Memory-intensity class used for grouping (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntensityClass {
    /// L3 MPKI > 12.
    High,
    /// L3 MPKI between 2 and 12.
    Medium,
}

/// Statistical description of one benchmark's post-L2 reference stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchmarkProfile {
    /// Benchmark name (SPEC CPU2006 short name).
    pub name: &'static str,
    /// Target L3 misses per kilo-instruction (Table 2).
    pub mpki: f64,
    /// Memory footprint in bytes at full scale (Table 2).
    pub footprint_bytes: u64,
    /// Intensity class (Table 2 grouping).
    pub class: IntensityClass,
    /// L3 accesses per kilo-instruction; MPKI emerges after L3 filtering.
    pub apki: f64,
    /// Fraction of accesses that are stores.
    pub write_frac: f64,
    /// Fraction of the footprint forming the hot region.
    pub hot_frac: f64,
    /// Probability an access run targets the hot region.
    pub hot_prob: f64,
    /// Mean sequential run length in 64 B lines.
    pub seq_mean: f64,
    /// Number of distinct miss-PCs (for the MAP-I predictor).
    pub pc_count: u32,
}

const GB: u64 = 1 << 30;
const MB: u64 = 1 << 20;

/// The sixteen benchmarks of Table 2.
///
/// `apki` is set above `mpki` so that the modeled L3 filters a realistic
/// share; locality knobs are calibrated against the paper's aggregate
/// DRAM-cache hit rate (~63 % for the 1 GB Alloy baseline) and the
/// per-benchmark behaviours called out in the text.
pub const TABLE2: [BenchmarkProfile; 16] = [
    BenchmarkProfile {
        name: "mcf",
        mpki: 74.6,
        footprint_bytes: 10 * GB + 200 * MB,
        class: IntensityClass::High,
        apki: 110.0,
        write_frac: 0.132,
        hot_frac: 0.00313,
        hot_prob: 0.53,
        seq_mean: 1.2,
        pc_count: 48,
    },
    BenchmarkProfile {
        name: "lbm",
        mpki: 32.7,
        footprint_bytes: 3 * GB + 100 * MB,
        class: IntensityClass::High,
        apki: 46.0,
        write_frac: 0.288,
        hot_frac: 0.0129,
        hot_prob: 0.68,
        seq_mean: 12.0,
        pc_count: 12,
    },
    BenchmarkProfile {
        name: "soplex",
        mpki: 27.1,
        footprint_bytes: GB + 900 * MB,
        class: IntensityClass::High,
        apki: 40.0,
        write_frac: 0.15,
        hot_frac: 0.021,
        hot_prob: 0.68,
        seq_mean: 3.0,
        pc_count: 32,
    },
    BenchmarkProfile {
        name: "milc",
        mpki: 26.1,
        footprint_bytes: 4 * GB + 500 * MB,
        class: IntensityClass::High,
        apki: 38.0,
        write_frac: 0.18,
        hot_frac: 0.0089,
        hot_prob: 0.63,
        seq_mean: 6.0,
        pc_count: 24,
    },
    BenchmarkProfile {
        name: "libquantum",
        mpki: 25.5,
        footprint_bytes: 256 * MB,
        class: IntensityClass::High,
        apki: 33.0,
        write_frac: 0.18,
        hot_frac: 0.1875,
        hot_prob: 0.83,
        seq_mean: 24.0,
        pc_count: 6,
    },
    BenchmarkProfile {
        name: "omnetpp",
        mpki: 21.1,
        footprint_bytes: GB + 100 * MB,
        class: IntensityClass::High,
        apki: 34.0,
        write_frac: 0.252,
        hot_frac: 0.0364,
        hot_prob: 0.73,
        seq_mean: 1.3,
        pc_count: 64,
    },
    BenchmarkProfile {
        name: "bwaves",
        mpki: 18.7,
        footprint_bytes: GB + 500 * MB,
        class: IntensityClass::High,
        apki: 26.0,
        write_frac: 0.168,
        hot_frac: 0.0267,
        hot_prob: 0.73,
        seq_mean: 16.0,
        pc_count: 10,
    },
    BenchmarkProfile {
        name: "gcc",
        mpki: 18.6,
        footprint_bytes: 680 * MB,
        class: IntensityClass::High,
        apki: 30.0,
        write_frac: 0.27,
        hot_frac: 0.0706,
        hot_prob: 0.81,
        seq_mean: 2.5,
        pc_count: 96,
    },
    BenchmarkProfile {
        // 12.4 MPKI sits on the High/Medium boundary; Table 3's mix labels
        // (e.g. MIX8 = "8M" includes sphinx) treat sphinx3 as Medium.
        name: "sphinx3",
        mpki: 12.4,
        footprint_bytes: 136 * MB,
        class: IntensityClass::Medium,
        apki: 19.0,
        write_frac: 0.108,
        hot_frac: 0.353,
        hot_prob: 0.93,
        seq_mean: 4.0,
        pc_count: 28,
    },
    BenchmarkProfile {
        name: "GemsFDTD",
        mpki: 9.9,
        footprint_bytes: 5 * GB + 300 * MB,
        class: IntensityClass::Medium,
        apki: 14.0,
        write_frac: 0.21,
        hot_frac: 0.0236,
        hot_prob: 0.93,
        seq_mean: 8.0,
        pc_count: 20,
    },
    BenchmarkProfile {
        name: "leslie3d",
        mpki: 7.6,
        footprint_bytes: 616 * MB,
        class: IntensityClass::Medium,
        apki: 11.5,
        write_frac: 0.192,
        hot_frac: 0.0779,
        hot_prob: 0.85,
        seq_mean: 7.0,
        pc_count: 22,
    },
    BenchmarkProfile {
        name: "wrf",
        mpki: 6.8,
        footprint_bytes: 488 * MB,
        class: IntensityClass::Medium,
        apki: 10.5,
        write_frac: 0.18,
        hot_frac: 0.0984,
        hot_prob: 0.85,
        seq_mean: 5.0,
        pc_count: 30,
    },
    BenchmarkProfile {
        name: "cactusADM",
        mpki: 5.5,
        footprint_bytes: GB + 200 * MB,
        class: IntensityClass::Medium,
        apki: 8.5,
        write_frac: 0.228,
        hot_frac: 0.0333,
        hot_prob: 0.78,
        seq_mean: 4.0,
        pc_count: 18,
    },
    BenchmarkProfile {
        name: "zeusmp",
        mpki: 4.8,
        footprint_bytes: GB + 500 * MB,
        class: IntensityClass::Medium,
        apki: 7.5,
        write_frac: 0.204,
        hot_frac: 0.064,
        hot_prob: 0.93,
        seq_mean: 5.0,
        pc_count: 16,
    },
    BenchmarkProfile {
        name: "bzip2",
        mpki: 3.7,
        footprint_bytes: 2 * GB + 400 * MB,
        class: IntensityClass::Medium,
        apki: 6.0,
        write_frac: 0.18,
        hot_frac: 0.01,
        hot_prob: 0.58,
        seq_mean: 3.0,
        pc_count: 40,
    },
    BenchmarkProfile {
        name: "xalancbmk",
        mpki: 2.3,
        footprint_bytes: GB + 300 * MB,
        class: IntensityClass::Medium,
        apki: 4.0,
        write_frac: 0.15,
        hot_frac: 0.0308,
        hot_prob: 0.83,
        seq_mean: 1.5,
        pc_count: 80,
    },
];

impl BenchmarkProfile {
    /// Looks a profile up by its SPEC short name (also accepts the
    /// abbreviations the paper uses in mix tables, e.g. `libq`, `Gems`).
    pub fn by_name(name: &str) -> Option<BenchmarkProfile> {
        let canonical = match name {
            "libq" => "libquantum",
            "Gems" => "GemsFDTD",
            "leslie" => "leslie3d",
            "cactus" => "cactusADM",
            "xalanc" => "xalancbmk",
            "bzip" => "bzip2",
            "sphinx" => "sphinx3",
            "omnetp" | "omnet" => "omnetpp",
            "bwave" => "bwaves",
            other => other,
        };
        TABLE2.iter().find(|p| p.name == canonical).copied()
    }

    /// Footprint in 64 B lines after scaling down by `scale_shift` powers of
    /// two (the whole system — cache capacity included — is scaled jointly;
    /// see DESIGN.md §2). Always at least 1024 lines.
    pub fn scaled_footprint_lines(&self, scale_shift: u32) -> u64 {
        ((self.footprint_bytes >> scale_shift) / 64).max(1024)
    }

    /// Mean instructions between successive L3 accesses.
    pub fn inst_per_access(&self) -> f64 {
        1000.0 / self.apki
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_profiles_with_table2_grouping() {
        assert_eq!(TABLE2.len(), 16);
        let count = |c| TABLE2.iter().filter(|p| p.class == c).count();
        assert_eq!(count(IntensityClass::High), 8);
        assert_eq!(count(IntensityClass::Medium), 8);
    }

    #[test]
    fn class_thresholds_match_mpki() {
        for p in TABLE2 {
            match p.class {
                IntensityClass::High => assert!(p.mpki > 12.0, "{} misclassified", p.name),
                IntensityClass::Medium => {
                    // sphinx3 (12.4) is grouped Medium per Table 3's labels.
                    assert!((2.0..=12.4).contains(&p.mpki), "{} misclassified", p.name)
                }
            }
        }
    }

    #[test]
    fn lookup_by_name_and_aliases() {
        assert_eq!(BenchmarkProfile::by_name("mcf").unwrap().name, "mcf");
        assert_eq!(
            BenchmarkProfile::by_name("libq").unwrap().name,
            "libquantum"
        );
        assert_eq!(BenchmarkProfile::by_name("Gems").unwrap().name, "GemsFDTD");
        assert_eq!(
            BenchmarkProfile::by_name("xalanc").unwrap().name,
            "xalancbmk"
        );
        assert!(BenchmarkProfile::by_name("nonexistent").is_none());
    }

    #[test]
    fn mpki_values_match_table2() {
        let m = |n: &str| BenchmarkProfile::by_name(n).unwrap().mpki;
        assert_eq!(m("mcf"), 74.6);
        assert_eq!(m("lbm"), 32.7);
        assert_eq!(m("xalancbmk"), 2.3);
    }

    #[test]
    fn apki_exceeds_mpki_everywhere() {
        for p in TABLE2 {
            assert!(
                p.apki > p.mpki,
                "{}: L3 accesses must exceed misses",
                p.name
            );
        }
    }

    #[test]
    fn probability_knobs_are_probabilities() {
        for p in TABLE2 {
            for v in [p.write_frac, p.hot_frac, p.hot_prob] {
                assert!((0.0..=1.0).contains(&v), "{} has knob {v}", p.name);
            }
            assert!(p.seq_mean >= 1.0);
            assert!(p.pc_count > 0);
        }
    }

    #[test]
    fn scaled_footprint_has_floor() {
        let p = BenchmarkProfile::by_name("sphinx3").unwrap();
        assert!(p.scaled_footprint_lines(0) > 1024);
        assert_eq!(p.scaled_footprint_lines(40), 1024);
        // Scaling by 3 divides by 8.
        assert_eq!(p.scaled_footprint_lines(3), (p.footprint_bytes >> 3) / 64);
    }

    #[test]
    fn inst_per_access_inverse_of_apki() {
        let p = BenchmarkProfile::by_name("mcf").unwrap();
        assert!((p.inst_per_access() - 1000.0 / 110.0).abs() < 1e-9);
    }
}
