//! Generator calibration: the synthetic streams must produce the L3
//! miss rates of the paper's Table 2.
//!
//! Every rate profile runs on Alloy at the 1/512 development scale, and
//! the measured L3 read MPKI (L4 read lookups per kilo-instruction,
//! summed over the eight copies) must lie within a band of the profile's
//! Table 2 `mpki`.
//!
//! The band is 0.93 ≤ measured / Table 2 ≤ 1.00. At this plan the ratios
//! run from 0.952 (sphinx3) to 0.989 (milc); doubling both windows moves
//! none of them by more than 0.013, so the band leaves about 0.02 of room
//! on each side. The target acts as an upper bound: a share
//! `1 - mpki/apki` of accesses revisits recent lines and hits the L3, and
//! the rest can still hit it (the hot region partly fits), so the
//! measured rate reads a few percent low. A ratio above 1.00 means
//! revisits stopped hitting the L3; one below 0.93 means a profile's
//! miss stream has drifted from Table 2.

use bear_bench::runner::run_suite;
use bear_bench::{config_for, Campaign, RunPlan};
use bear_core::config::{BearFeatures, DesignKind};
use bear_workloads::rate_workloads;

/// Measured / Table 2 MPKI must lie in this band (see the module docs).
const BAND: (f64, f64) = (0.93, 1.00);

#[test]
fn rate_profiles_hit_table2_mpki() {
    let plan = RunPlan {
        warmup: 100_000,
        measure: 200_000,
        scale_shift: 9,
        quick: false,
    };
    let cfg = config_for(DesignKind::Alloy, BearFeatures::none(), &plan);
    let suite = rate_workloads();
    assert_eq!(suite.len(), 16, "Table 2 has 16 rate profiles");
    let stats = run_suite(&Campaign::new(plan), &cfg, &suite);
    let mut outside = Vec::new();
    for (w, s) in suite.iter().zip(&stats) {
        let insts: u64 = s.insts_per_core.iter().sum();
        assert!(insts > 0, "{} retired no instructions", w.name);
        let mpki = s.l4.read_lookups as f64 * 1000.0 / insts as f64;
        let ratio = mpki / w.benchmarks[0].mpki;
        if !(BAND.0..=BAND.1).contains(&ratio) {
            outside.push(format!(
                "{}: measured {mpki:.2} vs Table 2 {} (ratio {ratio:.3})",
                w.name, w.benchmarks[0].mpki
            ));
        }
    }
    assert!(
        outside.is_empty(),
        "MPKI outside [{}, {}] of Table 2:\n{}",
        BAND.0,
        BAND.1,
        outside.join("\n")
    );
}
