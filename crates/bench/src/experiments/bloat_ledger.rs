//! Bloat-decomposition table for the B/BD/BDN/BEAR feature ladder,
//! backed by the bandwidth-attribution ledger.
//!
//! The paper builds BEAR one technique at a time on the Alloy baseline:
//! **B** (plain Alloy), **BD** (+Bandwidth-Aware Bypass), **BDN**
//! (+Dirty-Cacheline Probe), **BEAR** (+Neighboring-Tag Cache — all
//! three). For each rung this experiment reports where every DRAM-cache
//! byte went — the per-[`BloatCategory`] decomposition whose
//! correctness the attribution-conservation invariant and the oracle's
//! ledger audit now enforce at transfer granularity — plus memory-side
//! bytes and the resulting Bloat Factor.
//!
//! With `--metrics-out`, the same decomposition lands in the metrics
//! registry as `bear_cell_cache_bytes_total{design,workload,category}`
//! counters (see `crate::metrics`).

use crate::experiments::run_matrix;
use crate::report::Report;
use crate::{config_for, f3, print_row, suite_rate, Campaign};
use bear_core::config::{BearFeatures, DesignKind};
use bear_core::metrics::BloatBreakdown;
use bear_core::traffic::BloatCategory;

/// The feature ladder: paper shorthand, report label, features.
pub fn ladder() -> [(&'static str, &'static str, BearFeatures); 4] {
    [
        ("B", "Alloy", BearFeatures::none()),
        ("BD", "BAB", BearFeatures::bab()),
        ("BDN", "BAB+DCP", BearFeatures::bab_dcp()),
        ("BEAR", "BEAR", BearFeatures::full()),
    ]
}

/// Runs and prints the ledger-backed decomposition table.
pub fn run(campaign: &Campaign, report: &mut Report) {
    let plan = &campaign.plan;
    report.banner(
        "bloat_ledger",
        "Attributed bandwidth decomposition, B/BD/BDN/BEAR",
        plan,
    );
    let suite = suite_rate(plan);
    let ladder = ladder();
    let cfgs: Vec<_> = ladder
        .iter()
        .map(|(_, _, bear)| config_for(DesignKind::Alloy, *bear, plan))
        .collect();
    let results = run_matrix(campaign, &cfgs, &suite);
    let header: Vec<String> = ["bloat", "cache_mb", "mem_mb"]
        .into_iter()
        .map(String::from)
        .chain(BloatCategory::ALL.iter().map(|c| c.label().to_string()))
        .collect();
    print_row("rung", &header);
    for ((rung, label, _), stats) in ladder.iter().zip(&results) {
        report.add_suite(label, stats, None);
        let mut merged = BloatBreakdown::default();
        let mut mem_bytes = 0u64;
        for s in stats {
            merged.merge(&s.bloat);
            mem_bytes += s.mem_bytes;
        }
        let mb = |b: u64| format!("{:.2}", b as f64 / (1024.0 * 1024.0));
        let mut cells = vec![f3(merged.factor()), mb(merged.total_bytes()), mb(mem_bytes)];
        cells.extend(BloatCategory::ALL.iter().map(|&c| f3(merged.component(c))));
        print_row(rung, &cells);
        report.add_scalar(&format!("{rung}.bloat_factor"), merged.factor());
        report.add_scalar(&format!("{rung}.mem_bytes"), mem_bytes as f64);
        for (cat, bytes) in BloatCategory::ALL.iter().zip(merged.bytes) {
            report.add_scalar(&format!("{rung}.bytes.{}", cat.label()), bytes as f64);
        }
        // The decomposition must account for every byte: components are
        // per-category bytes over useful bytes, so they sum to the factor.
        let component_sum: f64 = BloatCategory::ALL
            .iter()
            .map(|&c| merged.component(c))
            .sum();
        assert!(
            (component_sum - merged.factor()).abs() < 1e-9,
            "{rung}: components sum to {component_sum}, factor {}",
            merged.factor()
        );
    }
    let b = report.scalars.iter().find(|(k, _)| k == "B.bloat_factor");
    let bear = report
        .scalars
        .iter()
        .find(|(k, _)| k == "BEAR.bloat_factor");
    if let (Some((_, b)), Some((_, bear))) = (b, bear) {
        let reduction = (1.0 - bear / b) * 100.0;
        println!("BEAR bloat reduction vs B (rate suite): {reduction:.1}%");
        report.add_scalar("bear_bloat_reduction_pct", reduction);
    }
}
