//! Table 4: DRAM-cache hit rate and latency (hit / miss / average) for
//! Alloy vs BEAR, aggregated over the full suite.

use crate::experiments::run_matrix;
use crate::report::Report;
use crate::{config_for, f3, print_row, suite_all, Campaign};
use bear_core::config::{BearFeatures, DesignKind};
use bear_core::metrics::RunStats;

fn aggregate(stats: &[RunStats]) -> (f64, f64, f64, f64) {
    let (mut hits, mut lookups) = (0.0, 0.0);
    let (mut hl, mut hn, mut ml, mut mn) = (0.0, 0.0, 0.0, 0.0);
    for s in stats {
        hits += s.l4.read_hits as f64;
        lookups += s.l4.read_lookups as f64;
        hl += s.l4.hit_latency * s.l4.read_hits as f64;
        hn += s.l4.read_hits as f64;
        let misses = (s.l4.read_lookups - s.l4.read_hits) as f64;
        ml += s.l4.miss_latency * misses;
        mn += misses;
    }
    let hit_rate = hits / lookups.max(1.0);
    let hit_lat = hl / hn.max(1.0);
    let miss_lat = ml / mn.max(1.0);
    let avg = (hl + ml) / (hn + mn).max(1.0);
    (hit_rate, hit_lat, miss_lat, avg)
}

/// Runs and prints Table 4.
pub fn run(campaign: &Campaign, report: &mut Report) {
    let plan = &campaign.plan;
    report.banner("Table 4", "DRAM cache hit-rate and latency", plan);
    let suite = suite_all(plan);
    let variants = [
        ("Alloy", BearFeatures::none()),
        ("BEAR", BearFeatures::full()),
    ];
    let cfgs: Vec<_> = variants
        .iter()
        .map(|&(_, bear)| config_for(DesignKind::Alloy, bear, plan))
        .collect();
    let results = run_matrix(campaign, &cfgs, &suite);
    print_row(
        "design",
        ["hit_rate%", "hit_lat", "miss_lat", "avg_lat"]
            .map(String::from)
            .as_ref(),
    );
    for ((label, _), stats) in variants.iter().zip(&results) {
        let (hr, hl, ml, avg) = aggregate(stats);
        report.add_suite(label, stats, None);
        report.add_scalar(&format!("{label}.hit_rate"), hr);
        report.add_scalar(&format!("{label}.hit_latency"), hl);
        report.add_scalar(&format!("{label}.miss_latency"), ml);
        report.add_scalar(&format!("{label}.avg_latency"), avg);
        print_row(label, &[f3(hr * 100.0), f3(hl), f3(ml), f3(avg)]);
    }
}
