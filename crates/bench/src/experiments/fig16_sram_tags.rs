//! Figure 16: BEAR vs the idealized Tags-In-SRAM (64 MB) and Sector Cache
//! (6 MB) designs — L4 hit rate, hit/miss latency, Bloat Factor, speedup.

use crate::experiments::{rate_mix_all, run_matrix, speedups};
use crate::report::Report;
use crate::{config_for, f3, print_row, suite_all, Campaign};
use bear_core::config::{BearFeatures, DesignKind};
use bear_core::metrics::{BloatBreakdown, RunStats};

fn aggregate(stats: &[RunStats]) -> (f64, f64, f64, f64) {
    let (mut hits, mut lookups, mut hl, mut ml, mut mn) = (0.0, 0.0, 0.0, 0.0, 0.0);
    let mut bloat = BloatBreakdown::default();
    for s in stats {
        hits += s.l4.read_hits as f64;
        lookups += s.l4.read_lookups as f64;
        hl += s.l4.hit_latency * s.l4.read_hits as f64;
        let misses = (s.l4.read_lookups - s.l4.read_hits) as f64;
        ml += s.l4.miss_latency * misses;
        mn += misses;
        bloat.merge(&s.bloat);
    }
    (
        hits / lookups.max(1.0),
        hl / hits.max(1.0),
        ml / mn.max(1.0),
        bloat.factor(),
    )
}

/// Runs and prints the Figure 16 comparison.
pub fn run(campaign: &Campaign, report: &mut Report) {
    let plan = &campaign.plan;
    report.banner("Fig 16", "BEAR vs Tags-In-SRAM and Sector Cache", plan);
    let suite = suite_all(plan);
    let variants = [
        ("AL", DesignKind::Alloy, BearFeatures::none()),
        ("BEAR", DesignKind::Alloy, BearFeatures::full()),
        ("TIS", DesignKind::TagsInSram, BearFeatures::none()),
        ("SC", DesignKind::SectorCache, BearFeatures::none()),
    ];
    let cfgs: Vec<_> = variants
        .iter()
        .map(|&(_, design, bear)| config_for(design, bear, plan))
        .collect();
    let results = run_matrix(campaign, &cfgs, &suite);
    let alloy = &results[0];
    print_row(
        "design",
        ["hit%", "hit_lat", "miss_lat", "bloat", "spd(ALL)"]
            .map(String::from)
            .as_ref(),
    );
    for ((label, _, _), stats) in variants.iter().zip(&results) {
        let (hr, hl, ml, bloat) = aggregate(stats);
        let spd = speedups(&suite, stats, alloy);
        let (_, _, a) = rate_mix_all(&suite, &spd);
        if *label == "AL" {
            report.add_suite(label, stats, None);
        } else {
            report.add_suite(label, stats, Some(&spd));
        }
        report.add_scalar(&format!("{label}.hit_rate"), hr);
        report.add_scalar(&format!("{label}.bloat_factor"), bloat);
        report.add_scalar(&format!("{label}.gmean_all"), a);
        print_row(label, &[f3(hr * 100.0), f3(hl), f3(ml), f3(bloat), f3(a)]);
    }
    println!("(SRAM overhead: TIS 64MB, SC ~6MB, BEAR ~19.2KB — see table5)");
}
