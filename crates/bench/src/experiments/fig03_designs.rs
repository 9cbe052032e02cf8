//! Figure 3: Loh-Hill vs Alloy vs Bandwidth-Optimized — Bloat Factor, hit
//! latency, and speedup relative to a system without a DRAM cache.

use crate::experiments::{rate_mix_all, run_matrix, speedups};
use crate::report::Report;
use crate::{config_for, f3, print_row, suite_all, Campaign};
use bear_core::config::{BearFeatures, DesignKind};

/// Runs and prints the Figure 3 comparison.
pub fn run(campaign: &Campaign, report: &mut Report) {
    let plan = &campaign.plan;
    report.banner("Fig 3", "LH / Alloy / BW-Opt vs no DRAM cache", plan);
    let suite = suite_all(plan);
    let none = BearFeatures::none();
    let designs = [DesignKind::LohHill, DesignKind::Alloy, DesignKind::BwOpt];
    let cfgs: Vec<_> = std::iter::once(DesignKind::NoCache)
        .chain(designs)
        .map(|d| config_for(d, none, plan))
        .collect();
    let mut results = run_matrix(campaign, &cfgs, &suite).into_iter();
    let base = results.next().expect("base run");
    report.add_suite("NoL4", &base, None);

    print_row(
        "design",
        ["bloat", "hit_lat", "speedup(R)", "speedup(M)", "speedup(A)"]
            .map(String::from)
            .as_ref(),
    );
    for (d, stats) in designs.into_iter().zip(results) {
        let spd = speedups(&suite, &stats, &base);
        let (r, m, a) = rate_mix_all(&suite, &spd);
        report.add_suite(d.label(), &stats, Some(&spd));
        // Aggregate bloat and latency: byte- and request-weighted.
        let mut bloat = bear_core::metrics::BloatBreakdown::default();
        let mut lat_sum = 0.0;
        let mut lat_n = 0.0;
        for s in &stats {
            bloat.merge(&s.bloat);
            lat_sum += s.l4.hit_latency * s.l4.read_hits as f64;
            lat_n += s.l4.read_hits as f64;
        }
        let hit_lat = if lat_n > 0.0 { lat_sum / lat_n } else { 0.0 };
        report.add_scalar(&format!("{}.bloat_factor", d.label()), bloat.factor());
        report.add_scalar(&format!("{}.hit_latency", d.label()), hit_lat);
        report.add_scalar(&format!("{}.speedup_all", d.label()), a);
        print_row(
            d.label(),
            &[f3(bloat.factor()), f3(hit_lat), f3(r), f3(m), f3(a)],
        );
    }
}
