//! Figure 13: Bloat Factor breakdown for (a) Alloy, (b) BAB, (c) BAB+DCP,
//! (d) full BEAR, and (e) BW-Opt, aggregated over RATE / MIX / ALL.

use crate::experiments::run_matrix;
use crate::report::Report;
use crate::{config_for, f3, print_row, suite_all, Campaign};
use bear_core::config::{BearFeatures, DesignKind};
use bear_core::metrics::BloatBreakdown;
use bear_core::traffic::BloatCategory;
use bear_workloads::Workload;

fn merged(stats: &[(bool, &BloatBreakdown)], rate: Option<bool>) -> BloatBreakdown {
    let mut out = BloatBreakdown::default();
    for (is_rate, b) in stats {
        if rate.is_none() || rate == Some(*is_rate) {
            out.merge(b);
        }
    }
    out
}

/// Runs and prints the Figure 13 breakdowns.
pub fn run(campaign: &Campaign, report: &mut Report) {
    let plan = &campaign.plan;
    report.banner("Fig 13", "Bloat Factor breakdown by scheme", plan);
    let suite = suite_all(plan);
    let schemes: [(&str, DesignKind, BearFeatures); 5] = [
        ("a:Alloy", DesignKind::Alloy, BearFeatures::none()),
        ("b:BAB", DesignKind::Alloy, BearFeatures::bab()),
        ("c:BAB+DCP", DesignKind::Alloy, BearFeatures::bab_dcp()),
        ("d:BEAR", DesignKind::Alloy, BearFeatures::full()),
        ("e:BW-Opt", DesignKind::BwOpt, BearFeatures::none()),
    ];
    let cfgs: Vec<_> = schemes
        .iter()
        .map(|&(_, design, bear)| config_for(design, bear, plan))
        .collect();
    let results = run_matrix(campaign, &cfgs, &suite);
    let header: Vec<String> = ["group", "bloat"]
        .into_iter()
        .map(String::from)
        .chain(BloatCategory::ALL.iter().map(|c| c.label().to_string()))
        .collect();
    print_row("scheme", &header);
    let mut alloy_all: Option<f64> = None;
    let mut bear_all: Option<f64> = None;
    for ((label, _, _), stats) in schemes.iter().zip(&results) {
        report.add_suite(label, stats, None);
        let tagged: Vec<(bool, &BloatBreakdown)> = suite
            .iter()
            .zip(stats)
            .map(|(w, s): (&Workload, _)| (w.is_rate, &s.bloat))
            .collect();
        for (group, filter) in [("RATE", Some(true)), ("MIX", Some(false)), ("ALL", None)] {
            let b = merged(&tagged, filter);
            let mut cells = vec![group.to_string(), f3(b.factor())];
            cells.extend(BloatCategory::ALL.iter().map(|&c| f3(b.component(c))));
            print_row(label, &cells);
            if filter.is_none() {
                report.add_scalar(&format!("{label}.bloat_factor_all"), b.factor());
                if *label == "a:Alloy" {
                    alloy_all = Some(b.factor());
                }
                if *label == "d:BEAR" {
                    bear_all = Some(b.factor());
                }
            }
        }
    }
    if let (Some(a), Some(b)) = (alloy_all, bear_all) {
        report.add_scalar("bear_bloat_reduction_pct", (1.0 - b / a) * 100.0);
        println!(
            "BEAR bloat reduction vs Alloy (ALL): {:.1}%",
            (1.0 - b / a) * 100.0
        );
    }
}
