//! Figure 4: where the bandwidth goes — Alloy's Bloat Factor decomposed
//! into the six secondary-operation categories, against BW-Opt, plus the
//! potential performance of eliminating the bloat.

use crate::experiments::{rate_mix_all, run_matrix, speedups};
use crate::report::Report;
use crate::{config_for, f3, print_row, suite_all, Campaign};
use bear_core::config::{BearFeatures, DesignKind};
use bear_core::metrics::BloatBreakdown;
use bear_core::traffic::BloatCategory;

/// Runs and prints the Figure 4 breakdown.
pub fn run(campaign: &Campaign, report: &mut Report) {
    let plan = &campaign.plan;
    report.banner("Fig 4", "Alloy bloat breakdown and BW-Opt potential", plan);
    let suite = suite_all(plan);
    let none = BearFeatures::none();
    let cfgs = [
        config_for(DesignKind::Alloy, none, plan),
        config_for(DesignKind::BwOpt, none, plan),
    ];
    let results = run_matrix(campaign, &cfgs, &suite);
    let (alloy, opt) = (&results[0], &results[1]);

    for (label, stats) in [("Alloy", alloy), ("BW-Opt", opt)] {
        let mut bloat = BloatBreakdown::default();
        for s in stats.iter() {
            bloat.merge(&s.bloat);
        }
        println!("{label}: bloat factor {:.3}", bloat.factor());
        report.add_scalar(&format!("{label}.bloat_factor"), bloat.factor());
        for cat in BloatCategory::ALL {
            let c = bloat.component(cat);
            if c > 0.0005 {
                print_row(&format!("  {}", cat.label()), &[f3(c)]);
                report.add_scalar(&format!("{label}.component.{}", cat.label()), c);
            }
        }
    }
    let spd = speedups(&suite, opt, alloy);
    report.add_suite("Alloy", alloy, None);
    report.add_suite("BW-Opt", opt, Some(&spd));
    let (_, _, all) = rate_mix_all(&suite, &spd);
    report.add_scalar("potential_performance_all", all);
    println!(
        "potential performance (BW-Opt over Alloy, gmean ALL): {:.3}",
        all
    );
}
