//! Figure 12: overall performance — Alloy (baseline), BEAR, and BW-Opt —
//! per workload, with RATE / MIX / ALL54 geometric means.

use crate::experiments::{rate_mix_all, run_matrix, speedups};
use crate::report::Report;
use crate::{config_for, f3, print_row, suite_all, Campaign};
use bear_core::config::{BearFeatures, DesignKind};

/// Runs and prints the Figure 12 comparison.
pub fn run(campaign: &Campaign, report: &mut Report) {
    let plan = &campaign.plan;
    report.banner("Fig 12", "Alloy / BEAR / BW-Opt overall performance", plan);
    let suite = suite_all(plan);
    let cfgs = [
        config_for(DesignKind::Alloy, BearFeatures::none(), plan),
        config_for(DesignKind::Alloy, BearFeatures::full(), plan),
        config_for(DesignKind::BwOpt, BearFeatures::none(), plan),
    ];
    let results = run_matrix(campaign, &cfgs, &suite);
    let (alloy, bear, opt) = (&results[0], &results[1], &results[2]);
    let spd_bear = speedups(&suite, bear, alloy);
    let spd_opt = speedups(&suite, opt, alloy);
    report.add_suite("Alloy", alloy, None);
    report.add_suite("BEAR", bear, Some(&spd_bear));
    report.add_suite("BW-Opt", opt, Some(&spd_opt));
    print_row("workload", ["BEAR", "BW-Opt"].map(String::from).as_ref());
    for (i, w) in suite.iter().enumerate() {
        print_row(&w.name, &[f3(spd_bear[i]), f3(spd_opt[i])]);
    }
    let (r1, m1, a1) = rate_mix_all(&suite, &spd_bear);
    let (r2, m2, a2) = rate_mix_all(&suite, &spd_opt);
    report.add_scalar("BEAR.gmean_rate", r1);
    report.add_scalar("BEAR.gmean_mix", m1);
    report.add_scalar("BEAR.gmean_all", a1);
    report.add_scalar("BW-Opt.gmean_all", a2);
    println!("gmean BEAR:   RATE {r1:.3}  MIX {m1:.3}  ALL54 {a1:.3}");
    println!("gmean BW-Opt: RATE {r2:.3}  MIX {m2:.3}  ALL54 {a2:.3}");
}
