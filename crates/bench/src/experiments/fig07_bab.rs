//! Figure 7: Bandwidth-Aware Bypass speedup over the Alloy baseline.

use crate::experiments::{rate_mix_all, run_matrix, speedups};
use crate::report::Report;
use crate::{config_for, f3, print_row, suite_all, Campaign};
use bear_core::config::{BearFeatures, DesignKind};

/// Runs and prints the Figure 7 study.
pub fn run(campaign: &Campaign, report: &mut Report) {
    let plan = &campaign.plan;
    report.banner("Fig 7", "Bandwidth-Aware Bypass speedup", plan);
    let suite = suite_all(plan);
    let cfgs = [
        config_for(DesignKind::Alloy, BearFeatures::none(), plan),
        config_for(DesignKind::Alloy, BearFeatures::bab(), plan),
    ];
    let results = run_matrix(campaign, &cfgs, &suite);
    let (base, bab) = (&results[0], &results[1]);
    let spd = speedups(&suite, bab, base);
    report.add_suite("Alloy", base, None);
    report.add_suite("BAB", bab, Some(&spd));
    print_row(
        "workload",
        ["speedup", "hit%b", "hit%BAB"].map(String::from).as_ref(),
    );
    for (i, w) in suite.iter().enumerate() {
        if w.is_rate {
            print_row(
                &w.name,
                &[
                    f3(spd[i]),
                    f3(base[i].l4.hit_rate * 100.0),
                    f3(bab[i].l4.hit_rate * 100.0),
                ],
            );
        }
    }
    let (r, m, a) = rate_mix_all(&suite, &spd);
    report.add_scalar("gmean_rate", r);
    report.add_scalar("gmean_mix", m);
    report.add_scalar("gmean_all", a);
    println!("gmean speedup: RATE {r:.3}  MIX {m:.3}  ALL {a:.3}");
    let hb: f64 = base.iter().map(|s| s.l4.hit_rate).sum::<f64>() / base.len() as f64;
    let hx: f64 = bab.iter().map(|s| s.l4.hit_rate).sum::<f64>() / bab.len() as f64;
    report.add_scalar("mean_hit_rate.Alloy", hb);
    report.add_scalar("mean_hit_rate.BAB", hx);
    println!(
        "mean hit rate: baseline {:.1}%  BAB {:.1}%",
        hb * 100.0,
        hx * 100.0
    );
}
