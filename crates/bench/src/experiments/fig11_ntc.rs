//! Figure 11: the Neighboring Tag Cache on top of BAB+DCP.

use crate::experiments::{rate_mix_all, run_matrix, speedups};
use crate::report::Report;
use crate::{config_for, f3, print_row, suite_all, Campaign};
use bear_core::config::{BearFeatures, DesignKind};

/// Runs and prints the Figure 11 study.
pub fn run(campaign: &Campaign, report: &mut Report) {
    let plan = &campaign.plan;
    report.banner("Fig 11", "NTC over BAB+DCP", plan);
    let suite = suite_all(plan);
    let variants = [
        ("BAB", BearFeatures::bab()),
        ("BAB+DCP", BearFeatures::bab_dcp()),
        ("BEAR", BearFeatures::full()),
    ];
    let cfgs: Vec<_> = std::iter::once(BearFeatures::none())
        .chain(variants.iter().map(|&(_, b)| b))
        .map(|b| config_for(DesignKind::Alloy, b, plan))
        .collect();
    let mut results = run_matrix(campaign, &cfgs, &suite).into_iter();
    let base = results.next().expect("base run");
    report.add_suite("Alloy", &base, None);
    let mut all_spd = Vec::new();
    let mut runs = Vec::new();
    for ((label, _), stats) in variants.iter().zip(results) {
        let spd = speedups(&suite, &stats, &base);
        report.add_suite(label, &stats, Some(&spd));
        all_spd.push(spd);
        runs.push(stats);
    }
    print_row(
        "workload",
        ["BAB", "BAB+DCP", "+NTC", "probesAvoid", "squashed"]
            .map(String::from)
            .as_ref(),
    );
    for (i, w) in suite.iter().enumerate() {
        if w.is_rate {
            print_row(
                &w.name,
                &[
                    f3(all_spd[0][i]),
                    f3(all_spd[1][i]),
                    f3(all_spd[2][i]),
                    format!("{}", runs[2][i].l4.miss_probes_avoided),
                    format!("{}", runs[2][i].l4.parallel_squashed),
                ],
            );
        }
    }
    for ((label, _), spd) in variants.iter().zip(&all_spd) {
        let (r, m, a) = rate_mix_all(&suite, spd);
        report.add_scalar(&format!("{label}.gmean_all"), a);
        println!("gmean {label:<8} RATE {r:.3}  MIX {m:.3}  ALL {a:.3}");
    }
}
