//! Figure 17: alternative DRAM-cache implementations — LH, MC, Alloy,
//! inclusive Alloy, and BEAR — normalized to a system without a DRAM cache.

use crate::experiments::{rate_mix_all, run_matrix, speedups};
use crate::report::Report;
use crate::{config_for, f3, print_row, suite_all, Campaign};
use bear_core::config::{BearFeatures, DesignKind};

/// Runs and prints the Figure 17 comparison.
pub fn run(campaign: &Campaign, report: &mut Report) {
    let plan = &campaign.plan;
    report.banner(
        "Fig 17",
        "DRAM cache implementations vs no DRAM cache",
        plan,
    );
    let suite = suite_all(plan);
    let variants = [
        ("LH", DesignKind::LohHill, BearFeatures::none()),
        ("MC", DesignKind::MostlyClean, BearFeatures::none()),
        ("Alloy", DesignKind::Alloy, BearFeatures::none()),
        (
            "Incl-Alloy",
            DesignKind::InclusiveAlloy,
            BearFeatures::none(),
        ),
        ("BEAR", DesignKind::Alloy, BearFeatures::full()),
    ];
    let cfgs: Vec<_> = std::iter::once((DesignKind::NoCache, BearFeatures::none()))
        .chain(variants.iter().map(|&(_, d, b)| (d, b)))
        .map(|(design, bear)| config_for(design, bear, plan))
        .collect();
    let mut results = run_matrix(campaign, &cfgs, &suite).into_iter();
    let base = results.next().expect("base run");
    report.add_suite("NoCache", &base, None);
    print_row("design", ["RATE", "MIX", "ALL"].map(String::from).as_ref());
    for ((label, _, _), stats) in variants.iter().zip(results) {
        let spd = speedups(&suite, &stats, &base);
        let (r, m, a) = rate_mix_all(&suite, &spd);
        report.add_suite(label, &stats, Some(&spd));
        report.add_scalar(&format!("{label}.gmean_all"), a);
        print_row(label, &[f3(r), f3(m), f3(a)]);
    }
}
