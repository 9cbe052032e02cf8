//! Figure 15: sensitivity to the number of DRAM-cache banks (64 → 2048),
//! separating bank-conflict relief from bus contention.

use crate::experiments::{rate_mix_all, run_matrix, speedups};
use crate::report::Report;
use crate::{config_for, f3, print_row, suite_sensitivity, Campaign};
use bear_core::config::{BearFeatures, DesignKind};

/// Runs and prints the Figure 15 sweep.
pub fn run(campaign: &Campaign, report: &mut Report) {
    let plan = &campaign.plan;
    report.banner("Fig 15", "Sensitivity to DRAM cache banks", plan);
    let suite = suite_sensitivity(plan);
    let bank_points = [64u32, 128, 256, 512, 1024, 2048];
    let mut cfgs = Vec::new();
    for total_banks in bank_points {
        let banks_per_rank = total_banks / 4; // 4 channels, 1 rank
        for bear in [BearFeatures::none(), BearFeatures::full()] {
            let mut cfg = config_for(DesignKind::Alloy, bear, plan);
            cfg.cache_dram.topology.banks_per_rank = banks_per_rank;
            cfgs.push(cfg);
        }
    }
    let results = run_matrix(campaign, &cfgs, &suite);
    print_row(
        "banks",
        ["BEAR/Alloy(R)", "(M)", "(ALL)"].map(String::from).as_ref(),
    );
    for (i, total_banks) in bank_points.into_iter().enumerate() {
        let (base, bear) = (&results[2 * i], &results[2 * i + 1]);
        let spd = speedups(&suite, bear, base);
        let (r, m, a) = rate_mix_all(&suite, &spd);
        report.add_suite(&format!("Alloy@{total_banks}banks"), base, None);
        report.add_suite(&format!("BEAR@{total_banks}banks"), bear, Some(&spd));
        report.add_scalar(&format!("banks.{total_banks}.gmean_all"), a);
        print_row(&format!("{total_banks}"), &[f3(r), f3(m), f3(a)]);
    }
}
