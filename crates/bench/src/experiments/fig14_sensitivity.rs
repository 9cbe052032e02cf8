//! Figure 14: sensitivity of BEAR's gain to (a) DRAM-cache bandwidth
//! (4×/8×/16× of commodity memory) and (b) capacity (512 MB / 1 GB / 2 GB
//! at full scale). Speedups are normalized to Alloy *at each
//! configuration*, as in the paper.

use crate::experiments::{rate_mix_all, run_matrix, speedups};
use crate::report::Report;
use crate::{config_for, f3, print_row, suite_sensitivity, Campaign};
use bear_core::config::{BearFeatures, DesignKind};
use bear_dram::config::DramConfig;

/// Runs and prints both Figure 14 sweeps.
pub fn run(campaign: &Campaign, report: &mut Report) {
    let plan = &campaign.plan;
    report.banner("Fig 14a", "Sensitivity to DRAM cache bandwidth", plan);
    let suite = suite_sensitivity(plan);

    // Both sweeps interleave (Alloy, BEAR) config pairs; run the whole
    // grid in one parallel batch per sweep.
    let bw_points = [4u32, 8, 16];
    let mut cfgs = Vec::new();
    for factor in bw_points {
        for bear in [BearFeatures::none(), BearFeatures::full()] {
            let mut cfg = config_for(DesignKind::Alloy, bear, plan);
            cfg.cache_dram = DramConfig::stacked_cache_bandwidth(factor);
            cfgs.push(cfg);
        }
    }
    let results = run_matrix(campaign, &cfgs, &suite);
    print_row(
        "bandwidth",
        ["BEAR/Alloy(R)", "(M)", "(ALL)"].map(String::from).as_ref(),
    );
    for (i, factor) in bw_points.into_iter().enumerate() {
        let (base, bear) = (&results[2 * i], &results[2 * i + 1]);
        let spd = speedups(&suite, bear, base);
        let (r, m, a) = rate_mix_all(&suite, &spd);
        report.add_suite(&format!("Alloy@{factor}x"), base, None);
        report.add_suite(&format!("BEAR@{factor}x"), bear, Some(&spd));
        report.add_scalar(&format!("bandwidth.{factor}x.gmean_all"), a);
        print_row(&format!("{factor}x"), &[f3(r), f3(m), f3(a)]);
    }

    report.banner("Fig 14b", "Sensitivity to DRAM cache capacity", plan);
    let cap_points = [("0.5GB", 1u64 << 29), ("1GB", 1 << 30), ("2GB", 1 << 31)];
    let mut cfgs = Vec::new();
    for (_, full_bytes) in cap_points {
        for bear in [BearFeatures::none(), BearFeatures::full()] {
            let mut cfg = config_for(DesignKind::Alloy, bear, plan);
            cfg.l4_capacity_full = full_bytes;
            cfgs.push(cfg);
        }
    }
    let results = run_matrix(campaign, &cfgs, &suite);
    print_row(
        "capacity",
        ["BEAR/Alloy(R)", "(M)", "(ALL)"].map(String::from).as_ref(),
    );
    for (i, (label, _)) in cap_points.into_iter().enumerate() {
        let (base, bear) = (&results[2 * i], &results[2 * i + 1]);
        let spd = speedups(&suite, bear, base);
        let (r, m, a) = rate_mix_all(&suite, &spd);
        report.add_suite(&format!("Alloy@{label}"), base, None);
        report.add_suite(&format!("BEAR@{label}"), bear, Some(&spd));
        report.add_scalar(&format!("capacity.{label}.gmean_all"), a);
        print_row(label, &[f3(r), f3(m), f3(a)]);
    }
}
