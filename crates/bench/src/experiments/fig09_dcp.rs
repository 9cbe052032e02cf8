//! Figure 9: DRAM Cache Presence on top of BAB — speedup over the Alloy
//! baseline for BAB alone and BAB+DCP.

use crate::experiments::{rate_mix_all, run_matrix, speedups};
use crate::report::Report;
use crate::{config_for, f3, print_row, suite_all, Campaign};
use bear_core::config::{BearFeatures, DesignKind};

/// Runs and prints the Figure 9 study.
pub fn run(campaign: &Campaign, report: &mut Report) {
    let plan = &campaign.plan;
    report.banner("Fig 9", "DCP over BAB", plan);
    let suite = suite_all(plan);
    let cfgs = [
        config_for(DesignKind::Alloy, BearFeatures::none(), plan),
        config_for(DesignKind::Alloy, BearFeatures::bab(), plan),
        config_for(DesignKind::Alloy, BearFeatures::bab_dcp(), plan),
    ];
    let results = run_matrix(campaign, &cfgs, &suite);
    let (base, bab, dcp) = (&results[0], &results[1], &results[2]);
    let spd_bab = speedups(&suite, bab, base);
    let spd_dcp = speedups(&suite, dcp, base);
    report.add_suite("Alloy", base, None);
    report.add_suite("BAB", bab, Some(&spd_bab));
    report.add_suite("BAB+DCP", dcp, Some(&spd_dcp));
    print_row(
        "workload",
        ["BAB", "BAB+DCP", "wbAvoid%"].map(String::from).as_ref(),
    );
    for (i, w) in suite.iter().enumerate() {
        if w.is_rate {
            let avoided = dcp[i].l4.wb_probes_avoided;
            print_row(
                &w.name,
                &[f3(spd_bab[i]), f3(spd_dcp[i]), format!("{avoided}")],
            );
        }
    }
    let (r1, m1, a1) = rate_mix_all(&suite, &spd_bab);
    let (r2, m2, a2) = rate_mix_all(&suite, &spd_dcp);
    report.add_scalar("BAB.gmean_all", a1);
    report.add_scalar("BAB+DCP.gmean_all", a2);
    println!("gmean BAB:     RATE {r1:.3}  MIX {m1:.3}  ALL {a1:.3}");
    println!("gmean BAB+DCP: RATE {r2:.3}  MIX {m2:.3}  ALL {a2:.3}");
}
