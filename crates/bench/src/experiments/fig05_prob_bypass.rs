//! Figure 5: naive Probabilistic Bypass at P = 50 % and P = 90 % — hit
//! latency reduction, hit-rate change, and speedup per rate workload.

use crate::experiments::run_matrix;
use crate::report::Report;
use crate::{config_for, f3, print_row, speedup, suite_rate, Campaign};
use bear_core::config::{BearFeatures, DesignKind, FillPolicy};

/// Runs and prints the Figure 5 study.
pub fn run(campaign: &Campaign, report: &mut Report) {
    let plan = &campaign.plan;
    report.banner("Fig 5", "Probabilistic Bypass P=50% / P=90%", plan);
    let suite = suite_rate(plan);
    let mut cfgs = vec![config_for(DesignKind::Alloy, BearFeatures::none(), plan)];
    for p in [0.5, 0.9] {
        let bear = BearFeatures {
            fill_policy: FillPolicy::Probabilistic(p),
            ..BearFeatures::none()
        };
        cfgs.push(config_for(DesignKind::Alloy, bear, plan));
    }
    let mut results = run_matrix(campaign, &cfgs, &suite).into_iter();
    let base = results.next().expect("base run");
    let variants: Vec<_> = results.collect();
    report.add_suite("Alloy", &base, None);

    print_row(
        "workload",
        ["dLat50%", "dLat90%", "dHit50", "dHit90", "spd50", "spd90"]
            .map(String::from)
            .as_ref(),
    );
    let mut spd = [Vec::new(), Vec::new()];
    for (i, w) in suite.iter().enumerate() {
        let b = &base[i];
        let cells: Vec<String> = (0..2)
            .map(|v| {
                let s = &variants[v][i];
                f3(1.0 - s.l4.hit_latency / b.l4.hit_latency.max(1e-9))
            })
            .chain((0..2).map(|v| {
                let s = &variants[v][i];
                f3(s.l4.hit_rate - b.l4.hit_rate)
            }))
            .chain((0..2).map(|v| {
                let s = speedup(w, &variants[v][i], b);
                spd[v].push(s);
                f3(s)
            }))
            .collect();
        print_row(&w.name, &cells);
    }
    for (v, label) in [(0, "PB-50%"), (1, "PB-90%")] {
        report.add_suite(label, &variants[v], Some(&spd[v]));
        report.add_scalar(&format!("{label}.gmean"), crate::gmean(&spd[v]));
    }
    println!(
        "gmean speedups: P=50% {:.3}, P=90% {:.3}",
        crate::gmean(&spd[0]),
        crate::gmean(&spd[1]),
    );
}
