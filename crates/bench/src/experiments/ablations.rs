//! Ablation studies of BEAR's design choices (extending the paper's
//! Section 4.2 sensitivity discussion):
//!
//! 1. **Bypass probability**: the paper picked P = 90 % for BAB; we sweep
//!    P ∈ {25, 50, 75, 90, 100} %.
//! 2. **Duel slack Δ**: the paper found Δ = 1/16 best; we sweep
//!    Δ ∈ {1/4, 1/8, 1/16, 1/32, 1/64}.
//! 3. **Writeback allocation**: write-allocate (the baseline) vs
//!    no-allocate (writeback misses go straight to memory).
//! 4. **Temporal NTC** (§9.4): the paper suggests combining the spatial
//!    neighbor-tag cache with a temporal tag cache; we measure the combo.
//! 5. **Predictor organization**: MAP-I (PC-indexed, the baseline) vs the
//!    cheaper global MAP-G.

use crate::experiments::{rate_mix_all, run_matrix, speedups};
use crate::report::Report;
use crate::{config_for, f3, print_row, suite_sensitivity, Campaign};
use bear_core::config::{BearFeatures, DesignKind, FillPolicy};

/// Runs and prints all the ablations.
pub fn run(campaign: &Campaign, report: &mut Report) {
    let plan = &campaign.plan;
    let suite = suite_sensitivity(plan);

    // Build every config up front so the whole grid runs as one
    // parallel batch; printing below preserves the original order.
    let mut cfgs = vec![config_for(DesignKind::Alloy, BearFeatures::none(), plan)];

    let bypass_points = [0.25, 0.5, 0.75, 0.9, 1.0];
    for p in bypass_points {
        let bear = BearFeatures {
            fill_policy: FillPolicy::BandwidthAware(p),
            ..BearFeatures::none()
        };
        cfgs.push(config_for(DesignKind::Alloy, bear, plan));
    }

    let delta_points = [2u32, 3, 4, 5, 6];
    for shift in delta_points {
        let mut cfg = config_for(DesignKind::Alloy, BearFeatures::bab(), plan);
        cfg.bab_delta_shift = shift;
        cfgs.push(cfg);
    }

    let wb_points = [("allocate", true), ("no-allocate", false)];
    for (_, allocate) in wb_points {
        let mut cfg = config_for(DesignKind::Alloy, BearFeatures::none(), plan);
        cfg.writeback_allocate = allocate;
        cfgs.push(cfg);
    }

    let pred_points = [
        ("MAP-I", bear_core::predictor::PredictorKind::MapI),
        ("MAP-G", bear_core::predictor::PredictorKind::MapG),
    ];
    for (_, kind) in pred_points {
        let mut cfg = config_for(DesignKind::Alloy, BearFeatures::none(), plan);
        cfg.predictor = kind;
        cfgs.push(cfg);
    }

    let ntc_points = [
        ("spatial", BearFeatures::full()),
        ("spatial+temporal", BearFeatures::full_with_temporal_ntc()),
    ];
    for (_, bear) in ntc_points {
        cfgs.push(config_for(DesignKind::Alloy, bear, plan));
    }

    let results = run_matrix(campaign, &cfgs, &suite);
    let mut results = results.iter();
    let base = results.next().expect("base run");
    report.add_suite("Alloy", base, None);
    let spd_header: Vec<String> = ["speedup(R)", "(M)", "(ALL)"].map(String::from).into();
    let emit = |label: String, stats: &Vec<bear_core::metrics::RunStats>, report: &mut Report| {
        let spd = speedups(&suite, stats, base);
        let (r, m, a) = rate_mix_all(&suite, &spd);
        report.add_suite(&label, stats, Some(&spd));
        report.add_scalar(&format!("{label}.gmean_all"), a);
        print_row(&label, &[f3(r), f3(m), f3(a)]);
    };

    report.banner("Ablation 1", "BAB bypass probability", plan);
    print_row("P", &spd_header);
    for p in bypass_points {
        emit(
            format!("{:.0}%", p * 100.0),
            results.next().expect("run"),
            report,
        );
    }

    report.banner("Ablation 2", "BAB duel slack Δ", plan);
    print_row("delta", &spd_header);
    for shift in delta_points {
        emit(
            format!("1/{}", 1u32 << shift),
            results.next().expect("run"),
            report,
        );
    }

    report.banner("Ablation 3", "Writeback allocation policy", plan);
    print_row("policy", &spd_header);
    for (label, _) in wb_points {
        emit(label.to_string(), results.next().expect("run"), report);
    }

    report.banner("Ablation 5", "MAP-I vs MAP-G predictor", plan);
    print_row("predictor", &spd_header);
    for (label, _) in pred_points {
        emit(label.to_string(), results.next().expect("run"), report);
    }

    report.banner("Ablation 4", "Temporal NTC extension (§9.4)", plan);
    print_row("ntc mode", &spd_header);
    for (label, _) in ntc_points {
        emit(label.to_string(), results.next().expect("run"), report);
    }
}
