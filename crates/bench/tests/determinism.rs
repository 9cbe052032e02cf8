//! Seed-determinism regression tests: the same (config, workload, seed)
//! must produce bit-identical `RunStats` whether run twice in-process or
//! through the parallel runner. This is what makes experiment logs
//! diffable and the JSON reports reproducible.

use bear_bench::runner::{run_matrix, run_suite};
use bear_bench::{config_for, run_one, Campaign, RunPlan};
use bear_core::config::{BearFeatures, DesignKind};
use bear_workloads::{rate_workloads, Workload};

fn tiny_plan() -> RunPlan {
    RunPlan {
        warmup: 1_000,
        measure: 2_000,
        scale_shift: 12,
        quick: false,
    }
}

fn tiny_suite() -> Vec<Workload> {
    rate_workloads()
        .into_iter()
        .filter(|w| ["rate:gcc", "rate:mcf", "rate:libquantum"].contains(&w.name.as_str()))
        .collect()
}

#[test]
fn rerun_is_bit_identical() {
    let plan = tiny_plan();
    let suite = tiny_suite();
    for (design, bear) in [
        (DesignKind::Alloy, BearFeatures::none()),
        (DesignKind::Alloy, BearFeatures::full()),
        (DesignKind::LohHill, BearFeatures::none()),
    ] {
        let cfg = config_for(design, bear, &plan);
        for w in &suite {
            let a = run_one(&cfg, w);
            let b = run_one(&cfg, w);
            assert_eq!(a, b, "rerun diverged for {} on {}", a.design, w.name);
        }
    }
}

#[test]
fn parallel_runner_matches_serial_reference() {
    let plan = tiny_plan();
    let suite = tiny_suite();
    let cfgs = [
        config_for(DesignKind::Alloy, BearFeatures::none(), &plan),
        config_for(DesignKind::Alloy, BearFeatures::full(), &plan),
    ];

    // Serial reference, straight through run_one.
    let reference: Vec<Vec<_>> = cfgs
        .iter()
        .map(|cfg| suite.iter().map(|w| run_one(cfg, w)).collect())
        .collect();

    // Four workers whatever the host or environment: a one-worker
    // campaign would compare the serial path with itself.
    let mut campaign = Campaign::new(plan);
    campaign.workers = 4;
    let via_suite: Vec<Vec<_>> = cfgs
        .iter()
        .map(|cfg| run_suite(&campaign, cfg, &suite))
        .collect();
    let via_matrix = run_matrix(&campaign, &cfgs, &suite);

    assert_eq!(reference, via_suite, "run_suite diverged from run_one");
    assert_eq!(reference, via_matrix, "run_matrix diverged from run_one");
}
