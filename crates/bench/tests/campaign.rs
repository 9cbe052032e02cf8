//! The campaign context owns all run state: two campaigns in one process
//! never see each other's committed cells, sample files, metrics or
//! failure rows, and the campaign driver builds its plan from `--scale`.

use bear_bench::checkpoint::CellStore;
use bear_bench::report::Json;
use bear_bench::runner::run_matrix;
use bear_bench::supervisor::{run_cell, ManifestHeader};
use bear_bench::telemetry::TelemetrySink;
use bear_bench::{config_for, Campaign, RunPlan};
use bear_core::config::{BearFeatures, DesignKind, SystemConfig};
use bear_core::metrics::RunStats;
use bear_telemetry::Registry;
use bear_workloads::Workload;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Barrier;

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bear_campaign_{tag}_{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    dir
}

fn count_files(dir: &Path, ext: &str) -> usize {
    fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter(|e| e.path().extension().is_some_and(|x| x == ext))
                .count()
        })
        .unwrap_or(0)
}

/// A campaign with its own store, sink and registry, all under `dir`.
fn armed(plan: RunPlan, dir: &Path) -> Campaign {
    let mut campaign = Campaign::new(plan);
    campaign.store = Some(CellStore::new(dir, "iso"));
    campaign.telemetry = Some(TelemetrySink::new(dir, Some(5_000)));
    campaign.metrics = Some(Registry::new());
    campaign
}

#[test]
fn concurrent_campaigns_are_isolated() {
    let plan = RunPlan {
        warmup: 5_000,
        measure: 10_000,
        scale_shift: 12,
        quick: false,
    };
    let healthy = config_for(DesignKind::Alloy, BearFeatures::full(), &plan);
    // Rejected by config validation: every cell of it is quarantined.
    let mut broken = healthy.clone();
    broken.cache_dram.sched_window = 0;
    let suite: Vec<Workload> = bear_workloads::rate_workloads()
        .into_iter()
        .take(2)
        .collect();
    let (dir_a, dir_b) = (tmp("a"), tmp("b"));
    let (a, b) = (armed(plan, &dir_a), armed(plan, &dir_b));

    // Both campaigns run the same healthy cells at the same time; only
    // `b` also runs the broken config.
    let start = Barrier::new(2);
    let run = |campaign: &Campaign, cfgs: &[SystemConfig]| -> Vec<Vec<RunStats>> {
        start.wait();
        run_matrix(campaign, cfgs, &suite)
    };
    let (out_a, out_b) = std::thread::scope(|s| {
        let ta = s.spawn(|| run(&a, std::slice::from_ref(&healthy)));
        let tb = s.spawn(|| run(&b, &[healthy.clone(), broken.clone()]));
        (
            ta.join().expect("campaign a"),
            tb.join().expect("campaign b"),
        )
    });
    assert_eq!(out_a[0], out_b[0], "the same cells give the same stats");
    assert_eq!(out_b[1][0].cycles, 0, "broken cells are placeholders");

    for (campaign, dir) in [(&a, &dir_a), (&b, &dir_b)] {
        assert_eq!(
            count_files(&dir.join("cells/iso"), "done"),
            suite.len(),
            "{dir:?} holds exactly its own committed healthy cells"
        );
        assert_eq!(
            count_files(&dir.join("telemetry"), "jsonl"),
            suite.len(),
            "{dir:?} holds exactly its own sample files"
        );
        let reg = campaign.metrics.as_ref().expect("registry");
        let cells = reg.counter("bear_cells_total", &[("design", healthy.design.label())]);
        assert_eq!(cells.get(), suite.len() as u64, "one count per own cell");
    }

    assert!(a.failures().is_empty(), "a saw none of b's quarantines");
    assert_eq!(a.profile_report(), None, "a recorded no recovery event");
    let failures = b.failures();
    assert_eq!(
        failures.len(),
        suite.len(),
        "b quarantined its broken cells"
    );
    assert!(failures.iter().all(|f| f.kind == "config"));
    assert_eq!(
        b.profile_report().as_deref(),
        Some("supervision: supervisor.quarantined=2")
    );

    fs::remove_dir_all(&dir_a).ok();
    fs::remove_dir_all(&dir_b).ok();
}

#[test]
fn campaign_driver_honors_scale() {
    let dir = tmp("scale");
    let status = Command::new(env!("CARGO_BIN_EXE_all_experiments"))
        .args(["--only", "table5", "--scale", "1/64", "--out"])
        .arg(&dir)
        .env("BEAR_QUICK", "1")
        .env_remove("BEAR_WARMUP")
        .env_remove("BEAR_CYCLES")
        .env_remove("BEAR_SCALE")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("spawn all_experiments");
    assert!(status.success(), "campaign failed");
    let text = fs::read_to_string(dir.join("table5.json")).expect("table5 report");
    let doc = Json::parse(&text).expect("report parses");
    let plan = doc.get("plan").expect("plan section");
    let field = |key: &str| plan.get(key).and_then(Json::as_u64).expect(key);
    assert_eq!(field("scale_shift"), 6, "1/64 is scale shift 6");
    // The quick budget (400K warmup + 300K measured cycles), doubled.
    assert_eq!(field("warmup"), 800_000);
    assert_eq!(field("measure"), 600_000);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn failures_manifest_records_the_policy_in_force() {
    let plan = RunPlan {
        warmup: 1_000,
        measure: 1_000,
        scale_shift: 12,
        quick: false,
    };
    let mut broken = config_for(DesignKind::Alloy, BearFeatures::full(), &plan);
    broken.cache_dram.sched_window = 0;
    let workload = bear_workloads::rate_workloads().remove(0);
    let dir = tmp("policy");
    let mut campaign = Campaign::new(plan);
    campaign.supervisor.max_retries = 0;
    let header = ManifestHeader {
        chaos_seed: None,
        max_retries: campaign.supervisor.max_retries,
    };
    let campaign = campaign
        .with_manifest_dir(Some(&dir), header)
        .experiment("policy", None);
    let err = run_cell(&campaign, &broken, &workload).expect_err("config error");
    assert_eq!(err.kind(), "config");

    let text = fs::read_to_string(dir.join("failures.json")).expect("manifest");
    let doc = Json::parse(&text).expect("manifest parses");
    let head = doc.get("campaign").expect("campaign header");
    assert_eq!(
        head.get("max_retries").and_then(Json::as_u64),
        Some(0),
        "the header records the campaign's policy, not the environment's"
    );
    assert_eq!(head.get("chaos_seed"), Some(&Json::Null));
    let quarantined = doc.get("quarantined").and_then(Json::as_arr).unwrap();
    assert_eq!(quarantined.len(), 1);
    assert_eq!(
        quarantined[0].get("experiment").and_then(Json::as_str),
        Some("policy")
    );
    fs::remove_dir_all(&dir).ok();
}
