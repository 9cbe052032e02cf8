//! Campaign fault-tolerance integration tests.
//!
//! The headline acceptance check for the checkpoint/resume layer: a
//! campaign killed with SIGKILL mid-flight, rerun with the same
//! `--out DIR`, resumes from the committed cells and produces a merged
//! report **byte-identical** to an uninterrupted campaign.

use bear_bench::checkpoint::CellStore;
use bear_bench::{config_for, try_run_one, Campaign, RunPlan};
use bear_core::config::{BearFeatures, DesignKind};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bear_resume_{tag}_{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn in_process_resume_reloads_identical_stats() {
    let dir = tmp("inproc");
    let plan = RunPlan {
        warmup: 2_000,
        measure: 3_000,
        scale_shift: 12,
        quick: false,
    };
    let cfg = config_for(DesignKind::Alloy, BearFeatures::full(), &plan);
    let workload = bear_workloads::rate_workloads().remove(0);
    let mut campaign = Campaign::new(plan);
    campaign.store = Some(CellStore::new(&dir, "itest"));
    let first = try_run_one(&campaign, &cfg, &workload).expect("first run");
    let resumed = try_run_one(&campaign, &cfg, &workload).expect("resumed run");
    assert_eq!(
        first, resumed,
        "a reloaded cell must round-trip bit-for-bit"
    );
    let committed = fs::read_dir(dir.join("cells/itest"))
        .expect("cells directory")
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "done"))
        .count();
    assert_eq!(committed, 1);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn cell_torn_by_a_kill_mid_store_is_rerun_not_trusted() {
    let dir = tmp("torn");
    let plan = RunPlan {
        warmup: 2_000,
        measure: 3_000,
        scale_shift: 12,
        quick: false,
    };
    let cfg = config_for(DesignKind::Alloy, BearFeatures::full(), &plan);
    let workload = bear_workloads::rate_workloads().remove(0);
    let mut campaign = Campaign::new(plan);
    campaign.store = Some(CellStore::new(&dir, "torn"));
    let first = try_run_one(&campaign, &cfg, &workload).expect("first run");

    // Truncate the committed data file while its `.done` marker stands —
    // the artifact a `kill -9` (or a torn page-cache flush) can leave
    // between a cell's data write and its durability.
    let store = CellStore::new(&dir, "torn");
    let path = store
        .committed_path(&cfg, &workload)
        .expect("cell must be committed");
    let bytes = fs::read(&path).expect("committed cell bytes");
    fs::write(&path, &bytes[..bytes.len() / 2]).expect("tearing cell");
    assert!(
        store.load(&cfg, &workload).is_none(),
        "a torn cell must fail its digest check, not parse"
    );

    // The resumed run must re-simulate (not trust the torn bytes), land
    // on identical stats, and leave the cell loadable again.
    let resumed = try_run_one(&campaign, &cfg, &workload).expect("resumed run");
    assert_eq!(
        first, resumed,
        "re-running a torn cell must reproduce the original stats"
    );
    assert!(
        store.load(&cfg, &workload).is_some(),
        "the re-run must recommit a digest-valid cell"
    );
    fs::remove_dir_all(&dir).ok();
}

/// The campaign under test: `all_experiments --only fig07 --out DIR`,
/// scaled down but long enough (~seconds) that a kill lands mid-run.
fn campaign_cmd(out: &Path) -> Command {
    let mut c = Command::new(env!("CARGO_BIN_EXE_all_experiments"));
    c.args(["--only", "fig07", "--out"])
        .arg(out)
        .env("BEAR_QUICK", "1")
        .env("BEAR_WARMUP", "50000")
        .env("BEAR_CYCLES", "150000")
        .env("BEAR_SCALE", "12")
        .env("BEAR_WORKERS", "2")
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    c
}

fn done_cells(cells: &Path) -> usize {
    fs::read_dir(cells)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter(|e| e.path().extension().is_some_and(|x| x == "done"))
                .count()
        })
        .unwrap_or(0)
}

#[test]
fn killed_campaign_resumes_to_byte_identical_report() {
    let dir_killed = tmp("killed");
    let dir_fresh = tmp("fresh");

    // Start a campaign, wait until at least two cells are committed, then
    // SIGKILL it (`Child::kill` is SIGKILL on unix) — no destructors, no
    // flushing, the harshest interrupt available.
    let mut child = campaign_cmd(&dir_killed).spawn().expect("spawn campaign");
    let cells = dir_killed.join("cells/fig07");
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        if done_cells(&cells) >= 2 || child.try_wait().expect("try_wait").is_some() {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "campaign committed no cells in time"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    // (If the campaign was so fast it already finished, the rerun below
    // still exercises the every-cell-cached path.)
    child.kill().ok();
    child.wait().expect("reap child");
    let committed_before_resume = done_cells(&cells);

    // Resume in the same directory: must finish cleanly.
    let status = campaign_cmd(&dir_killed).status().expect("resume campaign");
    assert!(status.success(), "resumed campaign failed");
    assert!(
        done_cells(&cells) >= committed_before_resume,
        "resume must keep committed cells"
    );

    // Uninterrupted reference campaign in a clean directory.
    let status = campaign_cmd(&dir_fresh).status().expect("fresh campaign");
    assert!(status.success(), "fresh campaign failed");

    let resumed = fs::read(dir_killed.join("fig07.json")).expect("resumed report");
    let fresh = fs::read(dir_fresh.join("fig07.json")).expect("fresh report");
    assert!(!resumed.is_empty());
    assert_eq!(
        resumed, fresh,
        "report after kill -9 + resume must be byte-identical to an \
         uninterrupted campaign"
    );

    fs::remove_dir_all(&dir_killed).ok();
    fs::remove_dir_all(&dir_fresh).ok();
}
