//! Guard tests for the observability layer's two core promises:
//!
//! 1. **Telemetry is free when off and harmless when on** — a cell's
//!    JSON-serialized stats are byte-identical whether or not a sink
//!    armed it (telemetry is read-only by construction; this pins it).
//! 2. **Resume never duplicates telemetry** — a checkpoint-cached cell
//!    returns before the sink is consulted, so rerunning a finished
//!    campaign neither re-simulates nor rewrites (or tears) its sample
//!    files.
//! 3. **The metrics registry rides the same double gate** — arming a
//!    campaign-wide registry records the cell's attributed decomposition
//!    without changing a single report byte, and with the registry off
//!    the run is byte-identical to one that never heard of metrics.
//!
//! Each phase runs its cells under its own [`Campaign`] context carrying
//! exactly the sink, store, or registry that phase arms.

use bear_bench::checkpoint::{cell_stem, CellStore};
use bear_bench::report::{stats_to_json, Json};
use bear_bench::telemetry::TelemetrySink;
use bear_bench::{try_run_one, Campaign, RunPlan};
use bear_core::config::{BearFeatures, DesignKind, SystemConfig};
use std::fs;
use std::path::PathBuf;

const WINDOW: u64 = 8_000;

fn config() -> SystemConfig {
    let mut cfg = SystemConfig::paper_baseline(DesignKind::Alloy);
    cfg.bear = BearFeatures::full();
    cfg.scale_shift = 12;
    cfg.warmup_cycles = 20_000;
    cfg.measure_cycles = 50_000;
    cfg
}

/// A campaign with nothing armed, under `cfg`'s own cycle budget.
fn bare(cfg: &SystemConfig) -> Campaign {
    Campaign::new(RunPlan {
        warmup: cfg.warmup_cycles,
        measure: cfg.measure_cycles,
        scale_shift: cfg.scale_shift,
        quick: false,
    })
}

fn tmp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bear_telemetry_guard_{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn telemetry_off_is_free_and_resume_does_not_duplicate() {
    let dir = tmp_dir();
    let cfg = config();
    let workload = bear_workloads::rate_workloads().remove(0);

    // Phase 1: identical reports with and without an active sink.
    let plain = try_run_one(&bare(&cfg), &cfg, &workload).expect("plain run");
    let plain_json = stats_to_json(&plain).to_string_pretty();
    let mut sampled = bare(&cfg);
    sampled.telemetry = Some(TelemetrySink::new(&dir, Some(WINDOW)));
    let armed = try_run_one(&sampled, &cfg, &workload).expect("armed run");
    let armed_json = stats_to_json(&armed).to_string_pretty();
    assert_eq!(
        plain_json, armed_json,
        "arming telemetry must not change a single byte of the report"
    );

    // The sink wrote one JSONL file: one line per window, each line valid
    // JSON, and the windows sum back to the run's aggregates.
    let jsonl_path = dir
        .join("telemetry")
        .join(format!("{}.jsonl", cell_stem(&cfg, &workload)));
    let text = fs::read_to_string(&jsonl_path).expect("sample file exists");
    let expected_windows = cfg.measure_cycles.div_ceil(WINDOW) as usize;
    assert_eq!(text.lines().count(), expected_windows);
    let mut lookup_sum = 0u64;
    let mut mem_sum = 0u64;
    for line in text.lines() {
        let doc = Json::parse(line).expect("every JSONL line re-parses");
        lookup_sum += doc
            .get("l4")
            .and_then(|l4| l4.get("read_lookups"))
            .and_then(Json::as_u64)
            .expect("l4.read_lookups present");
        mem_sum += doc
            .get("bytes")
            .and_then(|b| b.get("mem"))
            .and_then(Json::as_u64)
            .expect("bytes.mem present");
    }
    assert_eq!(lookup_sum, plain.l4.read_lookups, "window sums == totals");
    assert_eq!(mem_sum, plain.mem_bytes, "window sums == totals");

    // Phase 1b: the metrics registry obeys the same double gate. An
    // armed registry must observe the cell (non-empty, attributed bytes
    // recorded) while the stats stay byte-identical to the plain run.
    let reg = bear_telemetry::Registry::new();
    let mut metered_campaign = bare(&cfg);
    metered_campaign.metrics = Some(reg.clone());
    let metered = try_run_one(&metered_campaign, &cfg, &workload).expect("metered run");
    assert_eq!(
        plain_json,
        stats_to_json(&metered).to_string_pretty(),
        "arming the metrics registry must not change a single report byte"
    );
    assert!(!reg.is_empty(), "the armed registry saw the cell");
    let attributed: u64 = bear_telemetry::CACHE_BYTE_KEYS
        .iter()
        .map(|key| {
            reg.counter(
                "bear_cell_cache_bytes_total",
                &[
                    ("design", cfg.design.label()),
                    ("workload", &workload.name),
                    ("category", key),
                ],
            )
            .get()
        })
        .sum();
    assert_eq!(
        attributed,
        plain.bloat.total_bytes(),
        "registry counters carry the full attributed decomposition"
    );
    // And a disarmed follow-up run records nothing new.
    let before = reg.len();
    let unmetered = try_run_one(&bare(&cfg), &cfg, &workload).expect("unmetered run");
    assert_eq!(plain_json, stats_to_json(&unmetered).to_string_pretty());
    assert_eq!(
        reg.len(),
        before,
        "a disarmed run must not touch the registry"
    );

    // Phase 2: resume. Commit the cell to a checkpoint store, delete its
    // sample file, then rerun with both store and sink active: the cached
    // cell must come back from disk without the sample file reappearing.
    let mut resumable = bare(&cfg);
    resumable.store = Some(CellStore::new(&dir, "guard"));
    resumable.telemetry = Some(TelemetrySink::new(&dir, Some(WINDOW)));
    let first = try_run_one(&resumable, &cfg, &workload).expect("fresh checkpointed run");
    fs::remove_file(&jsonl_path).expect("drop the sample file");
    let resumed = try_run_one(&resumable, &cfg, &workload).expect("resumed run");
    assert_eq!(first, resumed, "resume returns the committed stats");
    assert!(
        !jsonl_path.exists(),
        "a checkpoint-cached cell must not re-arm or rewrite telemetry"
    );

    fs::remove_dir_all(&dir).ok();
}
