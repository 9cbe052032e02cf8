//! Demonstrates the full observability stack on one cell: windowed
//! time-series sampling (JSONL), Chrome trace export of the `ObsEvent`
//! ring and DRAM transfer log, and the host self-profiler.
//!
//! ```text
//! cargo run --release -p bear-bench --bin telemetry -- --out results
//! ```
//!
//! writes:
//!
//! ```text
//! results/telemetry/<cell>.jsonl   one JSON object per sample window
//! results/trace.json               load in chrome://tracing or Perfetto
//! results/self_profile.txt         per-cell + campaign-wide host profile
//! ```
//!
//! Flags: `--out DIR` (default: a temp directory), `--sample-window N`.
//! Honors `BEAR_WARMUP` / `BEAR_CYCLES` / `BEAR_SCALE` (with much smaller
//! demo defaults than the campaign binaries).
//!
//! The binary validates its own outputs — every JSONL line and the trace
//! document must re-parse, window sums must equal the run's end-of-run
//! aggregates, and the fully armed cell must still elide cycles (arming
//! telemetry must not force per-cycle polling) — so it doubles as a
//! smoke test for `scripts/verify.sh`.
//!
//! Disarmed telemetry costs one `None` branch per live tick and per loop
//! step. That cost has not been measured since the build lost its
//! telemetry-free variant: a disarmed system and one that never touched
//! telemetry run the same code, so timing one against the other measures
//! only host noise.

use bear_bench::cli;
use bear_bench::report::Json;
use bear_bench::telemetry::write_samples;
use bear_bench::RunPlan;
use bear_core::config::{BearFeatures, DesignKind, SystemConfig};
use bear_core::system::System;
use bear_core::telemetry::TelemetryReport;
use bear_core::traffic::BloatCategory;
use bear_dram::request::TrafficClass;
use bear_telemetry::{ChromeTrace, TelemetryConfig, TelemetryOptions};
use bear_workloads::Workload;
use std::path::Path;

fn demo_plan() -> RunPlan {
    let mut plan = RunPlan::from_env();
    // The campaign defaults simulate millions of cycles; a telemetry demo
    // only needs enough windows to be interesting.
    if std::env::var("BEAR_WARMUP").is_err() {
        plan.warmup = 60_000;
    }
    if std::env::var("BEAR_CYCLES").is_err() {
        plan.measure = 150_000;
    }
    plan
}

fn build_config(plan: &RunPlan) -> SystemConfig {
    bear_bench::config_for(DesignKind::Alloy, BearFeatures::full(), plan)
}

/// Human name for a DRAM-cache traffic class (the bloat category label
/// when it maps back to one).
fn class_name(class: TrafficClass) -> String {
    BloatCategory::ALL
        .iter()
        .find(|c| c.class() == class)
        .map(|c| c.label().to_string())
        .unwrap_or_else(|| format!("class{}", class.0))
}

/// Runs one armed cell and returns its stats, its telemetry and the
/// cycles the event-driven loop skipped.
fn run_armed(
    cfg: &SystemConfig,
    workload: &Workload,
    opts: TelemetryOptions,
) -> (bear_core::metrics::RunStats, TelemetryReport, u64) {
    let mut sys = System::try_build(cfg, workload)
        .unwrap_or_else(|e| panic!("building {}: {e}", workload.name));
    sys.set_telemetry(TelemetryConfig::On(opts));
    let stats = sys
        .run_monitored(cfg.warmup_cycles, cfg.measure_cycles)
        .unwrap_or_else(|e| panic!("running {}: {e}", workload.name));
    let report = sys.take_telemetry().expect("armed run yields telemetry");
    let elided = sys.loop_counters().0;
    (stats, report, elided)
}

/// Exports the ring buffer + transfer log as a Chrome trace document,
/// tagged with the cell's correlation id so the trace joins against
/// telemetry JSONL and metrics for the same cell.
fn export_trace(report: &TelemetryReport, trace_id: &str) -> ChromeTrace {
    const PID_EVENTS: u64 = 1;
    const PID_BANKS: u64 = 2;
    let mut trace = ChromeTrace::new();
    trace.name_process(PID_EVENTS, "simulator");
    trace.set_trace_id(PID_EVENTS, trace_id);
    trace.name_thread(PID_EVENTS, 0, "ObsEvent ring");
    trace.name_process(PID_BANKS, "DRAM cache");
    // One track per (channel, bank) that actually transferred data.
    let mut banks: Vec<(u32, u32)> = report
        .transfers
        .iter()
        .map(|t| (t.channel, t.bank))
        .collect();
    banks.sort_unstable();
    banks.dedup();
    for &(ch, bank) in &banks {
        let tid = u64::from(ch) << 8 | u64::from(bank);
        trace.name_thread(PID_BANKS, tid, &format!("ch{ch} bank{bank}"));
    }
    for (cycle, ev) in &report.events {
        trace.instant(PID_EVENTS, 0, ev.name(), *cycle, &[("line", ev.line())]);
    }
    for t in &report.transfers {
        let tid = u64::from(t.channel) << 8 | u64::from(t.bank);
        trace.complete(
            PID_BANKS,
            tid,
            &class_name(t.class),
            t.start.0,
            (t.finish.0 - t.start.0).max(1),
            &[("write", u64::from(t.is_write))],
        );
    }
    // Windowed counters render as charts above the tracks.
    for s in &report.samples {
        trace.counter(
            PID_EVENTS,
            "read_hit_rate",
            s.end_cycle,
            &[("hit_rate", s.read_hit_rate())],
        );
        trace.counter(
            PID_EVENTS,
            "bloat_factor",
            s.end_cycle,
            &[("factor", s.bloat_factor)],
        );
        trace.counter(
            PID_EVENTS,
            "l4_occupancy",
            s.end_cycle,
            &[("occupied", s.occupancy()), ("dirty", s.dirty_fraction())],
        );
    }
    trace
}

/// Asserts that window sums reproduce the end-of-run aggregates — the
/// invariant that makes the JSONL trustworthy.
fn check_window_sums(stats: &bear_core::metrics::RunStats, report: &TelemetryReport) {
    assert!(!report.samples.is_empty(), "sampling produced no windows");
    let lookups: u64 = report.samples.iter().map(|s| s.read_lookups).sum();
    assert_eq!(
        lookups, stats.l4.read_lookups,
        "window read_lookups must sum to the run total"
    );
    let mem: u64 = report.samples.iter().map(|s| s.mem_bytes).sum();
    assert_eq!(
        mem, stats.mem_bytes,
        "window mem_bytes must sum to the run total"
    );
}

fn write(path: &Path, content: &str) {
    std::fs::write(path, content).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    println!("wrote {}", path.display());
}

fn main() {
    let args = cli::parse_args(std::env::args().skip(1));
    // The demo builds its own cells, so the campaign flags would be
    // silently ignored: reject them.
    assert!(
        args.only.is_none()
            && args.scale.is_none()
            && args.metrics_out.is_none()
            && !args.telemetry,
        "the telemetry demo takes only --out DIR and --sample-window N"
    );
    let out = args.out.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("bear_telemetry_demo_{}", std::process::id()))
    });
    std::fs::create_dir_all(&out).unwrap_or_else(|e| panic!("creating {}: {e}", out.display()));
    let plan = demo_plan();
    let cfg = build_config(&plan);
    let window = args.sample_window.unwrap_or(10_000);
    let workloads = bear_workloads::rate_workloads();

    // 1. One fully armed cell: sampling + tracing + profiling.
    let opts = TelemetryOptions {
        sample_window: window,
        ring_capacity: 4096,
        trace: true,
        profile: true,
    };
    let (stats, report, elided) = run_armed(&cfg, &workloads[0], opts);
    check_window_sums(&stats, &report);
    println!(
        "{} × {}: {} windows, {} ring events, {} transfers, {} cycles elided",
        cfg.design.label(),
        workloads[0].name,
        report.samples.len(),
        report.events.len(),
        report.transfers.len(),
        elided
    );
    assert!(
        elided > 0,
        "armed telemetry must ride the event-driven loop, not force polling"
    );

    // Time series: the same JSONL the campaign's --telemetry flag writes.
    let jsonl_path = write_samples(&out.join("telemetry"), &cfg, &workloads[0], &report.samples)
        .expect("write sample JSONL");
    let jsonl = std::fs::read_to_string(&jsonl_path).expect("read back JSONL");
    for (i, line) in jsonl.lines().enumerate() {
        Json::parse(line).unwrap_or_else(|e| panic!("JSONL line {} must re-parse: {e}", i + 1));
    }
    println!(
        "wrote {} ({} lines, all re-parsed)",
        jsonl_path.display(),
        jsonl.lines().count()
    );

    // Chrome trace: validated by re-parsing the document. The cell's
    // trace id is the FNV digest of its (design, workload) name — the
    // same stable-id scheme the daemon threads through job telemetry.
    let trace_id = bear_telemetry::TraceId::from_name(&format!(
        "{}/{}",
        cfg.design.label(),
        workloads[0].name
    ))
    .to_string();
    let trace = export_trace(&report, &trace_id);
    let trace_json = trace.to_json();
    Json::parse(&trace_json).unwrap_or_else(|e| panic!("trace.json must re-parse: {e}"));
    assert!(
        trace_json.contains(&trace_id),
        "trace.json must carry the cell's trace id"
    );
    write(&out.join("trace.json"), &trace_json);

    // 2. A second cell with profiling only, to demonstrate campaign-wide
    // profile aggregation across cells.
    let (_, report2, _) = run_armed(
        &cfg,
        &workloads[1],
        TelemetryOptions {
            sample_window: window,
            profile: true,
            ..TelemetryOptions::default()
        },
    );
    let mut campaign = report.profile.clone();
    campaign.merge(&report2.profile);
    let mut profile_text = String::new();
    profile_text.push_str(
        &report
            .profile
            .report(&format!("cell {}", workloads[0].name), 8),
    );
    profile_text.push('\n');
    profile_text.push_str(
        &report2
            .profile
            .report(&format!("cell {}", workloads[1].name), 8),
    );
    profile_text.push('\n');
    profile_text.push_str(&campaign.report("campaign (all cells)", 8));
    write(&out.join("self_profile.txt"), &profile_text);

    println!("telemetry demo OK");
}
