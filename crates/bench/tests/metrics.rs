//! Smoke test for the live `beard` metrics service: start an in-process
//! daemon, run two jobs (one with live telemetry), scrape
//! `{"op":"metrics"}`, and assert that
//!
//! - the Prometheus-style exposition text parses line by line,
//! - the registry snapshot's counters agree with `{"op":"status"}`,
//! - the per-job bloat decomposition and wall-time histogram are there,
//! - streamed telemetry lines carry the job's stable trace id.

use bear_bench::daemon::{smoke_jobs, Client, Daemon, DaemonConfig};
use bear_bench::report::Json;
use std::path::PathBuf;
use std::time::Duration;

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bear-metrics-smoke-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Validates every exposition line: comments are `# HELP`/`# TYPE`,
/// sample lines are `name{labels} value` with a numeric value. Returns
/// the number of sample lines.
fn assert_exposition_parses(text: &str) -> usize {
    let mut samples = 0;
    for (i, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            assert!(
                comment.starts_with(" HELP ") || comment.starts_with(" TYPE "),
                "exposition line {}: unknown comment {line:?}",
                i + 1
            );
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("exposition line {}: no value in {line:?}", i + 1));
        assert!(
            !series.is_empty() && !series.starts_with('{'),
            "exposition line {}: empty series name in {line:?}",
            i + 1
        );
        value
            .parse::<f64>()
            .unwrap_or_else(|_| panic!("exposition line {}: bad value {value:?}", i + 1));
        samples += 1;
    }
    samples
}

/// Sums the values of every series named `name` in the registry dump.
fn counter_sum(registry: &Json, name: &str) -> f64 {
    registry
        .get("metrics")
        .and_then(Json::as_arr)
        .expect("registry dump has a metrics array")
        .iter()
        .filter(|m| m.get("name").and_then(Json::as_str) == Some(name))
        .map(|m| m.get("value").and_then(Json::as_f64).unwrap_or(0.0))
        .sum()
}

/// Whether any series named `name` carries the given label pair.
fn has_series_with_label(registry: &Json, name: &str, key: &str, value: &str) -> bool {
    registry
        .get("metrics")
        .and_then(Json::as_arr)
        .expect("registry dump has a metrics array")
        .iter()
        .filter(|m| m.get("name").and_then(Json::as_str) == Some(name))
        .any(|m| {
            m.get("labels")
                .and_then(|l| l.get(key))
                .and_then(Json::as_str)
                == Some(value)
        })
}

#[test]
fn metrics_scrape_is_parseable_and_consistent() {
    let out = temp_dir();
    let daemon = Daemon::start(DaemonConfig::new(&out), "127.0.0.1:0").expect("start daemon");
    let mut c = Client::connect(daemon.addr()).expect("connect");
    c.set_timeout(Some(Duration::from_secs(120)))
        .expect("timeout");

    // Two jobs; the first streams live telemetry so its lines must carry
    // the trace id and feed the live per-job decomposition gauges.
    let mut jobs = smoke_jobs().into_iter().take(2).collect::<Vec<_>>();
    jobs[0].telemetry = true;
    let traced_id = jobs[0].id.clone();
    let trace = jobs[0].trace_id();
    for job in &jobs {
        c.send(&job.canonical_line()).expect("submit");
    }

    // Collect notifications until both jobs settle, checking every
    // streamed telemetry line's trace id along the way.
    let mut accepted = 0;
    let mut completed = 0;
    let mut telemetry_lines = 0;
    while completed < jobs.len() {
        let line = c
            .recv()
            .expect("recv")
            .expect("connection stays open until settle");
        match line.get("type").and_then(Json::as_str).unwrap_or("") {
            "accepted" => accepted += 1,
            "completed" => completed += 1,
            "telemetry" => {
                assert_eq!(
                    line.get("id").and_then(Json::as_str),
                    Some(traced_id.as_str())
                );
                assert_eq!(
                    line.get("trace").and_then(Json::as_str),
                    Some(trace.as_str()),
                    "telemetry lines must carry the job's trace id"
                );
                telemetry_lines += 1;
            }
            other => panic!("unexpected notification type {other:?}: {line:?}"),
        }
    }
    assert_eq!(accepted, jobs.len());
    assert!(telemetry_lines > 0, "the traced job streamed samples");

    // Both jobs settled and nothing else is in flight, so plain
    // request/response is race-free from here on.
    let status = c.request("{\"op\":\"status\"}").expect("status");
    let counters = status.get("counters").expect("status counters");
    let metrics = c.request("{\"op\":\"metrics\"}").expect("metrics");
    assert_eq!(metrics.get("type").and_then(Json::as_str), Some("metrics"));

    // The exposition text parses line by line.
    let exposition = metrics
        .get("exposition")
        .and_then(Json::as_str)
        .expect("metrics response carries exposition text");
    assert!(assert_exposition_parses(exposition) > 0);

    // The registry snapshot agrees with the daemon's own counters.
    let registry = metrics.get("registry").expect("registry snapshot");
    assert_eq!(
        counter_sum(registry, "beard_admissions_total"),
        counters
            .get("accepted")
            .and_then(Json::as_f64)
            .expect("accepted"),
        "per-client admissions must sum to the accepted counter"
    );
    assert_eq!(counter_sum(registry, "beard_sheds_total"), 0.0);
    // Per-job decomposition gauges exist for both settled jobs…
    for job in &jobs {
        assert!(
            has_series_with_label(registry, "beard_job_bloat_factor", "job", &job.id),
            "job {} is missing its bloat-factor gauge",
            job.id
        );
        assert!(
            has_series_with_label(registry, "beard_job_cache_bytes", "job", &job.id),
            "job {} is missing its decomposition gauges",
            job.id
        );
    }
    // …and the wall-time histogram observed both of them.
    let wall = registry
        .get("metrics")
        .and_then(Json::as_arr)
        .expect("metrics array")
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some("beard_job_wall_ms"))
        .expect("wall-time histogram present")
        .get("count")
        .and_then(Json::as_u64)
        .expect("histogram count");
    assert_eq!(wall as usize, jobs.len());
    // State-derived gauges reflect the drained-queue reality.
    assert_eq!(counter_sum(registry, "beard_queue_depth"), 0.0);
    assert_eq!(counter_sum(registry, "beard_draining"), 0.0);

    // The exposition carries the same series (spot check).
    assert!(exposition.contains("beard_admissions_total"));
    assert!(exposition.contains("beard_job_wall_ms_bucket"));

    let drained = c.request("{\"op\":\"drain\"}").expect("drain");
    assert_eq!(drained.get("type").and_then(Json::as_str), Some("drained"));
    let summary = daemon.wait();
    assert_eq!(summary.pending, 0);
    std::fs::remove_dir_all(&out).ok();
}
