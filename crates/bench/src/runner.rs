//! Parallel execution of the (config × workload) experiment grid.
//!
//! Every experiment in this crate boils down to simulating a grid of
//! independent (configuration, workload) cells. The cells share no mutable
//! state — each builds its own `System` from a config and a workload, with
//! seeds derived deterministically from both — so they parallelize
//! trivially. This module fans the grid out across `std::thread::scope`
//! workers while keeping results **indexed by input position**, never by
//! completion order: the output of the parallel path is bit-identical to
//! the serial path, so experiment logs stay diffable run-over-run.
//!
//! # Fault isolation
//!
//! A cell that fails — panics, stalls against the watchdog, or rejects its
//! configuration — must not take the rest of the grid down with it.
//! [`try_parallel_map`] catches panics per cell and converts them into
//! typed [`SimError`]s. One level up, [`run_suite`] and [`run_matrix`]
//! run every cell through the [`supervisor`](crate::supervisor) — retry
//! with backoff for transient failures, wall-clock deadlines, quarantine
//! on exhaustion — and degrade cells that stay failed to zeroed
//! placeholder stats while recording a
//! [`FailureRow`](crate::report::FailureRow) (drained by
//! [`take_failures`] into the experiment's report), so every other cell
//! still completes and the merged report says exactly what broke.
//!
//! The worker count comes from `BEAR_WORKERS` (default: the machine's
//! available parallelism; malformed values warn and fall back).
//! `BEAR_WORKERS=1` forces the serial path.

use crate::report::FailureRow;
use crate::supervisor;
use bear_core::config::SystemConfig;
use bear_core::metrics::RunStats;
use bear_sim::error::{RunOutcome, SimError};
use bear_workloads::Workload;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Parses a `BEAR_WORKERS` value: a positive integer (a `0` is clamped to
/// 1, preserving the historical "minimum one worker" behavior). `None`
/// means the value is malformed and should be ignored.
fn parse_workers(value: &str) -> Option<usize> {
    value.trim().parse::<usize>().ok().map(|n| n.max(1))
}

/// Number of worker threads to use: `BEAR_WORKERS` if set (minimum 1),
/// otherwise [`std::thread::available_parallelism`]. A malformed
/// `BEAR_WORKERS` prints a warning to stderr and falls back to the
/// default rather than aborting a campaign over a typo.
pub fn workers() -> usize {
    let fallback = || {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    };
    match std::env::var("BEAR_WORKERS") {
        Ok(v) => parse_workers(&v).unwrap_or_else(|| {
            eprintln!(
                "[warning: ignoring malformed BEAR_WORKERS={v:?}; \
                 using available parallelism]"
            );
            fallback()
        }),
        Err(_) => fallback(),
    }
}

/// Applies `f` to every item, using up to [`workers`] threads, and returns
/// the results **in input order** (index-deterministic, regardless of
/// which worker finishes first).
///
/// With one worker (or one item) this degenerates to a plain serial map,
/// which is the reference behavior the parallel path must reproduce.
///
/// A panic inside `f` propagates and poisons the whole map; grid code
/// should prefer [`try_parallel_map`], which isolates it to one cell.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = workers().min(items.len().max(1));
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<R>>> = Mutex::new((0..items.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(&items[i]);
                slots.lock().expect("runner slots poisoned")[i] = Some(r);
            });
        }
    });
    slots
        .into_inner()
        .expect("runner slots poisoned")
        .into_iter()
        .map(|r| r.expect("runner slot unfilled"))
        .collect()
}

/// [`parallel_map`] with per-cell panic isolation: a panic inside `f`
/// becomes `Err(SimError::Panicked)` for that cell while every other cell
/// runs to completion. Results stay in input order.
pub fn try_parallel_map<T, R, F>(items: &[T], f: F) -> Vec<RunOutcome<R>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> RunOutcome<R> + Sync,
{
    parallel_map(items, |item| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(item))).unwrap_or_else(
            |payload| {
                let message = if let Some(s) = payload.downcast_ref::<&str>() {
                    (*s).to_string()
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    s.clone()
                } else {
                    "non-string panic payload".to_string()
                };
                Err(SimError::panicked("cell", message))
            },
        )
    })
}

/// Campaign-wide progress counters behind the stderr heartbeat.
#[derive(Debug)]
struct Progress {
    /// Cells completed (fresh or checkpoint-cached) since activation.
    done: usize,
    /// Cells scheduled so far: grows as each suite/matrix is submitted,
    /// since the campaign's full cell count isn't known up front.
    total: usize,
    start: Instant,
}

/// Heartbeat state; `None` (the default) keeps the runner silent.
static PROGRESS: Mutex<Option<Progress>> = Mutex::new(None);

/// Enables (or disables) the per-cell stderr heartbeat and resets its
/// counters. A long campaign driver turns this on so an observer can see
/// `[cell i/N ...]` lines with elapsed time and a completion estimate;
/// one-shot binaries leave it off.
pub fn set_heartbeat(enabled: bool) {
    *PROGRESS.lock().expect("progress state poisoned") = enabled.then(|| Progress {
        done: 0,
        total: 0,
        start: Instant::now(),
    });
}

/// Registers `n` more cells with the heartbeat, if enabled.
fn progress_begin(n: usize) {
    if let Some(p) = PROGRESS.lock().expect("progress state poisoned").as_mut() {
        p.total += n;
    }
}

/// One-line stderr heartbeat, emitted per completed cell when enabled:
/// `cell i/N`, which cell finished, elapsed wall-clock, and an ETA
/// extrapolated from the mean cell time so far (checkpoint-cached cells
/// complete instantly and pull the estimate down — by design, since a
/// resumed campaign really is that much closer to done). Once the
/// supervisor has recovery events to report (retries, healed cells,
/// quarantines, absorbed faults), the running totals ride along so an
/// observer sees degradation as it happens, not at campaign end.
pub(crate) fn heartbeat(cfg: &SystemConfig, workload: &Workload) {
    let mut guard = PROGRESS.lock().expect("progress state poisoned");
    let Some(p) = guard.as_mut() else {
        return;
    };
    p.done += 1;
    let elapsed = p.start.elapsed().as_secs_f64();
    let remaining = p.total.saturating_sub(p.done);
    let eta = elapsed / p.done as f64 * remaining as f64;
    let recovery = supervisor::recovery_note().map_or(String::new(), |n| format!("; {n}"));
    eprintln!(
        "[cell {}/{} ({} × {}) elapsed {elapsed:.1}s, \
         ETA {eta:.1}s{recovery}]",
        p.done,
        p.total.max(p.done),
        cfg.design.label(),
        workload.name,
    );
}

/// Failed cells recorded by [`run_suite`]/[`run_matrix`] since the last
/// [`take_failures`] call.
static FAILURES: Mutex<Vec<FailureRow>> = Mutex::new(Vec::new());

/// Records a quarantined cell's failure row (called by the
/// [`supervisor`](crate::supervisor) once the cell's retries are
/// exhausted — the supervisor owns the stderr announcement and the
/// attempt count).
pub(crate) fn record_failure_row(row: FailureRow) {
    FAILURES.lock().expect("failure log poisoned").push(row);
}

/// Sorts failure rows by the full (config, workload, kind, attempts,
/// error) tuple — the completion-order-independent key that keeps the
/// report's failures section (and `failures.json`) byte-stable across
/// `BEAR_WORKERS` values.
fn sort_failures(v: &mut [FailureRow]) {
    v.sort_by(|a, b| {
        (&a.config, &a.workload, &a.kind, a.attempts, &a.error).cmp(&(
            &b.config,
            &b.workload,
            &b.kind,
            b.attempts,
            &b.error,
        ))
    });
}

/// Drains the failures recorded since the last call, sorted by
/// [`sort_failures`]' full tuple so the report section is deterministic
/// regardless of worker count or completion order.
pub fn take_failures() -> Vec<FailureRow> {
    let mut v = std::mem::take(&mut *FAILURES.lock().expect("failure log poisoned"));
    sort_failures(&mut v);
    v
}

/// Zeroed stats standing in for a failed cell, so grid indexing (and the
/// tables computed from it) survive; the recorded failure row carries the
/// real story. Zero IPC makes the cell's speedup read as 0, which is
/// visibly wrong in any table — by design.
fn placeholder_stats(cfg: &SystemConfig, workload: &Workload) -> RunStats {
    let cores = workload.benchmarks.len();
    RunStats {
        workload: workload.name.clone(),
        design: cfg.design.label().to_string(),
        insts_per_core: vec![0; cores],
        ipc_per_core: vec![0.0; cores],
        ..Default::default()
    }
}

/// Degrades a (supervised, already-recorded) failure to placeholder
/// stats; the supervisor recorded the failure row and announced it.
fn settle(cfg: &SystemConfig, workload: &Workload, outcome: RunOutcome<RunStats>) -> RunStats {
    match outcome {
        Ok(stats) => stats,
        Err(_) => placeholder_stats(cfg, workload),
    }
}

/// Runs one configuration over a suite of workloads in parallel,
/// returning per-workload stats in suite order. Every cell runs under
/// the [`supervisor`](crate::supervisor); cells that stay failed degrade
/// to placeholder stats and a recorded failure (see [`take_failures`]).
pub fn run_suite(cfg: &SystemConfig, workloads: &[Workload]) -> Vec<RunStats> {
    progress_begin(workloads.len());
    try_parallel_map(workloads, |w| supervisor::run_cell(cfg, w))
        .into_iter()
        .zip(workloads)
        .map(|(outcome, w)| settle(cfg, w, outcome))
        .collect()
}

/// Runs the full (config × workload) grid in parallel — all cells are
/// scheduled at once, so a slow workload in one config does not serialize
/// the others. Returns `result[config_index][workload_index]`. Every
/// cell runs under the [`supervisor`](crate::supervisor); cells that
/// stay failed degrade to placeholder stats and a recorded failure.
pub fn run_matrix(cfgs: &[SystemConfig], workloads: &[Workload]) -> Vec<Vec<RunStats>> {
    let cells: Vec<(usize, usize)> = (0..cfgs.len())
        .flat_map(|c| (0..workloads.len()).map(move |w| (c, w)))
        .collect();
    progress_begin(cells.len());
    let flat = try_parallel_map(&cells, |&(c, w)| {
        supervisor::run_cell(&cfgs[c], &workloads[w])
    });
    let mut out: Vec<Vec<RunStats>> = Vec::with_capacity(cfgs.len());
    let mut it = flat.into_iter().zip(&cells);
    for _ in 0..cfgs.len() {
        out.push(
            it.by_ref()
                .take(workloads.len())
                .map(|(outcome, &(c, w))| settle(&cfgs[c], &workloads[w], outcome))
                .collect(),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(&items, |&x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_handles_empty_and_single() {
        let empty: Vec<u64> = Vec::new();
        assert!(parallel_map(&empty, |&x: &u64| x).is_empty());
        assert_eq!(parallel_map(&[7u64], |&x| x + 1), vec![8]);
    }

    #[test]
    fn parse_workers_accepts_integers_and_rejects_garbage() {
        assert_eq!(parse_workers("4"), Some(4));
        assert_eq!(parse_workers(" 2 "), Some(2));
        assert_eq!(parse_workers("0"), Some(1), "zero clamps to one worker");
        assert_eq!(parse_workers(""), None);
        assert_eq!(parse_workers("many"), None);
        assert_eq!(parse_workers("-3"), None);
        assert_eq!(parse_workers("2.5"), None);
    }

    #[test]
    fn try_parallel_map_isolates_a_panicking_cell() {
        let items: Vec<u64> = (0..20).collect();
        let out = try_parallel_map(&items, |&x| {
            if x == 7 {
                panic!("cell seven is poisoned");
            }
            Ok(x * 2)
        });
        assert_eq!(out.len(), 20);
        for (i, r) in out.iter().enumerate() {
            if i == 7 {
                let e = r.as_ref().unwrap_err();
                assert_eq!(e.kind(), "panic");
                assert!(e.to_string().contains("cell seven is poisoned"));
            } else {
                assert_eq!(*r.as_ref().unwrap(), i as u64 * 2);
            }
        }
    }

    #[test]
    fn failed_cells_degrade_to_placeholders_and_failure_rows() {
        use bear_core::config::{DesignKind, SystemConfig};
        // sched_window = 0 is rejected by config validation, so every cell
        // of this suite fails with a typed error instead of simulating.
        let mut cfg = SystemConfig::paper_baseline(DesignKind::Alloy);
        cfg.cache_dram.sched_window = 0;
        let suite: Vec<Workload> = bear_workloads::rate_workloads()
            .into_iter()
            .take(2)
            .collect();
        let stats = run_suite(&cfg, &suite);
        assert_eq!(stats.len(), 2, "grid shape survives the failures");
        assert_eq!(stats[0].workload, suite[0].name);
        assert_eq!(stats[0].cycles, 0, "placeholder stats are zeroed");
        let failures = take_failures();
        let ours: Vec<&FailureRow> = failures
            .iter()
            .filter(|f| f.workload == suite[0].name || f.workload == suite[1].name)
            .collect();
        assert_eq!(ours.len(), 2);
        assert_eq!(ours[0].kind, "config");
        assert!(ours[0].error.contains("sched_window"));
        assert!(
            take_failures().iter().all(|f| f.workload != suite[0].name),
            "take_failures drains"
        );
    }

    #[test]
    fn failure_ordering_is_worker_count_independent() {
        let mk = |c: &str, w: &str, k: &str, a: usize| FailureRow {
            config: c.into(),
            workload: w.into(),
            kind: k.into(),
            error: format!("{c} × {w} broke"),
            attempts: a,
        };
        // Two completion orders of the same failures (as different
        // BEAR_WORKERS schedules would record them) sort identically.
        let mut by_schedule_a = vec![
            mk("BEAR", "rate:mcf", "panic", 3),
            mk("Alloy", "rate:mcf", "config", 1),
            mk("Alloy", "mix:a", "timeout", 3),
        ];
        let mut by_schedule_b: Vec<FailureRow> = by_schedule_a.iter().rev().cloned().collect();
        sort_failures(&mut by_schedule_a);
        sort_failures(&mut by_schedule_b);
        assert_eq!(by_schedule_a, by_schedule_b);
        assert_eq!(by_schedule_a[0].workload, "mix:a");
        assert_eq!(by_schedule_a[1].kind, "config");
        assert_eq!(by_schedule_a[2].config, "BEAR");
    }

    #[test]
    fn matrix_shape_matches_grid() {
        use bear_core::config::{DesignKind, SystemConfig};
        let mut cfg = SystemConfig::paper_baseline(DesignKind::Alloy);
        cfg.scale_shift = 12;
        cfg.warmup_cycles = 500;
        cfg.measure_cycles = 500;
        let suite: Vec<Workload> = bear_workloads::rate_workloads()
            .into_iter()
            .take(2)
            .collect();
        let m = run_matrix(&[cfg.clone(), cfg], &suite);
        assert_eq!(m.len(), 2);
        assert_eq!(m[0].len(), 2);
        assert_eq!(m[0][0].workload, suite[0].name);
        assert_eq!(m[1][1].workload, suite[1].name);
    }

    #[test]
    fn parallel_equals_serial() {
        use bear_core::config::{DesignKind, SystemConfig};
        let mut cfg = SystemConfig::paper_baseline(DesignKind::Alloy);
        cfg.scale_shift = 12;
        cfg.warmup_cycles = 1000;
        cfg.measure_cycles = 1000;
        let suite: Vec<Workload> = bear_workloads::rate_workloads()
            .into_iter()
            .take(3)
            .collect();
        let serial: Vec<RunStats> = suite.iter().map(|w| crate::run_one(&cfg, w)).collect();
        let parallel = run_suite(&cfg, &suite);
        assert_eq!(format!("{serial:?}"), format!("{parallel:?}"));
    }
}
