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
//! `try_parallel_map` catches panics per cell and converts them into
//! typed [`SimError`]s. One level up, [`run_suite`] and [`run_matrix`]
//! run every cell through the [`supervisor`] — retry with backoff for
//! transient failures, wall-clock deadlines, quarantine on exhaustion —
//! and degrade cells that stay failed to zeroed
//! placeholder stats while the quarantined row lands in the
//! [`Campaign`] log (read back by [`Campaign::failures`] into the
//! experiment's report), so every other cell still completes and the
//! merged report says exactly what broke. Every settled cell ticks the
//! campaign's heartbeat, when it has one.
//!
//! The worker count is the campaign's [`Campaign::workers`]. A campaign
//! built from command-line flags reads it once from `BEAR_WORKERS`
//! (default: the machine's available parallelism; malformed values warn
//! and fall back). `BEAR_WORKERS=1` forces the serial path.

use crate::{supervisor, Campaign};
use bear_core::config::SystemConfig;
use bear_core::metrics::RunStats;
use bear_sim::error::{RunOutcome, SimError};
use bear_workloads::Workload;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Parses a `BEAR_WORKERS` value: a positive integer (a `0` is clamped to
/// 1, preserving the historical "minimum one worker" behavior). `None`
/// means the value is malformed and should be ignored.
fn parse_workers(value: &str) -> Option<usize> {
    value.trim().parse::<usize>().ok().map(|n| n.max(1))
}

/// The machine's available parallelism (at least 1): the worker count of
/// a campaign that names none.
pub(crate) fn available_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Number of worker threads a campaign should use: `BEAR_WORKERS` if set
/// (minimum 1), otherwise [`available_workers`]. A malformed
/// `BEAR_WORKERS` prints a warning to stderr and falls back to the
/// default rather than aborting a campaign over a typo.
pub(crate) fn workers_from_env() -> usize {
    match std::env::var("BEAR_WORKERS") {
        Ok(v) => parse_workers(&v).unwrap_or_else(|| {
            eprintln!(
                "[warning: ignoring malformed BEAR_WORKERS={v:?}; \
                 using available parallelism]"
            );
            available_workers()
        }),
        Err(_) => available_workers(),
    }
}

/// Applies `f` to every item, using up to `workers` threads, and returns
/// the results **in input order** (index-deterministic, regardless of
/// which worker finishes first).
///
/// With one worker (or one item) this degenerates to a plain serial map,
/// which is the reference behavior the parallel path must reproduce.
///
/// A panic inside `f` propagates and poisons the whole map; grid code
/// should prefer [`try_parallel_map`], which isolates it to one cell.
fn parallel_map<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = workers.min(items.len().max(1));
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
fn try_parallel_map<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<RunOutcome<R>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> RunOutcome<R> + Sync,
{
    parallel_map(items, workers, |item| {
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

/// Runs one cell under the [`supervisor`] and ticks
/// the campaign heartbeat once it has settled, whatever the outcome.
fn run_ticked(
    campaign: &Campaign,
    cfg: &SystemConfig,
    workload: &Workload,
) -> RunOutcome<RunStats> {
    let outcome = supervisor::run_cell(campaign, cfg, workload);
    campaign.settled(cfg, workload);
    outcome
}

/// Runs one configuration over a suite of workloads in parallel,
/// returning per-workload stats in suite order. Every cell runs under
/// the [`supervisor`]; cells that stay failed degrade to placeholder
/// stats and a quarantined row in the campaign log (see
/// [`Campaign::failures`]).
pub fn run_suite(campaign: &Campaign, cfg: &SystemConfig, workloads: &[Workload]) -> Vec<RunStats> {
    campaign.schedule(workloads.len());
    try_parallel_map(workloads, campaign.workers, |w| {
        run_ticked(campaign, cfg, w)
    })
    .into_iter()
    .zip(workloads)
    .map(|(outcome, w)| settle(cfg, w, outcome))
    .collect()
}

/// Runs the full (config × workload) grid in parallel — all cells are
/// scheduled at once, so a slow workload in one config does not serialize
/// the others. Returns `result[config_index][workload_index]`. Every
/// cell runs under the [`supervisor`]; cells that stay failed degrade
/// to placeholder stats and a quarantined row.
pub fn run_matrix(
    campaign: &Campaign,
    cfgs: &[SystemConfig],
    workloads: &[Workload],
) -> Vec<Vec<RunStats>> {
    let cells: Vec<(usize, usize)> = (0..cfgs.len())
        .flat_map(|c| (0..workloads.len()).map(move |w| (c, w)))
        .collect();
    campaign.schedule(cells.len());
    let flat = try_parallel_map(&cells, campaign.workers, |&(c, w)| {
        run_ticked(campaign, &cfgs[c], &workloads[w])
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
        let out = parallel_map(&items, 4, |&x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_handles_empty_and_single() {
        let empty: Vec<u64> = Vec::new();
        assert!(parallel_map(&empty, 4, |&x: &u64| x).is_empty());
        assert_eq!(parallel_map(&[7u64], 4, |&x| x + 1), vec![8]);
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
        let out = try_parallel_map(&items, 4, |&x| {
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

    fn bare() -> Campaign {
        Campaign::new(crate::RunPlan {
            warmup: 1_000,
            measure: 1_000,
            scale_shift: 12,
            quick: false,
        })
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
        let campaign = bare();
        let stats = run_suite(&campaign, &cfg, &suite);
        assert_eq!(stats.len(), 2, "grid shape survives the failures");
        assert_eq!(stats[0].workload, suite[0].name);
        assert_eq!(stats[0].cycles, 0, "placeholder stats are zeroed");
        let failures = campaign.failures();
        assert_eq!(failures.len(), 2);
        assert_eq!(failures[0].kind, "config");
        assert!(failures[0].error.contains("sched_window"));
        assert!(
            bare().failures().is_empty(),
            "failures stay with the campaign that recorded them"
        );
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
        let m = run_matrix(&bare(), &[cfg.clone(), cfg], &suite);
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
        let parallel = run_suite(&bare(), &cfg, &suite);
        assert_eq!(format!("{serial:?}"), format!("{parallel:?}"));
    }
}
