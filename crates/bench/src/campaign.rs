//! The campaign context: everything one experiment campaign runs under.
//!
//! A [`Campaign`] owns the [`RunPlan`], the supervision policy, the
//! optional checkpoint store, telemetry sink, metrics registry and armed
//! chaos plan, and one shared log of supervision rows. It is passed
//! explicitly to every experiment, the [`runner`](crate::runner), the
//! [`supervisor`](crate::supervisor) and [`try_run_one`](crate::try_run_one),
//! so two campaigns in one process never see each other's cells, sample
//! files, counters or failures. Clones share the log and chaos state
//! through `Arc`s, which lets the supervisor move an attempt onto a
//! detached deadline thread.
//!
//! The `beard` [`daemon`](crate::daemon) runs each job as a cell of its
//! own campaign, on a clone carrying the job's deadline, [`JobTag`] and
//! live telemetry sink.
//!
//! Recovery reporting is read off the log: the report's failure rows are
//! the current experiment's quarantined rows, `failures.json` is the log
//! merged with a previous incarnation's, and the recovery counters are
//! row counts.

use crate::chaos::Chaos;
use crate::checkpoint::CellStore;
use crate::report::FailureRow;
use crate::supervisor::{
    merge_rows_into, Disposition, ManifestHeader, SupervisionRow, SupervisorConfig,
};
use crate::telemetry::TelemetrySink;
use crate::RunPlan;
use bear_core::config::SystemConfig;
use bear_telemetry::Registry;
use bear_workloads::Workload;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// One campaign's run context (see the module docs).
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Cycle/scale parameters every experiment builds its configs from.
    pub plan: RunPlan,
    /// Retry/backoff/deadline policy every cell runs under.
    pub supervisor: SupervisorConfig,
    /// Worker threads the grid [`runner`](crate::runner) fans cells out
    /// over (`1` = the serial reference path).
    pub workers: usize,
    /// Checkpoint store of the current experiment; `None` disables
    /// checkpointing.
    pub store: Option<CellStore>,
    /// Telemetry destination; `None` leaves every cell's telemetry off.
    pub telemetry: Option<TelemetrySink>,
    /// Metrics registry fed by every freshly simulated cell.
    pub metrics: Option<Registry>,
    /// Armed chaos plan (`BEAR_CHAOS_SEED`).
    pub chaos: Option<Arc<Chaos>>,
    /// The daemon job this context runs, if any.
    pub job: Option<JobTag>,
    log: Arc<Mutex<Log>>,
}

/// What a daemon job stamps onto its supervision rows in place of the
/// batch defaults.
#[derive(Debug, Clone)]
pub struct JobTag {
    /// Correlation id threading the job through telemetry and metrics.
    pub trace: String,
    /// How to reproduce the job.
    pub repro: String,
}

/// The campaign's shared, append-only run log.
#[derive(Debug, Default)]
struct Log {
    /// Experiment id stamped onto rows recorded from now on.
    experiment: String,
    /// Where `failures.json` is persisted after every recorded row, and
    /// the header it is written with.
    manifest: Option<(PathBuf, ManifestHeader)>,
    /// Every supervision event, in recording order.
    rows: Vec<SupervisionRow>,
    /// Heartbeat counters; `None` keeps the runner silent.
    progress: Option<Progress>,
}

/// Counters behind the stderr heartbeat.
#[derive(Debug)]
struct Progress {
    /// Cells settled (fresh, cached or quarantined).
    done: usize,
    /// Cells scheduled so far: grows as each suite/matrix is submitted.
    total: usize,
    start: Instant,
}

impl Log {
    fn count(&self, d: Disposition) -> u64 {
        self.rows.iter().filter(|r| r.disposition == d).count() as u64
    }

    /// The recovery counters as `supervision: supervisor.<name>=<n> ...`
    /// for every non-zero one, sorted by name (`None` while the campaign
    /// is clean). Each failed attempt before a cell's last one was a
    /// retry.
    fn profile_report(&self) -> Option<String> {
        let retries: u64 = self
            .rows
            .iter()
            .filter(|r| r.disposition != Disposition::Absorbed)
            .map(|r| r.attempts.saturating_sub(1) as u64)
            .sum();
        let body: Vec<String> = [
            ("absorbed", self.count(Disposition::Absorbed)),
            ("healed", self.count(Disposition::Healed)),
            ("quarantined", self.count(Disposition::Quarantined)),
            ("retry", retries),
        ]
        .iter()
        .filter(|&&(_, n)| n > 0)
        .map(|(name, n)| format!("supervisor.{name}={n}"))
        .collect();
        (!body.is_empty()).then(|| format!("supervision: {}", body.join(" ")))
    }
}

impl Campaign {
    /// A bare campaign under `plan` and the default supervision policy,
    /// one worker per available core: no store, sink, registry or chaos,
    /// an empty log, no heartbeat and no persisted manifest.
    pub fn new(plan: RunPlan) -> Campaign {
        Campaign {
            plan,
            supervisor: SupervisorConfig::default(),
            workers: crate::runner::available_workers(),
            store: None,
            telemetry: None,
            metrics: None,
            chaos: None,
            job: None,
            log: Arc::default(),
        }
    }

    /// Turns on the per-cell stderr heartbeat (`[cell i/N ...]` lines
    /// with elapsed time and a completion estimate).
    pub fn with_heartbeat(self) -> Campaign {
        self.log().progress = Some(Progress {
            done: 0,
            total: 0,
            start: Instant::now(),
        });
        self
    }

    /// Persists `DIR/failures.json` under `header` after every recorded
    /// row, so recovery history survives a process killed mid-experiment.
    pub fn with_manifest_dir(self, dir: Option<&Path>, header: ManifestHeader) -> Campaign {
        self.log().manifest = dir.map(|d| (d.to_path_buf(), header));
        self
    }

    /// Starts experiment `name`: rows recorded from now on carry its id,
    /// and the returned context checkpoints into `OUT/cells/<name>/` when
    /// `out` is set. The log stays shared with `self`.
    pub fn experiment(&self, name: &str, out: Option<&Path>) -> Campaign {
        self.log().experiment = name.to_string();
        Campaign {
            store: out.map(|d| CellStore::new(d, name)),
            ..self.clone()
        }
    }

    fn log(&self) -> MutexGuard<'_, Log> {
        // Every update is a single push or assignment, so the log stays
        // valid even if a holder panicked.
        self.log.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Records a supervision event, stamping it with the current
    /// experiment id and — when a manifest directory is set — persisting
    /// the updated `failures.json` immediately.
    pub(crate) fn record(&self, mut row: SupervisionRow) {
        let persist = {
            let mut log = self.log();
            if row.experiment.is_empty() {
                row.experiment = log.experiment.clone();
            }
            log.rows.push(row);
            log.manifest
                .clone()
                .map(|(dir, header)| (dir, header, log.rows.clone()))
        };
        if let Some((dir, header, rows)) = persist {
            if let Err(e) = merge_rows_into(&dir, rows, header) {
                eprintln!("[warning: failed to persist failures.json: {e}]");
            }
        }
    }

    /// Every supervision event recorded so far, in recording order.
    fn rows(&self) -> Vec<SupervisionRow> {
        self.log().rows.clone()
    }

    /// The current experiment's quarantined cells as report failure rows,
    /// sorted by the full (config, workload, kind, attempts, error) tuple
    /// so the report is deterministic regardless of worker count or
    /// completion order.
    pub fn failures(&self) -> Vec<FailureRow> {
        let log = self.log();
        let mut v: Vec<FailureRow> = log
            .rows
            .iter()
            .filter(|r| r.disposition == Disposition::Quarantined && r.experiment == log.experiment)
            .map(|r| FailureRow {
                config: r.config.clone(),
                workload: r.workload.clone(),
                kind: r.kind.clone(),
                error: r.error.clone(),
                attempts: r.attempts,
            })
            .collect();
        sort_failures(&mut v);
        v
    }

    /// Writes `DIR/failures.json` from the log under `header`, merged
    /// with whatever a previous incarnation of this campaign persisted
    /// there (see [`merge_rows_into`] for the schema). Returns its path.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn write_manifest(&self, dir: &Path, header: ManifestHeader) -> std::io::Result<PathBuf> {
        merge_rows_into(dir, self.rows(), header)
    }

    /// A text report of the recovery counters (retries, heals,
    /// quarantines, absorbed faults), or `None` when nothing happened —
    /// campaign drivers print it to stderr at the end of a run.
    pub fn profile_report(&self) -> Option<String> {
        self.log().profile_report()
    }

    /// Registers `n` more cells with the heartbeat, if enabled.
    pub(crate) fn schedule(&self, n: usize) {
        if let Some(p) = self.log().progress.as_mut() {
            p.total += n;
        }
    }

    /// Notes one settled cell and, when the heartbeat is on, prints
    /// `cell i/N`, which cell settled, elapsed wall-clock, and an ETA
    /// extrapolated from the mean cell time so far (checkpoint-cached
    /// cells settle instantly and pull the estimate down — by design,
    /// since a resumed campaign really is that much closer to done).
    /// Once the log holds recovery events, their running totals ride
    /// along so an observer sees degradation as it happens.
    pub(crate) fn settled(&self, cfg: &SystemConfig, workload: &Workload) {
        let mut log = self.log();
        let Some(p) = log.progress.as_mut() else {
            return;
        };
        p.done += 1;
        let (done, total) = (p.done, p.total.max(p.done));
        let elapsed = p.start.elapsed().as_secs_f64();
        let eta = elapsed / done as f64 * (total - done) as f64;
        let recovery = log
            .profile_report()
            .map_or(String::new(), |r| format!("; {r}"));
        eprintln!(
            "[cell {done}/{total} ({} × {}) elapsed {elapsed:.1}s, ETA {eta:.1}s{recovery}]",
            cfg.design.label(),
            workload.name,
        );
    }
}

/// Sorts failure rows by the full (config, workload, kind, attempts,
/// error) tuple — the completion-order-independent key that keeps the
/// report's failures section byte-stable across `BEAR_WORKERS` values.
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

#[cfg(test)]
mod tests {
    use super::*;

    fn row(experiment: &str, disposition: Disposition, attempts: usize) -> SupervisionRow {
        SupervisionRow {
            experiment: experiment.into(),
            config: "Alloy".into(),
            workload: "rate:mcf".into(),
            disposition,
            kind: "panic".into(),
            error: "broke".into(),
            attempts,
            chaos: None,
            checkpoint: None,
            repro: String::new(),
            trace: None,
        }
    }

    fn plan() -> RunPlan {
        RunPlan {
            warmup: 1,
            measure: 1,
            scale_shift: 12,
            quick: false,
        }
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
    fn recovery_counters_are_row_counts() {
        let c = Campaign::new(plan());
        assert_eq!(c.profile_report(), None, "a clean campaign is silent");
        c.record(row("", Disposition::Healed, 3));
        c.record(row("", Disposition::Quarantined, 2));
        c.record(row("", Disposition::Quarantined, 1));
        c.record(row("", Disposition::Absorbed, 0));
        assert_eq!(
            c.profile_report().as_deref(),
            Some(
                "supervision: supervisor.absorbed=1 supervisor.healed=1 \
                 supervisor.quarantined=2 supervisor.retry=3"
            )
        );
    }

    #[test]
    fn failures_are_the_current_experiments_quarantined_rows() {
        let c = Campaign::new(plan());
        let fig03 = c.experiment("fig03", None);
        fig03.record(row("", Disposition::Quarantined, 1));
        fig03.record(row("", Disposition::Healed, 2));
        assert_eq!(fig03.failures().len(), 1);
        let fig07 = c.experiment("fig07", None);
        assert!(fig07.failures().is_empty(), "fig03's row stays with fig03");
        fig07.record(row("", Disposition::Quarantined, 3));
        let failures = fig07.failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].attempts, 3);
        let experiments: Vec<String> = c.rows().into_iter().map(|r| r.experiment).collect();
        assert_eq!(
            experiments,
            ["fig03", "fig03", "fig07"],
            "clones share one log"
        );
    }
}
