//! Harness-side telemetry sink: where a cell's windowed samples land.
//!
//! The simulator produces telemetry (see `bear_core::telemetry`); this
//! module decides where a cell's samples go. A cell collects them when
//! its [`Campaign`](crate::Campaign) context carries a [`TelemetrySink`]:
//! `try_run_one` then arms every freshly simulated cell with
//! [`TelemetryConfig::sampling`]. A *live* sink (a `beard` daemon job)
//! streams each window to a [`LiveSink`] as it closes; a file sink (a
//! campaign's `--telemetry`) writes them when the cell finishes to
//!
//! ```text
//! DIR/telemetry/<cell_stem>.jsonl     one JSON object per sample window
//! ```
//!
//! where `<cell_stem>` is the same `<design>-<workload>-<hash>` stem the
//! checkpoint store uses, so a cell's time series and its checkpointed
//! stats correlate by filename.
//!
//! # Resume semantics
//!
//! Checkpoint-cached cells return from `try_run_one` *before* the sink is
//! consulted, so a resumed campaign never re-arms or re-writes telemetry
//! for a finished cell: its `.jsonl` from the original run stays intact,
//! with no duplicated or torn windows. Files are written with the same
//! tmp → rename protocol as checkpoints, so an interrupt mid-write leaves
//! an ignorable `.tmp`, never a half sample.
//!
//! Without a sink (the default), cells run with
//! [`TelemetryConfig::Off`] and their reports are byte-identical to an
//! unarmed run's — the `telemetry_off_is_free` guard test pins this.

use crate::checkpoint::cell_stem;
use bear_core::config::SystemConfig;
use bear_core::system::System;
use bear_telemetry::{LiveSink, Sample, TelemetryConfig, DEFAULT_SAMPLE_WINDOW};
use bear_workloads::Workload;
use std::fs::{self, File};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Destination and options for a cell's telemetry (see the module docs).
#[derive(Debug, Clone)]
pub struct TelemetrySink {
    sample_window: u64,
    dest: Dest,
}

#[derive(Debug, Clone)]
enum Dest {
    /// JSONL files in this directory.
    Files(PathBuf),
    Live(LiveSink),
}

impl TelemetrySink {
    /// Sink writing sampling-only telemetry under `OUT_DIR/telemetry/`
    /// with the given window (`None` → the default window).
    pub fn new(out_dir: &Path, sample_window: Option<u64>) -> TelemetrySink {
        TelemetrySink {
            sample_window: sample_window.unwrap_or(DEFAULT_SAMPLE_WINDOW),
            dest: Dest::Files(out_dir.join("telemetry")),
        }
    }

    /// Sink streaming sampling-only telemetry to `live`, one window at a
    /// time.
    pub fn live(sample_window: u64, live: LiveSink) -> TelemetrySink {
        TelemetrySink {
            sample_window,
            dest: Dest::Live(live),
        }
    }

    /// The telemetry configuration cells are armed with.
    pub(crate) fn config(&self) -> TelemetryConfig {
        TelemetryConfig::sampling(self.sample_window)
    }

    /// Arms a freshly built cell's system for this sink.
    pub(crate) fn arm(&self, sys: &mut System) {
        sys.set_telemetry(self.config());
        if let Dest::Live(live) = &self.dest {
            sys.set_telemetry_live(live.clone());
        }
    }

    /// Drains a finished cell's telemetry into a file sink (a live sink
    /// already streamed it). Write errors degrade to a warning —
    /// telemetry must never fail a finished simulation.
    pub(crate) fn write_cell(&self, cfg: &SystemConfig, workload: &Workload, sys: &mut System) {
        let Dest::Files(dir) = &self.dest else {
            return;
        };
        let Some(report) = sys.take_telemetry() else {
            return;
        };
        if let Err(e) = write_samples(dir, cfg, workload, &report.samples) {
            eprintln!(
                "[warning: failed to write telemetry for {} × {}: {e}]",
                cfg.design.label(),
                workload.name
            );
        }
    }
}

/// Writes one cell's samples as JSONL to `DIR/<cell_stem>.jsonl`,
/// atomically (tmp → rename); `DIR` is a file sink's `OUT/telemetry/`.
///
/// # Errors
///
/// Propagates the underlying filesystem error; callers treat telemetry
/// persistence as best-effort.
pub fn write_samples(
    dir: &Path,
    cfg: &SystemConfig,
    workload: &Workload,
    samples: &[Sample],
) -> std::io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.jsonl", cell_stem(cfg, workload)));
    let tmp = path.with_extension("jsonl.tmp");
    {
        let mut f = File::create(&tmp)?;
        for s in samples {
            f.write_all(s.to_json_line().as_bytes())?;
            f.write_all(b"\n")?;
        }
        f.sync_all()?;
    }
    fs::rename(&tmp, &path)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bear_core::config::DesignKind;

    #[test]
    fn sink_writes_one_line_per_sample() {
        let dir = std::env::temp_dir().join(format!("bear_telem_sink_{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        let cfg = SystemConfig::paper_baseline(DesignKind::Alloy);
        let workload = bear_workloads::rate_workloads().remove(0);
        let samples = vec![
            Sample {
                window: 0,
                start_cycle: 0,
                end_cycle: 100,
                ..Default::default()
            },
            Sample {
                window: 1,
                start_cycle: 100,
                end_cycle: 200,
                ..Default::default()
            },
        ];
        let path = write_samples(&dir, &cfg, &workload, &samples).expect("write jsonl");
        let text = fs::read_to_string(&path).expect("read back");
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            crate::report::Json::parse(line).expect("each line is valid JSON");
        }
        assert!(path
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .contains("Alloy"));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn window_override_reaches_the_config() {
        let sink = TelemetrySink::new(Path::new("/tmp/x"), Some(1234));
        let TelemetryConfig::On(opts) = sink.config() else {
            panic!("sink config must be On");
        };
        assert_eq!(opts.sample_window, 1234);
        assert!(!opts.trace, "campaign sink is sampling-only");
        assert!(!opts.profile, "campaign sink is sampling-only");
    }
}
