//! Shared command-line plumbing for the experiment binaries.
//!
//! Every binary accepts the same flags:
//!
//! - `--out DIR` (or `--out=DIR`) — after printing its human-readable
//!   tables, write the experiment's JSON [`Report`](crate::report::Report)
//!   to `DIR/<experiment>.json`.
//! - `--telemetry` — additionally write one windowed time-series JSONL
//!   file per simulated cell under `DIR/telemetry/` (requires `--out`;
//!   see [`crate::telemetry`]).
//! - `--sample-window N` — telemetry window length in cycles (default
//!   10k; only meaningful with `--telemetry`).
//! - `--metrics-out PATH` — arm a metrics
//!   [`Registry`](bear_telemetry::Registry) for the campaign and write
//!   its stable JSON dump (per-cell attributed byte decomposition, bloat
//!   factors) to `PATH` when the run finishes (see [`crate::metrics`]).
//! - `--scale {1/512,1/64,1/8,1}` — joint capacity/budget preset (see
//!   [`ScalePreset`]): sets the capacity shift and proportionally grows
//!   the cycle budget. Default `1/512`, the historical 2 MB development
//!   scale; `BEAR_SCALE`/`BEAR_WARMUP`/`BEAR_CYCLES` still override the
//!   preset field by field.
//!
//! Report-path notices go to **stderr** so stdout stays byte-identical
//! with and without `--out` (experiment logs are diffed verbatim).

use crate::report::Report;
use crate::supervisor::SupervisorConfig;
use crate::telemetry::TelemetrySink;
use crate::{Campaign, RunPlan};
use bear_core::config::ScalePreset;
use bear_telemetry::Registry;
use std::path::{Path, PathBuf};

/// Extracts `--out DIR` / `--out=DIR` from an argument list.
///
/// # Panics
///
/// Panics (with a usage message) on `--out` without a value or on any
/// unrecognized argument, so typos fail loudly instead of silently
/// dropping reports.
///
/// ```
/// use bear_bench::cli::parse_out_dir;
/// let out = parse_out_dir(["--out", "results"].iter().map(|s| s.to_string()));
/// assert_eq!(out.unwrap().to_str(), Some("results"));
/// assert_eq!(parse_out_dir(std::iter::empty()), None);
/// ```
pub fn parse_out_dir(args: impl Iterator<Item = String>) -> Option<PathBuf> {
    let mut out = None;
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        if arg == "--out" {
            let dir = args
                .next()
                .unwrap_or_else(|| panic!("--out requires a directory argument"));
            out = Some(PathBuf::from(dir));
        } else if let Some(dir) = arg.strip_prefix("--out=") {
            out = Some(PathBuf::from(dir));
        } else {
            panic!("unrecognized argument `{arg}` (supported: --out DIR)");
        }
    }
    out
}

/// Arguments of the experiment binaries: the shared `--out DIR`,
/// telemetry switches, and (campaign driver only) `--only LIST`
/// (comma-separated experiment ids) to rerun a subset of steps.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct CampaignArgs {
    /// Report/checkpoint directory (`--out`).
    pub out: Option<PathBuf>,
    /// Experiment ids to run (`--only`); `None` runs everything.
    pub only: Option<Vec<String>>,
    /// Collect windowed telemetry for every simulated cell
    /// (`--telemetry`; requires `--out`).
    pub telemetry: bool,
    /// Telemetry window override in cycles (`--sample-window N`).
    pub sample_window: Option<u64>,
    /// Write the final metrics-registry dump here (`--metrics-out PATH`).
    pub metrics_out: Option<PathBuf>,
    /// Joint capacity/budget preset (`--scale`); `None` keeps the
    /// default [`ScalePreset::Half512`].
    pub scale: Option<ScalePreset>,
}

impl CampaignArgs {
    /// Whether the experiment named `id` is selected.
    pub fn selected(&self, id: &str) -> bool {
        self.only
            .as_ref()
            .is_none_or(|names| names.iter().any(|n| n == id))
    }

    /// The telemetry sink these arguments request, or `None` without
    /// `--telemetry`.
    ///
    /// # Panics
    ///
    /// Panics when `--telemetry` was given without `--out` — the samples
    /// need a directory to land in.
    fn telemetry_sink(&self) -> Option<TelemetrySink> {
        if !self.telemetry {
            return None;
        }
        let out = self.out.as_deref().unwrap_or_else(|| {
            panic!("--telemetry requires --out DIR (samples land in DIR/telemetry/)")
        });
        Some(TelemetrySink::new(out, self.sample_window))
    }

    /// The campaign these arguments describe: the `--scale` plan (with
    /// the environment knobs on top), the supervision policy from the
    /// environment, the `--telemetry` sink, and a fresh metrics registry
    /// when `--metrics-out` is given.
    ///
    /// # Panics
    ///
    /// As [`CampaignArgs::telemetry_sink`].
    pub fn campaign(&self) -> Campaign {
        let mut campaign = Campaign::new(RunPlan::from_env_with(self.scale.unwrap_or_default()));
        campaign.supervisor = SupervisorConfig::from_env();
        campaign.telemetry = self.telemetry_sink();
        campaign.metrics = self.metrics_out.is_some().then(Registry::new);
        campaign
    }

    /// Dumps the campaign's metrics registry to `--metrics-out`, if both
    /// exist, logging the path (or the failure) to stderr.
    pub fn write_metrics(&self, campaign: &Campaign) {
        let (Some(path), Some(reg)) = (self.metrics_out.as_deref(), &campaign.metrics) else {
            return;
        };
        match crate::metrics::write(reg, path) {
            Ok(p) => eprintln!("[metrics: {}]", p.display()),
            Err(e) => eprintln!(
                "[warning: failed to write metrics to {}: {e}]",
                path.display()
            ),
        }
    }
}

/// Shared flag loop behind [`parse_out_dir`]-style parsing: `--only` is
/// accepted only for the campaign driver.
fn parse_flags(
    args: impl Iterator<Item = String>,
    allow_only: bool,
    supported: &str,
) -> CampaignArgs {
    fn split_only(list: &str) -> Vec<String> {
        list.split(',')
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect()
    }
    fn parse_window(v: &str) -> u64 {
        let n: u64 = v
            .parse()
            .unwrap_or_else(|_| panic!("--sample-window must be an integer (cycles), got `{v}`"));
        assert!(n > 0, "--sample-window must be positive");
        n
    }
    fn parse_scale(v: &str) -> ScalePreset {
        ScalePreset::parse(v).unwrap_or_else(|e| panic!("{e}"))
    }
    let mut parsed = CampaignArgs::default();
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        if arg == "--out" {
            let dir = args
                .next()
                .unwrap_or_else(|| panic!("--out requires a directory argument"));
            parsed.out = Some(PathBuf::from(dir));
        } else if let Some(dir) = arg.strip_prefix("--out=") {
            parsed.out = Some(PathBuf::from(dir));
        } else if allow_only && arg == "--only" {
            let list = args
                .next()
                .unwrap_or_else(|| panic!("--only requires a comma-separated experiment list"));
            parsed.only = Some(split_only(&list));
        } else if let Some(list) = arg.strip_prefix("--only=").filter(|_| allow_only) {
            parsed.only = Some(split_only(list));
        } else if arg == "--telemetry" {
            parsed.telemetry = true;
        } else if arg == "--sample-window" {
            let v = args
                .next()
                .unwrap_or_else(|| panic!("--sample-window requires a cycle count"));
            parsed.sample_window = Some(parse_window(&v));
        } else if let Some(v) = arg.strip_prefix("--sample-window=") {
            parsed.sample_window = Some(parse_window(v));
        } else if arg == "--metrics-out" {
            let path = args
                .next()
                .unwrap_or_else(|| panic!("--metrics-out requires a file path"));
            parsed.metrics_out = Some(PathBuf::from(path));
        } else if let Some(path) = arg.strip_prefix("--metrics-out=") {
            parsed.metrics_out = Some(PathBuf::from(path));
        } else if arg == "--scale" {
            let v = args
                .next()
                .unwrap_or_else(|| panic!("--scale requires a preset (1/512, 1/64, 1/8, or 1)"));
            parsed.scale = Some(parse_scale(&v));
        } else if let Some(v) = arg.strip_prefix("--scale=") {
            parsed.scale = Some(parse_scale(v));
        } else {
            panic!("unrecognized argument `{arg}` (supported: {supported})");
        }
    }
    parsed
}

/// Extracts the single-binary flags (`--out DIR`, `--telemetry`,
/// `--sample-window N`, `--metrics-out PATH`, `--scale PRESET`) from an
/// argument list.
///
/// # Panics
///
/// Panics (with a usage message) on a flag without its value or on any
/// unrecognized argument, matching [`parse_out_dir`]'s behavior.
pub fn parse_single_args(args: impl Iterator<Item = String>) -> CampaignArgs {
    parse_flags(
        args,
        false,
        "--out DIR, --telemetry, --sample-window N, --metrics-out PATH, --scale PRESET",
    )
}

/// Extracts the campaign-driver flags (`--out DIR`, `--only LIST`,
/// `--telemetry`, `--sample-window N`, `--metrics-out PATH`,
/// `--scale PRESET`) from an argument list.
///
/// # Panics
///
/// Panics (with a usage message) on a flag without its value or on any
/// unrecognized argument, matching [`parse_out_dir`]'s behavior.
pub fn parse_campaign_args(args: impl Iterator<Item = String>) -> CampaignArgs {
    parse_flags(
        args,
        true,
        "--out DIR, --only LIST, --telemetry, --sample-window N, --metrics-out PATH, --scale PRESET",
    )
}

/// Entry point for a single-experiment binary: builds the campaign from
/// the arguments and the environment, runs `f`, and honors `--out DIR` /
/// `--telemetry` / `--metrics-out`.
pub fn run_single(experiment: &str, f: fn(&Campaign, &mut Report)) {
    run_single_with(experiment, parse_single_args(std::env::args().skip(1)), f);
}

/// [`run_single`] with pre-parsed arguments; returns the finished report
/// so wrapper binaries (e.g. `loop_speedup`'s `BENCH_core.json` emitter)
/// can derive further artifacts from its rows and scalars.
pub fn run_single_with(
    experiment: &str,
    args: CampaignArgs,
    f: fn(&Campaign, &mut Report),
) -> Report {
    let campaign = args.campaign();
    let mut report = Report::new(experiment);
    f(&campaign, &mut report);
    write_report(&campaign, &mut report, args.out.as_deref());
    args.write_metrics(&campaign);
    report
}

/// Folds the cell failures `campaign` recorded for the current experiment
/// into `report`, tags the placeholder rows those failures degraded
/// (graceful degradation stays visible row-by-row), then writes the
/// report to `out` (if any), logging the path to stderr.
pub fn write_report(campaign: &Campaign, report: &mut Report, out: Option<&Path>) {
    for failure in campaign.failures() {
        report.add_failure(failure);
    }
    report.mark_degraded_rows();
    if !report.failures.is_empty() {
        eprintln!(
            "[{}: {} cell(s) FAILED — see the report's \"failures\" section]",
            report.experiment,
            report.failures.len()
        );
    }
    if let Some(dir) = out {
        let path = report
            .write(dir, &campaign.plan)
            .unwrap_or_else(|e| panic!("writing report to {}: {e}", dir.display()));
        eprintln!("[report: {}]", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args<'a>(v: &'a [&'a str]) -> impl Iterator<Item = String> + 'a {
        v.iter().map(|s| s.to_string())
    }

    #[test]
    fn parses_both_out_forms() {
        assert_eq!(
            parse_out_dir(args(&["--out", "a/b"])),
            Some(PathBuf::from("a/b"))
        );
        assert_eq!(parse_out_dir(args(&["--out=c"])), Some(PathBuf::from("c")));
        assert_eq!(parse_out_dir(args(&[])), None);
    }

    #[test]
    #[should_panic(expected = "unrecognized argument")]
    fn rejects_unknown_flags() {
        parse_out_dir(args(&["--bogus"]));
    }

    #[test]
    #[should_panic(expected = "--out requires")]
    fn rejects_dangling_out() {
        parse_out_dir(args(&["--out"]));
    }

    #[test]
    fn campaign_args_parse_out_and_only() {
        let a = parse_campaign_args(args(&["--out", "r", "--only", "fig07,table5"]));
        assert_eq!(a.out, Some(PathBuf::from("r")));
        assert_eq!(
            a.only,
            Some(vec!["fig07".to_string(), "table5".to_string()])
        );
        assert!(a.selected("fig07"));
        assert!(!a.selected("fig03"));
        let b = parse_campaign_args(args(&["--only=fig03"]));
        assert_eq!(b.only, Some(vec!["fig03".to_string()]));
        let all = parse_campaign_args(args(&[]));
        assert!(all.selected("anything"));
    }

    #[test]
    fn telemetry_flags_parse_in_both_forms() {
        let a = parse_campaign_args(args(&["--out=r", "--telemetry", "--sample-window", "5000"]));
        assert!(a.telemetry);
        assert_eq!(a.sample_window, Some(5000));
        let sink = a.telemetry_sink().expect("sink requested");
        let bear_telemetry::TelemetryConfig::On(opts) = sink.config() else {
            panic!("sink config must be On");
        };
        assert_eq!(opts.sample_window, 5000);
        let b = parse_single_args(args(&["--sample-window=250"]));
        assert_eq!(b.sample_window, Some(250));
        assert!(!b.telemetry);
        assert!(b.telemetry_sink().is_none(), "window alone arms nothing");
    }

    #[test]
    fn metrics_out_parses_in_both_forms() {
        let a = parse_single_args(args(&["--metrics-out", "m.json"]));
        assert_eq!(a.metrics_out, Some(PathBuf::from("m.json")));
        let b = parse_campaign_args(args(&["--out=r", "--metrics-out=dir/m.json"]));
        assert_eq!(b.metrics_out, Some(PathBuf::from("dir/m.json")));
        assert!(parse_single_args(args(&[])).metrics_out.is_none());
    }

    #[test]
    fn scale_parses_in_both_forms() {
        let a = parse_single_args(args(&["--scale", "1/64"]));
        assert_eq!(a.scale, Some(ScalePreset::Half64));
        let b = parse_campaign_args(args(&["--scale=1"]));
        assert_eq!(b.scale, Some(ScalePreset::Full));
        assert_eq!(parse_single_args(args(&[])).scale, None);
    }

    #[test]
    #[should_panic(expected = "--scale")]
    fn unknown_scale_preset_is_rejected() {
        parse_single_args(args(&["--scale", "1/2"]));
    }

    #[test]
    #[should_panic(expected = "--scale requires")]
    fn rejects_dangling_scale() {
        parse_single_args(args(&["--scale"]));
    }

    #[test]
    #[should_panic(expected = "--metrics-out requires")]
    fn rejects_dangling_metrics_out() {
        parse_single_args(args(&["--metrics-out"]));
    }

    #[test]
    #[should_panic(expected = "--telemetry requires --out")]
    fn telemetry_without_out_is_rejected() {
        parse_single_args(args(&["--telemetry"])).telemetry_sink();
    }

    #[test]
    #[should_panic(expected = "--sample-window must be an integer")]
    fn malformed_sample_window_is_rejected() {
        parse_single_args(args(&["--sample-window", "soon"]));
    }

    #[test]
    #[should_panic(expected = "--sample-window must be positive")]
    fn zero_sample_window_is_rejected() {
        parse_single_args(args(&["--sample-window=0"]));
    }

    #[test]
    #[should_panic(expected = "unrecognized argument")]
    fn single_binaries_reject_only() {
        parse_single_args(args(&["--only=fig03"]));
    }

    #[test]
    #[should_panic(expected = "--only requires")]
    fn rejects_dangling_only() {
        parse_campaign_args(args(&["--only"]));
    }

    #[test]
    #[should_panic(expected = "unrecognized argument")]
    fn campaign_rejects_unknown_flags() {
        parse_campaign_args(args(&["--bogus"]));
    }
}
