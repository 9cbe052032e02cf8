//! Command-line plumbing and the one campaign driver.
//!
//! Every report-writing binary (`all_experiments`, `ablations`,
//! `loop_speedup`, `scale_demo`) parses its flags with [`parse_args`] and
//! runs its steps through [`run`]:
//!
//! - `--out DIR` (or `--out=DIR`) — after printing its human-readable
//!   tables, write each step's JSON [`Report`] to `DIR/<experiment>.json`,
//!   and checkpoint every finished (config, workload) cell under
//!   `DIR/cells/<experiment>/`.
//! - `--only LIST` — run a comma-separated subset of the binary's steps
//!   (e.g. `--only fig07,table5`); an empty list or an id the binary
//!   does not run fails with a usage message.
//! - `--telemetry` — additionally write one windowed time-series JSONL
//!   file per simulated cell under `DIR/telemetry/` (requires `--out`;
//!   see [`crate::telemetry`]).
//! - `--sample-window N` — telemetry window length in cycles (default
//!   10k; only meaningful with `--telemetry`).
//! - `--metrics-out PATH` — arm a metrics [`Registry`] for the campaign
//!   and write its stable JSON dump (per-cell attributed byte
//!   decomposition, bloat factors) to `PATH` when the run finishes (see
//!   [`crate::metrics`]).
//! - `--scale {1/512,1/64,1/8,1}` — joint capacity/budget preset (see
//!   [`ScalePreset`]): sets the capacity shift and proportionally grows
//!   the cycle budget. Default `1/512`, the historical 2 MB development
//!   scale; `BEAR_SCALE`/`BEAR_WARMUP`/`BEAR_CYCLES` still override the
//!   preset field by field.
//!
//! The environment is read once, when [`CampaignArgs::campaign`] builds
//! the campaign: the plan (`BEAR_QUICK`, `BEAR_WARMUP`, `BEAR_CYCLES`,
//! `BEAR_SCALE`), the worker count (`BEAR_WORKERS`) and the supervision
//! policy; [`run`] adds the chaos plan (`BEAR_CHAOS_SEED`).
//!
//! Report-path notices go to **stderr** so stdout stays byte-identical
//! with and without `--out` (experiment logs are diffed verbatim).

use crate::chaos::Chaos;
use crate::report::Report;
use crate::supervisor::{ManifestHeader, SupervisorConfig};
use crate::telemetry::TelemetrySink;
use crate::{runner, Campaign, RunPlan};
use bear_core::config::ScalePreset;
use bear_telemetry::Registry;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// One campaign step: report id plus the experiment entry point that
/// fills the report.
pub type Step = (&'static str, fn(&Campaign, &mut Report));

/// Arguments of the report-writing binaries (see the module docs).
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
    fn selected(&self, id: &str) -> bool {
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
    /// the environment knobs on top), the worker count and supervision
    /// policy from the environment, the `--telemetry` sink, and a fresh
    /// metrics registry when `--metrics-out` is given.
    ///
    /// # Panics
    ///
    /// Panics when `--telemetry` was given without `--out`.
    pub fn campaign(&self) -> Campaign {
        let mut campaign = Campaign::new(RunPlan::from_env_with(self.scale.unwrap_or_default()));
        campaign.workers = runner::workers_from_env();
        campaign.supervisor = SupervisorConfig::from_env();
        campaign.telemetry = self.telemetry_sink();
        campaign.metrics = self.metrics_out.is_some().then(Registry::new);
        campaign
    }

    /// Dumps the campaign's metrics registry to `--metrics-out`, if both
    /// exist, logging the path (or the failure) to stderr.
    fn write_metrics(&self, campaign: &Campaign) {
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

/// Extracts the flags of the report-writing binaries (see the module
/// docs) from an argument list.
///
/// # Panics
///
/// Panics with a usage message on a flag without its value, an empty
/// `--only` list, or any unrecognized argument, so typos fail loudly
/// instead of silently dropping reports.
///
/// ```
/// use bear_bench::cli::parse_args;
/// let args = parse_args(["--out", "results", "--only=fig07"].iter().map(|s| s.to_string()));
/// assert_eq!(args.out.unwrap().to_str(), Some("results"));
/// assert_eq!(args.only, Some(vec!["fig07".to_string()]));
/// assert_eq!(parse_args(std::iter::empty()).out, None);
/// ```
pub fn parse_args(args: impl Iterator<Item = String>) -> CampaignArgs {
    fn split_only(list: &str) -> Vec<String> {
        let ids: Vec<String> = list
            .split(',')
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect();
        assert!(
            !ids.is_empty(),
            "--only requires a comma-separated experiment list"
        );
        ids
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
        } else if arg == "--only" {
            let list = args
                .next()
                .unwrap_or_else(|| panic!("--only requires a comma-separated experiment list"));
            parsed.only = Some(split_only(&list));
        } else if let Some(list) = arg.strip_prefix("--only=") {
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
            panic!(
                "unrecognized argument `{arg}` (supported: --out DIR, --only LIST, \
                 --telemetry, --sample-window N, --metrics-out PATH, --scale PRESET)"
            );
        }
    }
    parsed
}

/// The campaign driver: builds one campaign from `args` (heartbeat,
/// chaos plan and failure manifest included), runs every step of `steps`
/// that `--only` selects, in order, writes each step's report, and
/// returns the reports.
///
/// Each step runs under [`Campaign::experiment`], so with `--out` its
/// cells checkpoint under `OUT/cells/<id>/` and a rerun resumes from
/// them; its `[<id> done in …]` line goes to stdout. At the end the
/// driver writes the failure manifest (always when chaos is armed), logs
/// the recovery counters and dumps `--metrics-out`.
///
/// # Panics
///
/// Panics with a usage message, before anything runs, when `--only`
/// names an id that is not in `steps`; and as
/// [`CampaignArgs::campaign`].
pub fn run(args: &CampaignArgs, steps: &[Step]) -> Vec<Report> {
    if let Some(only) = &args.only {
        for name in only {
            assert!(
                steps.iter().any(|(id, _)| id == name),
                "unknown experiment `{name}` in --only (known: {})",
                steps
                    .iter()
                    .map(|(id, _)| *id)
                    .collect::<Vec<_>>()
                    .join(", ")
            );
        }
    }
    let t0 = Instant::now();
    let out = args.out.as_deref();
    let mut campaign = args.campaign().with_heartbeat();
    campaign.chaos = Chaos::from_env(out).map(Arc::new);
    let header = ManifestHeader {
        chaos_seed: campaign.chaos.as_ref().map(|c| c.seed()),
        max_retries: campaign.supervisor.max_retries,
    };
    let campaign = campaign.with_manifest_dir(out, header);
    let mut reports = Vec::new();
    for &(name, f) in steps {
        if !args.selected(name) {
            continue;
        }
        let t = Instant::now();
        let step = campaign.experiment(name, out);
        let mut report = Report::new(name);
        f(&step, &mut report);
        write_report(&step, &mut report, out);
        println!(
            "[{name} done in {:.1}s, total {:.1}s]\n",
            t.elapsed().as_secs_f64(),
            t0.elapsed().as_secs_f64()
        );
        reports.push(report);
    }
    // With chaos armed the manifest must exist even when every fault was
    // dodged (the chaos driver reads it unconditionally); an unarmed
    // campaign only writes it when something actually happened, so a
    // clean campaign's output stays byte-for-byte what it always was.
    if let (Some(out), Some(_)) = (out, &campaign.chaos) {
        campaign
            .write_manifest(out, header)
            .expect("writing failures.json");
    }
    if let Some(report) = campaign.profile_report() {
        eprintln!("[{report}]");
    }
    args.write_metrics(&campaign);
    reports
}

/// Folds the cell failures `campaign` recorded for the current experiment
/// into `report`, tags the placeholder rows those failures degraded
/// (graceful degradation stays visible row-by-row), then writes the
/// report to `out` (if any), logging the path to stderr.
fn write_report(campaign: &Campaign, report: &mut Report, out: Option<&Path>) {
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
            parse_args(args(&["--out", "a/b"])).out,
            Some(PathBuf::from("a/b"))
        );
        assert_eq!(parse_args(args(&["--out=c"])).out, Some(PathBuf::from("c")));
        assert_eq!(parse_args(args(&[])).out, None);
    }

    #[test]
    #[should_panic(expected = "unrecognized argument")]
    fn rejects_unknown_flags() {
        parse_args(args(&["--bogus"]));
    }

    #[test]
    #[should_panic(expected = "--out requires")]
    fn rejects_dangling_out() {
        parse_args(args(&["--out"]));
    }

    #[test]
    fn campaign_args_parse_out_and_only() {
        let a = parse_args(args(&["--out", "r", "--only", "fig07,table5"]));
        assert_eq!(a.out, Some(PathBuf::from("r")));
        assert_eq!(
            a.only,
            Some(vec!["fig07".to_string(), "table5".to_string()])
        );
        assert!(a.selected("fig07"));
        assert!(!a.selected("fig03"));
        let b = parse_args(args(&["--only=fig03,"]));
        assert_eq!(b.only, Some(vec!["fig03".to_string()]));
        let all = parse_args(args(&[]));
        assert!(all.selected("anything"));
    }

    #[test]
    fn telemetry_flags_parse_in_both_forms() {
        let a = parse_args(args(&["--out=r", "--telemetry", "--sample-window", "5000"]));
        assert!(a.telemetry);
        assert_eq!(a.sample_window, Some(5000));
        let sink = a.telemetry_sink().expect("sink requested");
        let bear_telemetry::TelemetryConfig::On(opts) = sink.config() else {
            panic!("sink config must be On");
        };
        assert_eq!(opts.sample_window, 5000);
        let b = parse_args(args(&["--sample-window=250"]));
        assert_eq!(b.sample_window, Some(250));
        assert!(!b.telemetry);
        assert!(b.telemetry_sink().is_none(), "window alone arms nothing");
    }

    #[test]
    fn metrics_out_parses_in_both_forms() {
        let a = parse_args(args(&["--metrics-out", "m.json"]));
        assert_eq!(a.metrics_out, Some(PathBuf::from("m.json")));
        let b = parse_args(args(&["--out=r", "--metrics-out=dir/m.json"]));
        assert_eq!(b.metrics_out, Some(PathBuf::from("dir/m.json")));
        assert!(parse_args(args(&[])).metrics_out.is_none());
    }

    #[test]
    fn scale_parses_in_both_forms() {
        let a = parse_args(args(&["--scale", "1/64"]));
        assert_eq!(a.scale, Some(ScalePreset::Half64));
        let b = parse_args(args(&["--scale=1"]));
        assert_eq!(b.scale, Some(ScalePreset::Full));
        assert_eq!(parse_args(args(&[])).scale, None);
    }

    #[test]
    #[should_panic(expected = "--scale")]
    fn unknown_scale_preset_is_rejected() {
        parse_args(args(&["--scale", "1/2"]));
    }

    #[test]
    #[should_panic(expected = "--scale requires")]
    fn rejects_dangling_scale() {
        parse_args(args(&["--scale"]));
    }

    #[test]
    #[should_panic(expected = "--metrics-out requires")]
    fn rejects_dangling_metrics_out() {
        parse_args(args(&["--metrics-out"]));
    }

    #[test]
    #[should_panic(expected = "--telemetry requires --out")]
    fn telemetry_without_out_is_rejected() {
        parse_args(args(&["--telemetry"])).telemetry_sink();
    }

    #[test]
    #[should_panic(expected = "--sample-window must be an integer")]
    fn malformed_sample_window_is_rejected() {
        parse_args(args(&["--sample-window", "soon"]));
    }

    #[test]
    #[should_panic(expected = "--sample-window must be positive")]
    fn zero_sample_window_is_rejected() {
        parse_args(args(&["--sample-window=0"]));
    }

    #[test]
    #[should_panic(expected = "--only requires")]
    fn rejects_dangling_only() {
        parse_args(args(&["--only"]));
    }

    #[test]
    #[should_panic(expected = "--only requires")]
    fn rejects_empty_only() {
        parse_args(args(&["--only="]));
    }

    #[test]
    #[should_panic(expected = "--only requires")]
    fn rejects_only_of_separators() {
        parse_args(args(&["--only", ","]));
    }

    #[test]
    #[should_panic(expected = "unrecognized argument `--bench-json`")]
    fn campaign_rejects_unknown_flags() {
        // A flag one binary strips off itself is unknown to the shared
        // parser.
        parse_args(args(&["--bench-json", "b.json"]));
    }

    fn noop(_: &Campaign, report: &mut Report) {
        report.add_scalar("ran", 1.0);
    }

    #[test]
    #[should_panic(expected = "unknown experiment `fig99` in --only (known: fig03, fig07)")]
    fn driver_rejects_unknown_ids() {
        run(
            &parse_args(args(&["--only", "fig07,fig99"])),
            &[("fig03", noop), ("fig07", noop)],
        );
    }

    #[test]
    #[should_panic(expected = "unknown experiment `fig07`")]
    fn single_step_binaries_reject_other_ids() {
        // `ablations --only fig07`: each binary checks --only against its
        // own steps.
        run(&parse_args(args(&["--only=fig07"])), &[("ablations", noop)]);
    }

    #[test]
    fn driver_runs_the_selected_steps_in_step_order() {
        let steps: [Step; 3] = [("a", noop), ("b", noop), ("c", noop)];
        let ids = |reports: Vec<Report>| -> Vec<String> {
            reports.into_iter().map(|r| r.experiment).collect()
        };
        assert_eq!(
            ids(run(&parse_args(args(&["--only=c,a"])), &steps)),
            ["a", "c"]
        );
        assert_eq!(ids(run(&CampaignArgs::default(), &steps)), ["a", "b", "c"]);
    }
}
