//! `benchmark compare --parent RUN... --change RUN...`: judges a change
//! against its parent from saved run outputs (the stdout of one benchmark
//! run per file), one row per workload and one verdict per end-to-end
//! metric, by the rule of the `choosing-metrics` guide (section 8).

use crate::registry::{Better, Metric, END_TO_END, WORKLOADS};
use crate::stats::{quartiles, spread};
use bear_bench::report::Json;
use std::fmt::Write as _;
use std::process::ExitCode;

/// Pairs needed before a gain can be claimed.
const MIN_PAIRS: usize = 10;

/// What one run file reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// Workload the run measured.
    pub workload: String,
    /// Whether every check passed.
    pub correct: bool,
    /// Samples attempted.
    pub attempted: u64,
    /// Samples failed.
    pub failed: u64,
    /// End-to-end metric values, in `END_TO_END` order.
    pub values: Vec<f64>,
}

impl Run {
    /// Parses the stdout of one `--trace 0` benchmark run: the detail line
    /// names the workload, the last line carries the result.
    ///
    /// # Errors
    ///
    /// Malformed JSON, or a missing workload, result or metric.
    pub fn parse(text: &str) -> Result<Run, String> {
        let mut workload = None;
        let mut result = None;
        for line in text.lines().map(str::trim).filter(|l| l.starts_with('{')) {
            let v = Json::parse(line)?;
            if let Some(w) = v.get("workload").and_then(Json::as_str) {
                workload = Some(w.to_string());
            }
            if v.get("metrics").is_some() {
                result = Some(v);
            }
        }
        let workload = workload.ok_or("no detail line naming the workload")?;
        let result = result.ok_or("no result line")?;
        let field = |k: &str| result.get(k).ok_or(format!("result line lacks {k:?}"));
        let correct = matches!(field("correct")?, Json::Bool(true));
        let count = |k: &str| {
            field(k)?
                .as_u64()
                .ok_or(format!("{k:?} is not a whole number"))
        };
        let metrics = field("metrics")?;
        let values = END_TO_END
            .iter()
            .map(|m| {
                metrics
                    .get(m.name)
                    .and_then(|v| v.get("value"))
                    .and_then(Json::as_f64)
                    .ok_or(format!("no {} value (is this a --trace 1 run?)", m.name))
            })
            .collect::<Result<_, _>>()?;
        Ok(Run {
            workload,
            correct,
            attempted: count("attempted")?,
            failed: count("failed")?,
            values,
        })
    }
}

/// The verdict on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Wins at least 9 of 10 pairs (10 pairs at least) and the medians
    /// differ by more than the parent's interquartile range.
    Improved,
    /// Neither better nor worse beyond the metric's bound.
    Unchanged,
    /// The change's median is worse than the parent's by more than the
    /// bound.
    Regressed,
    /// The run-to-run spread exceeds the bound, and not every change run
    /// beats every parent run.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `change` runs against `parent` runs of one metric. Pairs are
/// matched by position, so list the files in the order they alternated.
pub fn judge(better: Better, bound: f64, parent: &[f64], change: &[f64]) -> Verdict {
    let s = better.sign();
    let [p1, pm, p3] = quartiles(parent);
    let cm = quartiles(change)[1];
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(&p, &c)| s * (c - p) > 0.0)
        .count();
    let gain = s * (cm - pm);
    let all_better = change
        .iter()
        .all(|&c| parent.iter().all(|&p| s * (c - p) > 0.0));
    if pairs >= MIN_PAIRS && wins * 10 >= pairs * 9 && gain > p3 - p1 {
        Verdict::Improved
    } else if gain < -bound * pm.abs() {
        Verdict::Regressed
    } else if spread(parent).max(spread(change)) > bound && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

/// Share of failed samples over `runs`.
fn fail_share(runs: &[Run]) -> f64 {
    let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
    let failed: u64 = runs.iter().map(|r| r.failed).sum();
    failed as f64 / attempted.max(1) as f64
}

/// Compares the runs workload by workload. Returns the printed report and
/// whether the change is acceptable: no metric regressed, no change run
/// failed a check, and no larger share of samples failed.
///
/// # Errors
///
/// A workload present on only one side, or one the registry lacks.
pub fn compare(parent: &[Run], change: &[Run]) -> Result<(String, bool), String> {
    for r in parent.iter().chain(change) {
        if !WORKLOADS.iter().any(|w| w.name == r.workload) {
            return Err(format!("unknown workload {:?}", r.workload));
        }
    }
    let mut table = format!("{:<14}", "workload");
    for m in &END_TO_END {
        let _ = write!(table, " {:<18}", m.name);
    }
    table.push_str(" failures\n");
    let mut details = String::new();
    let mut ok = true;
    for w in &WORKLOADS {
        let pick = |all: &[Run]| -> Vec<Run> {
            all.iter()
                .filter(|r| r.workload == w.name)
                .cloned()
                .collect()
        };
        let (p, c) = (pick(parent), pick(change));
        match (p.is_empty(), c.is_empty()) {
            (true, true) => continue,
            (false, false) => {}
            _ => return Err(format!("{}: runs on one side only", w.name)),
        }
        let _ = write!(table, "{:<14}", w.name);
        for (k, m) in END_TO_END.iter().enumerate() {
            let pv: Vec<f64> = p.iter().map(|r| r.values[k]).collect();
            let cv: Vec<f64> = c.iter().map(|r| r.values[k]).collect();
            let v = judge(m.better, bound(m), &pv, &cv);
            ok &= v != Verdict::Regressed;
            let _ = write!(table, " {:<18}", v.label());
            let _ = writeln!(
                details,
                "{} {} ({} is better): parent {} | change {} | {}",
                w.name,
                m.name,
                m.better.label(),
                summary(&pv),
                summary(&cv),
                v.label()
            );
        }
        let (pf, cf) = (fail_share(&p), fail_share(&c));
        let incorrect = c.iter().filter(|r| !r.correct).count();
        let failures = if cf > pf || incorrect > 0 {
            ok = false;
            format!("REJECTED (fail share {pf:.4} -> {cf:.4}, {incorrect} incorrect runs)")
        } else {
            format!("ok (fail share {pf:.4} -> {cf:.4})")
        };
        let _ = writeln!(table, " {failures}");
    }
    Ok((format!("{table}\n{details}"), ok))
}

fn bound(m: &Metric) -> f64 {
    m.bound.expect("end-to-end metrics carry a bound")
}

fn summary(v: &[f64]) -> String {
    let [q1, med, q3] = quartiles(v);
    format!("median {med:.6} [q1 {q1:.6}, q3 {q3:.6}] n={}", v.len())
}

/// Entry point of the `compare` subcommand (`args` follow `compare`).
pub fn main(args: &[String]) -> ExitCode {
    let mut parent = Vec::new();
    let mut change = Vec::new();
    let mut side: Option<&mut Vec<String>> = None;
    for a in args {
        match a.as_str() {
            "--parent" => side = Some(&mut parent),
            "--change" => side = Some(&mut change),
            path => match side.as_deref_mut() {
                Some(files) => files.push(path.to_string()),
                None => return usage(&format!("unexpected argument {path:?}")),
            },
        }
    }
    if parent.is_empty() || change.is_empty() {
        return usage("both --parent and --change need at least one run file");
    }
    let load = |files: &[String]| -> Result<Vec<Run>, String> {
        files
            .iter()
            .map(|f| {
                let text = std::fs::read_to_string(f).map_err(|e| format!("{f}: {e}"))?;
                Run::parse(&text).map_err(|e| format!("{f}: {e}"))
            })
            .collect()
    };
    let result = load(&parent).and_then(|p| compare(&p, &load(&change)?));
    match result {
        Ok((report, ok)) => {
            print!("{report}");
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("benchmark compare: {e}");
            ExitCode::from(2)
        }
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("benchmark compare: {msg}\nusage: benchmark compare --parent RUN... --change RUN...");
    ExitCode::from(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(workload: &str, mcycles: f64, failed: u64) -> Run {
        Run {
            workload: workload.into(),
            correct: true,
            attempted: 10,
            failed,
            values: vec![mcycles, 0.001, 100.0],
        }
    }

    #[test]
    fn ten_clear_wins_are_an_improvement() {
        let parent: Vec<f64> = (0..10).map(|i| 5.0 + 0.01 * i as f64).collect();
        let change: Vec<f64> = parent.iter().map(|p| p * 1.08).collect();
        assert_eq!(
            judge(Better::Higher, 0.1, &parent, &change),
            Verdict::Improved
        );
        // The same gap on a lower-is-better metric is a loss, but within
        // the bound.
        assert_eq!(
            judge(Better::Lower, 0.1, &parent, &change),
            Verdict::Unchanged
        );
        // Nine pairs are too few to claim anything.
        assert_eq!(
            judge(Better::Higher, 0.1, &parent[..9], &change[..9]),
            Verdict::Unchanged
        );
    }

    #[test]
    fn a_tie_is_unchanged_and_a_large_loss_regressed() {
        let parent = [5.0, 5.1, 4.9, 5.0, 5.05, 4.95, 5.0, 5.02, 4.98, 5.0];
        assert_eq!(
            judge(Better::Higher, 0.1, &parent, &parent),
            Verdict::Unchanged
        );
        let slow: Vec<f64> = parent.iter().map(|p| p * 0.85).collect();
        assert_eq!(
            judge(Better::Higher, 0.1, &parent, &slow),
            Verdict::Regressed
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_wins() {
        let parent = [4.0, 6.0, 4.0, 6.0, 5.0, 4.0, 6.0, 5.0, 4.0, 6.0];
        let change = [6.0, 4.0, 6.0, 4.0, 5.0, 6.0, 4.0, 5.0, 6.0, 4.0];
        assert_eq!(
            judge(Better::Higher, 0.1, &parent, &change),
            Verdict::Unresolved
        );
        let all_above: Vec<f64> = parent.iter().map(|_| 6.5).collect();
        assert_ne!(
            judge(Better::Higher, 0.1, &parent, &all_above),
            Verdict::Unresolved
        );
    }

    #[test]
    fn any_rise_in_failed_samples_rejects() {
        let parent = vec![run("dev_grid", 5.0, 0), run("dev_grid", 5.0, 0)];
        let (_, ok) = compare(&parent, &parent).expect("compares");
        assert!(ok);
        let change = vec![run("dev_grid", 5.0, 0), run("dev_grid", 5.0, 1)];
        let (report, ok) = compare(&parent, &change).expect("compares");
        assert!(!ok, "{report}");
        assert!(report.contains("REJECTED"), "{report}");
        assert!(compare(&parent, &[run("giga_mcf", 5.0, 0)]).is_err());
    }

    #[test]
    fn parses_a_run_output() {
        let text = "{\"benchmark\":\"bear\",\"workload\":\"giga_mcf\",\"digest\":\"00\"}\n\
                    {\"correct\":true,\"attempted\":5,\"failed\":0,\"metrics\":{\
                    \"sim_mcycles_per_s\":{\"value\":4.5,\"unit\":\"Mcycles/s\"},\
                    \"setup_s\":{\"value\":0.001,\"unit\":\"s\"},\
                    \"peak_rss_mb\":{\"value\":132.5,\"unit\":\"MB\"}}}\n";
        let r = Run::parse(text).expect("parses");
        assert_eq!(r.workload, "giga_mcf");
        assert_eq!(r.values, vec![4.5, 0.001, 132.5]);
        assert_eq!((r.attempted, r.failed, r.correct), (5, 0, true));
        assert!(Run::parse("{\"workload\":\"giga_mcf\"}").is_err());
    }
}
