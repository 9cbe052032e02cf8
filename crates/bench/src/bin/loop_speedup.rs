//! Measures the wall-clock speedup of the event-driven run loop over
//! per-cycle polling on the campaign smoke grid, asserting bit-identical
//! results between the modes. Runs through the campaign driver with the
//! standard flags (`--out DIR` also writes a JSON report).
//!
//! `--bench-json PATH` additionally writes a compact machine-readable
//! benchmark summary (the repo-root `BENCH_core.json` emitted by
//! `scripts/verify.sh`): the git revision it measured, the headline gmean
//! speedup, and per-cell wall-clock times in both modes, the event-driven
//! run's absolute Mcycles/s, elided share and DRAM host-work counters,
//! derived from the report's scalars.

use bear_bench::cli;
use bear_bench::experiments::loop_speedup;
use bear_bench::report::{Json, Report};
use std::path::{Path, PathBuf};
use std::process::Command;

/// Splits `--bench-json PATH` (space or `=` form) out of the argument
/// list, leaving the rest for the standard parser.
fn split_local_flags(args: Vec<String>) -> (Option<PathBuf>, Vec<String>) {
    let mut path = None;
    let mut rest = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if a == "--bench-json" {
            let v = it
                .next()
                .unwrap_or_else(|| panic!("--bench-json requires a file path"));
            path = Some(PathBuf::from(v));
        } else if let Some(v) = a.strip_prefix("--bench-json=") {
            path = Some(PathBuf::from(v));
        } else {
            rest.push(a);
        }
    }
    (path, rest)
}

/// Per-cell event-mode fields copied from the report's scalars: absolute
/// simulated Mcycles/s (best and median sample) and the DRAM host-work
/// counters.
const EVENT_FIELDS: [&str; 9] = [
    "event_mcps_best",
    "event_mcps_median",
    "elided_frac",
    "dram_channel_ticks",
    "dram_noop_ticks",
    "dram_commands",
    "dram_previews",
    "dram_entries_scanned",
    "dram_replayed_ticks",
];

/// The revision `git rev-parse HEAD` names in `dir`, or `"unknown"` when
/// git or the repository is absent.
fn git_revision(dir: &Path) -> String {
    let out = Command::new("git")
        .arg("-C")
        .arg(dir)
        .args(["rev-parse", "HEAD"])
        .output();
    let rev = out.ok().filter(|o| o.status.success()).map(|o| o.stdout);
    let rev = String::from_utf8(rev.unwrap_or_default()).unwrap_or_default();
    match rev.trim() {
        "" => "unknown".into(),
        rev => rev.into(),
    }
}

/// Builds the benchmark summary document from the finished report: the
/// measured `commit` first, `speedup_gmean`, then one entry per cell with
/// its raw poll/event wall times (ns), the resulting speedup, and the
/// [`EVENT_FIELDS`].
fn bench_json(report: &Report, commit: &str) -> Json {
    let scalar = |key: &str| {
        report
            .scalars
            .iter()
            .find(|(k, _)| k == key)
            .map(|&(_, v)| v)
    };
    let mut cells = Vec::new();
    for (key, poll_ns) in &report.scalars {
        let Some(cell) = key.strip_prefix("poll_ns:") else {
            continue;
        };
        let event_ns = scalar(&format!("event_ns:{cell}")).unwrap_or(0.0);
        let mut fields = vec![
            ("cell".into(), Json::Str(cell.to_string())),
            ("poll_ns".into(), Json::Num(*poll_ns)),
            ("event_ns".into(), Json::Num(event_ns)),
            (
                "speedup".into(),
                Json::Num(if event_ns > 0.0 {
                    poll_ns / event_ns
                } else {
                    0.0
                }),
            ),
        ];
        for name in EVENT_FIELDS {
            if let Some(v) = scalar(&format!("{name}:{cell}")) {
                fields.push((name.to_string(), Json::Num(v)));
            }
        }
        cells.push(Json::Obj(fields));
    }
    Json::Obj(vec![
        ("commit".into(), Json::Str(commit.to_string())),
        ("bench".into(), Json::Str("loop_speedup".into())),
        (
            "speedup_gmean".into(),
            Json::Num(scalar("speedup_gmean").unwrap_or(0.0)),
        ),
        ("cells".into(), Json::Arr(cells)),
    ])
}

fn main() {
    let (bench_path, rest) = split_local_flags(std::env::args().skip(1).collect());
    let args = cli::parse_args(rest.into_iter());
    let reports = cli::run(&args, &[("loop_speedup", loop_speedup::run)]);
    if let Some(path) = bench_path {
        let doc = bench_json(&reports[0], &git_revision(Path::new(".")));
        let text = format!("{}\n", doc.to_string_pretty());
        Json::parse(&text).expect("benchmark summary must re-parse");
        std::fs::write(&path, text).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        eprintln!("[bench summary: {}]", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_names_its_commit_first() {
        let mut report = Report::new("loop_speedup");
        report.add_scalar("poll_ns:BEAR:mcf", 300.0);
        report.add_scalar("event_ns:BEAR:mcf", 100.0);
        report.add_scalar("elided_frac:BEAR:mcf", 0.5);
        report.add_scalar("speedup_gmean", 3.0);
        let text = bench_json(&report, "0123abcd").to_string_pretty();
        let Json::Obj(fields) = Json::parse(&text).expect("re-parses") else {
            panic!("the record is an object");
        };
        assert_eq!(fields[0], ("commit".into(), Json::Str("0123abcd".into())));
        let Some(Json::Arr(cells)) = fields.iter().find(|(k, _)| k == "cells").map(|f| &f.1) else {
            panic!("no cells in {text}");
        };
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].get("speedup"), Some(&Json::Num(3.0)));
        assert_eq!(cells[0].get("elided_frac"), Some(&Json::Num(0.5)));
    }

    #[test]
    fn revision_is_a_hash_or_unknown() {
        let missing = std::env::temp_dir().join("bear-loop-speedup-no-such-dir");
        assert_eq!(git_revision(&missing), "unknown");
        let here = git_revision(Path::new(env!("CARGO_MANIFEST_DIR")));
        let is_hash = here.len() >= 40 && here.chars().all(|c| c.is_ascii_hexdigit());
        assert!(is_hash || here == "unknown", "{here}");
    }
}
