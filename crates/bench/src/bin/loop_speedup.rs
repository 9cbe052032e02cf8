//! Measures the wall-clock speedup of the event-driven run loop over
//! per-cycle polling on the campaign smoke grid, asserting bit-identical
//! results between the modes. Runs through the campaign driver with the
//! standard flags (`--out DIR` also writes a JSON report).
//!
//! `--bench-json PATH` additionally writes a compact machine-readable
//! benchmark summary (the repo-root `BENCH_core.json` emitted by
//! `scripts/verify.sh`): the headline gmean speedup plus per-cell
//! wall-clock times in both modes, derived from the report's scalars.

use bear_bench::cli;
use bear_bench::experiments::loop_speedup;
use bear_bench::report::{Json, Report};
use std::path::PathBuf;

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

/// Builds the benchmark summary document from the finished report:
/// `speedup_gmean` plus one entry per cell with its raw poll/event wall
/// times (ns) and the resulting speedup.
fn bench_json(report: &Report) -> Json {
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
        cells.push(Json::Obj(vec![
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
        ]));
    }
    Json::Obj(vec![
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
        let doc = bench_json(&reports[0]);
        let text = format!("{}\n", doc.to_string_pretty());
        Json::parse(&text).expect("benchmark summary must re-parse");
        std::fs::write(&path, text).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        eprintln!("[bench summary: {}]", path.display());
    }
}
