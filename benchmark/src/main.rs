//! The repository benchmark: simulated Mcycles per host second of the
//! BEAR simulator on four workloads, with per-layer drives and counters,
//! and a parent-vs-change compare tool. See README.md.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--tiny]
//! benchmark compare --parent RUN... --change RUN...
//! ```
//!
//! A run prints a detail line (digest, checks, every sample) and, last, a
//! result line with the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`, which also writes the spans as a Chrome trace).

mod compare;
mod drives;
mod measure;
mod registry;
mod run;
mod spans;
mod stats;

use bear_bench::report::Json;
use registry::{Workload, DEFAULT_SEED, END_TO_END, LAYERS, PER_LAYER, RUN_SECONDS, WORKLOADS};
use run::{Options, Outcome};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--tiny]
  benchmark compare --parent RUN... --change RUN...";

/// Parsed command line of a run.
struct Args {
    options: Options,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = RUN_SECONDS as f64;
    let mut trace = false;
    let mut tiny = false;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                workload = Some(Workload::by_name(value).ok_or_else(|| {
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?);
            }
            "--seed" => {
                seed = match value.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => value.parse(),
                }
                .map_err(|_| bad())?;
            }
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds >= 0.0 && seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        options: Options {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
            tiny,
        },
        out,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare::main(&args[1..]);
    }
    let args = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The benchmark fixes what runs: gate cross-checking would slow every
    // tick, and the span-pool size comes from the workload. No other
    // thread exists yet, so editing the environment is race-free.
    std::env::remove_var("BEAR_GATE_DIAG");
    std::env::remove_var(bear_dram::shard::SIM_THREADS_ENV);
    let w = args.options.workload;
    eprintln!("{}: {}", w.name, w.why);
    match run::execute(&args.options).and_then(|o| report(&args, &o)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

fn num(v: f64) -> Json {
    Json::Num(v)
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn sample_summary(values: &[f64]) -> Json {
    let [q1, med, q3] = stats::quartiles(values);
    obj(vec![
        ("median", num(med)),
        ("q1", num(q1)),
        ("q3", num(q3)),
        ("n", Json::uint(values.len() as u64)),
        (
            "values",
            Json::Arr(values.iter().copied().map(num).collect()),
        ),
    ])
}

/// Prints the detail and result lines, and writes the Chrome trace of a
/// traced run.
fn report(args: &Args, o: &Outcome) -> Result<(), String> {
    let opts = &args.options;
    let w = opts.workload;
    let budget = w.budget(opts.tiny);
    for (name, status) in &o.checks {
        eprintln!("check {name}: {}", status.label());
    }
    eprintln!(
        "{} seed {}: digest {}, {} samples, {} failed",
        w.name, opts.seed, o.digest, o.attempted, o.failed
    );

    let values: Vec<(&str, f64)> = if opts.trace {
        o.layer.clone()
    } else {
        vec![
            ("sim_mcycles_per_s", stats::median(&o.mcycles_per_s)),
            ("setup_s", stats::median(&o.setup_s)),
            ("peak_rss_mb", o.peak_rss_mb),
        ]
    };
    let registry = if opts.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let mut metrics = Vec::with_capacity(registry.len());
    for m in registry {
        let v = values
            .iter()
            .find(|(n, _)| *n == m.name)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("metric {} was not measured", m.name))?;
        metrics.push((
            m.name,
            obj(vec![("value", num(v)), ("unit", Json::Str(m.unit.into()))]),
        ));
    }

    let mut trace_file = Json::Null;
    if opts.trace {
        for layer in &LAYERS {
            eprintln!(
                "layer {} [{}] moves {} on {}; steady on {}:",
                layer.name,
                layer.code,
                layer.moves,
                layer.on.join(", "),
                if layer.steady.is_empty() {
                    "-".to_string()
                } else {
                    layer.steady.join(", ")
                }
            );
            for name in layer.metrics {
                let v = values
                    .iter()
                    .find(|(n, _)| n == name)
                    .map_or(f64::NAN, |p| p.1);
                eprintln!("  {name} = {v}");
            }
        }
        let path = args.out.clone().unwrap_or_else(|| {
            PathBuf::from(format!(".bench_trace/{}-{}.trace.json", w.name, opts.seed))
        });
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let text = o
            .spans
            .to_chrome(&format!("benchmark {}", w.name))
            .to_json();
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("[trace: {} spans -> {}]", o.spans.len(), path.display());
        trace_file = Json::Str(path.display().to_string());
    }

    let detail = obj(vec![
        ("benchmark", Json::Str("bear".into())),
        ("workload", Json::Str(w.name.into())),
        ("seed", Json::uint(opts.seed)),
        ("trace", Json::Bool(opts.trace)),
        ("tiny", Json::Bool(opts.tiny)),
        ("threads", Json::uint(w.threads as u64)),
        (
            "budget",
            obj(vec![
                ("warmup", Json::uint(budget.warmup)),
                ("measure", Json::uint(budget.measure)),
                ("prefix_half", Json::uint(budget.prefix_half)),
            ]),
        ),
        ("digest", Json::Str(o.digest.clone())),
        (
            "checks",
            Json::Obj(
                o.checks
                    .iter()
                    .map(|(n, s)| (n.to_string(), Json::Str(s.label())))
                    .collect(),
            ),
        ),
        (
            "samples",
            obj(vec![
                ("sim_mcycles_per_s", sample_summary(&o.mcycles_per_s)),
                ("setup_s", sample_summary(&o.setup_s)),
            ]),
        ),
        ("trace_file", trace_file),
    ]);
    println!("{detail}");
    let result = obj(vec![
        ("correct", Json::Bool(o.correct())),
        ("attempted", Json::uint(o.attempted)),
        ("failed", Json::uint(o.failed)),
        ("metrics", obj(metrics)),
    ]);
    println!("{result}");
    Ok(())
}
