//! One benchmark run: production samples until `--seconds` is spent, the
//! four correctness checks, and, when traced, the per-layer metrics.

use crate::drives;
use crate::measure::{self, Exact, Sample};
use crate::registry::{Workload, DEFAULT_SEED};
use crate::spans::Spans;
use crate::stats::median;
use std::time::Instant;

/// Samples every run takes, however short `--seconds` is (quartiles need
/// a few).
const MIN_SAMPLES: usize = 3;

/// Times the systems are built, untimed runs aside, to measure set-up:
/// one build is a millisecond or two, too short to read once.
const SETUP_REPS: usize = 21;

/// Digests committed for the default seed: `<key> <digest>` lines, the
/// key being the workload name, prefixed with `tiny/` for the test budget.
const GOLDENS: &str = include_str!("../goldens.txt");

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: &'static Workload,
    /// `SystemConfig::seed` of every cell.
    pub seed: u64,
    /// Host seconds to spend on production samples.
    pub seconds: f64,
    /// Whether to record spans and report the per-layer metrics.
    pub trace: bool,
    /// Whether to use the tiny test budget instead of the workload's.
    pub tiny: bool,
}

/// Result of one correctness check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Status {
    /// The check held.
    Passed,
    /// The check does not apply to this run (goldens exist for the
    /// default seed only).
    Skipped,
    /// The check failed, with the reason.
    Failed(String),
}

impl Status {
    fn from(r: Result<(), String>) -> Self {
        r.map_or_else(Status::Failed, |()| Status::Passed)
    }

    /// How the status prints.
    pub fn label(&self) -> String {
        match self {
            Status::Passed => "passed".into(),
            Status::Skipped => "skipped".into(),
            Status::Failed(why) => format!("failed: {why}"),
        }
    }
}

/// Everything a run measured and checked.
#[derive(Debug)]
pub struct Outcome {
    /// Digest of the first successful sample.
    pub digest: String,
    /// Samples attempted (the traced one included).
    pub attempted: u64,
    /// Samples that errored, disagreed with the first sample's digest,
    /// or belong to a run whose run-level check failed.
    pub failed: u64,
    /// The four checks, by name.
    pub checks: Vec<(&'static str, Status)>,
    /// Simulated Mcycles per host second of `run_monitored`, per sample.
    pub mcycles_per_s: Vec<f64>,
    /// Set-up seconds, per repetition.
    pub setup_s: Vec<f64>,
    /// Peak resident memory of the process, MB.
    pub peak_rss_mb: f64,
    /// Per-layer metrics (traced runs only).
    pub layer: Vec<(&'static str, f64)>,
    /// Recorded spans (empty unless traced).
    pub spans: Spans,
}

impl Outcome {
    /// Whether every check passed (or did not apply) and no sample failed.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self
                .checks
                .iter()
                .all(|(_, s)| !matches!(s, Status::Failed(_)))
    }
}

/// The committed golden digest for `key`.
pub fn golden(key: &str) -> Option<&'static str> {
    GOLDENS
        .lines()
        .filter(|l| !l.trim_start().starts_with('#'))
        .filter_map(|l| l.split_once(' '))
        .find(|(k, _)| *k == key)
        .map(|(_, d)| d.trim())
}

/// The goldens key of a workload under a budget.
pub fn golden_key(w: &Workload, tiny: bool) -> String {
    if tiny {
        format!("tiny/{}", w.name)
    } else {
        w.name.to_string()
    }
}

/// Runs the benchmark.
///
/// # Errors
///
/// Set-up or every sample failed, a traced run's sample or drive failed,
/// or the host offers no `/proc/self/status`.
pub fn execute(o: &Options) -> Result<Outcome, String> {
    let w = o.workload;
    let budget = w.budget(o.tiny);
    let cycles = (w.cells.len() as u64 * (budget.warmup + budget.measure)) as f64;
    let mut untraced = Spans::new(false);
    let mut attempted = 0u64;
    let mut failed = 0u64;
    // Digest of every sample that ran to completion, in order.
    let mut digests = Vec::new();
    let mut mcycles_per_s = Vec::new();
    let setup_s = (0..SETUP_REPS)
        .map(|_| measure::setup(w, o.seed, budget))
        .collect::<Result<Vec<f64>, _>>()
        .map_err(|e| format!("set-up failed: {e}"))?;
    let mut last: Option<Sample> = None;

    let wait0 = sched_wait_ns();
    let t0 = Instant::now();
    loop {
        // Drop the previous sample's systems before building the next, so
        // peak memory is one sample's.
        drop(last.take());
        attempted += 1;
        match measure::sample(w, o.seed, budget, &mut untraced, None) {
            Ok(s) => {
                digests.push(s.digest.hex());
                mcycles_per_s.push(cycles / s.run_s / 1e6);
                last = Some(s);
            }
            Err(e) => {
                failed += 1;
                eprintln!("sample {attempted} failed: {e}");
            }
        }
        let spent = t0.elapsed().as_secs_f64();
        let next_end = spent * (attempted + 1) as f64 / attempted as f64;
        if attempted as usize >= MIN_SAMPLES && next_end > o.seconds {
            break;
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    let sched_wait_frac = match (wait0, sched_wait_ns()) {
        (Some(a), Some(b)) => b.saturating_sub(a) as f64 / 1e9 / wall,
        _ => 0.0,
    };
    if mcycles_per_s.is_empty() {
        return Err(format!("all {attempted} samples failed"));
    }
    let median_mcycles = median(&mcycles_per_s);

    let mut spans = Spans::new(o.trace);
    let mut traced_run_s = None;
    if o.trace {
        drop(last.take());
        let root = spans.begin("traced_sample", None);
        attempted += 1;
        match measure::sample(w, o.seed, budget, &mut spans, Some(root)) {
            Ok(s) => {
                digests.push(s.digest.hex());
                traced_run_s = Some(s.run_s);
                last = Some(s);
            }
            Err(e) => {
                failed += 1;
                eprintln!("traced sample failed: {e}");
            }
        }
        spans.end(root);
    }
    // Any difference from the first sample's simulated results fails a
    // sample.
    let digest = digests[0].clone();
    let mismatched: Vec<&String> = digests.iter().filter(|d| **d != digest).collect();
    failed += mismatched.len() as u64;
    let stable = match mismatched.first() {
        None => Status::Passed,
        Some(d) => Status::Failed(format!("sample digest {d} != first sample's {digest}")),
    };

    let golden = if o.seed != DEFAULT_SEED {
        Status::Skipped
    } else {
        match golden(&golden_key(w, o.tiny)) {
            Some(g) if g == digest => Status::Passed,
            Some(g) => Status::Failed(format!("digest {digest} != golden {g}")),
            None => Status::Failed(format!("no golden for {}", golden_key(w, o.tiny))),
        }
    };
    let prefix = Status::from(measure::prefix_check(w, o.seed, budget, &mut spans));
    let exact = last.as_ref().map(|s| Exact::of(s, budget));
    let audit = Status::from(match last.as_mut() {
        Some(s) => measure::drain_and_audit(&mut s.systems, &mut spans),
        None => Err("no sample to drain".into()),
    });
    let checks = vec![
        ("digest_stable", stable),
        ("golden", golden),
        ("prefix_poll", prefix),
        ("drain_audit", audit),
    ];
    if checks[1..]
        .iter()
        .any(|(_, s)| matches!(s, Status::Failed(_)))
    {
        failed = attempted;
    }

    let mut layer = Vec::new();
    if o.trace {
        let drives = drives::run(w, o.seed, budget, &mut spans)?;
        let exact = exact.ok_or("the traced sample failed")?;
        layer = layer_metrics(&exact, median_mcycles);
        layer.extend(drives.metrics());
        layer.push(("host.sched_wait_frac", sched_wait_frac));
        let traced = traced_run_s.ok_or("the traced sample failed")?;
        let untraced_s = cycles / (median_mcycles * 1e6);
        layer.push(("trace.overhead_frac", traced / untraced_s - 1.0));
    }

    Ok(Outcome {
        digest,
        attempted,
        failed,
        checks,
        mcycles_per_s,
        setup_s,
        peak_rss_mb: peak_rss_mb()?,
        layer,
        spans,
    })
}

/// Per-layer metrics derived from the exact counters and the median
/// throughput.
fn layer_metrics(e: &Exact, mcycles_per_s: f64) -> Vec<(&'static str, f64)> {
    let run_s = e.cycles as f64 / (mcycles_per_s * 1e6);
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    let per_kcycle = |n: u64| ratio(n, e.measure) * 1e3;
    let l3 = e.l3_hits + e.l3_misses;
    let l4 = e.l4_reads + e.l4_writebacks;
    let dram = e.dram_reads + e.dram_writes;
    vec![
        ("system.live_tick_frac", ratio(e.live_ticks, e.cycles)),
        ("system.skip_frac", ratio(e.skipped, e.cycles)),
        ("system.span_frac", ratio(e.span_cycles, e.cycles)),
        (
            "system.ns_per_live_tick",
            run_s * 1e9 / e.live_ticks.max(1) as f64,
        ),
        ("cpu.ipc", ratio(e.insts, e.measure)),
        ("l3.accesses_per_kcycle", per_kcycle(l3)),
        ("l3.hit_rate", ratio(e.l3_hits, l3)),
        ("l4.ops_per_kcycle", per_kcycle(l4)),
        ("l4.probes_avoided_frac", ratio(e.probes_avoided, l4)),
        ("l4.bloat_factor", ratio(e.cache_bytes, e.useful_bytes)),
        ("l4.klookups_per_s", mcycles_per_s * per_kcycle(e.l4_reads)),
        ("dram.reqs_per_kcycle", per_kcycle(dram)),
        ("dram.write_frac", ratio(e.dram_writes, dram)),
        (
            "dram.cache_bus_util",
            ratio(e.cache_bus_busy, e.cache_channel_cycles),
        ),
        (
            "dram.read_queue_cycles",
            ratio(e.cache_read_queue_sum, e.cache_reads),
        ),
        ("dram.drains_per_mcycle", ratio(e.drains, e.measure) * 1e6),
    ]
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Nanoseconds this thread has waited on a run queue
/// (`/proc/self/schedstat`, second field), where the host reports it.
fn sched_wait_ns() -> Option<u64> {
    std::fs::read_to_string("/proc/self/schedstat")
        .ok()?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{PER_LAYER, WORKLOADS};

    fn tiny(w: &'static Workload, seed: u64, trace: bool) -> Outcome {
        execute(&Options {
            workload: w,
            seed,
            seconds: 0.0,
            trace,
            tiny: true,
        })
        .unwrap_or_else(|e| panic!("{}: {e}", w.name))
    }

    #[test]
    fn every_workload_passes_every_check_at_the_tiny_budget() {
        for w in &WORKLOADS {
            let o = tiny(w, DEFAULT_SEED, true);
            assert!(
                o.checks.iter().all(|(_, s)| *s == Status::Passed),
                "{}: {:?}",
                w.name,
                o.checks
            );
            assert!(o.correct() && o.attempted as usize > MIN_SAMPLES, "{o:?}");
            for m in &PER_LAYER {
                let v = o.layer.iter().find(|(n, _)| *n == m.name).map(|p| p.1);
                assert!(
                    v.is_some_and(f64::is_finite),
                    "{}: {} = {v:?}",
                    w.name,
                    m.name
                );
            }
            assert!(o.spans.len() > 0);
        }
    }

    #[test]
    fn other_seeds_skip_the_golden_check_and_change_the_digest() {
        let w = Workload::by_name("dev_grid").unwrap();
        let o = tiny(w, 7, false);
        assert!(o.correct(), "{:?}", o.checks);
        assert_eq!(o.checks[1], ("golden", Status::Skipped));
        assert_ne!(Some(o.digest.as_str()), golden("tiny/dev_grid"));
        assert!(o.layer.is_empty() && o.spans.len() == 0, "untraced");
    }

    #[test]
    fn span_pool_size_leaves_the_goldens_equal() {
        for key in ["giga_mcf", "tiny/giga_mcf"] {
            assert!(golden(key).is_some(), "{key}");
            assert_eq!(golden(key), golden(&format!("{key}_t2")));
        }
    }
}
