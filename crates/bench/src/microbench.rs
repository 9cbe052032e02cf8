//! Dependency-free micro-benchmark harness (std `Instant` only).
//!
//! Replaces the former criterion benches so `cargo bench` works with zero
//! registry crates. The methodology is deliberately simple and robust:
//!
//! 1. **Calibrate**: time single calls until a batch size is found whose
//!    wall-clock is at least the target batch duration (so timer
//!    granularity is negligible).
//! 2. **Warm up**: run batches for a fixed warmup budget.
//! 3. **Sample**: time N batches and report the **median** ns/iteration
//!    (the median is robust to scheduler noise in a way a mean is not),
//!    plus min/max for dispersion.
//!
//! Knobs: `BEAR_BENCH_SAMPLES` overrides the sample count,
//! `BEAR_BENCH_QUICK=1` shrinks the time budgets ~20× for smoke runs.
//!
//! ```
//! use bear_bench::microbench::{BenchConfig, run_bench};
//! let cfg = BenchConfig { samples: 3, target_batch_ns: 1_000, warmup_ns: 1_000 };
//! let r = run_bench(&cfg, "noop", 1, || std::hint::black_box(1 + 1));
//! assert!(r.median_ns >= 0.0 && r.samples == 3);
//! ```

use std::time::Instant;

/// Tunable time budgets of the harness.
#[derive(Debug, Clone, Copy)]
pub struct BenchConfig {
    /// Number of timed batches (median taken across them).
    pub samples: u64,
    /// Minimum wall-clock per timed batch, in nanoseconds.
    pub target_batch_ns: u64,
    /// Total warmup budget, in nanoseconds.
    pub warmup_ns: u64,
}

impl BenchConfig {
    /// Default budgets, honoring `BEAR_BENCH_SAMPLES` / `BEAR_BENCH_QUICK`.
    pub fn from_env() -> Self {
        let quick = std::env::var("BEAR_BENCH_QUICK").is_ok_and(|v| v != "0");
        let samples = std::env::var("BEAR_BENCH_SAMPLES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(11);
        BenchConfig {
            samples,
            target_batch_ns: if quick { 2_000_000 } else { 40_000_000 },
            warmup_ns: if quick { 10_000_000 } else { 200_000_000 },
        }
    }
}

/// Result of one benchmark: median/min/max ns per iteration.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name.
    pub name: String,
    /// Median nanoseconds per iteration.
    pub median_ns: f64,
    /// Fastest sample, ns/iter.
    pub min_ns: f64,
    /// Slowest sample, ns/iter.
    pub max_ns: f64,
    /// Iterations per timed batch (calibrated).
    pub batch_iters: u64,
    /// Number of timed batches.
    pub samples: u64,
    /// Logical elements processed per iteration (for throughput).
    pub elements_per_iter: u64,
}

impl BenchResult {
    /// Throughput in elements per second at the median time.
    fn elements_per_sec(&self) -> f64 {
        if self.median_ns <= 0.0 {
            0.0
        } else {
            self.elements_per_iter as f64 * 1e9 / self.median_ns
        }
    }

    /// One human-readable summary line (criterion-style).
    pub fn summary(&self) -> String {
        format!(
            "{:<32} median {:>12}  (min {}, max {}; {}x{} iters)  {:.2} Melem/s",
            self.name,
            fmt_ns(self.median_ns),
            fmt_ns(self.min_ns),
            fmt_ns(self.max_ns),
            self.samples,
            self.batch_iters,
            self.elements_per_sec() / 1e6,
        )
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} us", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Times `batch_iters` calls of `f`, returning total nanoseconds.
fn time_batch<R>(batch_iters: u64, f: &mut impl FnMut() -> R) -> u64 {
    let t0 = Instant::now();
    for _ in 0..batch_iters {
        std::hint::black_box(f());
    }
    t0.elapsed().as_nanos() as u64
}

/// Runs one benchmark under `cfg` and returns its result (no printing).
pub fn run_bench<R>(
    cfg: &BenchConfig,
    name: &str,
    elements_per_iter: u64,
    mut f: impl FnMut() -> R,
) -> BenchResult {
    // Calibrate: grow the batch until it meets the target duration.
    let mut batch_iters = 1u64;
    loop {
        let ns = time_batch(batch_iters, &mut f).max(1);
        if ns >= cfg.target_batch_ns || batch_iters >= 1 << 30 {
            break;
        }
        // Aim straight for the target, with 2x headroom, growing at least 2x.
        let scale = (cfg.target_batch_ns as f64 / ns as f64 * 2.0).ceil() as u64;
        batch_iters = (batch_iters * scale.max(2)).min(1 << 30);
    }

    // Warm up for the configured budget.
    let warm0 = Instant::now();
    while (warm0.elapsed().as_nanos() as u64) < cfg.warmup_ns {
        time_batch(batch_iters, &mut f);
    }

    // Sample.
    let mut per_iter: Vec<f64> = (0..cfg.samples.max(1))
        .map(|_| time_batch(batch_iters, &mut f) as f64 / batch_iters as f64)
        .collect();
    per_iter.sort_by(|a, b| a.total_cmp(b));
    let median = per_iter[per_iter.len() / 2];
    BenchResult {
        name: name.to_string(),
        median_ns: median,
        min_ns: per_iter[0],
        max_ns: *per_iter.last().expect("at least one sample"),
        batch_iters,
        samples: per_iter.len() as u64,
        elements_per_iter,
    }
}

/// Runs one benchmark with [`BenchConfig::from_env`] and prints its
/// summary line. This is the entry point bench binaries use.
pub fn bench<R>(name: &str, elements_per_iter: u64, f: impl FnMut() -> R) -> BenchResult {
    let r = run_bench(&BenchConfig::from_env(), name, elements_per_iter, f);
    println!("{}", r.summary());
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> BenchConfig {
        BenchConfig {
            samples: 5,
            target_batch_ns: 10_000,
            warmup_ns: 10_000,
        }
    }

    #[test]
    fn measures_a_trivial_closure() {
        let r = run_bench(&tiny(), "add", 4, || std::hint::black_box(3u64 + 4));
        assert_eq!(r.samples, 5);
        assert!(r.batch_iters >= 1);
        assert!(r.min_ns <= r.median_ns && r.median_ns <= r.max_ns);
        assert!(r.elements_per_sec() > 0.0);
    }

    #[test]
    fn summary_line_contains_name_and_units() {
        let r = run_bench(&tiny(), "my_bench", 1, || ());
        let line = r.summary();
        assert!(line.contains("my_bench"));
        assert!(line.contains("median"));
        assert!(line.contains("Melem/s"));
    }

    #[test]
    fn ns_formatting_scales() {
        assert!(fmt_ns(12.0).ends_with("ns"));
        assert!(fmt_ns(12_500.0).ends_with("us"));
        assert!(fmt_ns(12_500_000.0).ends_with("ms"));
        assert!(fmt_ns(2_000_000_000.0).ends_with('s'));
    }
}
