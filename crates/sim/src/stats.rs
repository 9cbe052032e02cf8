//! Statistics primitives for the simulator.
//!
//! Every architectural component keeps its own statistics built from the
//! types here: plain [`Counter`]s, [`RunningMean`]s for latency averages, and
//! bucketed [`Histogram`]s for latency distributions. The DRAM-cache byte
//! accounting that underlies the paper's *Bloat Factor* metric is built on
//! top of these in `bear-core`.

use std::fmt;

/// A monotonically increasing event counter.
///
/// # Example
///
/// ```
/// use bear_sim::stats::Counter;
/// let mut c = Counter::default();
/// c.add(3);
/// c.inc();
/// assert_eq!(c.get(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Counter(0)
    }

    /// Increments by one.
    #[inline]
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Increments by `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0
    }

    /// Resets to zero (used at the warmup/measurement boundary).
    pub fn reset(&mut self) {
        self.0 = 0;
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Incremental mean of a stream of samples.
///
/// # Example
///
/// ```
/// use bear_sim::stats::RunningMean;
/// let mut m = RunningMean::new();
/// m.record(10.0);
/// m.record(20.0);
/// assert_eq!(m.mean(), 15.0);
/// assert_eq!(m.count(), 2);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunningMean {
    sum: f64,
    count: u64,
}

impl RunningMean {
    /// Creates an empty mean.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, sample: f64) {
        self.sum += sample;
        self.count += 1;
    }

    /// The mean of all samples, or `0.0` if none were recorded.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Total of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Clears all samples.
    pub fn reset(&mut self) {
        *self = Self::default()
    }

    /// Merges another mean into this one.
    pub fn merge(&mut self, other: &RunningMean) {
        self.sum += other.sum;
        self.count += other.count;
    }
}

/// A histogram with geometrically growing bucket bounds, suitable for
/// latency distributions spanning a few cycles to tens of thousands.
///
/// Bucket `i` covers `[bound(i-1), bound(i))` where bounds double from
/// `first_bound`. The final bucket is open-ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    first_bound: u64,
    buckets: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates a histogram whose first bucket covers `[0, first_bound)` with
    /// `num_buckets` doubling buckets.
    ///
    /// # Panics
    ///
    /// Panics if `first_bound` is zero or `num_buckets` < 2.
    pub fn new(first_bound: u64, num_buckets: usize) -> Self {
        assert!(first_bound > 0, "first_bound must be non-zero");
        assert!(num_buckets >= 2, "need at least two buckets");
        Histogram {
            first_bound,
            buckets: vec![0; num_buckets],
            total: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let mut bound = self.first_bound;
        let mut idx = 0;
        while idx + 1 < self.buckets.len() && value >= bound {
            bound = bound.saturating_mul(2);
            idx += 1;
        }
        self.buckets[idx] += 1;
        self.total += 1;
    }

    /// Number of samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Raw bucket counts.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Upper bound (exclusive) of bucket `i`; the last bucket returns
    /// `u64::MAX`.
    fn bucket_bound(&self, i: usize) -> u64 {
        if i + 1 >= self.buckets.len() {
            u64::MAX
        } else {
            self.first_bound << i
        }
    }

    /// Approximate p-th percentile (`0.0..=1.0`) using bucket upper bounds.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let target = (p.clamp(0.0, 1.0) * self.total as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target.max(1) {
                return self.bucket_bound(i);
            }
        }
        u64::MAX
    }

    /// Clears all samples.
    pub fn reset(&mut self) {
        self.buckets.iter_mut().for_each(|b| *b = 0);
        self.total = 0;
    }
}

impl Default for Histogram {
    /// A latency-oriented histogram: first bucket `[0, 32)`, 16 buckets.
    fn default() -> Self {
        Histogram::new(32, 16)
    }
}

/// Geometric mean of a set of ratios; the paper reports all averages as
/// geometric means (Section 3.3).
///
/// Returns `1.0` for an empty slice.
///
/// # Panics
///
/// Panics if any value is not strictly positive.
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geometric mean requires positive values, got {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::new();
        assert_eq!(c.get(), 0);
        c.inc();
        c.add(5);
        assert_eq!(c.get(), 6);
        c.reset();
        assert_eq!(c.get(), 0);
        assert_eq!(format!("{}", Counter::new()), "0");
    }

    #[test]
    fn running_mean_basics() {
        let mut m = RunningMean::new();
        assert_eq!(m.mean(), 0.0);
        m.record(2.0);
        m.record(4.0);
        assert_eq!(m.mean(), 3.0);
        assert_eq!(m.sum(), 6.0);
        assert_eq!(m.count(), 2);
        m.reset();
        assert_eq!(m.count(), 0);
    }

    #[test]
    fn running_mean_merge() {
        let mut a = RunningMean::new();
        a.record(1.0);
        let mut b = RunningMean::new();
        b.record(3.0);
        a.merge(&b);
        assert_eq!(a.mean(), 2.0);
    }

    #[test]
    fn histogram_bucketing() {
        let mut h = Histogram::new(4, 4); // [0,4) [4,8) [8,16) [16,inf)
        h.record(0);
        h.record(3);
        h.record(4);
        h.record(9);
        h.record(1000);
        assert_eq!(h.buckets(), &[2, 1, 1, 1]);
        assert_eq!(h.total(), 5);
        assert_eq!(h.bucket_bound(0), 4);
        assert_eq!(h.bucket_bound(1), 8);
        assert_eq!(h.bucket_bound(3), u64::MAX);
    }

    #[test]
    fn histogram_percentile() {
        let mut h = Histogram::new(4, 4);
        for _ in 0..99 {
            h.record(1);
        }
        h.record(100_000);
        assert_eq!(h.percentile(0.5), 4);
        assert_eq!(h.percentile(1.0), u64::MAX);
        assert_eq!(Histogram::default().percentile(0.5), 0);
    }

    #[test]
    fn histogram_reset() {
        let mut h = Histogram::default();
        h.record(7);
        h.reset();
        assert_eq!(h.total(), 0);
    }

    #[test]
    #[should_panic(expected = "first_bound")]
    fn histogram_zero_bound_panics() {
        Histogram::new(0, 4);
    }

    #[test]
    fn geomean_basics() {
        assert_eq!(geometric_mean(&[]), 1.0);
        let g = geometric_mean(&[1.0, 4.0]);
        assert!((g - 2.0).abs() < 1e-12);
        let g3 = geometric_mean(&[2.0, 2.0, 2.0]);
        assert!((g3 - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_nonpositive() {
        geometric_mean(&[1.0, 0.0]);
    }
}
