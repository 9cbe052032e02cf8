//! Statistics primitives for the simulator.
//!
//! [`RunningMean`] keeps the L4's hit and miss latency averages, and
//! [`geometric_mean`] averages ratios the way the paper does. The
//! DRAM-cache byte accounting that underlies the paper's *Bloat Factor*
//! metric lives in `bear-core`.

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
    fn running_mean_basics() {
        let mut m = RunningMean::new();
        assert_eq!(m.mean(), 0.0);
        m.record(2.0);
        m.record(4.0);
        assert_eq!(m.mean(), 3.0);
        assert_eq!(m.sum(), 6.0);
        assert_eq!(m.count(), 2);
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
