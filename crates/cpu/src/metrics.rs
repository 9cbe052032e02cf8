//! Performance metrics (Section 3.3 of the paper).
//!
//! Rate-mode workloads are scored by total execution time (equivalently,
//! aggregate instruction throughput over a fixed cycle budget); mixed
//! workloads use weighted speedup, Equation 2. The paper reports all
//! numbers *normalized* to the baseline Alloy Cache system; these helpers
//! compute those normalized values from per-core IPCs of two runs. The
//! RATE / MIX / ALL54 aggregation over workloads is the geometric mean of
//! these ratios (`bear_sim::stats::geometric_mean`).

/// Normalized rate-mode speedup: ratio of aggregate throughput.
///
/// Under a fixed cycle budget, execution time for a fixed amount of work is
/// inversely proportional to throughput, so the normalized speedup is
/// `sum(ipc_system) / sum(ipc_baseline)`.
///
/// # Panics
///
/// Panics if the slices differ in length, are empty, or the baseline
/// throughput is zero.
pub fn rate_mode_speedup(ipc_system: &[f64], ipc_baseline: &[f64]) -> f64 {
    assert_eq!(ipc_system.len(), ipc_baseline.len(), "core count mismatch");
    assert!(!ipc_system.is_empty(), "need at least one core");
    let s: f64 = ipc_system.iter().sum();
    let b: f64 = ipc_baseline.iter().sum();
    assert!(b > 0.0, "baseline throughput must be positive");
    s / b
}

/// Normalized weighted speedup (Equation 2) of a mixed run relative to the
/// baseline run of the *same* workload.
///
/// `WeightedSpeedup = Σ_i IPC_i^shared / IPC_i^single`; normalizing a
/// system's weighted speedup by the baseline's cancels the single-core
/// IPCs per core:
/// `Σ_i (ipc_system_i / ipc_single_i) / Σ_i (ipc_baseline_i / ipc_single_i)`.
/// We use the baseline shared-run IPC as the per-core reference, which
/// makes the baseline's normalized value exactly 1 and weights every
/// program equally — the standard relative-weighted-speedup formulation.
///
/// # Panics
///
/// Panics if the slices differ in length, are empty, or any baseline IPC is
/// zero.
pub fn normalized_weighted_speedup(ipc_system: &[f64], ipc_baseline: &[f64]) -> f64 {
    assert_eq!(ipc_system.len(), ipc_baseline.len(), "core count mismatch");
    assert!(!ipc_system.is_empty(), "need at least one core");
    let n = ipc_system.len() as f64;
    let sum: f64 = ipc_system
        .iter()
        .zip(ipc_baseline)
        .map(|(&s, &b)| {
            assert!(b > 0.0, "baseline IPC must be positive");
            s / b
        })
        .sum();
    sum / n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_mode_is_throughput_ratio() {
        let base = [1.0; 8];
        let sys = [1.1; 8];
        assert!((rate_mode_speedup(&sys, &base) - 1.1).abs() < 1e-12);
    }

    #[test]
    fn weighted_speedup_baseline_is_one() {
        let base = [0.5, 1.0, 2.0, 0.25];
        assert!((normalized_weighted_speedup(&base, &base) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_speedup_counts_each_program_equally() {
        let base = [1.0, 0.1];
        // Core 1 doubles, core 0 unchanged → (1 + 2) / 2 = 1.5 even though
        // aggregate IPC barely moved.
        let sys = [1.0, 0.2];
        assert!((normalized_weighted_speedup(&sys, &base) - 1.5).abs() < 1e-12);
        // Rate-mode metric would barely move:
        assert!(rate_mode_speedup(&sys, &base) < 1.1);
    }

    #[test]
    #[should_panic(expected = "core count mismatch")]
    fn mismatched_lengths_panic() {
        rate_mode_speedup(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "baseline IPC must be positive")]
    fn zero_baseline_panics() {
        normalized_weighted_speedup(&[1.0], &[0.0]);
    }
}
