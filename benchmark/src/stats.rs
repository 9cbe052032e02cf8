//! Order statistics, computed the way Python's
//! `statistics.quantiles(values, n=4)` computes them (the "exclusive"
//! method), so the benchmark's spreads match what an external script
//! reading its output would compute.

/// First quartile, median and third quartile of `values`.
///
/// # Panics
///
/// Panics if `values` is empty or holds a NaN.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
    if v.len() == 1 {
        return [v[0]; 3];
    }
    let n = v.len() as i64;
    let m = n + 1;
    [1, 2, 3].map(|i: i64| {
        let j = (i * m / 4).clamp(1, n - 1);
        // Negative when clamping moved `j` up (two-element samples).
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// Median of `values` (the middle quartile).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// Distance between the quartiles as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, med, q3] = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(median(&[7.0]), 7.0);
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }
}
