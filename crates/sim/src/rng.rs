//! Deterministic pseudo-random number generation.
//!
//! Simulation results must be exactly reproducible from a seed, so the
//! simulator does not use any global or OS-seeded randomness. [`SimRng`] is a
//! small, fast xoshiro256**-style generator seeded via SplitMix64, which is
//! statistically strong enough for workload generation and probabilistic
//! bypass decisions while being dependency-free.

/// A deterministic pseudo-random number generator.
///
/// # Example
///
/// ```
/// use bear_sim::rng::SimRng;
/// let mut a = SimRng::new(7);
/// let mut b = SimRng::new(7);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    ///
    /// Different seeds yield statistically independent streams.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Next uniformly distributed 64-bit value (xoshiro256**).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits give a uniform double in [0,1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift reduction; the tiny modulo bias is
    /// irrelevant for simulation purposes.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be non-zero");
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.next_f64() < p
        }
    }

    /// Samples a geometric-like run length with mean approximately `mean`
    /// (at least 1). Used for sequential-run modeling in workloads.
    pub fn geometric(&mut self, mean: f64) -> u64 {
        if mean <= 1.0 {
            return 1;
        }
        let p = 1.0 / mean;
        let mut n = 1;
        // Cap to keep pathological draws bounded.
        while n < (mean as u64).saturating_mul(16).max(16) && !self.chance(p) {
            n += 1;
        }
        n
    }
}

impl Default for SimRng {
    fn default() -> Self {
        SimRng::new(0xBEA2_2015)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_stream() {
        let mut a = SimRng::new(123);
        let mut b = SimRng::new(123);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::new(9);
        for _ in 0..10_000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn next_below_in_range_and_covers() {
        let mut r = SimRng::new(5);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let v = r.next_below(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(5);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-1.0));
        assert!(r.chance(2.0));
    }

    #[test]
    fn chance_frequency_close_to_p() {
        let mut r = SimRng::new(77);
        let n = 100_000;
        let hits = (0..n).filter(|_| r.chance(0.9)).count();
        let freq = hits as f64 / n as f64;
        assert!((freq - 0.9).abs() < 0.01, "freq was {freq}");
    }

    #[test]
    fn geometric_mean_roughly_matches() {
        let mut r = SimRng::new(3);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| r.geometric(4.0)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 4.0).abs() < 0.5, "mean was {mean}");
    }

    #[test]
    fn geometric_small_mean_is_one() {
        let mut r = SimRng::new(3);
        assert_eq!(r.geometric(0.5), 1);
        assert_eq!(r.geometric(1.0), 1);
    }

    #[test]
    #[should_panic(expected = "bound must be non-zero")]
    fn next_below_zero_panics() {
        SimRng::new(1).next_below(0);
    }
}
