//! Property tests for the simulation substrate, driven by the in-tree
//! [`bear_sim::check`] engine (no external frameworks).

use bear_sim::check::{check, Source};
use bear_sim::prop_assert;
use bear_sim::rng::SimRng;
use bear_sim::stats::geometric_mean;

/// Rng bounds are respected for any bound.
#[test]
fn rng_next_below_in_range() {
    check(256, |src: &mut Source| {
        let seed = src.any_u64();
        let bound = src.u64_in(1..1_000_000);
        let mut rng = SimRng::new(seed);
        for _ in 0..100 {
            prop_assert!(rng.next_below(bound) < bound);
        }
        Ok(())
    });
}

/// Geometric mean lies between min and max.
#[test]
fn geomean_bounded() {
    check(256, |src: &mut Source| {
        let values = src.vec_with(1..50, |s| s.f64_in(0.01..100.0));
        let g = geometric_mean(&values);
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(0.0f64, f64::max);
        prop_assert!(g >= min * 0.999 && g <= max * 1.001);
        Ok(())
    });
}
