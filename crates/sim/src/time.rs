//! Global simulation time.
//!
//! The entire simulation runs on a single global clock measured in **CPU
//! cycles** (the paper's processor runs at 3.2 GHz). The slower DDR buses
//! of the stacked DRAM cache and of main memory get no clock domain of
//! their own: `bear-dram` states their Table 1 timings in CPU cycles and a
//! data-bus beat as a whole number of CPU cycles.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in time (or a duration) measured in CPU cycles.
///
/// `Cycle` is a thin newtype over `u64`; arithmetic with plain `u64` cycle
/// counts is provided for convenience.
///
/// # Example
///
/// ```
/// use bear_sim::time::Cycle;
/// let start = Cycle(10);
/// let end = start + 5;
/// assert_eq!(end - start, 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(pub u64);

impl Cycle {
    /// The zero point of simulated time.
    pub const ZERO: Cycle = Cycle(0);

    /// Largest representable time; used as "never" in schedulers.
    pub const NEVER: Cycle = Cycle(u64::MAX);

    /// Returns the later of `self` and `other`.
    #[inline]
    pub fn max(self, other: Cycle) -> Cycle {
        Cycle(self.0.max(other.0))
    }

    /// Returns the earlier of `self` and `other`.
    #[inline]
    pub fn min(self, other: Cycle) -> Cycle {
        Cycle(self.0.min(other.0))
    }

    /// Saturating subtraction: returns `0` instead of underflowing.
    #[inline]
    pub fn saturating_sub(self, other: Cycle) -> u64 {
        self.0.saturating_sub(other.0)
    }

    /// Raw cycle count.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl Add<u64> for Cycle {
    type Output = Cycle;
    #[inline]
    fn add(self, rhs: u64) -> Cycle {
        Cycle(self.0 + rhs)
    }
}

impl AddAssign<u64> for Cycle {
    #[inline]
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<Cycle> for Cycle {
    type Output = u64;
    #[inline]
    fn sub(self, rhs: Cycle) -> u64 {
        debug_assert!(self.0 >= rhs.0, "time went backwards: {self:?} - {rhs:?}");
        self.0 - rhs.0
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cy", self.0)
    }
}

impl From<u64> for Cycle {
    fn from(v: u64) -> Self {
        Cycle(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_arithmetic() {
        let a = Cycle(100);
        assert_eq!(a + 44, Cycle(144));
        assert_eq!(Cycle(144) - a, 44);
        assert_eq!(a.max(Cycle(10)), a);
        assert_eq!(a.min(Cycle(10)), Cycle(10));
    }

    #[test]
    fn cycle_saturating_sub() {
        assert_eq!(Cycle(5).saturating_sub(Cycle(10)), 0);
        assert_eq!(Cycle(10).saturating_sub(Cycle(5)), 5);
    }

    #[test]
    fn cycle_display_and_from() {
        assert_eq!(Cycle::from(7u64), Cycle(7));
        assert_eq!(format!("{}", Cycle(9)), "9cy");
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    #[cfg(debug_assertions)]
    fn cycle_sub_underflow_panics_in_debug() {
        let _ = Cycle(1) - Cycle(2);
    }
}
