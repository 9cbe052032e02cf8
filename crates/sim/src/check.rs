//! Dependency-free property testing built on [`SimRng`].
//!
//! The workspace's property tests used to depend on an external framework;
//! this module replaces it with a small in-tree engine so the whole
//! repository builds and tests with **zero registry crates** (offline-first
//! is a hard requirement of the experiment campaign).
//!
//! # Model
//!
//! A property is a closure over a [`Source`]. The source hands out random
//! draws (integers, booleans, floats, vectors) from a deterministic
//! [`SimRng`] stream while recording every raw draw on a *tape*. When the
//! property fails, the engine minimizes the counterexample by
//! **shrink-by-bisection** directly on the tape:
//!
//! 1. bisect the tape *length* (a shorter tape replays with zeros beyond
//!    its end, which yields minimum-length vectors and minimal values), and
//! 2. bisect each recorded draw toward zero.
//!
//! Because every ranged combinator maps the raw draw `0` to its minimum
//! value, driving tape entries toward zero drives the decoded input toward
//! the smallest counterexample — no per-type shrinker is needed.
//!
//! # Example
//!
//! ```
//! use bear_sim::check::{check, Source};
//! use bear_sim::prop_assert;
//!
//! check(64, |src: &mut Source| {
//!     let xs = src.vec_with(0..10, |s| s.u64_in(0..100));
//!     let sum: u64 = xs.iter().sum();
//!     prop_assert!(sum <= 100 * xs.len() as u64, "sum {} too large", sum);
//!     Ok(())
//! });
//! ```
//!
//! Failures panic with the minimized input description, the failing case's
//! seed, and a `BEAR_PROP_SEED=…` hint that replays exactly that case.
//!
//! # Environment knobs
//!
//! - `BEAR_PROP_CASES` — override the number of cases every `check` runs.
//! - `BEAR_PROP_SEED` — replay a reported failure: the given seed becomes
//!   case 0's seed, so one case reproduces the counterexample.

use crate::rng::SimRng;
use std::ops::Range;

/// Per-case seed stride (golden-ratio increment, the Weyl constant).
const CASE_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Hard cap on property replays spent shrinking one failure.
const MAX_SHRINK_REPLAYS: u64 = 4096;

/// A recording/replaying randomness source handed to properties.
///
/// In *record* mode the source draws fresh values from its RNG and appends
/// each raw `u64` to the tape. In *replay* mode it reads the tape back,
/// substituting `0` once the tape is exhausted (the minimal draw).
#[derive(Debug)]
pub struct Source {
    rng: SimRng,
    tape: Vec<u64>,
    pos: usize,
    replay: bool,
}

impl Source {
    fn record(seed: u64) -> Self {
        Source {
            rng: SimRng::new(seed),
            tape: Vec::new(),
            pos: 0,
            replay: false,
        }
    }

    fn replay(tape: Vec<u64>) -> Self {
        Source {
            rng: SimRng::new(0),
            tape,
            pos: 0,
            replay: true,
        }
    }

    /// One raw draw: fresh from the RNG when recording, from the tape when
    /// replaying (zero past the end).
    fn draw(&mut self) -> u64 {
        let v = if self.replay {
            self.tape.get(self.pos).copied().unwrap_or(0)
        } else {
            let v = self.rng.next_u64();
            self.tape.push(v);
            v
        };
        self.pos += 1;
        v
    }

    /// Uniform `u64` over the full range.
    pub fn any_u64(&mut self) -> u64 {
        self.draw()
    }

    /// Uniform `u64` in `[range.start, range.end)`; the raw draw `0` maps
    /// to `range.start` so shrinking minimizes the value.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn u64_in(&mut self, range: Range<u64>) -> u64 {
        assert!(range.start < range.end, "empty range");
        let span = range.end - range.start;
        range.start + self.draw() % span
    }

    /// Uniform `u32` in `[range.start, range.end)`.
    pub fn u32_in(&mut self, range: Range<u32>) -> u32 {
        self.u64_in(range.start as u64..range.end as u64) as u32
    }

    /// Uniform `u8` in `[range.start, range.end)`.
    pub fn u8_in(&mut self, range: Range<u8>) -> u8 {
        self.u64_in(range.start as u64..range.end as u64) as u8
    }

    /// Uniform `usize` in `[range.start, range.end)`.
    pub fn usize_in(&mut self, range: Range<usize>) -> usize {
        self.u64_in(range.start as u64..range.end as u64) as usize
    }

    /// A boolean; the raw draw `0` maps to `false`.
    pub fn bool(&mut self) -> bool {
        self.draw() & 1 == 1
    }

    /// Uniform float in `[range.start, range.end)`; shrinks toward
    /// `range.start`.
    pub fn f64_in(&mut self, range: Range<f64>) -> f64 {
        let unit = (self.draw() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        range.start + unit * (range.end - range.start)
    }

    /// A vector whose length is drawn from `len` and whose elements come
    /// from `elem`; shrinks toward the minimum length and minimal elements.
    pub fn vec_with<T>(
        &mut self,
        len: Range<usize>,
        mut elem: impl FnMut(&mut Source) -> T,
    ) -> Vec<T> {
        let n = self.usize_in(len);
        (0..n).map(|_| elem(self)).collect()
    }

    /// `Some(elem(..))` or `None` (the raw draw `0` maps to `None`).
    pub fn option_of<T>(&mut self, elem: impl FnOnce(&mut Source) -> T) -> Option<T> {
        if self.bool() {
            Some(elem(self))
        } else {
            None
        }
    }
}

/// Outcome of one property evaluation.
pub type PropResult = Result<(), String>;

/// Runs `prop` against `cases` random inputs (overridable via
/// `BEAR_PROP_CASES`), shrinking and panicking on the first failure.
///
/// The base seed comes from `BEAR_PROP_SEED` (default `0xBEA22015`), so
/// a reported failing seed replays as case 0.
///
/// # Panics
///
/// Panics with the minimized counterexample when the property fails.
///
/// ```
/// use bear_sim::check::{check, Source};
/// use bear_sim::prop_assert_eq;
///
/// check(32, |src: &mut Source| {
///     let v = src.u64_in(3..10);
///     prop_assert_eq!(v, v);
///     Ok(())
/// });
/// ```
pub fn check(cases: u64, prop: impl FnMut(&mut Source) -> PropResult) {
    let cases = std::env::var("BEAR_PROP_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(cases);
    let seed = std::env::var("BEAR_PROP_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0xBEA2_2015_u64);
    check_seeded(seed, cases, prop);
}

/// Runs `prop` for `cases` cases with an explicit base seed.
///
/// Case `i` uses seed `base_seed + i * CASE_STRIDE`, so replaying a
/// reported seed as the base reproduces the failing case as case 0.
///
/// # Panics
///
/// Panics with the minimized counterexample when the property fails.
fn check_seeded(base_seed: u64, cases: u64, mut prop: impl FnMut(&mut Source) -> PropResult) {
    for case in 0..cases {
        let case_seed = base_seed.wrapping_add(case.wrapping_mul(CASE_STRIDE));
        let mut src = Source::record(case_seed);
        if let Err(msg) = prop(&mut src) {
            let tape = std::mem::take(&mut src.tape);
            let (tape, msg, replays) = shrink(tape, msg, &mut prop);
            panic!(
                "property failed (case {case}, seed {case_seed}, \
                 minimized to {} draws after {replays} replays):\n  {msg}\n  \
                 tape: {:?}\n  replay with: BEAR_PROP_SEED={case_seed} BEAR_PROP_CASES=1",
                tape.len(),
                tape,
            );
        }
    }
}

/// Replays `tape`; returns the failure message if the property still fails.
fn replay_fails(tape: &[u64], prop: &mut impl FnMut(&mut Source) -> PropResult) -> Option<String> {
    let mut src = Source::replay(tape.to_vec());
    prop(&mut src).err()
}

/// Shrink-by-bisection on the recorded tape: first bisect the tape length,
/// then bisect every draw toward zero, repeating until a fixed point (or
/// the replay budget runs out). Returns the minimal failing tape, its
/// failure message, and the number of replays spent.
fn shrink(
    mut tape: Vec<u64>,
    mut msg: String,
    prop: &mut impl FnMut(&mut Source) -> PropResult,
) -> (Vec<u64>, String, u64) {
    let mut replays = 0u64;
    let mut try_tape = |t: &[u64], replays: &mut u64| -> Option<String> {
        if *replays >= MAX_SHRINK_REPLAYS {
            return None;
        }
        *replays += 1;
        replay_fails(t, prop)
    };

    loop {
        let mut progressed = false;

        // Phase 0: delete interior chunks (delta debugging with
        // bisection-sized windows), so a late interesting draw can move
        // to the front of the tape.
        let mut chunk = (tape.len() / 2).max(1);
        while chunk >= 1 && !tape.is_empty() {
            let mut i = 0;
            while i + chunk <= tape.len() {
                let mut cand = tape.clone();
                cand.drain(i..i + chunk);
                match try_tape(&cand, &mut replays) {
                    Some(m) => {
                        msg = m;
                        tape = cand;
                        progressed = true;
                    }
                    None => i += chunk,
                }
                if replays >= MAX_SHRINK_REPLAYS {
                    return (tape, msg, replays);
                }
            }
            if chunk == 1 {
                break;
            }
            chunk /= 2;
        }

        // Phase 1: bisect the length. lo is the longest prefix known to
        // pass (as a cut point), hi the shortest known to fail.
        let (mut lo, mut hi) = (0usize, tape.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match try_tape(&tape[..mid], &mut replays) {
                Some(m) => {
                    msg = m;
                    hi = mid;
                    progressed = progressed || hi < tape.len();
                }
                None => lo = mid + 1,
            }
        }
        if hi < tape.len() {
            tape.truncate(hi);
        }

        // Phase 2: bisect each draw toward zero.
        for i in 0..tape.len() {
            let (mut lo, mut hi) = (0u64, tape[i]);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                let orig = tape[i];
                tape[i] = mid;
                match try_tape(&tape, &mut replays) {
                    Some(m) => {
                        msg = m;
                        hi = mid;
                        progressed = true;
                    }
                    None => {
                        tape[i] = orig;
                        lo = mid + 1;
                    }
                }
                if replays >= MAX_SHRINK_REPLAYS {
                    return (tape, msg, replays);
                }
            }
        }

        if !progressed || replays >= MAX_SHRINK_REPLAYS {
            return (tape, msg, replays);
        }
    }
}

/// Asserts a condition inside a property, failing the case with location
/// and optional formatted context.
///
/// Unlike [`assert!`], failure is reported by returning `Err` from the
/// enclosing property closure, so the engine can shrink the input.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return Err(format!(
                "assertion failed: {} ({}:{})",
                stringify!($cond),
                file!(),
                line!()
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!(
                "assertion failed: {} — {} ({}:{})",
                stringify!($cond),
                format!($($fmt)+),
                file!(),
                line!()
            ));
        }
    };
}

/// Asserts two expressions are equal inside a property (shrinking variant
/// of [`assert_eq!`]).
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (l, r) = (&$a, &$b);
        if !(l == r) {
            return Err(format!(
                "assertion failed: {} == {}\n    left: {:?}\n   right: {:?} ({}:{})",
                stringify!($a),
                stringify!($b),
                l,
                r,
                file!(),
                line!()
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$a, &$b);
        if !(l == r) {
            return Err(format!(
                "assertion failed: {} == {}\n    left: {:?}\n   right: {:?} — {} ({}:{})",
                stringify!($a),
                stringify!($b),
                l,
                r,
                format!($($fmt)+),
                file!(),
                line!()
            ));
        }
    }};
}

/// Asserts two expressions are unequal inside a property (shrinking
/// variant of [`assert_ne!`]).
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (l, r) = (&$a, &$b);
        if !(l != r) {
            return Err(format!(
                "assertion failed: {} != {}\n    both: {:?} ({}:{})",
                stringify!($a),
                stringify!($b),
                l,
                file!(),
                line!()
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let mut n = 0u64;
        check_seeded(1, 50, |src| {
            n += 1;
            let v = src.u64_in(0..10);
            prop_assert!(v < 10);
            Ok(())
        });
        assert_eq!(n, 50);
    }

    #[test]
    fn ranged_draws_respect_bounds() {
        check_seeded(2, 200, |src| {
            prop_assert!(src.u64_in(5..9) >= 5);
            prop_assert!(src.u8_in(0..3) < 3);
            prop_assert!(src.u32_in(1..2) == 1);
            prop_assert!(src.usize_in(0..7) < 7);
            let f = src.f64_in(1.0..2.0);
            prop_assert!((1.0..2.0).contains(&f));
            let v = src.vec_with(2..5, |s| s.bool());
            prop_assert!((2..5).contains(&v.len()));
            Ok(())
        });
    }

    #[test]
    fn zero_tape_decodes_to_minimums() {
        let mut src = Source::replay(Vec::new());
        assert_eq!(src.u64_in(3..10), 3);
        assert_eq!(src.usize_in(1..200), 1);
        assert!(!src.bool());
        assert_eq!(src.f64_in(0.5..2.0), 0.5);
        assert_eq!(src.option_of(|s| s.any_u64()), None);
        assert_eq!(src.vec_with(0..10, |s| s.any_u64()), Vec::<u64>::new());
    }

    #[test]
    fn failure_shrinks_to_minimal_counterexample() {
        // Property: fails whenever any element is >= 50. The minimal
        // counterexample is a single-element vector [50].
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            check_seeded(3, 1000, |src: &mut Source| {
                let xs = src.vec_with(0..20, |s| s.u64_in(0..100));
                prop_assert!(xs.iter().all(|&x| x < 50), "saw {:?}", xs);
                Ok(())
            });
        }));
        let msg = match caught {
            Ok(()) => panic!("property should have failed"),
            Err(e) => *e.downcast::<String>().expect("panic payload"),
        };
        assert!(msg.contains("[50]"), "not minimal: {msg}");
        assert!(msg.contains("BEAR_PROP_SEED="), "no replay hint: {msg}");
    }

    #[test]
    fn shrunk_failure_reports_latest_message() {
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            check_seeded(4, 100, |src: &mut Source| {
                let v = src.u64_in(0..1000);
                prop_assert!(v < 10, "v was {}", v);
                Ok(())
            });
        }));
        let msg = match caught {
            Ok(()) => panic!("property should have failed"),
            Err(e) => *e.downcast::<String>().expect("panic payload"),
        };
        // Bisection lands exactly on the boundary value 10.
        assert!(msg.contains("v was 10"), "bad message: {msg}");
    }

    #[test]
    fn replay_env_seed_reproduces() {
        // The same seed must drive the same draws.
        let mut first = Vec::new();
        check_seeded(99, 1, |src| {
            first.push(src.any_u64());
            Ok(())
        });
        let mut second = Vec::new();
        check_seeded(99, 1, |src| {
            second.push(src.any_u64());
            Ok(())
        });
        assert_eq!(first, second);
    }
}
