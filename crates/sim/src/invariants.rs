//! Runtime invariant checking.
//!
//! The simulator's headline metric — the Bloat Factor — is only as
//! trustworthy as the byte accounting behind it, so debug builds verify a
//! set of structural invariants *while the simulation runs* (byte
//! conservation, DCP-bit coherence, NTC mirroring; see the catalogue in
//! `DESIGN.md`). This module provides the generic machinery: a
//! [`Violation`] record, a [`CheckMode`] policy, and an [`InvariantSink`]
//! that either panics immediately (debug default), records violations for
//! later inspection (fault-injection harness), or stays out of the way
//! entirely (release default).
//!
//! # Example
//!
//! ```
//! use bear_sim::invariants::{CheckMode, InvariantSink};
//!
//! let mut sink = InvariantSink::new(CheckMode::Record);
//! sink.report("byte-conservation", 1024, || "expected 160, device 80".into());
//! assert_eq!(sink.violations().len(), 1);
//! assert_eq!(sink.violations()[0].name, "byte-conservation");
//! ```

/// One observed invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable invariant name (e.g. `"byte-conservation"`).
    pub name: &'static str,
    /// Cycle at which the check fired.
    pub cycle: u64,
    /// What the checker observed (expected vs. actual).
    pub detail: String,
}

/// Policy applied when an invariant check fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckMode {
    /// Checks are skipped entirely (release-build default: zero cost).
    Off,
    /// First violation panics with a diagnostic (debug-build default, so
    /// `cargo test` exercises every invariant on every run).
    Panic,
    /// Violations are recorded and the run continues — used by the
    /// fault-injection harness, which must observe that an injected fault
    /// was *detected* rather than crash on it.
    Record,
}

impl CheckMode {
    /// The default for the current build profile: [`CheckMode::Panic`] in
    /// debug builds, [`CheckMode::Off`] in release builds. Callers that
    /// want the checks in release (the fuzz harness arms them on every
    /// clean case) choose a mode explicitly.
    fn default_for_build() -> Self {
        if cfg!(debug_assertions) {
            CheckMode::Panic
        } else {
            CheckMode::Off
        }
    }
}

/// Collects invariant violations according to a [`CheckMode`].
#[derive(Debug, Clone)]
pub struct InvariantSink {
    mode: CheckMode,
    violations: Vec<Violation>,
}

impl InvariantSink {
    /// Creates a sink with the given policy.
    pub fn new(mode: CheckMode) -> Self {
        InvariantSink {
            mode,
            violations: Vec::new(),
        }
    }

    /// The active policy.
    pub fn mode(&self) -> CheckMode {
        self.mode
    }

    /// Whether checks should run at all. Callers gate potentially expensive
    /// scans on this so [`CheckMode::Off`] costs nothing.
    pub fn enabled(&self) -> bool {
        self.mode != CheckMode::Off
    }

    /// Reports a violation. The `detail` closure is only evaluated when the
    /// sink is enabled, so building the diagnostic string is free in
    /// [`CheckMode::Off`].
    ///
    /// # Panics
    ///
    /// Panics with the diagnostic in [`CheckMode::Panic`] mode.
    pub fn report(&mut self, name: &'static str, cycle: u64, detail: impl FnOnce() -> String) {
        match self.mode {
            CheckMode::Off => {}
            CheckMode::Panic => {
                let detail = detail();
                panic!("invariant '{name}' violated at cycle {cycle}: {detail}");
            }
            CheckMode::Record => {
                self.violations.push(Violation {
                    name,
                    cycle,
                    detail: detail(),
                });
            }
        }
    }

    /// Violations recorded so far (always empty outside
    /// [`CheckMode::Record`]).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Drains and returns the recorded violations.
    pub fn take(&mut self) -> Vec<Violation> {
        std::mem::take(&mut self.violations)
    }
}

impl Default for InvariantSink {
    fn default() -> Self {
        InvariantSink::new(CheckMode::default_for_build())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_mode_skips_detail_closure() {
        let mut sink = InvariantSink::new(CheckMode::Off);
        assert!(!sink.enabled());
        sink.report("x", 0, || panic!("detail must not be evaluated"));
        assert!(sink.violations().is_empty());
    }

    #[test]
    #[should_panic(expected = "invariant 'byte-conservation' violated at cycle 42")]
    fn panic_mode_panics_with_name_and_cycle() {
        let mut sink = InvariantSink::new(CheckMode::Panic);
        sink.report("byte-conservation", 42, || "mismatch".into());
    }

    #[test]
    fn record_mode_accumulates_and_drains() {
        let mut sink = InvariantSink::new(CheckMode::Record);
        assert!(sink.enabled());
        sink.report("a", 1, || "one".into());
        sink.report("b", 2, || "two".into());
        assert_eq!(sink.violations().len(), 2);
        let taken = sink.take();
        assert_eq!(taken[1].name, "b");
        assert!(sink.violations().is_empty());
    }

    #[test]
    fn build_default_matches_profile() {
        let expected = if cfg!(debug_assertions) {
            CheckMode::Panic
        } else {
            CheckMode::Off
        };
        assert_eq!(CheckMode::default_for_build(), expected);
    }
}
