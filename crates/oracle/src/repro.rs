//! Repro files: shrunk diverging traces in a stable text format.
//!
//! A repro file is self-contained: it names the configuration (design,
//! feature set, pattern, seed, optional fault), the failed check, and
//! the minimized access sequence. `EXPERIMENTS.md` describes how to
//! promote one into a permanent regression test.
//!
//! ```text
//! # bear-oracle repro v1
//! design: Alloy
//! features: full
//! pattern: set-conflict-storm
//! seed: 42
//! fault: tag-flip@2000
//! cycles: 25000
//! check: read-classification
//! accesses: 2
//! 1 0x7f8040 L 0x4000
//! 2 0x13c0c0 S 0x4040
//! context: 1
//! 2113 ReadClassified { line: 8354, predicted_hit: true, was_hit: false }
//! ```
//!
//! The optional trailing `context:` section holds the last `(cycle,
//! event)` pairs the oracle observed before the divergence (up to the
//! telemetry ring capacity, 256) — human-readable breadcrumbs only; the
//! replay is fully determined by the fields above it.

use crate::fuzz::{FeatureSet, FuzzCase};
use bear_core::config::DesignKind;
use bear_sim::error::SimError;
use bear_sim::faultinject::FaultKind;
use bear_workloads::{AdversarialPattern, TraceEvent};
use std::path::{Path, PathBuf};

/// A minimized diverging trace plus everything needed to replay it.
#[derive(Debug, Clone, PartialEq)]
pub struct Repro {
    /// DRAM-cache organization.
    pub design: DesignKind,
    /// BEAR feature set.
    pub features: FeatureSet,
    /// The adversarial pattern the trace came from.
    pub pattern: AdversarialPattern,
    /// Original generation seed.
    pub seed: u64,
    /// Injected fault, if the campaign was fault-seeded.
    pub fault: Option<(FaultKind, u64)>,
    /// Replay cycle budget.
    pub cycles: u64,
    /// The check that diverged (e.g. `read-classification`).
    pub check: String,
    /// The minimized access sequence.
    pub events: Vec<TraceEvent>,
    /// Human-readable `cycle EventDebug` lines for the last events
    /// observed before the divergence (may be empty; not replayed).
    pub context: Vec<String>,
}

impl Repro {
    /// Packages a shrunk trace from the campaign, with the recent-event
    /// `context` lines the oracle captured before the divergence.
    pub fn from_case(
        case: &FuzzCase,
        error: &SimError,
        events: Vec<TraceEvent>,
        context: Vec<String>,
    ) -> Self {
        let check = match error {
            SimError::Divergence { check, .. } => check.clone(),
            other => other.kind().to_string(),
        };
        Repro {
            design: case.design,
            features: case.features,
            pattern: case.pattern,
            seed: case.seed,
            fault: case.fault,
            cycles: case.cycles,
            check,
            events,
            context,
        }
    }

    /// The [`FuzzCase`] that replays this repro.
    pub fn to_case(&self) -> FuzzCase {
        let mut case = FuzzCase::new(self.design, self.features, self.pattern, self.seed);
        case.fault = self.fault;
        case.cycles = self.cycles;
        case
    }

    /// Stable file name: `repro-<design>-<features>-<pattern>-<seed>.txt`.
    pub fn file_name(&self) -> String {
        format!(
            "repro-{}-{}-{}-{}.txt",
            self.design.label().to_lowercase(),
            self.features.label(),
            self.pattern.label(),
            self.seed
        )
    }

    /// Serializes to the v1 text format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("# bear-oracle repro v1\n");
        out.push_str(&format!("design: {}\n", self.design.label()));
        out.push_str(&format!("features: {}\n", self.features.label()));
        out.push_str(&format!("pattern: {}\n", self.pattern.label()));
        out.push_str(&format!("seed: {}\n", self.seed));
        match self.fault {
            Some((kind, at)) => out.push_str(&format!("fault: {}@{at}\n", kind.label())),
            None => out.push_str("fault: none\n"),
        }
        out.push_str(&format!("cycles: {}\n", self.cycles));
        out.push_str(&format!("check: {}\n", self.check));
        out.push_str(&format!("accesses: {}\n", self.events.len()));
        for ev in &self.events {
            out.push_str(&format!(
                "{} {:#x} {} {:#x}\n",
                ev.inst_gap,
                ev.addr,
                if ev.is_store { 'S' } else { 'L' },
                ev.pc
            ));
        }
        if !self.context.is_empty() {
            out.push_str(&format!("context: {}\n", self.context.len()));
            for line in &self.context {
                out.push_str(line);
                out.push('\n');
            }
        }
        out
    }

    /// Parses the v1 text format.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Io`] describing the first malformed line.
    pub fn parse(text: &str) -> Result<Repro, SimError> {
        let bad = |msg: String| SimError::io("repro", msg);
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header = lines.next().unwrap_or_default();
        if !header.starts_with("# bear-oracle repro v1") {
            return Err(bad(format!("unrecognized header: {header:?}")));
        }
        let mut field = |name: &str| -> Result<String, SimError> {
            let line = lines
                .next()
                .ok_or_else(|| bad(format!("missing field {name}")))?;
            line.strip_prefix(&format!("{name}: "))
                .map(str::to_string)
                .ok_or_else(|| bad(format!("expected '{name}: ...', got {line:?}")))
        };
        let design = field("design").and_then(|v| {
            DesignKind::from_label(&v).ok_or_else(|| bad(format!("unknown design {v:?}")))
        })?;
        let features = field("features").and_then(|v| {
            FeatureSet::from_label(&v).ok_or_else(|| bad(format!("unknown features {v:?}")))
        })?;
        let pattern = field("pattern").and_then(|v| {
            AdversarialPattern::from_label(&v).ok_or_else(|| bad(format!("unknown pattern {v:?}")))
        })?;
        let seed = field("seed").and_then(|v| {
            v.parse::<u64>()
                .map_err(|e| bad(format!("bad seed {v:?}: {e}")))
        })?;
        let fault = match field("fault")?.as_str() {
            "none" => None,
            spec => {
                let (kind, at) = spec
                    .split_once('@')
                    .ok_or_else(|| bad(format!("bad fault spec {spec:?}")))?;
                let kind = FaultKind::from_label(kind)
                    .ok_or_else(|| bad(format!("unknown fault kind {kind:?}")))?;
                let at = at
                    .parse::<u64>()
                    .map_err(|e| bad(format!("bad fault cycle {at:?}: {e}")))?;
                Some((kind, at))
            }
        };
        let cycles = field("cycles").and_then(|v| {
            v.parse::<u64>()
                .map_err(|e| bad(format!("bad cycles {v:?}: {e}")))
        })?;
        let check = field("check")?;
        let accesses = field("accesses").and_then(|v| {
            v.parse::<usize>()
                .map_err(|e| bad(format!("bad accesses {v:?}: {e}")))
        })?;
        let parse_hex = |s: &str| -> Result<u64, SimError> {
            let digits = s
                .strip_prefix("0x")
                .ok_or_else(|| bad(format!("expected hex literal, got {s:?}")))?;
            u64::from_str_radix(digits, 16).map_err(|e| bad(format!("bad hex {s:?}: {e}")))
        };
        let mut events = Vec::with_capacity(accesses);
        for line in lines.by_ref().take(accesses) {
            let mut parts = line.split_whitespace();
            let (Some(gap), Some(addr), Some(op), Some(pc), None) = (
                parts.next(),
                parts.next(),
                parts.next(),
                parts.next(),
                parts.next(),
            ) else {
                return Err(bad(format!("malformed access line {line:?}")));
            };
            events.push(TraceEvent {
                inst_gap: gap
                    .parse::<u32>()
                    .map_err(|e| bad(format!("bad gap {gap:?}: {e}")))?,
                addr: parse_hex(addr)?,
                is_store: match op {
                    "S" => true,
                    "L" => false,
                    other => return Err(bad(format!("bad op {other:?}"))),
                },
                pc: parse_hex(pc)?,
            });
        }
        if events.len() != accesses {
            return Err(bad(format!(
                "access count mismatch: header says {accesses}, found {}",
                events.len()
            )));
        }
        // Optional trailing context section (verbatim breadcrumb lines).
        let mut context = Vec::new();
        if let Some(line) = lines.next() {
            let count = line
                .strip_prefix("context: ")
                .ok_or_else(|| {
                    bad(format!(
                        "expected 'context: N' or end of file, got {line:?}"
                    ))
                })?
                .parse::<usize>()
                .map_err(|e| bad(format!("bad context count in {line:?}: {e}")))?;
            context.extend(lines.by_ref().take(count).map(str::to_string));
            if context.len() != count {
                return Err(bad(format!(
                    "context count mismatch: header says {count}, found {}",
                    context.len()
                )));
            }
            if let Some(junk) = lines.next() {
                return Err(bad(format!("trailing junk after context: {junk:?}")));
            }
        }
        Ok(Repro {
            design,
            features,
            pattern,
            seed,
            fault,
            cycles,
            check,
            events,
            context,
        })
    }

    /// Writes the repro into `dir` (created if missing); returns the
    /// file's path.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Io`] when the directory or file cannot be
    /// written.
    pub fn write_to(&self, dir: &Path) -> Result<PathBuf, SimError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| SimError::io("repro", format!("create {}: {e}", dir.display())))?;
        let path = dir.join(self.file_name());
        std::fs::write(&path, self.to_text())
            .map_err(|e| SimError::io("repro", format!("write {}: {e}", path.display())))?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Repro {
        Repro {
            design: DesignKind::Alloy,
            features: FeatureSet::Full,
            pattern: AdversarialPattern::SetConflictStorm,
            seed: 42,
            fault: Some((FaultKind::TagFlip, 2000)),
            cycles: 25_000,
            check: "read-classification".into(),
            events: vec![
                TraceEvent {
                    inst_gap: 1,
                    addr: 0x007f_8040,
                    is_store: false,
                    pc: 0x4000,
                },
                TraceEvent {
                    inst_gap: 2,
                    addr: 0x0013_c0c0,
                    is_store: true,
                    pc: 0x4040,
                },
            ],
            context: vec![],
        }
    }

    #[test]
    fn text_round_trips() {
        let r = sample();
        let parsed = Repro::parse(&r.to_text()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn faultless_repro_round_trips() {
        let r = Repro {
            fault: None,
            ..sample()
        };
        assert_eq!(Repro::parse(&r.to_text()).unwrap(), r);
    }

    #[test]
    fn parse_rejects_wrong_count_and_bad_ops() {
        let r = sample();
        let text = r.to_text().replace("accesses: 2", "accesses: 3");
        assert!(Repro::parse(&text).is_err());
        let text = r.to_text().replace(" S ", " X ");
        assert!(Repro::parse(&text).is_err());
        assert!(Repro::parse("nonsense").is_err());
    }

    #[test]
    fn context_section_round_trips() {
        let r = Repro {
            context: vec![
                "2113 ReadClassified { line: 8354, predicted_hit: true, was_hit: false }".into(),
                "2114 Filled { line: 8354 }".into(),
            ],
            ..sample()
        };
        let text = r.to_text();
        assert!(text.contains("context: 2\n"));
        assert_eq!(Repro::parse(&text).unwrap(), r);
    }

    #[test]
    fn parse_rejects_malformed_context() {
        let r = Repro {
            context: vec!["100 Filled { line: 1 }".into()],
            ..sample()
        };
        // Claimed more context lines than present.
        let text = r.to_text().replace("context: 1", "context: 2");
        assert!(Repro::parse(&text).is_err());
        // Trailing junk after the context section.
        let text = format!("{}unexpected\n", r.to_text());
        assert!(Repro::parse(&text).is_err());
        // Trailing lines where a context header was expected.
        let text = format!("{}not-a-section\n", sample().to_text());
        assert!(Repro::parse(&text).is_err());
    }

    #[test]
    fn file_name_is_stable_and_descriptive() {
        assert_eq!(
            sample().file_name(),
            "repro-alloy-full-set-conflict-storm-42.txt"
        );
    }

    #[test]
    fn to_case_replays_the_same_configuration() {
        let case = sample().to_case();
        assert_eq!(case.design, DesignKind::Alloy);
        assert_eq!(case.fault, Some((FaultKind::TagFlip, 2000)));
        assert_eq!(case.cycles, 25_000);
    }
}
