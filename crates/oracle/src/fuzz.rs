//! Deterministic adversarial fuzz campaigns.
//!
//! A [`FuzzCase`] names everything needed to reproduce a run bit-for-bit:
//! design, BEAR feature set, adversarial pattern, seed, and an optional
//! injected fault. Campaigns sweep the design × feature × pattern matrix
//! with fixed seeds; any divergence is automatically shrunk
//! ([`crate::shrink`](mod@crate::shrink)) and written out as a repro file
//! ([`crate::repro`]).

use crate::lockstep::{run_lockstep_traced, DivergenceContext, LockstepReport};
use crate::pools::{footprint_pool, neighbor_pair_pool, sector_set_pool, set_collision_pool};
use crate::repro::Repro;
use crate::shrink::shrink;
use bear_core::config::{BearFeatures, DesignKind, SystemConfig};
use bear_core::system::System;
use bear_sim::error::SimError;
use bear_sim::faultinject::{FaultKind, FaultPlan};
use bear_sim::invariants::CheckMode;
use bear_workloads::{AdversarialPattern, ScriptedTrace, TraceEvent, TraceSource};
use std::path::{Path, PathBuf};

/// Every DRAM-cache organization, in campaign order.
pub const ALL_DESIGNS: [DesignKind; 8] = [
    DesignKind::NoCache,
    DesignKind::Alloy,
    DesignKind::InclusiveAlloy,
    DesignKind::BwOpt,
    DesignKind::LohHill,
    DesignKind::MostlyClean,
    DesignKind::TagsInSram,
    DesignKind::SectorCache,
];

/// Named BEAR feature combination (the paper's ablation axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeatureSet {
    /// Baseline: no BEAR techniques.
    None,
    /// Bandwidth-Aware Bypass only.
    Bab,
    /// BAB + DCP.
    BabDcp,
    /// BAB + DCP + NTC (full BEAR).
    Full,
    /// Full BEAR plus the §9.4 temporal-tag NTC extension.
    FullTemporal,
}

impl FeatureSet {
    /// All feature sets, in ablation order.
    pub const ALL: [FeatureSet; 5] = [
        FeatureSet::None,
        FeatureSet::Bab,
        FeatureSet::BabDcp,
        FeatureSet::Full,
        FeatureSet::FullTemporal,
    ];

    /// Stable label used in repro files.
    pub fn label(self) -> &'static str {
        match self {
            FeatureSet::None => "none",
            FeatureSet::Bab => "bab",
            FeatureSet::BabDcp => "bab-dcp",
            FeatureSet::Full => "full",
            FeatureSet::FullTemporal => "full-temporal",
        }
    }

    /// Recovers a feature set from its [`FeatureSet::label`].
    pub fn from_label(label: &str) -> Option<FeatureSet> {
        Self::ALL.into_iter().find(|f| f.label() == label)
    }

    /// The corresponding configuration features.
    pub fn bear(self) -> BearFeatures {
        match self {
            FeatureSet::None => BearFeatures::none(),
            FeatureSet::Bab => BearFeatures::bab(),
            FeatureSet::BabDcp => BearFeatures::bab_dcp(),
            FeatureSet::Full => BearFeatures::full(),
            FeatureSet::FullTemporal => BearFeatures::full_with_temporal_ntc(),
        }
    }
}

/// A fully-specified, reproducible fuzz run.
#[derive(Debug, Clone, Copy)]
pub struct FuzzCase {
    /// DRAM-cache organization under test.
    pub design: DesignKind,
    /// BEAR features (only meaningful for the Alloy family).
    pub features: FeatureSet,
    /// Adversarial access pattern.
    pub pattern: AdversarialPattern,
    /// Trace-generation seed.
    pub seed: u64,
    /// Optional injected fault `(kind, cycle)` — the cycle model's own
    /// invariant checks are silenced so only the oracle can catch it.
    pub fault: Option<(FaultKind, u64)>,
    /// Cycles to run before quiescing.
    pub cycles: u64,
    /// Quiesce budget in cycles.
    pub quiesce_budget: u64,
    /// Generated trace length (the scripted trace loops if shorter than
    /// the run).
    pub trace_len: usize,
}

impl FuzzCase {
    /// A case with the campaign's default run lengths.
    pub fn new(
        design: DesignKind,
        features: FeatureSet,
        pattern: AdversarialPattern,
        seed: u64,
    ) -> Self {
        FuzzCase {
            design,
            features,
            pattern,
            seed,
            fault: None,
            cycles: 25_000,
            quiesce_budget: 200_000,
            trace_len: 4_000,
        }
    }

    /// The same case with an injected fault.
    pub fn with_fault(mut self, kind: FaultKind, at_cycle: u64) -> Self {
        self.fault = Some((kind, at_cycle));
        self
    }
}

/// The small-but-valid configuration fuzz runs use: a 256 KB DRAM cache
/// over a 64 KB L3, so a few thousand accesses reach every structural
/// corner (evictions, duels, aliasing) that the full-size system needs
/// millions for.
pub fn quick_config(design: DesignKind, features: FeatureSet) -> SystemConfig {
    SystemConfig {
        scale_shift: 12,
        bear: features.bear(),
        ..SystemConfig::paper_baseline(design)
    }
}

/// Builds the adversarial trace a case runs (pure function of the case).
pub fn trace_for(case: &FuzzCase) -> Vec<TraceEvent> {
    let cfg = quick_config(case.design, case.features);
    let pool = match case.pattern {
        AdversarialPattern::SetConflictStorm => set_collision_pool(&cfg, 64),
        // The Sector Cache's dirty flood overflows one sector set with
        // scattered blocks, so victims are sectors whose valid blocks are
        // not a prefix.
        AdversarialPattern::DirtyEvictionFlood if case.design == DesignKind::SectorCache => {
            sector_set_pool(&cfg, 160, 8)
        }
        AdversarialPattern::DirtyEvictionFlood => footprint_pool(&cfg, 4),
        AdversarialPattern::DuelSetThrash => footprint_pool(&cfg, 8),
        AdversarialPattern::NtcNeighborAlias => neighbor_pair_pool(&cfg, 32),
    };
    case.pattern.generate(&pool, case.trace_len, case.seed)
}

/// Replays `events` under the case's configuration and oracle.
///
/// # Errors
///
/// Returns the first divergence (or a config error for an invalid
/// design/feature pairing).
pub fn run_trace(case: &FuzzCase, events: &[TraceEvent]) -> Result<LockstepReport, SimError> {
    run_trace_traced(case, events).map_err(|ctx| ctx.error)
}

/// Builds the case's system over `events`. Clean cases arm the invariant
/// sink in every build profile, so release campaigns check byte
/// conservation too; a fault-seeded case disarms it, because the injected
/// corruption must be caught by the oracle, not by the model's own checks.
fn build_system(case: &FuzzCase, events: &[TraceEvent]) -> Result<System, SimError> {
    let cfg = quick_config(case.design, case.features);
    let src: Box<dyn TraceSource> =
        Box::new(ScriptedTrace::new(case.pattern.label(), events.to_vec()));
    let mut sys = System::build_with_sources(&cfg, vec![src])?;
    match case.fault {
        Some((kind, at_cycle)) => {
            sys.set_fault_plan(FaultPlan::single(kind, at_cycle));
            sys.set_check_mode(CheckMode::Off);
        }
        None => sys.set_check_mode(CheckMode::Panic),
    }
    Ok(sys)
}

/// [`run_trace`], but a divergence carries the recent-event history the
/// repro file embeds as its `context:` section.
///
/// # Errors
///
/// As [`run_trace`], boxed with the recent-event ring.
pub fn run_trace_traced(
    case: &FuzzCase,
    events: &[TraceEvent],
) -> Result<LockstepReport, Box<DivergenceContext>> {
    let mut sys = build_system(case, events).map_err(|error| {
        Box::new(DivergenceContext {
            error,
            recent_events: Vec::new(),
        })
    })?;
    run_lockstep_traced(&mut sys, case.cycles, case.quiesce_budget)
}

/// Generates the case's trace and replays it under the oracle.
///
/// # Errors
///
/// Returns the first divergence the oracle detects.
pub fn run_case(case: &FuzzCase) -> Result<LockstepReport, SimError> {
    run_trace(case, &trace_for(case))
}

/// One diverging case, after shrinking.
#[derive(Debug)]
pub struct CampaignDivergence {
    /// The diverging case.
    pub case: FuzzCase,
    /// The divergence the *shrunk* trace reproduces.
    pub error: SimError,
    /// Minimized trace length (accesses).
    pub shrunk_len: usize,
    /// Repro file, when an output directory was given.
    pub repro_path: Option<PathBuf>,
}

/// Outcome of a campaign sweep.
#[derive(Debug, Default)]
pub struct CampaignReport {
    /// Cases executed.
    pub cases_run: usize,
    /// Events checked across all clean runs.
    pub events_checked: u64,
    /// Diverging cases, shrunk and (optionally) written out.
    pub divergences: Vec<CampaignDivergence>,
}

/// The standard campaign matrix: every design at baseline features plus
/// the Alloy ablation ladder, crossed with every pattern and seed.
///
/// Inclusive Alloy only pairs with [`FeatureSet::None`] — it cannot
/// bypass fills (config validation enforces this), and the other designs
/// ignore BEAR features entirely, so the ladder only multiplies Alloy.
pub fn campaign_cases(seeds: &[u64]) -> Vec<FuzzCase> {
    let mut cases = Vec::new();
    for &seed in seeds {
        for pattern in AdversarialPattern::ALL {
            for design in ALL_DESIGNS {
                cases.push(FuzzCase::new(design, FeatureSet::None, pattern, seed));
            }
            for features in [
                FeatureSet::Bab,
                FeatureSet::BabDcp,
                FeatureSet::Full,
                FeatureSet::FullTemporal,
            ] {
                cases.push(FuzzCase::new(DesignKind::Alloy, features, pattern, seed));
            }
        }
    }
    cases
}

/// Runs `cases`, shrinking every divergence; repro files go to
/// `out_dir/repros/` when `out_dir` is given.
pub fn run_campaign(cases: &[FuzzCase], out_dir: Option<&Path>) -> CampaignReport {
    let mut report = CampaignReport::default();
    for case in cases {
        report.cases_run += 1;
        let events = trace_for(case);
        match run_trace_traced(case, &events) {
            Ok(r) => report.events_checked += r.events_checked,
            Err(ctx) => {
                let div = shrink_divergence(case, &events, *ctx, out_dir);
                report.divergences.push(div);
            }
        }
    }
    report
}

/// Shrinks one diverging trace and writes its repro file, embedding the
/// last events observed before the (minimized) divergence as the repro's
/// `context:` section.
fn shrink_divergence(
    case: &FuzzCase,
    events: &[TraceEvent],
    original: DivergenceContext,
    out_dir: Option<&Path>,
) -> CampaignDivergence {
    let shrunk = shrink(events, |t| run_trace(case, t).is_err());
    // Re-run the minimized trace to capture the divergence it actually
    // reproduces (shrinking may surface an earlier check) together with
    // the event history leading up to it.
    let ctx = match run_trace_traced(case, &shrunk.events) {
        Err(c) => *c,
        Ok(_) => original,
    };
    let context = ctx
        .recent_events
        .iter()
        .map(|(cycle, ev)| format!("{cycle} {ev:?}"))
        .collect();
    let repro = Repro::from_case(case, &ctx.error, shrunk.events.clone(), context);
    let repro_path = out_dir.and_then(|dir| repro.write_to(&dir.join("repros")).ok());
    CampaignDivergence {
        case: *case,
        error: ctx.error,
        shrunk_len: shrunk.events.len(),
        repro_path,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feature_labels_round_trip() {
        for f in FeatureSet::ALL {
            assert_eq!(FeatureSet::from_label(f.label()), Some(f));
        }
        assert_eq!(FeatureSet::from_label("nope"), None);
    }

    #[test]
    fn quick_configs_validate_for_the_whole_matrix() {
        for case in campaign_cases(&[1]) {
            quick_config(case.design, case.features)
                .validate()
                .unwrap_or_else(|e| panic!("{:?}/{:?}: {e}", case.design, case.features));
        }
    }

    #[test]
    fn traces_are_deterministic_per_case() {
        let case = FuzzCase::new(
            DesignKind::Alloy,
            FeatureSet::Full,
            AdversarialPattern::SetConflictStorm,
            7,
        );
        assert_eq!(trace_for(&case), trace_for(&case));
    }

    /// Release builds default the sink to `Off`; the fuzz harness must
    /// arm it on clean cases itself (run this with `--release` to see it
    /// bite) and leave it off where a fault is injected.
    #[test]
    fn clean_cases_arm_invariant_checks_in_every_profile() {
        let case = FuzzCase::new(
            DesignKind::Alloy,
            FeatureSet::Full,
            AdversarialPattern::SetConflictStorm,
            7,
        );
        let events = trace_for(&case);
        let sys = build_system(&case, &events).expect("valid case");
        assert_eq!(sys.check_mode(), CheckMode::Panic);
        let faulted = case.with_fault(FaultKind::TagFlip, 2_000);
        let sys = build_system(&faulted, &events).expect("valid case");
        assert_eq!(sys.check_mode(), CheckMode::Off);
    }

    #[test]
    fn campaign_matrix_has_expected_shape() {
        let cases = campaign_cases(&[1, 2]);
        // Per seed & pattern: 8 baseline designs + 4 Alloy feature rungs.
        assert_eq!(cases.len(), 2 * 4 * (8 + 4));
        assert!(cases
            .iter()
            .all(|c| c.design == DesignKind::Alloy || c.features == FeatureSet::None));
    }
}
