//! Run-loop-mode property test for the event-driven fast paths.
//!
//! The event-driven loop (completion-horizon advances, channel gating,
//! per-core deferral) claims to be purely a wall-clock optimisation: it must
//! produce the *identical* simulation to per-cycle polling — same
//! observable-event stream, same statistics, same attribution ledger, same
//! report bytes. This test pins that contract where it is hardest to keep:
//! the four adversarial trace generators (set-conflict storms,
//! dirty-eviction floods, duel-set thrash, NTC neighbor aliasing) crossed
//! with the paper's B/BD/BDN/BEAR feature ladder, each replayed polled and
//! event-driven.

use bear_bench::report::Report;
use bear_bench::RunPlan;
use bear_core::config::DesignKind;
use bear_core::system::System;
use bear_oracle::fuzz::{quick_config, trace_for, FeatureSet, FuzzCase};
use bear_workloads::{AdversarialPattern, ScriptedTrace, TraceSource};

/// The B/BD/BDN/BEAR rungs of the technique ladder.
const RUNGS: [FeatureSet; 4] = [
    FeatureSet::None,
    FeatureSet::Bab,
    FeatureSet::BabDcp,
    FeatureSet::Full,
];

/// Everything an observer can extract from one run, rendered to bytes.
struct Fingerprint {
    events: String,
    stats: String,
    ledger: String,
    report: String,
    /// Run-loop accounting: cycles advanced with no device work, cycles
    /// advanced with some, live ticks, and the final clock.
    cycles: Cycles,
}

/// Where a run's simulated cycles went.
#[derive(Debug, Clone, Copy)]
struct Cycles {
    skipped: u64,
    span: u64,
    live: u64,
    now: u64,
}

/// Replays `case`'s trace in the given run-loop mode and fingerprints
/// every observable surface.
fn fingerprint(case: &FuzzCase, event_driven: bool) -> Fingerprint {
    let cfg = quick_config(case.design, case.features);
    let src: Box<dyn TraceSource> = Box::new(ScriptedTrace::new(
        case.pattern.label(),
        trace_for(case).to_vec(),
    ));
    let mut sys = System::build_with_sources(&cfg, vec![src]).expect("valid fuzz config");
    sys.set_event_driven(event_driven);
    sys.set_observe(true);
    let stats = sys.run(0, case.cycles);
    sys.quiesce(case.quiesce_budget);
    let events = format!("{:?}", sys.drain_events());
    let ledger = format!("{:?}", sys.l4_cache().harness().ledger());
    let plan = RunPlan {
        warmup: 0,
        measure: case.cycles,
        scale_shift: cfg.scale_shift,
        quick: false,
    };
    let mut report = Report::new("loop_modes");
    report.add_run(case.pattern.label(), &stats, None);
    Fingerprint {
        events,
        stats: format!("{stats:?}"),
        ledger,
        report: report.to_json(&plan).to_string_pretty(),
        cycles: Cycles {
            skipped: sys.loop_counters().0,
            span: sys.span_cycles(),
            live: sys.loop_counters().1,
            now: sys.now().raw(),
        },
    }
}

#[test]
fn event_loop_is_invisible_across_adversarial_grid() {
    let (mut any_skip, mut any_span) = (false, false);
    for pattern in AdversarialPattern::ALL {
        for features in RUNGS {
            let mut case = FuzzCase::new(DesignKind::Alloy, features, pattern, 0xBEA2);
            case.cycles = 6_000;
            case.trace_len = 1_500;
            let polled = fingerprint(&case, false);
            let event = fingerprint(&case, true);
            let cell = format!("{}/{}", pattern.label(), features.label());
            for (mode, c) in [("polled", polled.cycles), ("event", event.cycles)] {
                assert_eq!(
                    c.skipped + c.span + c.live,
                    c.now,
                    "{cell}: {mode} cycle accounting does not add up: {c:?}"
                );
            }
            let (p, e) = (polled.cycles, event.cycles);
            assert_eq!(
                (p.skipped, p.span),
                (0, 0),
                "{cell}: polling must not elide"
            );
            assert!(
                e.skipped + e.span > 0,
                "{cell}: the event loop elided nothing"
            );
            any_skip |= e.skipped > 0;
            any_span |= e.span > 0;
            assert_eq!(
                polled.events, event.events,
                "{cell}: ObsEvent stream diverged from polling"
            );
            assert_eq!(
                polled.stats, event.stats,
                "{cell}: run statistics diverged from polling"
            );
            assert_eq!(
                polled.ledger, event.ledger,
                "{cell}: attribution ledger diverged from polling"
            );
            assert_eq!(
                polled.report, event.report,
                "{cell}: report bytes diverged from polling"
            );
        }
    }
    assert!(any_skip, "no cell of the grid skipped a cycle");
    assert!(any_span, "no cell of the grid advanced a span");
}
