//! Run-loop-mode property test for the event-driven fast paths.
//!
//! The event-driven loop (idle skips, deferred DRAM devices, channel
//! gating, per-core deferral) claims to be purely a wall-clock optimisation: it must
//! produce the *identical* simulation to per-cycle polling — same
//! observable-event stream, same statistics, same attribution ledger, same
//! report bytes. This test pins that contract where it is hardest to keep:
//! the four adversarial trace generators (set-conflict storms,
//! dirty-eviction floods, duel-set thrash, NTC neighbor aliasing) crossed
//! with the paper's B/BD/BDN/BEAR feature ladder, each replayed polled and
//! event-driven.

use bear_bench::report::Report;
use bear_bench::{config_for, RunPlan};
use bear_core::config::{BearFeatures, DesignKind};
use bear_core::system::System;
use bear_oracle::fuzz::{quick_config, trace_for, FeatureSet, FuzzCase};
use bear_workloads::{AdversarialPattern, BenchmarkProfile, ScriptedTrace, TraceSource, Workload};

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
    /// Run-loop accounting: skipped cycles, live ticks, the final clock
    /// and the channel ticks the devices replayed late.
    cycles: Cycles,
    /// DRAM channel ticks that changed nothing.
    noop_ticks: u64,
}

/// Where a run's simulated cycles went.
#[derive(Debug, Clone, Copy)]
struct Cycles {
    skipped: u64,
    live: u64,
    now: u64,
    replayed: u64,
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
            live: sys.loop_counters().1,
            now: sys.now().raw(),
            replayed: sys.l4_cache().harness().dram_work().replayed_ticks,
        },
        noop_ticks: sys.l4_cache().harness().dram_work().noop_ticks,
    }
}

#[test]
fn event_loop_is_invisible_across_adversarial_grid() {
    let mut any_replay = false;
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
                    c.skipped + c.live,
                    c.now,
                    "{cell}: {mode} cycle accounting does not add up: {c:?}"
                );
            }
            let (p, e) = (polled.cycles, event.cycles);
            assert_eq!(
                (p.skipped, p.replayed),
                (0, 0),
                "{cell}: polling must not elide or defer"
            );
            assert!(e.skipped > 0, "{cell}: the event loop elided nothing");
            assert_eq!(event.noop_ticks, 0, "{cell}: a channel ticked for nothing");
            any_replay |= e.replayed > 0;
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
    assert!(any_replay, "no cell of the grid deferred a device tick");
}

/// Event-driven channels tick only when they change: each channel's
/// scheduler preview names exactly the cycle its act phase next issues a
/// command. The quick Alloy × sphinx3 cell of the `loop_speedup` grid
/// reaches the case a preview must get right: a row hit turns ready while
/// the front request waits for its ACT and the bus is busy past both.
#[test]
fn event_driven_channels_run_no_noop_tick() {
    let plan = RunPlan {
        warmup: 400_000,
        measure: 300_000,
        scale_shift: 9,
        quick: true,
    };
    let cfg = config_for(DesignKind::Alloy, BearFeatures::none(), &plan);
    let profile = BenchmarkProfile::by_name("sphinx3").expect("a known benchmark");
    let mut sys = System::build(&cfg, &Workload::rate(profile));
    sys.set_event_driven(true);
    sys.run(cfg.warmup_cycles, cfg.measure_cycles);
    let work = sys.l4_cache().harness().dram_work();
    assert!(work.commands > 0, "the cell issued no DRAM command");
    assert_eq!(work.noop_ticks, 0, "a channel ticked for nothing: {work:?}");
}
