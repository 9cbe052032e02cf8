//! Equivalence guards for the deferred DRAM devices.
//!
//! The event loop claims to be *exact*: skipping every cycle in which only
//! the DRAM channels can work, and letting the devices replay those
//! channel ticks when next touched, must land in precisely the state
//! per-cycle polling reaches. These tests pin that claim end-to-end —
//! full runs compared field-for-field between the polled and the event
//! loop.

use bear_core::config::{DesignKind, SystemConfig};
use bear_core::system::System;

const WARMUP: u64 = 20_000;
const MEASURE: u64 = 60_000;

fn run(cfg: &SystemConfig, event_driven: bool, bench: &str) -> String {
    let mut sys = System::build_rate(cfg, bench);
    sys.set_event_driven(event_driven);
    let stats = sys.run(WARMUP, MEASURE);
    format!("{stats:?}")
}

#[test]
fn span_advance_matches_polled_loop_for_every_design() {
    for design in [
        DesignKind::Alloy,
        DesignKind::NoCache,
        DesignKind::LohHill,
        DesignKind::TagsInSram,
        DesignKind::SectorCache,
    ] {
        let cfg = SystemConfig::paper_baseline(design);
        let polled = run(&cfg, false, "mcf");
        let event = run(&cfg, true, "mcf");
        assert_eq!(
            polled, event,
            "{design:?}: event loop diverged from polling"
        );
    }
}

#[test]
fn salp_subarrays_preserve_span_equivalence() {
    // Multi-subarray banks (MASA) give every bank per-subarray open-row
    // and timing state; the busy hints and retire horizons must stay exact.
    // verify.sh reruns this file under BEAR_GATE_DIAG=1, which re-executes
    // every elided tick and asserts it was a no-op — with these knobs
    // armed that audit covers the subarray-aware gating too.
    let mut cfg = SystemConfig::paper_baseline(DesignKind::Alloy);
    cfg.cache_dram.topology.subarrays_per_bank = 4;
    cfg.mem_dram.topology.subarrays_per_bank = 2;
    let polled = run(&cfg, false, "mcf");
    let event = run(&cfg, true, "mcf");
    assert_eq!(polled, event, "MASA: event loop diverged from polling");
}

/// The devices really do lag the loop on memory-bound work: some channel
/// ticks run late, in a replay, rather than in a live tick.
#[test]
fn devices_replay_deferred_ticks_on_memory_bound_work() {
    let cfg = SystemConfig::paper_baseline(DesignKind::Alloy);
    let mut sys = System::build_rate(&cfg, "mcf");
    sys.run(WARMUP, MEASURE);
    let work = sys.l4_cache().harness().dram_work();
    assert!(
        work.replayed_ticks > 0,
        "no device tick was deferred on a memory-bound benchmark"
    );
    let (skipped, live) = sys.loop_counters();
    assert_eq!(skipped + live, sys.now().raw(), "cycle accounting");
    assert!(skipped > 0, "the loop skipped no cycle");
}
