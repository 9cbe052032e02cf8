//! Wall-clock speedup of the event-driven run loop over per-cycle polling.
//!
//! The simulator's run loop fast-forwards provably idle cycles (see
//! `System::set_event_driven`); skipped cycles are no-ops by construction,
//! so both modes retire identical instruction streams and report identical
//! statistics — this experiment *asserts* that equivalence on every cell,
//! and that no event-driven DRAM channel tick is a no-op (each channel's
//! scheduler preview is exact), while measuring the wall-clock ratio. The grid is the campaign smoke
//! grid: one representative cell per design family, mixing memory-bound
//! and cache-friendly workloads so both skip regimes (blocked-on-DRAM and
//! mid-gap retirement) are exercised.
//!
//! Report rows carry the event-driven run's statistics with `speedup` set
//! to `poll_wall_ns / event_wall_ns`; scalars record both raw wall times
//! per cell (`poll_ns:<config>:<workload>`, `event_ns:<config>:<workload>`),
//! the share of all simulated cycles the event loop skipped
//! (`elided_frac:<config>:<workload>`), the event-driven run's absolute
//! simulated Mcycles per host second (`event_mcps_best:` and
//! `event_mcps_median:` over its samples), its DRAM host-work counters
//! (`dram_channel_ticks:`, `dram_noop_ticks:`, `dram_commands:`,
//! `dram_previews:`, `dram_entries_scanned:`, `dram_replayed_ticks:`; see
//! `bear_dram::channel::DramWork`), and the headline `speedup_gmean`.

use crate::report::Report;
use crate::{config_for, f3, gmean, print_row, Campaign};
use bear_core::config::{BearFeatures, DesignKind};
use bear_core::metrics::RunStats;
use bear_core::system::System;
use bear_dram::channel::DramWork;
use bear_workloads::{BenchmarkProfile, Workload};
use std::time::Instant;

/// One cell of the smoke grid.
struct Cell {
    label: &'static str,
    design: DesignKind,
    bear: BearFeatures,
    bench: &'static str,
}

/// The campaign smoke grid: every design family once.
fn grid() -> Vec<Cell> {
    vec![
        Cell {
            label: "NoCache",
            design: DesignKind::NoCache,
            bear: BearFeatures::none(),
            bench: "mcf",
        },
        Cell {
            label: "Alloy",
            design: DesignKind::Alloy,
            bear: BearFeatures::none(),
            bench: "sphinx3",
        },
        Cell {
            label: "BEAR",
            design: DesignKind::Alloy,
            bear: BearFeatures::full(),
            bench: "mcf",
        },
        Cell {
            label: "LohHill",
            design: DesignKind::LohHill,
            bear: BearFeatures::none(),
            bench: "gcc",
        },
        Cell {
            label: "TIS",
            design: DesignKind::TagsInSram,
            bear: BearFeatures::none(),
            bench: "omnetpp",
        },
    ]
}

/// One cell's timing in one run-loop mode.
struct Timing {
    /// Best and median wall ns over the samples.
    best_ns: u64,
    median_ns: u64,
    /// Simulated cycles per sample (warm-up plus measurement).
    cycles: u64,
    /// Statistics of the best sample.
    stats: RunStats,
    /// Share of all simulated cycles skipped (best sample).
    elided_frac: f64,
    /// DRAM host-work counters (identical in every sample).
    work: DramWork,
}

/// Runs one cell in the given mode. Wall time covers the monitored run
/// only (not system construction); best-of-N suppresses scheduler noise
/// without the many samples a median would need on an already
/// simulation-bound budget, and the median is kept beside it.
fn time_cell(
    cfg: &bear_core::config::SystemConfig,
    workload: &Workload,
    event_driven: bool,
    samples: usize,
) -> Timing {
    let mut all_ns = Vec::with_capacity(samples.max(1));
    let mut best: Option<Timing> = None;
    for _ in 0..samples.max(1) {
        let mut sys = System::build(cfg, workload);
        sys.set_event_driven(event_driven);
        let t0 = Instant::now();
        let stats = sys.run(cfg.warmup_cycles, cfg.measure_cycles);
        let ns = t0.elapsed().as_nanos() as u64;
        all_ns.push(ns);
        if best.as_ref().is_none_or(|b| ns < b.best_ns) {
            let total = sys.now().raw().max(1);
            best = Some(Timing {
                best_ns: ns,
                median_ns: 0,
                cycles: total,
                stats,
                elided_frac: sys.loop_counters().0 as f64 / total as f64,
                work: sys.l4_cache().harness().dram_work(),
            });
        }
    }
    all_ns.sort_unstable();
    let mut timing = best.expect("at least one sample");
    timing.median_ns = all_ns[all_ns.len() / 2];
    timing
}

/// Asserts the two modes produced bit-identical simulated results.
fn assert_equivalent(label: &str, bench: &str, event: &RunStats, poll: &RunStats) {
    assert_eq!(
        event.insts_per_core, poll.insts_per_core,
        "{label}×{bench}: instruction streams diverged between run-loop modes"
    );
    assert_eq!(
        event.l4.read_lookups, poll.l4.read_lookups,
        "{label}×{bench}: L4 lookups diverged between run-loop modes"
    );
    assert_eq!(
        event.bloat.total_bytes(),
        poll.bloat.total_bytes(),
        "{label}×{bench}: cache bus bytes diverged between run-loop modes"
    );
    assert_eq!(
        event.mem_bytes, poll.mem_bytes,
        "{label}×{bench}: memory bus bytes diverged between run-loop modes"
    );
}

/// Entry point (see the `loop_speedup` binary).
pub fn run(campaign: &Campaign, report: &mut Report) {
    let plan = &campaign.plan;
    report.banner(
        "loop_speedup",
        "Event-driven run loop vs per-cycle polling (wall clock)",
        plan,
    );
    let samples = if plan.quick { 2 } else { 3 };
    print_row(
        "cell",
        &[
            "poll ms".into(),
            "event ms".into(),
            "elided".into(),
            "speedup".into(),
        ],
    );
    let mut speedups = Vec::new();
    for cell in grid() {
        let cfg = config_for(cell.design, cell.bear, plan);
        let profile = BenchmarkProfile::by_name(cell.bench)
            .unwrap_or_else(|| panic!("unknown benchmark {}", cell.bench));
        let workload = Workload::rate(profile);
        let poll = time_cell(&cfg, &workload, false, samples);
        let event = time_cell(&cfg, &workload, true, samples);
        assert_equivalent(cell.label, cell.bench, &event.stats, &poll.stats);
        assert_eq!(
            event.work.noop_ticks, 0,
            "{}×{}: an event-driven DRAM channel ticked for nothing",
            cell.label, cell.bench
        );
        let (poll_ns, event_ns) = (poll.best_ns, event.best_ns);
        let sp = poll_ns as f64 / event_ns.max(1) as f64;
        let key = format!("{}:{}", cell.label, cell.bench);
        print_row(
            &format!("{}x{}", cell.label, cell.bench),
            &[
                format!("{:.1}", poll_ns as f64 / 1e6),
                format!("{:.1}", event_ns as f64 / 1e6),
                format!("{:.0}%", event.elided_frac * 100.0),
                f3(sp),
            ],
        );
        report.add_run(cell.label, &event.stats, Some(sp));
        report.add_scalar(&format!("poll_ns:{key}"), poll_ns as f64);
        report.add_scalar(&format!("event_ns:{key}"), event_ns as f64);
        report.add_scalar(&format!("elided_frac:{key}"), event.elided_frac);
        // Simulated cycles per wall ns, times 1e3: Mcycles/s.
        let mcps = |ns: u64| event.cycles as f64 * 1e3 / ns.max(1) as f64;
        report.add_scalar(&format!("event_mcps_best:{key}"), mcps(event.best_ns));
        report.add_scalar(&format!("event_mcps_median:{key}"), mcps(event.median_ns));
        let w = event.work;
        for (name, value) in [
            ("channel_ticks", w.channel_ticks),
            ("noop_ticks", w.noop_ticks),
            ("commands", w.commands),
            ("previews", w.previews),
            ("entries_scanned", w.entries_scanned),
            ("replayed_ticks", w.replayed_ticks),
        ] {
            report.add_scalar(&format!("dram_{name}:{key}"), value as f64);
        }
        speedups.push(sp);
    }
    let overall = gmean(&speedups);
    println!("overall speedup (gmean): {}", f3(overall));
    report.add_scalar("speedup_gmean", overall);
}
