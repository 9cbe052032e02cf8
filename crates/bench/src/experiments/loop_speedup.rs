//! Wall-clock speedup of the event-driven run loop over per-cycle polling.
//!
//! The simulator's run loop fast-forwards provably idle cycles (see
//! `System::set_event_driven`); skipped cycles are no-ops by construction,
//! so both modes retire identical instruction streams and report identical
//! statistics — this experiment *asserts* that equivalence on every cell
//! while measuring the wall-clock ratio. The grid is the campaign smoke
//! grid: one representative cell per design family, mixing memory-bound
//! and cache-friendly workloads so both skip regimes (blocked-on-DRAM and
//! mid-gap retirement) are exercised.
//!
//! Report rows carry the event-driven run's statistics with `speedup` set
//! to `poll_wall_ns / event_wall_ns`; scalars record both raw wall times
//! per cell (`poll_ns:<config>:<workload>`, `event_ns:<config>:<workload>`)
//! and their skip and span shares of all simulated cycles
//! (`skip_frac:<config>:<workload>`, `span_frac:<config>:<workload>`),
//! and the headline `speedup_gmean`.

use crate::report::Report;
use crate::{config_for, f3, gmean, print_row, Campaign};
use bear_core::config::{BearFeatures, DesignKind};
use bear_core::metrics::RunStats;
use bear_core::system::System;
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

/// Runs one cell in the given mode, returning (best wall ns, stats,
/// skip share, span share). The shares are of all simulated cycles.
/// Wall time covers the monitored run only (not system construction);
/// best-of-N suppresses scheduler noise without the many samples a
/// median would need on an already simulation-bound budget.
fn time_cell(
    cfg: &bear_core::config::SystemConfig,
    workload: &Workload,
    event_driven: bool,
    samples: usize,
) -> (u64, RunStats, f64, f64) {
    let mut best_ns = u64::MAX;
    let mut best_stats = None;
    let (mut skip_frac, mut span_frac) = (0.0, 0.0);
    for _ in 0..samples.max(1) {
        let mut sys = System::build(cfg, workload);
        sys.set_event_driven(event_driven);
        let t0 = Instant::now();
        let stats = sys.run(cfg.warmup_cycles, cfg.measure_cycles);
        let ns = t0.elapsed().as_nanos() as u64;
        if ns < best_ns {
            best_ns = ns;
            best_stats = Some(stats);
            let total = sys.now().raw().max(1) as f64;
            skip_frac = sys.loop_counters().0 as f64 / total;
            span_frac = sys.span_cycles() as f64 / total;
        }
    }
    let stats = best_stats.expect("at least one sample");
    (best_ns, stats, skip_frac, span_frac)
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
            "skipped".into(),
            "spans".into(),
            "speedup".into(),
        ],
    );
    let mut speedups = Vec::new();
    for cell in grid() {
        let cfg = config_for(cell.design, cell.bear, plan);
        let profile = BenchmarkProfile::by_name(cell.bench)
            .unwrap_or_else(|| panic!("unknown benchmark {}", cell.bench));
        let workload = Workload::rate(profile);
        let (poll_ns, poll_stats, ..) = time_cell(&cfg, &workload, false, samples);
        let (event_ns, event_stats, skip_frac, span_frac) =
            time_cell(&cfg, &workload, true, samples);
        assert_equivalent(cell.label, cell.bench, &event_stats, &poll_stats);
        let sp = poll_ns as f64 / event_ns.max(1) as f64;
        let key = format!("{}:{}", cell.label, cell.bench);
        print_row(
            &format!("{}x{}", cell.label, cell.bench),
            &[
                format!("{:.1}", poll_ns as f64 / 1e6),
                format!("{:.1}", event_ns as f64 / 1e6),
                format!("{:.0}%", skip_frac * 100.0),
                format!("{:.0}%", span_frac * 100.0),
                f3(sp),
            ],
        );
        report.add_run(cell.label, &event_stats, Some(sp));
        report.add_scalar(&format!("poll_ns:{key}"), poll_ns as f64);
        report.add_scalar(&format!("event_ns:{key}"), event_ns as f64);
        report.add_scalar(&format!("skip_frac:{key}"), skip_frac);
        report.add_scalar(&format!("span_frac:{key}"), span_frac);
        speedups.push(sp);
    }
    let overall = gmean(&speedups);
    println!("overall speedup (gmean): {}", f3(overall));
    report.add_scalar("speedup_gmean", overall);
}
