//! First tractable full-scale demo cell: one BEAR × mcf run at
//! `--scale 1` (a 1 GB L4, the paper's actual system), timed end to end.
//!
//! The gigascale run loop (DESIGN.md §14) is what makes this cell
//! finish in seconds instead of minutes: whole-cycle skips, channel
//! gating, and completion-horizon span advances elide the overwhelmingly
//! idle cycles a 1 GB cache's long miss latencies produce. The binary
//! accepts the standard flags (`--out`, `--scale` — default `1` here,
//! unlike the other binaries); scalars record wall clock, span/skip
//! coverage, and the cell's headline stats so runs are comparable across
//! machines.

use bear_bench::report::Report;
use bear_bench::{config_for, RunPlan};
use bear_core::config::{BearFeatures, DesignKind, ScalePreset};
use bear_core::system::System;
use bear_workloads::{BenchmarkProfile, Workload};
use std::time::Instant;

fn run(plan: &RunPlan, report: &mut Report) {
    report.banner("scale_demo", "Full-scale (1 GB L4) demo cell", plan);
    let cfg = config_for(DesignKind::Alloy, BearFeatures::full(), plan);
    let profile = BenchmarkProfile::by_name("mcf").expect("mcf profile");
    let workload = Workload::rate(profile);
    let mut sys = System::build(&cfg, &workload);
    sys.set_event_driven(true);
    let t0 = Instant::now();
    let stats = sys.run(cfg.warmup_cycles, cfg.measure_cycles);
    let wall = t0.elapsed();
    let (skipped, live) = sys.loop_counters();
    let total = (skipped + live).max(1);
    println!(
        "BEAR x mcf @ L4 {} MB: {} cycles in {:.2}s \
         ({:.0}% cycles skipped, {} of them inside spans)",
        cfg.l4_capacity() >> 20,
        cfg.warmup_cycles + cfg.measure_cycles,
        wall.as_secs_f64(),
        skipped as f64 / total as f64 * 100.0,
        sys.span_cycles(),
    );
    // At this budget a 1 GB cache is still warming (the paper's runs are
    // billions of cycles), so hit-dependent ratios like the bloat factor
    // are not yet meaningful; report the raw warming progress instead.
    println!(
        "ipc {:.3}  demand lookups {}  hits {} (rate {:.3})  lines filled {}",
        stats.ipc_per_core.first().copied().unwrap_or(0.0),
        stats.l4.read_lookups,
        stats.l4.read_hits,
        stats.l4.hit_rate,
        stats.l4.fills,
    );
    report.add_run("BEAR", &stats, None);
    report.add_scalar("wall_ns", wall.as_nanos() as f64);
    report.add_scalar("skip_frac", skipped as f64 / total as f64);
    report.add_scalar("span_cycles", sys.span_cycles() as f64);
    report.add_scalar("l4_capacity_bytes", cfg.l4_capacity() as f64);
}

fn main() {
    let mut args = bear_bench::cli::parse_single_args(std::env::args().skip(1));
    // This binary exists to demonstrate full scale: default to `--scale 1`
    // rather than the development default, unless the user picked one.
    if args.scale.is_none() {
        args.scale = Some(ScalePreset::Full);
    }
    bear_bench::cli::run_single_with("scale_demo", args, run);
}
