//! First tractable full-scale demo cell: one BEAR × mcf run at
//! `--scale 1` (a 1 GB L4, the paper's actual system), timed end to end.
//!
//! The gigascale run loop (DESIGN.md §14) is what makes this cell
//! finish in seconds instead of minutes: idle skips, deferred DRAM
//! devices and channel gating elide the overwhelmingly idle cycles a 1 GB
//! cache's long miss latencies produce. The binary runs through the
//! campaign driver and accepts the standard flags (`--out`, `--scale` —
//! default `1` here, unlike the other binaries); scalars record wall
//! clock, the share of all simulated cycles the loop skipped, and the
//! cell's headline stats so runs are comparable across machines.

use bear_bench::report::Report;
use bear_bench::{cli, config_for, Campaign};
use bear_core::config::{BearFeatures, DesignKind, ScalePreset};
use bear_core::system::System;
use bear_workloads::{BenchmarkProfile, Workload};
use std::time::Instant;

fn run(campaign: &Campaign, report: &mut Report) {
    let plan = &campaign.plan;
    report.banner("scale_demo", "Full-scale (1 GB L4) demo cell", plan);
    let cfg = config_for(DesignKind::Alloy, BearFeatures::full(), plan);
    let profile = BenchmarkProfile::by_name("mcf").expect("mcf profile");
    let workload = Workload::rate(profile);
    let mut sys = System::build(&cfg, &workload);
    sys.set_event_driven(true);
    let t0 = Instant::now();
    let stats = sys.run(cfg.warmup_cycles, cfg.measure_cycles);
    let wall = t0.elapsed();
    // Skipped and live-tick cycles partition the simulated cycles.
    let total = sys.now().raw().max(1) as f64;
    let elided_frac = sys.loop_counters().0 as f64 / total;
    println!(
        "BEAR x mcf @ L4 {} MB: {} cycles in {:.2}s ({:.0}% of cycles skipped)",
        cfg.l4_capacity() >> 20,
        cfg.warmup_cycles + cfg.measure_cycles,
        wall.as_secs_f64(),
        elided_frac * 100.0,
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
    report.add_scalar("elided_frac", elided_frac);
    report.add_scalar("l4_capacity_bytes", cfg.l4_capacity() as f64);
}

fn main() {
    let mut args = cli::parse_args(std::env::args().skip(1));
    // This binary exists to demonstrate full scale: default to `--scale 1`
    // rather than the development default, unless the user picked one.
    args.scale.get_or_insert(ScalePreset::Full);
    cli::run(&args, &[("scale_demo", run)]);
}
