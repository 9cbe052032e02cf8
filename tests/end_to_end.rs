//! Cross-crate integration tests: build full systems through the public
//! API and check that the architectural invariants the paper relies on
//! hold end to end.

use bear_core::config::{BearFeatures, DesignKind, FillPolicy, SystemConfig};
use bear_core::metrics::RunStats;
use bear_core::system::System;
use bear_workloads::{named_mixes, BenchmarkProfile, Workload};

fn quick(design: DesignKind) -> SystemConfig {
    let mut cfg = SystemConfig::paper_baseline(design);
    cfg.scale_shift = 12;
    cfg.warmup_cycles = 150_000;
    cfg.measure_cycles = 150_000;
    cfg
}

fn run(cfg: &SystemConfig, bench: &str) -> RunStats {
    System::build_rate(cfg, bench).run(cfg.warmup_cycles, cfg.measure_cycles)
}

#[test]
fn every_design_completes_work_on_every_intensity() {
    for design in DesignKind::ALL {
        for bench in ["mcf", "xalancbmk"] {
            let stats = run(&quick(design), bench);
            assert!(
                stats.total_ipc() > 0.01,
                "{design:?}/{bench} stalled: {stats:?}"
            );
            assert!(stats.insts_per_core.iter().all(|&i| i > 0));
        }
    }
}

#[test]
fn bwopt_bloat_is_unity_and_lowest() {
    let opt = run(&quick(DesignKind::BwOpt), "gcc");
    let alloy = run(&quick(DesignKind::Alloy), "gcc");
    let lh = run(&quick(DesignKind::LohHill), "gcc");
    assert!((opt.bloat.factor() - 1.0).abs() < 0.02);
    assert!(alloy.bloat.factor() > 1.5);
    assert!(lh.bloat.factor() > alloy.bloat.factor() * 0.8);
}

#[test]
fn bear_components_reduce_cache_traffic() {
    let mut base_cfg = quick(DesignKind::Alloy);
    base_cfg.bear = BearFeatures::none();
    let base = run(&base_cfg, "gcc");

    let mut bear_cfg = quick(DesignKind::Alloy);
    bear_cfg.bear = BearFeatures::full();
    let bear = run(&bear_cfg, "gcc");

    // Fewer bytes per useful byte.
    assert!(
        bear.bloat.factor() < base.bloat.factor(),
        "bear {} vs alloy {}",
        bear.bloat.factor(),
        base.bloat.factor()
    );
    // And a visible latency win.
    assert!(bear.l4.hit_latency < base.l4.hit_latency);
}

#[test]
fn dcp_eliminates_most_writeback_probes() {
    let mut cfg = quick(DesignKind::Alloy);
    cfg.bear = BearFeatures::bab_dcp();
    let stats = run(&cfg, "omnetpp");
    assert!(stats.l4.wb_probes_avoided > 0, "{stats:?}");
}

#[test]
fn inclusive_cache_cannot_bypass_but_avoids_probes() {
    let mut cfg = quick(DesignKind::InclusiveAlloy);
    cfg.bear.fill_policy = FillPolicy::BandwidthAware(0.9);
    assert!(
        cfg.validate().is_err(),
        "Section 5.1: inclusion forbids bypass"
    );

    let stats = run(&quick(DesignKind::InclusiveAlloy), "gcc");
    assert!(stats.l4.wb_probes_avoided > 0);
    assert_eq!(stats.l4.bypasses, 0);
}

#[test]
fn mixes_run_and_weighted_speedup_is_sane() {
    let mix = &named_mixes()[0];
    let cfg = quick(DesignKind::Alloy);
    let mut sys = System::build(&cfg, mix);
    let stats = sys.run(cfg.warmup_cycles, cfg.measure_cycles);
    assert_eq!(stats.ipc_per_core.len(), 8);
    let spd =
        bear_cpu::metrics::normalized_weighted_speedup(&stats.ipc_per_core, &stats.ipc_per_core);
    assert!((spd - 1.0).abs() < 1e-12);
}

#[test]
fn determinism_across_identical_builds() {
    let cfg = quick(DesignKind::Alloy);
    let a = run(&cfg, "leslie3d");
    let b = run(&cfg, "leslie3d");
    assert_eq!(a.insts_per_core, b.insts_per_core);
    assert_eq!(a.bloat.bytes, b.bloat.bytes);
    assert_eq!(a.l4.read_lookups, b.l4.read_lookups);
}

#[test]
fn seed_changes_change_the_run() {
    let cfg = quick(DesignKind::Alloy);
    let mut cfg2 = cfg.clone();
    cfg2.seed ^= 0xDEAD;
    let a = run(&cfg, "leslie3d");
    let b = run(&cfg2, "leslie3d");
    assert_ne!(a.l4.read_lookups, b.l4.read_lookups);
}

#[test]
fn custom_profiles_work_through_public_api() {
    let profile = BenchmarkProfile {
        name: "synthetic",
        mpki: 15.0,
        footprint_bytes: 1 << 30,
        class: bear_workloads::IntensityClass::High,
        apki: 25.0,
        write_frac: 0.3,
        hot_frac: 0.05,
        hot_prob: 0.7,
        seq_mean: 4.0,
        pc_count: 32,
    };
    let workload = Workload {
        name: "rate:synthetic".into(),
        benchmarks: [profile; 8],
        is_rate: true,
    };
    let cfg = quick(DesignKind::Alloy);
    let stats = System::build(&cfg, &workload).run(cfg.warmup_cycles, cfg.measure_cycles);
    assert!(stats.l4.read_lookups > 0);
}

#[test]
fn bandwidth_scaling_helps_the_baseline() {
    let mut narrow = quick(DesignKind::Alloy);
    narrow.cache_dram = bear_dram::config::DramConfig::stacked_cache_bandwidth(4);
    let mut wide = quick(DesignKind::Alloy);
    wide.cache_dram = bear_dram::config::DramConfig::stacked_cache_bandwidth(16);
    let n = run(&narrow, "lbm");
    let w = run(&wide, "lbm");
    assert!(
        w.l4.hit_latency <= n.l4.hit_latency * 1.05,
        "wide {} vs narrow {}",
        w.l4.hit_latency,
        n.l4.hit_latency
    );
}
