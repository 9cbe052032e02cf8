//! Shape-level assertions of the paper's headline claims at reduced scale:
//! these are the invariants EXPERIMENTS.md reports in full. They use small
//! windows so the whole file runs in seconds; the bench binaries produce
//! the publication-scale numbers.

use bear_core::config::{BearFeatures, DesignKind, SystemConfig};
use bear_core::metrics::RunStats;
use bear_core::system::System;
use bear_workloads::Workload;

fn cfg(design: DesignKind, bear: BearFeatures) -> SystemConfig {
    let mut cfg = SystemConfig::paper_baseline(design);
    cfg.scale_shift = 11;
    cfg.warmup_cycles = 400_000;
    cfg.measure_cycles = 250_000;
    if design == DesignKind::Alloy {
        cfg.bear = bear;
    }
    cfg
}

fn run(design: DesignKind, bear: BearFeatures, bench: &str) -> RunStats {
    let c = cfg(design, bear);
    System::build_rate(&c, bench).run(c.warmup_cycles, c.measure_cycles)
}

fn gmean_ratio(a: &[RunStats], b: &[RunStats]) -> f64 {
    let spd: Vec<f64> = a
        .iter()
        .zip(b)
        .map(|(x, y)| x.total_ipc() / y.total_ipc())
        .collect();
    bear_sim::stats::geometric_mean(&spd)
}

const BENCHES: [&str; 4] = ["gcc", "libquantum", "GemsFDTD", "sphinx3"];

fn suite(design: DesignKind, bear: BearFeatures) -> Vec<RunStats> {
    BENCHES.iter().map(|b| run(design, bear, b)).collect()
}

#[test]
fn bloat_ordering_lh_alloy_bear_bwopt() {
    let lh = suite(DesignKind::LohHill, BearFeatures::none());
    let alloy = suite(DesignKind::Alloy, BearFeatures::none());
    let bear = suite(DesignKind::Alloy, BearFeatures::full());
    let opt = suite(DesignKind::BwOpt, BearFeatures::none());
    let f = |v: &[RunStats]| {
        let mut m = bear_core::metrics::BloatBreakdown::default();
        for s in v {
            m.merge(&s.bloat);
        }
        m.factor()
    };
    let (lh, alloy, bear, opt) = (f(&lh), f(&alloy), f(&bear), f(&opt));
    assert!(
        lh > alloy && alloy > bear && bear > opt,
        "bloat ordering violated: LH {lh:.2} Alloy {alloy:.2} BEAR {bear:.2} OPT {opt:.2}"
    );
    assert!((opt - 1.0).abs() < 0.02, "BW-Opt bloat {opt}");
    assert!(alloy > 2.0, "Alloy bloat {alloy} too small");
}

#[test]
fn bear_cuts_hit_latency_without_cratering_hit_rate() {
    let alloy = suite(DesignKind::Alloy, BearFeatures::none());
    let bear = suite(DesignKind::Alloy, BearFeatures::full());
    let lat = |v: &[RunStats]| v.iter().map(|s| s.l4.hit_latency).sum::<f64>() / v.len() as f64;
    let hit = |v: &[RunStats]| v.iter().map(|s| s.l4.hit_rate).sum::<f64>() / v.len() as f64;
    assert!(
        lat(&bear) < lat(&alloy) * 0.9,
        "BEAR hit latency {:.0} vs Alloy {:.0}",
        lat(&bear),
        lat(&alloy)
    );
    assert!(
        hit(&bear) > hit(&alloy) - 0.10,
        "BEAR hit rate {:.2} collapsed vs {:.2}",
        hit(&bear),
        hit(&alloy)
    );
}

#[test]
fn bwopt_bounds_bear_from_above() {
    let alloy = suite(DesignKind::Alloy, BearFeatures::none());
    let bear = suite(DesignKind::Alloy, BearFeatures::full());
    let opt = suite(DesignKind::BwOpt, BearFeatures::none());
    let bear_gain = gmean_ratio(&bear, &alloy);
    let opt_gain = gmean_ratio(&opt, &alloy);
    assert!(
        opt_gain >= bear_gain - 0.05,
        "idealized cache must bound BEAR: opt {opt_gain:.3} bear {bear_gain:.3}"
    );
    assert!(opt_gain > 1.0, "BW-Opt must beat Alloy");
}

#[test]
fn mostly_clean_beats_loh_hill() {
    let lh = suite(DesignKind::LohHill, BearFeatures::none());
    let mc = suite(DesignKind::MostlyClean, BearFeatures::none());
    let g = gmean_ratio(&mc, &lh);
    // MC only removes the 24-cycle MissMap latency; under a saturated
    // cache bus the two are within noise of each other (the paper has
    // them 3% apart). Guard against MC being *systematically* worse.
    assert!(g > 0.95, "MC {g:.3} must not lose to LH");
}

#[test]
fn sector_cache_pays_for_dirty_evictions() {
    let sc = run(DesignKind::SectorCache, BearFeatures::none(), "lbm");
    let victim = sc
        .bloat
        .component(bear_core::traffic::BloatCategory::VictimRead);
    assert!(
        victim > 0.0,
        "SC must show dirty-eviction traffic on a write-heavy workload"
    );
}

#[test]
fn tis_has_no_probe_traffic() {
    let tis = run(DesignKind::TagsInSram, BearFeatures::none(), "gcc");
    assert_eq!(
        tis.bloat
            .component(bear_core::traffic::BloatCategory::MissProbe),
        0.0
    );
    assert_eq!(
        tis.bloat
            .component(bear_core::traffic::BloatCategory::WritebackProbe),
        0.0
    );
    // Hits move exactly 64 B.
    let hit = tis.bloat.component(bear_core::traffic::BloatCategory::Hit);
    assert!((hit - 1.0).abs() < 0.05, "TIS hit component {hit}");
}

#[test]
fn storage_overheads_match_table5() {
    use bear_core::overhead::StorageOverhead;
    let mut c = SystemConfig::paper_baseline(DesignKind::Alloy);
    c.bear = BearFeatures::full();
    let o = StorageOverhead::of(&c);
    let kb = o.total() as f64 / 1024.0;
    assert!((18.0..=20.0).contains(&kb), "Table 5 total {kb:.1} KB");
}

#[test]
fn mixes_preserve_per_core_identity() {
    let mix = Workload::mix(
        "shape-mix",
        [
            "mcf", "libq", "gcc", "sphinx", "Gems", "leslie", "wrf", "zeusmp",
        ],
    );
    let c = cfg(DesignKind::Alloy, BearFeatures::none());
    let stats = System::build(&c, &mix).run(c.warmup_cycles, c.measure_cycles);
    // High-intensity programs retire fewer instructions per cycle than
    // low-intensity ones under the same memory system.
    let mcf_ipc = stats.ipc_per_core[0];
    let zeus_ipc = stats.ipc_per_core[7];
    assert!(
        zeus_ipc > mcf_ipc,
        "zeusmp {zeus_ipc:.2} should outpace mcf {mcf_ipc:.2}"
    );
}
