//! What the benchmark measures: its workloads, its metrics, and the map
//! from each simulator layer to the end-to-end metric it should move.
//! `BENCHMARK.json` at the repository root mirrors these tables; a unit
//! test keeps the two identical.

use bear_core::config::{BearFeatures, DesignKind, ScalePreset, SystemConfig};

/// `SystemConfig::paper_baseline`'s seed: the only seed whose digests are
/// committed in `goldens.txt`.
pub const DEFAULT_SEED: u64 = 0x0BEA_2015;

/// Default `--seconds`: host time one run spends on production samples
/// (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

/// Cycles of the event-vs-poll prefix check at full budget: half warmup,
/// half measure.
const PREFIX_CYCLES: u64 = 1 << 18;

/// Cycles per phase (warmup, measure, and each prefix half) at the
/// `--tiny` budget used by tests.
const TINY_CYCLES: u64 = 1 << 14;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// `+1` when higher is better, `-1` otherwise: multiplying a
    /// difference by it makes "better" positive.
    pub fn sign(self) -> f64 {
        match self {
            Better::Higher => 1.0,
            Better::Lower => -1.0,
        }
    }
}

/// One reported metric. `bound` is set for end-to-end metrics only: the
/// share of the parent's median by which the metric may worsen before a
/// change counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Which direction is an improvement.
    pub better: Better,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Metrics a user of the simulator sees, printed with `--trace 0`.
pub const END_TO_END: [Metric; 3] = [
    e2e("sim_mcycles_per_s", "Mcycles/s", Better::Higher, 0.20),
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.10),
];

/// Per-layer metrics, printed with `--trace 1`. Names ending in `ns_per_*`
/// are drives (host time in a loop over one module's public calls);
/// the rest are exact counters of the production run, except
/// `l4.klookups_per_s`, `system.ns_per_live_tick` and the `host`/`trace`
/// ratios, which combine a counter with a host time.
pub const PER_LAYER: [Metric; 24] = [
    layer("system.live_tick_frac", "ratio", Better::Lower),
    layer("system.skip_frac", "ratio", Better::Higher),
    layer("system.span_frac", "ratio", Better::Higher),
    layer("system.ns_per_live_tick", "ns", Better::Lower),
    layer("workloads.ns_per_event", "ns", Better::Lower),
    layer("cpu.ns_per_kcycle", "ns", Better::Lower),
    layer("cpu.ipc", "inst/cycle", Better::Higher),
    layer("l3.ns_per_access", "ns", Better::Lower),
    layer("l3.accesses_per_kcycle", "1/kcycle", Better::Higher),
    layer("l3.hit_rate", "ratio", Better::Higher),
    layer("l4.ns_per_op", "ns", Better::Lower),
    layer("l4.dram_reqs_per_op", "count", Better::Lower),
    layer("l4.ops_per_kcycle", "1/kcycle", Better::Higher),
    layer("l4.probes_avoided_frac", "ratio", Better::Higher),
    layer("l4.bloat_factor", "ratio", Better::Lower),
    layer("l4.klookups_per_s", "klookups/s", Better::Higher),
    layer("dram.ns_per_req", "ns", Better::Lower),
    layer("dram.reqs_per_kcycle", "1/kcycle", Better::Higher),
    layer("dram.write_frac", "ratio", Better::Lower),
    layer("dram.cache_bus_util", "ratio", Better::Lower),
    layer("dram.read_queue_cycles", "cycles", Better::Lower),
    layer("dram.drains_per_mcycle", "1/Mcycle", Better::Lower),
    layer("host.sched_wait_frac", "ratio", Better::Lower),
    layer("trace.overhead_frac", "ratio", Better::Lower),
];

/// One simulated system of a workload: a design running 8-core rate mode.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Short label (`BEAR` is Alloy with every BEAR technique).
    pub label: &'static str,
    /// DRAM-cache organization.
    pub design: DesignKind,
    /// Whether the full BEAR technique stack is on (Alloy only).
    pub bear: bool,
    /// SPEC benchmark running on all eight cores.
    pub bench: &'static str,
}

/// One benchmark workload: cells run back to back at a fixed scale and
/// fixed cycle budgets.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why the workload is in the benchmark.
    pub why: &'static str,
    /// Capacity scale of every cell.
    pub scale: ScalePreset,
    /// Warmup cycles per cell.
    pub warmup: u64,
    /// Measured cycles per cell.
    pub measure: u64,
    /// Span-pool threads (`System::set_sim_threads`).
    pub threads: usize,
    /// Cells, in run order.
    pub cells: &'static [Cell],
}

/// Simulated cycle budgets of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Warmup cycles per cell.
    pub warmup: u64,
    /// Measured cycles per cell.
    pub measure: u64,
    /// Warmup and measure cycles (each) of the event-vs-poll prefix check.
    pub prefix_half: u64,
    /// Divides the work of every per-layer drive.
    pub drive_divisor: usize,
}

const fn cell(label: &'static str, design: DesignKind, bear: bool, bench: &'static str) -> Cell {
    Cell {
        label,
        design,
        bear,
        bench,
    }
}

const BEAR_MCF: [Cell; 1] = [cell("BEAR", DesignKind::Alloy, true, "mcf")];

/// The benchmark's workloads.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "dev_grid",
        why: "The 1/512 scale of every figure campaign: the only workload running the NoCache, \
              LH and TIS controllers, with a core/L3-bound cell (Alloy x sphinx3).",
        scale: ScalePreset::Half512,
        warmup: 1_500_000,
        measure: 1_000_000,
        threads: 1,
        cells: &[
            cell("NoCache", DesignKind::NoCache, false, "mcf"),
            cell("Alloy", DesignKind::Alloy, false, "sphinx3"),
            cell("BEAR", DesignKind::Alloy, true, "mcf"),
            cell("LH", DesignKind::LohHill, false, "gcc"),
            cell("TIS", DesignKind::TagsInSram, false, "omnetpp"),
        ],
    },
    Workload {
        name: "lbm_writes",
        why: "Write-heavy, bandwidth-bound BEAR x lbm at 1/8 scale: per-tick L4/DRAM work and \
              write drains dominate, and the idle-skip and span fast paths do almost nothing.",
        scale: ScalePreset::Half8,
        warmup: 6_000_000,
        measure: 4_000_000,
        threads: 1,
        cells: &[cell("BEAR", DesignKind::Alloy, true, "lbm")],
    },
    Workload {
        name: "giga_mcf",
        why: "The paper's 1 GB cache: read-dominated BEAR x mcf, where idle skips and span \
              advances elide a large share of cycles and host memory peaks.",
        scale: ScalePreset::Full,
        warmup: 12_000_000,
        measure: 8_000_000,
        threads: 1,
        cells: &BEAR_MCF,
    },
    Workload {
        name: "giga_mcf_t2",
        why: "giga_mcf with a 2-thread span pool: shows whether the channel-sharded pool pays at \
              full scale; its simulated results must equal giga_mcf's.",
        scale: ScalePreset::Full,
        warmup: 12_000_000,
        measure: 8_000_000,
        threads: 2,
        cells: &BEAR_MCF,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The run's cycle budgets: the workload's own, or the `--tiny` test
    /// budget.
    pub fn budget(&self, tiny: bool) -> Budget {
        if tiny {
            Budget {
                warmup: TINY_CYCLES,
                measure: TINY_CYCLES,
                prefix_half: TINY_CYCLES,
                drive_divisor: 64,
            }
        } else {
            Budget {
                warmup: self.warmup,
                measure: self.measure,
                prefix_half: PREFIX_CYCLES / 2,
                drive_divisor: 1,
            }
        }
    }

    /// The system configuration of `cell` under `seed` and `budget`.
    pub fn config(&self, cell: &Cell, seed: u64, budget: Budget) -> SystemConfig {
        let mut cfg = SystemConfig::paper_baseline(cell.design);
        self.scale.apply(&mut cfg);
        if cell.bear {
            cfg.bear = BearFeatures::full();
        }
        cfg.seed = seed;
        cfg.warmup_cycles = budget.warmup;
        cfg.measure_cycles = budget.measure;
        cfg
    }
}

/// One simulator layer: the per-layer metrics that describe it, the
/// end-to-end metric a change to it should move and on which workloads,
/// and the workloads where the prediction is no change.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    /// Layer name (the prefix of its metrics).
    pub name: &'static str,
    /// Source the layer covers.
    pub code: &'static str,
    /// Per-layer metrics describing it.
    pub metrics: &'static [&'static str],
    /// End-to-end metric a change to the layer should move.
    pub moves: &'static str,
    /// Workloads where that metric should move.
    pub on: &'static [&'static str],
    /// Workloads where it should not.
    pub steady: &'static [&'static str],
}

/// The layer map (README.md renders the same table).
pub const LAYERS: [Layer; 7] = [
    Layer {
        name: "system",
        code: "crates/core/src/system.rs (run loop, idle skip, span advance)",
        metrics: &[
            "system.live_tick_frac",
            "system.skip_frac",
            "system.span_frac",
            "system.ns_per_live_tick",
        ],
        moves: "sim_mcycles_per_s",
        on: &["giga_mcf", "giga_mcf_t2"],
        steady: &["lbm_writes"],
    },
    Layer {
        name: "workloads",
        code: "crates/workloads (TraceGenerator)",
        metrics: &["workloads.ns_per_event"],
        moves: "sim_mcycles_per_s",
        on: &["dev_grid"],
        steady: &[],
    },
    Layer {
        name: "cpu",
        code: "crates/cpu (Core::tick, quiet_cycles, skip_quiet)",
        metrics: &["cpu.ns_per_kcycle", "cpu.ipc"],
        moves: "sim_mcycles_per_s",
        on: &["dev_grid"],
        steady: &["giga_mcf"],
    },
    Layer {
        name: "l3",
        code: "crates/core/src/l3.rs + crates/cache",
        metrics: &["l3.ns_per_access", "l3.accesses_per_kcycle", "l3.hit_rate"],
        moves: "sim_mcycles_per_s",
        on: &["dev_grid"],
        steady: &[],
    },
    Layer {
        name: "l4",
        code: "crates/core/src/l4 (engine, technique stack, organizations)",
        metrics: &[
            "l4.ns_per_op",
            "l4.dram_reqs_per_op",
            "l4.ops_per_kcycle",
            "l4.probes_avoided_frac",
            "l4.bloat_factor",
            "l4.klookups_per_s",
        ],
        moves: "sim_mcycles_per_s",
        on: &["lbm_writes", "giga_mcf", "dev_grid"],
        steady: &[],
    },
    Layer {
        name: "dram",
        code: "crates/dram + crates/core/src/harness.rs",
        metrics: &[
            "dram.ns_per_req",
            "dram.reqs_per_kcycle",
            "dram.write_frac",
            "dram.cache_bus_util",
            "dram.read_queue_cycles",
            "dram.drains_per_mcycle",
        ],
        moves: "sim_mcycles_per_s",
        on: &["lbm_writes", "giga_mcf"],
        steady: &[],
    },
    Layer {
        name: "host",
        code: "the host and the benchmark's own spans",
        metrics: &["host.sched_wait_frac", "trace.overhead_frac"],
        moves: "sim_mcycles_per_s",
        on: &["dev_grid", "lbm_writes", "giga_mcf", "giga_mcf_t2"],
        steady: &[],
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use bear_bench::report::Json;

    const MANIFEST: &str = include_str!("../../BENCHMARK.json");

    fn manifest() -> Json {
        Json::parse(MANIFEST).expect("BENCHMARK.json parses")
    }

    fn strs(v: &Json) -> Vec<&str> {
        v.as_arr()
            .expect("array")
            .iter()
            .map(|s| s.as_str().expect("string"))
            .collect()
    }

    fn keys(v: &Json) -> Vec<&str> {
        match v {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("not an object: {other:?}"),
        }
    }

    #[test]
    fn benchmark_json_matches_the_registry() {
        let m = manifest();
        assert_eq!(
            keys(&m),
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let command = strs(m.get("command").unwrap());
        assert_eq!(command[0], "cargo");
        assert!(command.contains(&"benchmark/Cargo.toml"));
        assert_eq!(strs(m.get("paths").unwrap()), ["benchmark"]);
        assert_eq!(
            m.get("run_seconds").and_then(Json::as_u64),
            Some(RUN_SECONDS)
        );

        let workloads = m.get("workloads").and_then(Json::as_arr).unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(keys(j), ["name", "why"]);
            assert_eq!(j.get("name").and_then(Json::as_str), Some(w.name));
            assert_eq!(j.get("why").and_then(Json::as_str), Some(w.why));
        }

        for (section, registry, fields) in [
            (
                "end_to_end",
                &END_TO_END[..],
                &["name", "unit", "better", "bound"][..],
            ),
            ("per_layer", &PER_LAYER[..], &["name", "unit", "better"][..]),
        ] {
            let listed = m.get(section).and_then(Json::as_arr).unwrap();
            assert_eq!(listed.len(), registry.len(), "{section}");
            for (j, r) in listed.iter().zip(registry) {
                assert_eq!(keys(j), fields, "{}", r.name);
                assert_eq!(j.get("name").and_then(Json::as_str), Some(r.name));
                assert_eq!(j.get("unit").and_then(Json::as_str), Some(r.unit));
                assert_eq!(
                    j.get("better").and_then(Json::as_str),
                    Some(r.better.label())
                );
                assert_eq!(j.get("bound").and_then(Json::as_f64), r.bound, "{}", r.name);
            }
        }
    }

    #[test]
    fn names_units_and_counts_fit_the_schema() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name));
        for n in &names {
            assert!(name_ok(n), "bad name {n:?}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "names must be used once");
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric()
                            || matches!(c, '_' | '/' | '%' | '.' | '-')),
                "bad unit {:?}",
                m.unit
            );
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!(PER_LAYER.len() * WORKLOADS.len() <= 128);
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let bounds: Vec<f64> = END_TO_END.iter().map(|m| m.bound.unwrap()).collect();
        assert!(bounds.iter().all(|&b| b > 0.0 && b <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(bounds.iter().all(|&b| b <= setup.bound.unwrap()));
    }

    #[test]
    fn every_layer_reference_resolves() {
        let mut covered: Vec<&str> = Vec::new();
        for l in &LAYERS {
            for m in l.metrics {
                assert!(PER_LAYER.iter().any(|p| p.name == *m), "{}: {m}", l.name);
                covered.push(m);
            }
            assert!(END_TO_END.iter().any(|e| e.name == l.moves), "{}", l.name);
            for w in l.on.iter().chain(l.steady) {
                assert!(Workload::by_name(w).is_some(), "{}: {w}", l.name);
            }
        }
        covered.sort_unstable();
        let mut all: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        all.sort_unstable();
        assert_eq!(covered, all, "every per-layer metric belongs to one layer");
        for w in &WORKLOADS {
            for c in w.cells {
                assert!(
                    bear_workloads::BenchmarkProfile::by_name(c.bench).is_some(),
                    "{}",
                    c.bench
                );
                let cfg = w.config(c, DEFAULT_SEED, w.budget(false));
                assert!(cfg.validate().is_ok(), "{} {}", w.name, c.label);
            }
        }
    }
}
