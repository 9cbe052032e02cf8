//! Campaign-side metrics registry: `--metrics-out` plumbing.
//!
//! Like the telemetry sink, the [`Registry`] is a field of the
//! [`Campaign`](crate::Campaign) context, armed by the campaign driver
//! and fed transparently by `try_run_one` — each freshly simulated cell
//! records its bandwidth-attribution decomposition (per-category cache
//! bytes from the ledger-backed [`BloatBreakdown`]), memory bytes, and
//! bloat factor. The driver dumps the registry's stable JSON at campaign
//! end via [`write`](fn@write).
//!
//! Observability-only by construction: nothing here touches `RunStats`
//! or the report files, so a campaign with no `--metrics-out` stays
//! byte-identical (the double-gate guard test in `tests/telemetry.rs`
//! pins this for an *armed* registry too).
//!
//! [`BloatBreakdown`]: bear_core::metrics::BloatBreakdown

use bear_core::config::SystemConfig;
use bear_core::metrics::RunStats;
use bear_telemetry::Registry;
use bear_workloads::Workload;
use std::fs::{self, File};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Records one freshly simulated cell into `reg`: per-category
/// attributed cache bytes, memory bytes, bloat factor, and a cell
/// counter, all labelled by design and workload.
pub(crate) fn record_cell(
    reg: &Registry,
    cfg: &SystemConfig,
    workload: &Workload,
    stats: &RunStats,
) {
    let design = cfg.design.label();
    let workload = workload.name.as_str();
    reg.set_help("bear_cells_total", "Cells simulated by this campaign");
    reg.counter("bear_cells_total", &[("design", design)]).inc();
    reg.set_help(
        "bear_cell_cache_bytes_total",
        "DRAM-cache bytes attributed per bloat category",
    );
    for (key, &bytes) in bear_telemetry::CACHE_BYTE_KEYS
        .iter()
        .zip(&stats.bloat.bytes)
    {
        reg.counter(
            "bear_cell_cache_bytes_total",
            &[
                ("design", design),
                ("workload", workload),
                ("category", key),
            ],
        )
        .add(bytes);
    }
    reg.set_help("bear_cell_mem_bytes_total", "Main-memory bytes moved");
    reg.counter(
        "bear_cell_mem_bytes_total",
        &[("design", design), ("workload", workload)],
    )
    .add(stats.mem_bytes);
    reg.set_help(
        "bear_cell_bloat_factor",
        "Cache bytes moved per useful byte delivered",
    );
    reg.gauge(
        "bear_cell_bloat_factor",
        &[("design", design), ("workload", workload)],
    )
    .set(stats.bloat.factor());
}

/// Writes `reg`'s stable JSON dump to `path`, atomically (tmp → rename).
///
/// # Errors
///
/// Propagates the underlying filesystem error; callers treat metrics
/// persistence as best-effort.
pub fn write(reg: &Registry, path: &Path) -> std::io::Result<PathBuf> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    let tmp = path.with_extension("json.tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(reg.to_json().as_bytes())?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    Ok(path.to_path_buf())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Json;
    use crate::{try_run_one, Campaign, RunPlan};
    use bear_core::config::DesignKind;
    use bear_core::metrics::RunStats;

    fn sample_stats() -> RunStats {
        let mut stats = RunStats::default();
        stats.bloat.bytes[0] = 640;
        stats.bloat.bytes[2] = 320;
        stats.bloat.useful_lines = 10;
        stats.mem_bytes = 128;
        stats
    }

    #[test]
    fn record_cell_is_inert_without_a_registry() {
        // A registry no campaign carries sees nothing, even while a
        // campaign without one simulates a cell.
        let bystander = Registry::new();
        let plan = RunPlan {
            warmup: 500,
            measure: 500,
            scale_shift: 12,
            quick: false,
        };
        let cfg = plan.configure(SystemConfig::paper_baseline(DesignKind::Alloy));
        let workload = bear_workloads::rate_workloads().remove(0);
        try_run_one(&Campaign::new(plan), &cfg, &workload).expect("cell runs");
        assert!(bystander.is_empty());
    }

    #[test]
    fn record_cell_attributes_bytes_and_dump_parses() {
        let reg = Registry::new();
        let cfg = SystemConfig::paper_baseline(DesignKind::Alloy);
        let workload = bear_workloads::rate_workloads().remove(0);
        record_cell(&reg, &cfg, &workload, &sample_stats());
        let hit = reg.counter(
            "bear_cell_cache_bytes_total",
            &[
                ("design", cfg.design.label()),
                ("workload", &workload.name),
                ("category", "hit"),
            ],
        );
        assert_eq!(hit.get(), 640);
        let dump = reg.to_json();
        let doc = Json::parse(&dump).expect("dump parses");
        let metrics = doc.get("metrics").and_then(Json::as_arr).expect("metrics");
        assert!(!metrics.is_empty());
        // Write + read back through the atomic path.
        let path = std::env::temp_dir().join(format!("bear_metrics_{}.json", std::process::id()));
        write(&reg, &path).expect("write dump");
        let text = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(text, dump);
        std::fs::remove_file(&path).ok();
    }
}
