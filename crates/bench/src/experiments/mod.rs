//! One module per table/figure of the paper's evaluation.
//!
//! Every module exposes `run(campaign: &Campaign, report: &mut Report)`
//! which simulates the required configurations under the campaign's plan
//! through the parallel grid [`runner`](crate::runner), prints
//! rows/series shaped like the paper's, and records every run (plus
//! headline scalars) into the experiment's machine-readable
//! [`Report`](crate::report::Report). [`CAMPAIGN`] lists the paper's
//! steps in order; `all_experiments` runs them (or an `--only` subset)
//! through the [`cli::run`](crate::cli::run) driver, and the
//! `ablations` and `loop_speedup` binaries run their one step through
//! the same driver.

pub mod ablations;
pub mod bloat_ledger;
pub mod fig03_designs;
pub mod fig04_breakdown;
pub mod fig05_prob_bypass;
pub mod fig07_bab;
pub mod fig09_dcp;
pub mod fig11_ntc;
pub mod fig12_bear;
pub mod fig13_bloat;
pub mod fig14_sensitivity;
pub mod fig15_banks;
pub mod fig16_sram_tags;
pub mod fig17_alternatives;
pub mod loop_speedup;
pub mod table4_latency;
pub mod table5_overhead;

use crate::cli::Step;
use crate::speedup;
use bear_core::metrics::RunStats;
use bear_workloads::Workload;

pub use crate::runner::{run_matrix, run_suite};

/// The paper's evaluation, in campaign order: each step's report id (the
/// `--only` id and the `<id>.json` stem) and its entry point.
pub const CAMPAIGN: [Step; 15] = [
    ("fig03", fig03_designs::run),
    ("fig04", fig04_breakdown::run),
    ("fig05", fig05_prob_bypass::run),
    ("fig07", fig07_bab::run),
    ("fig09", fig09_dcp::run),
    ("fig11", fig11_ntc::run),
    ("fig12", fig12_bear::run),
    ("table4", table4_latency::run),
    ("fig13", fig13_bloat::run),
    ("bloat_ledger", bloat_ledger::run),
    ("fig14", fig14_sensitivity::run),
    ("fig15", fig15_banks::run),
    ("fig16", fig16_sram_tags::run),
    ("fig17", fig17_alternatives::run),
    ("table5", table5_overhead::run),
];

/// Per-workload speedups of `sys` over `base` (same workload order).
pub fn speedups(workloads: &[Workload], sys: &[RunStats], base: &[RunStats]) -> Vec<f64> {
    workloads
        .iter()
        .zip(sys.iter().zip(base))
        .map(|(w, (s, b))| speedup(w, s, b))
        .collect()
}

/// Splits per-workload values into (rate gmean, mix gmean, all gmean).
pub fn rate_mix_all(workloads: &[Workload], values: &[f64]) -> (f64, f64, f64) {
    let rate: Vec<f64> = workloads
        .iter()
        .zip(values)
        .filter(|(w, _)| w.is_rate)
        .map(|(_, &v)| v)
        .collect();
    let mix: Vec<f64> = workloads
        .iter()
        .zip(values)
        .filter(|(w, _)| !w.is_rate)
        .map(|(_, &v)| v)
        .collect();
    (
        crate::gmean(&rate),
        crate::gmean(&mix),
        crate::gmean(values),
    )
}
