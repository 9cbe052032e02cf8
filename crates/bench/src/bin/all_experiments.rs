//! Runs the complete experiment campaign: every table and figure of the
//! paper's evaluation, in order. Honors BEAR_QUICK / BEAR_CYCLES /
//! BEAR_WARMUP / BEAR_SCALE / BEAR_WORKERS, and:
//!
//! - `--out DIR` — write one JSON report per experiment into `DIR`, and
//!   checkpoint every finished (config, workload) cell under
//!   `DIR/cells/<experiment>/`. An interrupted campaign (crash, OOM-kill,
//!   `kill -9`) rerun with the same `--out DIR` resumes from the
//!   committed cells and produces byte-identical reports.
//! - `--only LIST` — run a comma-separated subset of the experiment ids
//!   (e.g. `--only fig07,table5`).
//! - `--scale {1/512,1/64,1/8,1}` — joint capacity/budget preset for
//!   every experiment (default `1/512`).
//! - `--telemetry [--sample-window N]` — write one windowed time-series
//!   JSONL file per cell under `DIR/telemetry/` (requires `--out`).
//! - `--metrics-out PATH` — collect every cell's attributed byte
//!   decomposition in a metrics registry and dump its stable JSON to
//!   `PATH` at campaign end (observability-only; reports unchanged).
//!
//! While running, a stderr heartbeat reports each completed cell
//! (`[cell i/N (...) elapsed ..s, ETA ..s]`) so long campaigns are
//! observable without waiting for a step to finish.
//!
//! Every cell runs under the [`bear_bench::supervisor`]: transient
//! failures retry with deterministic backoff (`BEAR_MAX_RETRIES`,
//! `BEAR_RETRY_BASE_MS`), attempts can carry a wall-clock deadline
//! (`BEAR_CELL_DEADLINE_MS`), and cells that exhaust their retries are
//! quarantined into `DIR/failures.json` while the campaign — and its
//! reports — complete around them. Setting `BEAR_CHAOS_SEED` (requires
//! `--out`) arms the deterministic chaos plan that the `chaos` binary
//! and test suite use to prove all of that recovery machinery correct.

use bear_bench::chaos::Chaos;
use bear_bench::experiments as ex;
use bear_bench::report::Report;
use bear_bench::supervisor::ManifestHeader;
use bear_bench::{cli, Campaign};
use std::sync::Arc;
use std::time::Instant;

/// One experiment step: report id plus its entry point.
type Step = (&'static str, fn(&Campaign, &mut Report));

fn main() {
    let args = cli::parse_campaign_args(std::env::args().skip(1));
    let t0 = Instant::now();
    let steps: [Step; 15] = [
        ("fig03", ex::fig03_designs::run),
        ("fig04", ex::fig04_breakdown::run),
        ("fig05", ex::fig05_prob_bypass::run),
        ("fig07", ex::fig07_bab::run),
        ("fig09", ex::fig09_dcp::run),
        ("fig11", ex::fig11_ntc::run),
        ("fig12", ex::fig12_bear::run),
        ("table4", ex::table4_latency::run),
        ("fig13", ex::fig13_bloat::run),
        ("bloat_ledger", ex::bloat_ledger::run),
        ("fig14", ex::fig14_sensitivity::run),
        ("fig15", ex::fig15_banks::run),
        ("fig16", ex::fig16_sram_tags::run),
        ("fig17", ex::fig17_alternatives::run),
        ("table5", ex::table5_overhead::run),
    ];
    if let Some(only) = &args.only {
        for name in only {
            assert!(
                steps.iter().any(|(id, _)| id == name),
                "unknown experiment `{name}` in --only (known: {})",
                steps.map(|(id, _)| id).join(", ")
            );
        }
    }
    let out = args.out.as_deref();
    let mut campaign = args.campaign().with_heartbeat();
    campaign.chaos = Chaos::from_env(out).map(Arc::new);
    let header = ManifestHeader {
        chaos_seed: campaign.chaos.as_ref().map(|c| c.seed()),
        max_retries: campaign.supervisor.max_retries,
    };
    let campaign = campaign.with_manifest_dir(out, header);
    for (name, f) in steps {
        if !args.selected(name) {
            continue;
        }
        let t = Instant::now();
        let step = campaign.experiment(name, out);
        let mut report = Report::new(name);
        f(&step, &mut report);
        cli::write_report(&step, &mut report, out);
        println!(
            "[{name} done in {:.1}s, total {:.1}s]\n",
            t.elapsed().as_secs_f64(),
            t0.elapsed().as_secs_f64()
        );
    }
    // With chaos armed the manifest must exist even when every fault was
    // dodged (the chaos driver reads it unconditionally); an unarmed
    // campaign only writes it when something actually happened, so a
    // clean campaign's output stays byte-for-byte what it always was.
    if let (Some(out), Some(_)) = (out, &campaign.chaos) {
        campaign
            .write_manifest(out, header)
            .expect("writing failures.json");
    }
    if let Some(report) = campaign.profile_report() {
        eprintln!("[{report}]");
    }
    args.write_metrics(&campaign);
}
