//! Runs the complete experiment campaign: every table and figure of the
//! paper's evaluation ([`CAMPAIGN`]), in order, through the
//! [`cli::run`] driver. Honors BEAR_QUICK / BEAR_CYCLES / BEAR_WARMUP /
//! BEAR_SCALE / BEAR_WORKERS, and:
//!
//! - `--out DIR` — write one JSON report per experiment into `DIR`, and
//!   checkpoint every finished (config, workload) cell under
//!   `DIR/cells/<experiment>/`. An interrupted campaign (crash, OOM-kill,
//!   `kill -9`) rerun with the same `--out DIR` resumes from the
//!   committed cells and produces byte-identical reports.
//! - `--only LIST` — run a comma-separated subset of the experiment ids
//!   (e.g. `--only fig07,table5`); this is how one figure is regenerated.
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

use bear_bench::cli;
use bear_bench::experiments::CAMPAIGN;

fn main() {
    cli::run(&cli::parse_args(std::env::args().skip(1)), &CAMPAIGN);
}
