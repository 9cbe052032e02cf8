#!/usr/bin/env bash
# Full offline verification: formatting, lints, the test suite, and the
# fault-tolerance end-to-end checks (fault injection + kill-9 resume).
# This is what CI runs; it must pass with no network access at all.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo test"
cargo test -q --workspace --offline

echo "==> fault-injection smoke (debug build = invariant checks armed)"
# Every injected corruption class must be caught by its invariant, and a
# healthy run must pass the watchdog with zero violations.
cargo test -q -p bear-core --offline -- \
  every_injected_fault_class_is_detected \
  healthy_run_passes_watchdog_and_invariants \
  watchdog_converts_hang_into_stalled_error

echo "==> kill -9 then resume determinism check"
# A campaign killed mid-flight and resumed must produce a report byte-
# identical to an uninterrupted one (spawns all_experiments, SIGKILLs it
# once cells are committed, reruns, diffs).
cargo test -q -p bear-bench --offline --test resume

echo "==> chaos smoke (seeded faults, retry/quarantine, byte-identical recovery)"
# The supervision layer's recovery proof: the quick fig07 grid runs
# fault-free and then under the pinned chaos seed (worker panics, stalls,
# torn checkpoints, failed fsyncs, process kills); recovered cells must
# byte-match the reference and every injected fault must be accounted
# for. The recovery-overhead record lands in BENCH_chaos.json.
CHAOS_SMOKE_DIR="$(mktemp -d)"
cargo build -q --release -p bear-bench --bin chaos --bin all_experiments --offline
./target/release/chaos --work-dir "$CHAOS_SMOKE_DIR" --bench-json BENCH_chaos.json
rm -rf "$CHAOS_SMOKE_DIR"
test -s BENCH_chaos.json

echo "==> oracle-checks feature build (release fuzz runs arm the invariants)"
# The feature must forward down the stack: building the oracle crate with
# it enables InvariantSink panics even in release.
cargo test -q -p bear-oracle --offline --features oracle-checks --lib

echo "==> fuzz smoke (differential oracle, fixed seeds, bounded)"
# A release-mode sweep of the design x feature x pattern matrix under the
# shadow oracle: any divergence fails the build. Fixed seeds and bounded
# cycles keep this step deterministic and under a minute.
cargo build -q --release -p bear-bench --bin fuzz --offline \
  --features bear-oracle/oracle-checks
./target/release/fuzz --seeds 190,61453 --cycles 25000
# Self-test: an injected tag corruption must make the sweep fail.
if ./target/release/fuzz --seeds 190 --cycles 10000 --fault tag-flip@2000 \
  > /dev/null 2>&1; then
  echo "ERROR: fuzz smoke failed to catch an injected tag flip" >&2
  exit 1
fi

echo "==> daemon smoke (resident service: admission, fairness, overload shed, drain)"
# The beard daemon runs the smoke grid end to end in-process: two clients
# submit over the wire, one job is cancelled mid-run, the daemon drains
# cleanly, then a zero-worker instance is overloaded to prove typed
# backpressure with retry-after hints. Latency/shed numbers land in
# BENCH_daemon.json.
DAEMON_SMOKE_DIR="$(mktemp -d)"
cargo build -q --release -p bear-bench --bin beard --offline
./target/release/beard --smoke --out "$DAEMON_SMOKE_DIR" --bench-json BENCH_daemon.json
rm -rf "$DAEMON_SMOKE_DIR"
test -s BENCH_daemon.json

echo "==> daemon chaos proof (conn drops, worker kills, kill -9 between journal and ack)"
# A chaos-riddled daemon run (connection drops mid-stream, workers killed
# mid-job, the daemon killed between journaling and acking) must produce
# a report byte-identical to a fault-free run after resume.
cargo test -q -p bear-bench --offline --test daemon

echo "==> telemetry-off compile check (bear-core without the feature)"
# The telemetry hooks are gated behind a cargo feature; the core crate
# must keep building with the feature off (no stray references).
cargo check -q -p bear-core --offline

echo "==> telemetry off-mode guard test (byte-identical reports)"
# Arming the campaign telemetry sink must not change a single byte of a
# cell's JSON report, and checkpoint resume must not rewrite sample files.
cargo test -q -p bear-bench --offline --test telemetry

echo "==> telemetry smoke (JSONL + Chrome trace + self-profile)"
# The demo binary validates its own outputs: every JSONL line and the
# trace document re-parse, window sums equal end-of-run aggregates, and
# disarmed telemetry measures <1% overhead.
TELEMETRY_SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$TELEMETRY_SMOKE_DIR"' EXIT
cargo build -q --release -p bear-bench --bin telemetry --offline
BEAR_BENCH_QUICK=1 ./target/release/telemetry --out "$TELEMETRY_SMOKE_DIR"
test -s "$TELEMETRY_SMOKE_DIR/trace.json"
test -s "$TELEMETRY_SMOKE_DIR/self_profile.txt"

echo "==> ledger conservation property (adversarial grid, B/BD/BDN/BEAR)"
# Every DRAM byte the simulator moves must be attributed to exactly one
# bloat source: the oracle's post-drain ledger audit across all four
# adversarial generators and every rung of the technique ladder.
cargo test -q -p bear-bench --offline --test ledger

echo "==> metrics smoke (live beard registry scrape + exposition parse)"
# An in-process daemon runs two jobs, the {"op":"metrics"} scrape must
# parse (JSON dump and Prometheus-style text) and its counters must match
# the daemon's own status counters; telemetry lines carry trace ids.
cargo test -q -p bear-bench --offline --test metrics

echo "==> SALP elision audit (BEAR_GATE_DIAG=1, multi-subarray banks)"
# The gate-diagnostic mode re-executes every elided tick and asserts it
# was a no-op. Running the span-equivalence suite under it audits the
# subarray-aware busy hints (per-subarray open rows and timing state)
# on top of the polled-vs-spanned equalities.
BEAR_GATE_DIAG=1 cargo test -q -p bear-core --offline --test span_equivalence

echo "==> run-loop speedup record (BENCH_core.json)"
# The event-driven-vs-polling microbench asserts bit-identical results
# between run-loop modes and records per-cell wall clock + the gmean
# speedup at the repo root.
# The committed record's gmean is a perf-regression floor: the
# fresh run must clear 85% of it (head-room for machine noise).
cargo build -q --release -p bear-bench --bin loop_speedup --offline
FLOOR=$(awk -F': ' '/"speedup_gmean"/ {gsub(/,/, "", $2); print $2; exit}' \
  BENCH_core.json 2>/dev/null || true)
BEAR_QUICK=1 ./target/release/loop_speedup --bench-json BENCH_core.json
test -s BENCH_core.json
NEW=$(awk -F': ' '/"speedup_gmean"/ {gsub(/,/, "", $2); print $2; exit}' BENCH_core.json)
if [ -n "${FLOOR:-}" ]; then
  awk -v new="$NEW" -v floor="$FLOOR" 'BEGIN {
    if (new + 0 < 0.85 * floor) {
      printf "ERROR: run-loop speedup regressed: gmean %.3f < 0.85 x committed floor %.3f\n",
        new, floor
      exit 1
    }
  }' >&2
fi

echo "OK: fmt, clippy, tests, fault injection, resume, chaos smoke, fuzz smoke, daemon smoke, telemetry smoke, ledger property, metrics smoke, elision audit, and the run-loop speedup record all passed offline."
