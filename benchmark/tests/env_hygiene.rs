//! The benchmark fixes its own cycle budgets, scale and span-pool size:
//! the simulator's environment knobs must not change what it simulates.
//! The binary runs as a subprocess, because setting variables inside the
//! test process would leak into tests running beside it.

use bear_bench::report::Json;
use std::process::Command;

const KNOBS: [(&str, &str); 6] = [
    ("BEAR_WARMUP", "1"),
    ("BEAR_CYCLES", "1"),
    ("BEAR_SCALE", "3"),
    ("BEAR_QUICK", "1"),
    ("BEAR_SIM_THREADS", "2"),
    ("BEAR_GATE_DIAG", "1"),
];

/// Runs `dev_grid` at the tiny budget and returns its digest, after
/// checking that the run passed.
fn tiny_dev_grid_digest(dirty: bool) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_benchmark"));
    cmd.args(["--workload", "dev_grid", "--tiny", "--seconds", "0"]);
    for (k, v) in KNOBS {
        if dirty {
            cmd.env(k, v);
        } else {
            cmd.env_remove(k);
        }
    }
    let out = cmd.output().expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "exit {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<Json> = stdout
        .lines()
        .map(|l| Json::parse(l).expect("every stdout line is JSON"))
        .collect();
    let result = lines.last().expect("a result line");
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{stdout}");
    lines
        .iter()
        .find_map(|l| l.get("digest").and_then(Json::as_str))
        .expect("a detail line with the digest")
        .to_string()
}

#[test]
fn simulator_environment_knobs_do_not_change_results() {
    let clean = tiny_dev_grid_digest(false);
    assert_eq!(tiny_dev_grid_digest(true), clean);
}
