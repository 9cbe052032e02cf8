//! Service-level chaos proof for the `beard` campaign daemon.
//!
//! The central claim of the daemon PR: a daemon run riddled with every
//! daemon-level fault class — connections dropped mid-stream, workers
//! killed mid-job, the whole process kill-9'd in the worst window
//! (between a job's journal commit and its acknowledgment) — produces a
//! final `daemon_report.json` **byte-identical** to a fault-free run of
//! the same jobs. Faults may cost retries, reconnects, and restarts;
//! they may not cost (or change) a single result byte.
//!
//! The chaos client here is deliberately written the way a real client
//! must be: submissions are idempotent by job id, so its entire recovery
//! strategy is "reconnect and resubmit everything not yet settled".

use bear_bench::daemon::{smoke_jobs, Client, DAEMON_SMOKE_SEED};
use bear_bench::report::Json;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn beard_exe() -> &'static str {
    env!("CARGO_BIN_EXE_beard")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bear-daemon-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Spawns one `beard` incarnation on `out`, stderr appended to
/// `out/beard.log`. `chaos` arms `BEAR_CHAOS_SEED`.
fn spawn_beard(out: &Path, chaos: bool) -> Child {
    // A fresh incarnation rewrites daemon.addr after binding; remove the
    // previous one so waiters never dial a dead incarnation's port.
    std::fs::remove_file(out.join("daemon.addr")).ok();
    let log = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(out.join("beard.log"))
        .expect("open beard log");
    let mut cmd = Command::new(beard_exe());
    cmd.args(["--listen", "127.0.0.1:0", "--out"])
        .arg(out)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(log);
    if chaos {
        cmd.env("BEAR_CHAOS_SEED", DAEMON_SMOKE_SEED.to_string());
    } else {
        cmd.env_remove("BEAR_CHAOS_SEED");
    }
    cmd.spawn().expect("spawn beard")
}

/// Waits for the incarnation to publish its address, bailing out early
/// if it dies first.
fn wait_addr(out: &Path, child: &mut Child) -> Option<String> {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Ok(addr) = std::fs::read_to_string(out.join("daemon.addr")) {
            let addr = addr.trim().to_string();
            if !addr.is_empty() {
                return Some(addr);
            }
        }
        if child.try_wait().expect("try_wait").is_some() {
            return None; // died before binding (or aborted instantly)
        }
        assert!(
            Instant::now() < deadline,
            "beard never published an address"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn read_type(line: &Json) -> &str {
    line.get("type").and_then(Json::as_str).unwrap_or("")
}

/// Drives the full smoke grid to completion against a possibly
/// chaos-riddled daemon, restarting it whenever it dies. Returns the
/// number of restarts. On return the daemon has drained and exited 0.
fn run_grid_to_completion(out: &Path, chaos: bool, restart_budget: u32) -> u32 {
    let jobs = smoke_jobs();
    let mut settled: BTreeSet<String> = BTreeSet::new();
    let mut restarts = 0u32;
    let deadline = Instant::now() + Duration::from_secs(240);
    let mut child = spawn_beard(out, chaos);

    'incarnation: loop {
        assert!(Instant::now() < deadline, "chaos grid did not converge");
        let Some(addr) = wait_addr(out, &mut child) else {
            // Died before serving: restart.
            child.wait().expect("reap");
            restarts += 1;
            assert!(restarts <= restart_budget, "restart budget exhausted");
            child = spawn_beard(out, chaos);
            continue 'incarnation;
        };

        // One connection attempt: resubmit everything unsettled, then
        // collect notifications. Any I/O error (chaos connection drop,
        // daemon death) falls through to the reconnect/restart logic.
        let connection = (|| -> std::io::Result<()> {
            let mut c = Client::connect(&addr)?;
            c.set_timeout(Some(Duration::from_secs(30)))?;
            for job in &jobs {
                if !settled.contains(&job.id) {
                    c.send(&job.canonical_line())?;
                }
            }
            while settled.len() < jobs.len() {
                let Some(line) = c.recv()? else {
                    return Err(std::io::Error::other("connection closed"));
                };
                match read_type(&line) {
                    "completed" | "cancelled" => {
                        settled.insert(
                            line.get("id")
                                .and_then(Json::as_str)
                                .expect("settled line has id")
                                .to_string(),
                        );
                    }
                    "failed" => panic!("chaos must never fail a job: {line}"),
                    "accepted" | "telemetry" => {}
                    other => panic!("unexpected response {other:?}: {line}"),
                }
            }
            Ok(())
        })();

        match connection {
            Ok(()) => break 'incarnation,
            Err(_) => {
                // Daemon dead, or just a dropped connection?
                std::thread::sleep(Duration::from_millis(30));
                if child.try_wait().expect("try_wait").is_some() {
                    child.wait().expect("reap");
                    restarts += 1;
                    assert!(restarts <= restart_budget, "restart budget exhausted");
                    child = spawn_beard(out, chaos);
                }
                continue 'incarnation;
            }
        }
    }

    // Everything settled: drain the final incarnation and require a
    // clean exit.
    let addr = std::fs::read_to_string(out.join("daemon.addr")).expect("addr");
    let mut c = Client::connect(addr.trim()).expect("drain connect");
    c.set_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    let drained = c.request("{\"op\":\"drain\"}").expect("drain");
    assert_eq!(read_type(&drained), "drained");
    assert_eq!(drained.get("pending").and_then(Json::as_u64), Some(0));
    let status = child.wait().expect("beard exit");
    assert!(
        status.success(),
        "beard must exit 0 after drain, got {status}"
    );
    restarts
}

/// The headline proof: a chaos-riddled daemon run (connection drops,
/// worker kills, a kill -9 between journal and ack) settles the same
/// grid as a fault-free run and produces a byte-identical report, with
/// every fault class observably fired along the way.
#[test]
fn chaos_riddled_daemon_reports_are_byte_identical() {
    // Fault-free reference.
    let ref_dir = temp_dir("ref");
    let ref_restarts = run_grid_to_completion(&ref_dir, false, 0);
    assert_eq!(ref_restarts, 0);
    let reference = std::fs::read(ref_dir.join("daemon_report.json")).expect("reference report");

    // Chaos run: same grid, same client strategy, every daemon fault
    // class armed.
    let chaos_dir = temp_dir("chaos");
    let restarts = run_grid_to_completion(&chaos_dir, true, 8);
    let recovered = std::fs::read(chaos_dir.join("daemon_report.json")).expect("recovered report");

    assert_eq!(
        String::from_utf8_lossy(&reference),
        String::from_utf8_lossy(&recovered),
        "chaos-riddled report must be byte-identical to the fault-free run"
    );
    assert_eq!(reference, recovered);

    // The faults must have actually happened — otherwise this proved
    // nothing. The pinned seed guarantees each class fires; the
    // accumulated stderr log of every incarnation is the witness.
    assert!(restarts >= 1, "the daemon kill must have forced a restart");
    let log = std::fs::read_to_string(chaos_dir.join("beard.log")).expect("beard log");
    assert!(
        log.contains("kill -9 between journal and ack"),
        "daemon-kill chaos never fired:\n{log}"
    );
    assert!(
        log.contains("died mid-job; requeued"),
        "worker-kill chaos never healed a worker:\n{log}"
    );
    assert!(
        log.contains("dropping connection"),
        "connection-drop chaos never fired:\n{log}"
    );

    // And the fault-free run must have seen none of that.
    let ref_log = std::fs::read_to_string(ref_dir.join("beard.log")).expect("ref log");
    assert!(
        !ref_log.contains("chaos"),
        "reference run saw chaos:\n{ref_log}"
    );

    // The recovery manifest names the chaos seed that armed the run.
    let chaos_seed = |dir: &Path| {
        let text = std::fs::read_to_string(dir.join("failures.json")).expect("failures.json");
        let doc = Json::parse(&text).expect("failures.json parses");
        doc.get("campaign")
            .and_then(|c| c.get("chaos_seed"))
            .cloned()
            .expect("campaign.chaos_seed")
    };
    assert_eq!(chaos_seed(&chaos_dir), Json::uint(DAEMON_SMOKE_SEED));
    assert_eq!(chaos_seed(&ref_dir), Json::Null);

    std::fs::remove_dir_all(&ref_dir).ok();
    std::fs::remove_dir_all(&chaos_dir).ok();
}

/// Graceful drain ordering: once a drain is requested, the listener
/// socket closes (new connections are refused) strictly before the
/// worker pool stops — and every accepted job is then either completed
/// and reported or left journaled and resumable.
#[test]
fn drain_closes_listener_before_pool_stops() {
    let dir = temp_dir("drain");
    let mut child = spawn_beard(&dir, false);
    let addr = wait_addr(&dir, &mut child).expect("daemon up");

    // Load the daemon with the full grid on a pre-drain connection;
    // that connection outlives the listener. Wait for every acceptance
    // before draining so no submission races the intake cutoff.
    let mut submitter = Client::connect(&addr).expect("connect");
    submitter
        .set_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    let jobs = smoke_jobs();
    for job in &jobs {
        submitter.send(&job.canonical_line()).expect("submit");
    }
    let mut accepted = 0usize;
    let mut seen = 0usize;
    while accepted < jobs.len() {
        let line = submitter.recv().expect("read").expect("open");
        match read_type(&line) {
            "accepted" => accepted += 1,
            "completed" => seen += 1,
            other => panic!("unexpected {other:?}: {line}"),
        }
    }

    // Request a drain from a second connection without waiting for it.
    let mut drainer = Client::connect(&addr).expect("connect");
    drainer
        .set_timeout(Some(Duration::from_secs(120)))
        .expect("timeout");
    drainer.send("{\"op\":\"drain\"}").expect("drain request");

    // The listener goes down as soon as the drain is observed — new
    // connections are refused while the pre-existing connection below
    // still collects results from the (still running) pool.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match Client::connect(&addr) {
            Err(_) => break,
            Ok(_) => {
                assert!(Instant::now() < deadline, "listener never closed");
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
    while seen < jobs.len() {
        let line = submitter
            .recv()
            .expect("pre-drain connection must survive the drain")
            .expect("open");
        match read_type(&line) {
            "completed" => seen += 1,
            other => panic!("unexpected {other:?}: {line}"),
        }
    }

    // The drain finishes the pool only after the queue is empty; its
    // response then accounts for every accepted job.
    let drained = drainer.recv().expect("drained line").expect("open");
    assert_eq!(read_type(&drained), "drained");
    assert_eq!(drained.get("pending").and_then(Json::as_u64), Some(0));
    let counters = drained.get("counters").expect("counters");
    assert_eq!(
        counters.get("completed").and_then(Json::as_u64),
        Some(jobs.len() as u64)
    );
    assert_eq!(
        counters.get("accepted").and_then(Json::as_u64),
        Some(jobs.len() as u64)
    );
    assert!(child.wait().expect("exit").success());

    // completed ∪ pending in the report covers every accepted job.
    let report =
        Json::parse(&std::fs::read_to_string(dir.join("daemon_report.json")).expect("report"))
            .expect("report parses");
    let rows = report.get("rows").and_then(Json::as_arr).expect("rows");
    let pending = report
        .get("pending")
        .and_then(Json::as_arr)
        .expect("pending");
    assert_eq!(rows.len() + pending.len(), jobs.len());
    assert!(pending.is_empty(), "full drain leaves nothing pending");
    std::fs::remove_dir_all(&dir).ok();
}

/// A half-written submission followed by a dead client must not wedge
/// the daemon or be accepted; the journal stays empty and a subsequent
/// drain is clean. (Byte-level malformed-input coverage lives in the
/// `daemon::tests` property test; this exercises the real socket path
/// end to end.)
#[test]
fn truncated_submissions_never_wedge_the_daemon() {
    let dir = temp_dir("trunc");
    let mut child = spawn_beard(&dir, false);
    let addr = wait_addr(&dir, &mut child).expect("daemon up");

    // Half a submit line, no newline, then EOF.
    let job = &smoke_jobs()[0];
    let line = job.canonical_line();
    let mut c = Client::connect(&addr).expect("connect");
    c.send_raw(&line.as_bytes()[..line.len() / 2])
        .expect("truncated write");
    drop(c);

    // Garbage and an oversized line on further connections.
    let mut c = Client::connect(&addr).expect("connect");
    c.set_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let err = c
        .request("\u{1}\u{2}\u{3} definitely not json")
        .expect("typed error");
    assert_eq!(read_type(&err), "error");
    assert_eq!(err.get("kind").and_then(Json::as_str), Some("protocol"));
    let status = c
        .request("{\"op\":\"status\"}")
        .expect("status after garbage");
    assert_eq!(
        status
            .get("counters")
            .and_then(|v| v.get("accepted"))
            .and_then(Json::as_u64),
        Some(0),
        "no malformed submission may be accepted"
    );

    let drained = c.request("{\"op\":\"drain\"}").expect("drain");
    assert_eq!(read_type(&drained), "drained");
    assert!(child.wait().expect("exit").success());
    std::fs::remove_dir_all(&dir).ok();
}
