//! The resident campaign daemon behind the `beard` binary.
//!
//! Batch campaigns (PR 1–7) run a fixed grid and exit. The ROADMAP's
//! "simulation-as-a-service" item wants the opposite shape: a
//! long-running service that accepts (configuration, workload) job
//! submissions over a socket, runs them on a worker pool, streams
//! telemetry back live, and — because it is resident — must stay healthy
//! under every failure a batch run could simply die from. This module is
//! that service, built entirely from the substrate the earlier PRs
//! proved: jobs journal through the fsync'd [`CellStore`] commit
//! protocol (PR 2), every attempt runs under the
//! [`supervisor`](crate::supervisor) retry/backoff/deadline/quarantine
//! state machine (PR 6), and per-job telemetry rides the PR 4 sampler
//! with a new live streaming sink.
//!
//! # Protocol
//!
//! Newline-delimited JSON over a TCP or Unix socket, one request per
//! line, typed one-line responses (`"type"` discriminates). Requests:
//!
//! ```text
//! {"op":"submit","id":"j1","client":"alice","design":"Alloy","bear":"full",
//!  "workload":"rate:mcf","warmup":2000,"measure":3000,"scale":12}
//! {"op":"cancel","id":"j1"}
//! {"op":"status"}
//! {"op":"metrics"}
//! {"op":"drain"}            // or {"op":"drain","mode":"fast"}
//! ```
//!
//! `metrics` returns a live snapshot of the daemon's metrics registry —
//! queue depth, per-client admission/shed counters, the EWMA retry-after
//! hint, worker health, a job wall-time histogram, and the per-job bloat
//! decomposition recorded so far — both as the registry's stable JSON
//! dump (`"registry"`) and as Prometheus-style text (`"exposition"`).
//! Every job carries a stable trace id (`{:016x}` of [`JobSpec::key`]),
//! stamped onto streamed telemetry lines and supervision rows, so one
//! submission can be correlated across retries and restarts.
//!
//! A submission is **acknowledged only after its journal entry is
//! durably committed** — the `accepted` line is the client's receipt
//! that the job survives any subsequent daemon death. Malformed JSON,
//! oversized lines, and truncated submissions yield a typed `error`
//! response (never a panic, never a hung connection); an unanswered
//! submit (connection drop, daemon kill) is safely resubmitted — job ids
//! make submission idempotent.
//!
//! # Robustness core
//!
//! - **Admission control**: the queue is bounded (`queue_capacity`
//!   global, `client_quota` per client). Excess load is shed with a
//!   typed `overloaded` response carrying a retry-after hint derived
//!   from the observed mean job time — the daemon never buffers
//!   unboundedly toward OOM, and shed jobs were never accepted, so
//!   "zero accepted jobs lost" stays provable.
//! - **Fair-share scheduling**: ready clients are drained round-robin,
//!   one job per turn, so a chatty client cannot starve the grid.
//! - **Worker healing**: a worker thread that dies (chaos worker-kill, a
//!   real panic escaping the supervised attempt) is detected by the pool
//!   monitor; its in-flight job is requeued at the front and a
//!   replacement worker is spawned.
//! - **Crash-safe jobs**: the journal replays on restart — committed,
//!   uncancelled jobs whose results are not already in the result cache
//!   are re-enqueued and, the simulator being deterministic, complete
//!   byte-identically. The chaos suite (`tests/daemon.rs`) proves a
//!   kill-riddled run's final report equals the fault-free run's, byte
//!   for byte.
//! - **Graceful drain**: `drain` stops intake, closes the listener
//!   *before* the pool stops, finishes (default) or checkpoints (`fast`)
//!   in-flight work, flushes `failures.json`, writes the final
//!   `daemon_report.json`, and lets the process exit 0.
//!
//! # Job lifecycle
//!
//! ```text
//!            submit                    pop                   attempt ok
//! (client) ----------> Queued ----------------> Running -----------------> Completed
//!                        |  \                    |   |  \
//!                        |   cancel              |   |   attempts exhausted -> Failed
//!                        |                       |   cancel (cooperative,
//!                        v                       |    settles after attempt) -> Cancelled
//!                    Cancelled                   |
//!                                                | worker death: requeued (front)
//!                                                v
//!                                              Queued
//! ```
//!
//! Chaos (armed via `BEAR_CHAOS_SEED` in `beard`) draws three
//! daemon-level fault classes per
//! [`DaemonChaosKind`](bear_sim::faultinject::DaemonChaosKind):
//! connection drops mid-stream, worker kills mid-job, and whole-daemon
//! kill -9 in the worst window — between a job's journal commit and its
//! acknowledgment. All of them heal completely; none may change a single
//! report byte.

use crate::checkpoint::{self, CellStore};
use crate::report::{stats_to_json, Json};
use crate::supervisor::{self, SupervisionRow, SupervisorConfig};
use crate::{config_for, RunPlan};
use bear_core::config::{BearFeatures, DesignKind, SystemConfig};
use bear_core::metrics::RunStats;
use bear_core::system::System;
use bear_sim::faultinject::{ChaosPlan, DaemonChaosKind};
use bear_telemetry::{live_channel, Registry};
use bear_workloads::Workload;
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Longest accepted request line (bytes, newline included). Anything
/// longer is shed with a typed `oversized` error and the connection is
/// closed — a malicious or broken client cannot balloon daemon memory.
pub const MAX_LINE: usize = 64 * 1024;

/// Every design label the protocol accepts, in catalogue order.
const DESIGNS: [DesignKind; 8] = [
    DesignKind::NoCache,
    DesignKind::Alloy,
    DesignKind::InclusiveAlloy,
    DesignKind::BwOpt,
    DesignKind::LohHill,
    DesignKind::MostlyClean,
    DesignKind::TagsInSram,
    DesignKind::SectorCache,
];

/// BEAR feature-set names the protocol accepts (applied to Alloy only,
/// like [`config_for`]).
const BEAR_SETS: [&str; 5] = ["none", "bab", "bab+dcp", "full", "full+tntc"];

fn bear_features(name: &str) -> Option<BearFeatures> {
    match name {
        "none" => Some(BearFeatures::none()),
        "bab" => Some(BearFeatures::bab()),
        "bab+dcp" => Some(BearFeatures::bab_dcp()),
        "full" => Some(BearFeatures::full()),
        "full+tntc" => Some(BearFeatures::full_with_temporal_ntc()),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Protocol: requests, typed errors, parsing
// ---------------------------------------------------------------------------

/// One fully validated job submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Client-chosen job id — the idempotency key for resubmission.
    pub id: String,
    /// Submitting client's name (the fair-share scheduling unit).
    pub client: String,
    /// Design label (e.g. `"Alloy"`).
    pub design: DesignKind,
    /// BEAR feature-set name (one of [`BEAR_SETS`]).
    pub bear: String,
    /// Workload name from the standard suites (e.g. `"rate:mcf"`).
    pub workload: String,
    /// Warmup cycles.
    pub warmup: u64,
    /// Measured cycles.
    pub measure: u64,
    /// Joint capacity scale shift.
    pub scale_shift: u32,
    /// Optional per-attempt wall-clock deadline override (ms).
    pub deadline_ms: Option<u64>,
    /// Stream live telemetry samples back over the submitting socket.
    pub telemetry: bool,
    /// Sample window (cycles) when telemetry is armed.
    pub sample_window: u64,
}

impl JobSpec {
    /// The canonical single-line rendering of this spec — what the
    /// journal stores and what the job's identity hashes over. Parsing
    /// it back through [`parse_request`] reproduces the spec exactly.
    pub fn canonical_line(&self) -> String {
        Json::Obj(vec![
            ("op".into(), Json::Str("submit".into())),
            ("id".into(), Json::Str(self.id.clone())),
            ("client".into(), Json::Str(self.client.clone())),
            ("design".into(), Json::Str(self.design.label().into())),
            ("bear".into(), Json::Str(self.bear.clone())),
            ("workload".into(), Json::Str(self.workload.clone())),
            ("warmup".into(), Json::uint(self.warmup)),
            ("measure".into(), Json::uint(self.measure)),
            ("scale".into(), Json::uint(self.scale_shift as u64)),
            (
                "deadline_ms".into(),
                self.deadline_ms.map_or(Json::Null, Json::uint),
            ),
            ("telemetry".into(), Json::Bool(self.telemetry)),
            ("sample_window".into(), Json::uint(self.sample_window)),
        ])
        .to_string()
    }

    /// Stable identity of this job: a digest of the canonical line.
    /// Restart-, scheduling-, and worker-count-independent — the chaos
    /// plan keys its daemon fault draws on this.
    pub fn key(&self) -> u64 {
        checkpoint::fnv1a64(self.canonical_line().as_bytes())
    }

    /// The job's correlation/trace id: the identity hash rendered as 16
    /// hex digits. Identical across retries, worker respawns, and daemon
    /// restarts — grep it through streamed telemetry, supervision rows,
    /// and Chrome traces to follow one submission end to end.
    pub fn trace_id(&self) -> String {
        format!("{:016x}", self.key())
    }

    /// Journal file stem: a sanitized id slug plus the identity hash, so
    /// two specs reusing one id can never overwrite each other's entry.
    pub fn stem(&self) -> String {
        let slug: String = self
            .id
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .take(40)
            .collect();
        format!("job-{slug}-{:016x}", self.key())
    }

    /// The system configuration this job runs.
    pub fn system_config(&self) -> SystemConfig {
        let plan = RunPlan {
            warmup: self.warmup,
            measure: self.measure,
            scale_shift: self.scale_shift,
        };
        let bear = bear_features(&self.bear).expect("validated at parse time");
        config_for(self.design, bear, &plan)
    }

    /// The workload this job runs.
    pub fn workload(&self) -> Workload {
        bear_workloads::all_workloads()
            .into_iter()
            .find(|w| w.name == self.workload)
            .expect("validated at parse time")
    }
}

/// One parsed protocol request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Submit a job.
    Submit(Box<JobSpec>),
    /// Cancel a job by id.
    Cancel(String),
    /// Snapshot the daemon's counters.
    Status,
    /// Snapshot the live metrics registry (JSON dump + exposition text).
    Metrics,
    /// Stop intake and shut down; `fast` checkpoints queued jobs instead
    /// of finishing them.
    Drain {
        /// Finish only in-flight attempts; leave queued jobs journaled.
        fast: bool,
    },
}

/// A typed protocol rejection: machine-readable kind plus human detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// Stable error class: `"protocol"`, `"oversized"`, `"bad-job"`.
    pub kind: &'static str,
    /// What exactly was wrong.
    pub detail: String,
}

impl ProtoError {
    fn protocol(detail: impl Into<String>) -> ProtoError {
        ProtoError {
            kind: "protocol",
            detail: detail.into(),
        }
    }

    fn bad_job(detail: impl Into<String>) -> ProtoError {
        ProtoError {
            kind: "bad-job",
            detail: detail.into(),
        }
    }

    fn to_line(&self) -> String {
        Json::Obj(vec![
            ("type".into(), Json::Str("error".into())),
            ("kind".into(), Json::Str(self.kind.into())),
            ("detail".into(), Json::Str(self.detail.clone())),
        ])
        .to_string()
    }
}

/// Parses one request line. Total: every possible byte string returns
/// either a request or a typed [`ProtoError`] — the hardening property
/// test mutates valid lines at the byte level and asserts this never
/// panics.
///
/// # Errors
///
/// [`ProtoError`] with kind `"oversized"` (line too long), `"protocol"`
/// (not JSON, not an object, unknown/missing `op`, ill-typed field), or
/// `"bad-job"` (well-formed submit whose values are out of range or name
/// unknown designs/workloads).
pub fn parse_request(line: &str) -> Result<Request, ProtoError> {
    if line.len() > MAX_LINE {
        return Err(ProtoError {
            kind: "oversized",
            detail: format!("request line of {} bytes exceeds {MAX_LINE}", line.len()),
        });
    }
    let doc = Json::parse(line).map_err(|e| ProtoError::protocol(format!("not JSON: {e}")))?;
    let op = doc
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| ProtoError::protocol("missing string field \"op\""))?;
    let str_field = |key: &str| -> Result<String, ProtoError> {
        doc.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| ProtoError::protocol(format!("missing string field {key:?}")))
    };
    match op {
        "submit" => {
            let id = str_field("id")?;
            if id.is_empty() || id.len() > 64 {
                return Err(ProtoError::bad_job("id must be 1..=64 characters"));
            }
            let client = str_field("client")?;
            if client.is_empty() || client.len() > 64 {
                return Err(ProtoError::bad_job("client must be 1..=64 characters"));
            }
            let design_label = str_field("design")?;
            let design = DESIGNS
                .into_iter()
                .find(|d| d.label() == design_label)
                .ok_or_else(|| ProtoError::bad_job(format!("unknown design {design_label:?}")))?;
            let bear = str_field("bear")?;
            if bear_features(&bear).is_none() {
                return Err(ProtoError::bad_job(format!(
                    "unknown bear feature set {bear:?} (one of {BEAR_SETS:?})"
                )));
            }
            let workload = str_field("workload")?;
            if !bear_workloads::all_workloads()
                .iter()
                .any(|w| w.name == workload)
            {
                return Err(ProtoError::bad_job(format!(
                    "unknown workload {workload:?}"
                )));
            }
            let uint_field = |key: &str| -> Result<u64, ProtoError> {
                doc.get(key)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| ProtoError::protocol(format!("missing integer field {key:?}")))
            };
            let warmup = uint_field("warmup")?;
            let measure = uint_field("measure")?;
            if measure == 0 || warmup.saturating_add(measure) > 100_000_000 {
                return Err(ProtoError::bad_job(
                    "warmup+measure must be in 1..=100M cycles",
                ));
            }
            let scale = uint_field("scale")?;
            if !(1..=30).contains(&scale) {
                return Err(ProtoError::bad_job("scale must be in 1..=30"));
            }
            let deadline_ms = match doc.get("deadline_ms") {
                None | Some(Json::Null) => None,
                Some(v) => Some(v.as_u64().filter(|&ms| ms > 0).ok_or_else(|| {
                    ProtoError::protocol("deadline_ms must be a positive integer or null")
                })?),
            };
            let telemetry = match doc.get("telemetry") {
                None | Some(Json::Null) => false,
                Some(Json::Bool(b)) => *b,
                Some(_) => return Err(ProtoError::protocol("telemetry must be a boolean")),
            };
            let sample_window = match doc.get("sample_window") {
                None | Some(Json::Null) => bear_telemetry::DEFAULT_SAMPLE_WINDOW,
                Some(v) => v.as_u64().filter(|&w| w > 0).ok_or_else(|| {
                    ProtoError::protocol("sample_window must be a positive integer")
                })?,
            };
            Ok(Request::Submit(Box::new(JobSpec {
                id,
                client,
                design,
                bear,
                workload,
                warmup,
                measure,
                scale_shift: scale as u32,
                deadline_ms,
                telemetry,
                sample_window,
            })))
        }
        "cancel" => Ok(Request::Cancel(str_field("id")?)),
        "status" => Ok(Request::Status),
        "metrics" => Ok(Request::Metrics),
        "drain" => {
            let fast = match doc.get("mode").and_then(Json::as_str) {
                None => false,
                Some("fast") => true,
                Some(m) => {
                    return Err(ProtoError::protocol(format!("unknown drain mode {m:?}")));
                }
            };
            Ok(Request::Drain { fast })
        }
        other => Err(ProtoError::protocol(format!("unknown op {other:?}"))),
    }
}

// ---------------------------------------------------------------------------
// Sockets: TCP and Unix behind one seam
// ---------------------------------------------------------------------------

/// One accepted connection (TCP or Unix domain).
#[derive(Debug)]
enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixStream),
}

impl Conn {
    fn try_clone(&self) -> std::io::Result<Conn> {
        match self {
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
            #[cfg(unix)]
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
        }
    }

    fn shutdown(&self) {
        match self {
            Conn::Tcp(s) => {
                s.shutdown(std::net::Shutdown::Both).ok();
            }
            #[cfg(unix)]
            Conn::Unix(s) => {
                s.shutdown(std::net::Shutdown::Both).ok();
            }
        }
    }

    fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(timeout),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_read_timeout(timeout),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

#[derive(Debug)]
enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixListener),
}

impl Listener {
    /// Binds `addr`: `"unix:PATH"` for a Unix domain socket (a stale
    /// socket file is replaced), anything else as a TCP address (use
    /// port 0 for an ephemeral port). Returns the listener and the
    /// *actual* address string clients should dial.
    fn bind(addr: &str) -> std::io::Result<(Listener, String)> {
        #[cfg(unix)]
        if let Some(path) = addr.strip_prefix("unix:") {
            std::fs::remove_file(path).ok();
            let l = std::os::unix::net::UnixListener::bind(path)?;
            return Ok((Listener::Unix(l), format!("unix:{path}")));
        }
        let l = TcpListener::bind(addr)?;
        let actual = l.local_addr()?.to_string();
        Ok((Listener::Tcp(l), actual))
    }

    fn accept(&self) -> std::io::Result<Conn> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
            #[cfg(unix)]
            Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
        }
    }
}

fn dial(addr: &str) -> std::io::Result<Conn> {
    #[cfg(unix)]
    if let Some(path) = addr.strip_prefix("unix:") {
        return std::os::unix::net::UnixStream::connect(path).map(Conn::Unix);
    }
    TcpStream::connect(addr).map(Conn::Tcp)
}

/// Shared, locked write half of a connection — workers and the live
/// telemetry forwarder push lines concurrently. Write errors are
/// swallowed: a client that went away forfeits its notifications, the
/// job itself is unaffected.
#[derive(Debug, Clone)]
struct ReplyHandle(Arc<Mutex<Conn>>);

impl ReplyHandle {
    fn send_line(&self, line: &str) {
        let mut w = self.0.lock().expect("reply handle poisoned");
        let _ = w.write_all(line.as_bytes()).and_then(|()| {
            w.write_all(b"\n")?;
            w.flush()
        });
    }
}

// ---------------------------------------------------------------------------
// Daemon state
// ---------------------------------------------------------------------------

/// Service policy for one daemon instance.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Report directory: the job journal, result cache, `failures.json`,
    /// and `daemon_report.json` all live under it.
    pub out: PathBuf,
    /// Worker pool size.
    pub workers: usize,
    /// Global bound on queued (not yet running) jobs; beyond it
    /// submissions shed with `overloaded`.
    pub queue_capacity: usize,
    /// Per-client bound on queued jobs — the backstop that keeps one
    /// chatty client from monopolizing even the admission queue.
    pub client_quota: usize,
    /// Per-job retry/backoff/deadline policy (jobs may tighten the
    /// deadline per submission).
    pub supervisor: SupervisorConfig,
    /// Daemon-level chaos plan, when armed (`BEAR_CHAOS_SEED`).
    pub chaos: Option<ChaosPlan>,
    /// Whether a drawn daemon-kill may actually abort the process. Only
    /// `beard` (a disposable subprocess) sets this; in-process daemons
    /// (unit tests) never abort their host.
    pub allow_kill: bool,
}

impl DaemonConfig {
    /// Default policy rooted at `out`: 2 workers, a 64-job queue, a
    /// 32-job per-client quota, environment-configured supervision, no
    /// chaos.
    pub fn new(out: &Path) -> DaemonConfig {
        DaemonConfig {
            out: out.to_path_buf(),
            workers: 2,
            queue_capacity: 64,
            client_quota: 32,
            supervisor: SupervisorConfig::from_env(),
            chaos: None,
            allow_kill: false,
        }
    }

    /// Arms daemon chaos from `BEAR_CHAOS_SEED` (kills enabled — only
    /// call in a disposable process like `beard`).
    ///
    /// # Panics
    ///
    /// Panics when the variable is set but not an integer.
    pub fn chaos_from_env(mut self) -> DaemonConfig {
        if let Ok(v) = std::env::var("BEAR_CHAOS_SEED") {
            let seed: u64 = v.parse().expect("BEAR_CHAOS_SEED must be an integer");
            eprintln!("[daemon chaos: armed with seed {seed}]");
            self.chaos = Some(ChaosPlan::new(seed));
            self.allow_kill = true;
        }
        self
    }
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone)]
enum JobStatus {
    Queued,
    Running,
    Completed(Box<RunStats>),
    Failed {
        kind: String,
        error: String,
        attempts: usize,
    },
    Cancelled,
}

#[derive(Debug)]
struct JobRecord {
    spec: JobSpec,
    status: JobStatus,
    cancel_requested: bool,
    /// Worker-kill chaos fired for this job already (once per daemon
    /// incarnation — the requeued job must then run).
    kill_fired: bool,
    reply: Option<ReplyHandle>,
}

/// Monotonic service counters, reported by `status` and the drain
/// summary. Deliberately excluded from `daemon_report.json`: counters
/// differ between a fault-free and a chaos-riddled run (that is their
/// job), the report may not.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Submissions admitted (journaled and acknowledged).
    pub accepted: u64,
    /// Submissions shed with `overloaded`.
    pub shed: u64,
    /// Jobs completed successfully.
    pub completed: u64,
    /// Jobs that exhausted supervision and failed.
    pub failed: u64,
    /// Jobs cancelled before completing.
    pub cancelled: u64,
    /// Jobs re-enqueued from the journal at startup.
    pub resumed: u64,
    /// Connections chaos-dropped mid-stream.
    pub conn_drops: u64,
    /// Dead workers healed (requeue + respawn).
    pub workers_respawned: u64,
}

impl Counters {
    fn to_json(self) -> Json {
        Json::Obj(vec![
            ("accepted".into(), Json::uint(self.accepted)),
            ("shed".into(), Json::uint(self.shed)),
            ("completed".into(), Json::uint(self.completed)),
            ("failed".into(), Json::uint(self.failed)),
            ("cancelled".into(), Json::uint(self.cancelled)),
            ("resumed".into(), Json::uint(self.resumed)),
            ("conn_drops".into(), Json::uint(self.conn_drops)),
            (
                "workers_respawned".into(),
                Json::uint(self.workers_respawned),
            ),
        ])
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DrainMode {
    Full,
    Fast,
}

#[derive(Debug)]
struct State {
    jobs: BTreeMap<String, JobRecord>,
    /// Clients with at least one queued job, in round-robin turn order.
    order: VecDeque<String>,
    queues: BTreeMap<String, VecDeque<String>>,
    queued: usize,
    running: BTreeMap<usize, String>,
    draining: Option<DrainMode>,
    listener_closed: bool,
    workers_alive: usize,
    finalized: bool,
    counters: Counters,
    /// Supervision rows recorded by this incarnation (already merged
    /// into `failures.json` incrementally; kept for the drain flush).
    rows: Vec<SupervisionRow>,
    /// EWMA of observed job wall time, feeding the overload retry-after
    /// hint.
    mean_job_ms: f64,
}

struct Shared {
    cfg: DaemonConfig,
    addr: String,
    journal: CellStore,
    results: CellStore,
    state: Mutex<State>,
    /// Signals workers: queue or drain state changed.
    work: Condvar,
    /// Signals waiters: a job settled, a worker exited, the listener
    /// closed.
    settled: Condvar,
    /// Live metrics registry, shared by every service thread
    /// (observability-only: nothing in it feeds `daemon_report.json`).
    registry: Registry,
    conn_counter: AtomicU64,
    shutdown: AtomicBool,
    worker_handles: Mutex<Vec<Option<std::thread::JoinHandle<()>>>>,
    finished: Mutex<Option<DrainSummary>>,
    done: Condvar,
}

/// What a completed drain reports.
#[derive(Debug, Clone)]
pub struct DrainSummary {
    /// Final counter snapshot.
    pub counters: Counters,
    /// Jobs left queued/running by a fast drain (journaled, resumable).
    pub pending: usize,
    /// Path of the final report.
    pub report: PathBuf,
}

// ---------------------------------------------------------------------------
// Scheduling primitives (pure on State, unit-tested directly)
// ---------------------------------------------------------------------------

/// Enqueues `id` for `client` at the back of its per-client queue,
/// adding the client to the round-robin rotation if it was idle.
fn enqueue(st: &mut State, client: &str, id: String) {
    let q = st.queues.entry(client.to_string()).or_default();
    if q.is_empty() && !st.order.iter().any(|c| c == client) {
        st.order.push_back(client.to_string());
    }
    q.push_back(id);
    st.queued += 1;
}

/// Requeues a job at the *front* of its client's queue (worker-death
/// healing: the job was next in line and stays next in line).
fn requeue_front(st: &mut State, id: String) {
    let client = st.jobs[&id].spec.client.clone();
    let q = st.queues.entry(client.clone()).or_default();
    if q.is_empty() && !st.order.iter().any(|c| c == &client) {
        st.order.push_front(client);
    }
    q.push_front(id.clone());
    st.queued += 1;
    if let Some(rec) = st.jobs.get_mut(&id) {
        rec.status = JobStatus::Queued;
    }
}

/// Pops the next job under the fair-share rule: the client at the head
/// of the rotation gives up one job and moves to the back (if it still
/// has more). One job per client per turn — a client with 50 queued jobs
/// and a client with 1 alternate until the short queue empties.
fn pop_job(st: &mut State) -> Option<String> {
    while let Some(client) = st.order.pop_front() {
        let Some(q) = st.queues.get_mut(&client) else {
            continue;
        };
        let Some(id) = q.pop_front() else {
            st.queues.remove(&client);
            continue;
        };
        if q.is_empty() {
            st.queues.remove(&client);
        } else {
            st.order.push_back(client);
        }
        st.queued -= 1;
        return Some(id);
    }
    None
}

/// Removes a queued job from its client's queue (cancellation).
fn unqueue(st: &mut State, id: &str) -> bool {
    let client = st.jobs[id].spec.client.clone();
    let Some(q) = st.queues.get_mut(&client) else {
        return false;
    };
    let Some(pos) = q.iter().position(|j| j == id) else {
        return false;
    };
    q.remove(pos);
    if q.is_empty() {
        st.queues.remove(&client);
        st.order.retain(|c| c != &client);
    }
    st.queued -= 1;
    true
}

/// The `retry_after_ms` hint attached to `overloaded` responses:
/// backlog-proportional (observed mean job time × queue depth ÷ pool
/// width), clamped to something a client can reasonably sleep.
fn retry_after_ms(st: &State, workers: usize) -> u64 {
    let backlog = (st.queued + st.running.len()) as f64;
    let per = if st.mean_job_ms > 0.0 {
        st.mean_job_ms
    } else {
        1_000.0
    };
    (per * backlog / workers.max(1) as f64).clamp(50.0, 60_000.0) as u64
}

// ---------------------------------------------------------------------------
// The daemon
// ---------------------------------------------------------------------------

/// A running campaign daemon. Construct with [`Daemon::start`]; the
/// instance lives until a client sends `drain` (then [`Daemon::wait`]
/// returns the summary). There is no other shutdown path — killing the
/// process is explicitly survivable instead.
pub struct Daemon {
    shared: Arc<Shared>,
    accept_handle: Option<std::thread::JoinHandle<()>>,
    monitor_handle: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    /// Starts the service: replays the journal, binds `listen`
    /// (`"unix:PATH"` or a TCP address; port 0 picks an ephemeral port),
    /// publishes the actual address to `OUT/daemon.addr`, and spawns the
    /// worker pool, pool monitor, and accept loop.
    ///
    /// # Errors
    ///
    /// Propagates journal/socket I/O errors.
    pub fn start(cfg: DaemonConfig, listen: &str) -> std::io::Result<Daemon> {
        std::fs::create_dir_all(&cfg.out)?;
        let journal = CellStore::at(&cfg.out.join("daemon").join("jobs"));
        let results = CellStore::at(&cfg.out.join("daemon").join("results"));
        let (listener, addr) = Listener::bind(listen)?;

        let mut st = State {
            jobs: BTreeMap::new(),
            order: VecDeque::new(),
            queues: BTreeMap::new(),
            queued: 0,
            running: BTreeMap::new(),
            draining: None,
            listener_closed: false,
            workers_alive: cfg.workers,
            finalized: false,
            counters: Counters::default(),
            rows: Vec::new(),
            mean_job_ms: 0.0,
        };
        resume_journal(&journal, &results, &mut st);

        let shared = Arc::new(Shared {
            addr: addr.clone(),
            journal,
            results,
            state: Mutex::new(st),
            work: Condvar::new(),
            settled: Condvar::new(),
            registry: Registry::new(),
            conn_counter: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            worker_handles: Mutex::new(Vec::new()),
            finished: Mutex::new(None),
            done: Condvar::new(),
            cfg,
        });

        // Publish the dialable address (atomically: poll-safe for tests
        // that race daemon startup).
        let addr_path = shared.cfg.out.join("daemon.addr");
        let tmp = shared.cfg.out.join("daemon.addr.tmp");
        std::fs::write(&tmp, format!("{addr}\n"))?;
        std::fs::rename(&tmp, &addr_path)?;

        {
            let mut handles = shared
                .worker_handles
                .lock()
                .expect("worker handles poisoned");
            for idx in 0..shared.cfg.workers {
                let sh = shared.clone();
                handles.push(Some(std::thread::spawn(move || worker_loop(&sh, idx))));
            }
        }
        let monitor_handle = {
            let sh = shared.clone();
            Some(std::thread::spawn(move || monitor_loop(&sh)))
        };
        let accept_handle = {
            let sh = shared.clone();
            Some(std::thread::spawn(move || accept_loop(&sh, listener)))
        };
        shared.work.notify_all();
        Ok(Daemon {
            shared,
            accept_handle,
            monitor_handle,
        })
    }

    /// The address clients dial (also in `OUT/daemon.addr`).
    pub fn addr(&self) -> &str {
        &self.shared.addr
    }

    /// The daemon's live metrics registry (what `{"op":"metrics"}`
    /// snapshots). Cloning is cheap; all clones share the same series.
    pub fn registry(&self) -> Registry {
        self.shared.registry.clone()
    }

    /// Blocks until a client drains the daemon, then joins every service
    /// thread and returns the drain summary.
    pub fn wait(mut self) -> DrainSummary {
        let summary = {
            let mut fin = self.shared.finished.lock().expect("finished poisoned");
            loop {
                if let Some(s) = fin.clone() {
                    break s;
                }
                fin = self.shared.done.wait(fin).expect("finished poisoned");
            }
        };
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept_handle.take() {
            h.join().ok();
        }
        if let Some(h) = self.monitor_handle.take() {
            h.join().ok();
        }
        let mut handles = self
            .shared
            .worker_handles
            .lock()
            .expect("worker handles poisoned");
        for h in handles.iter_mut() {
            if let Some(h) = h.take() {
                h.join().ok();
            }
        }
        summary
    }
}

/// Replays the journal into the scheduler: committed, uncancelled
/// entries parse back into specs; those with cached results settle as
/// completed immediately, the rest re-enqueue (client `Queued`, no reply
/// handle — the submitting connection died with the previous
/// incarnation, which is exactly why the journal exists).
fn resume_journal(journal: &CellStore, results: &CellStore, st: &mut State) {
    for stem in journal.list_raw() {
        let Some(line) = journal.load_raw(&stem) else {
            continue; // torn entry: the digest already rejected it
        };
        let Ok(Request::Submit(spec)) = parse_request(line.trim_end()) else {
            eprintln!("[daemon: journal entry {stem} does not parse as a submit; skipped]");
            continue;
        };
        if spec.stem() != stem {
            eprintln!("[daemon: journal entry {stem} fails its identity check; skipped]");
            continue;
        }
        if st.jobs.contains_key(&spec.id) {
            eprintln!(
                "[daemon: journal holds conflicting specs for job {}; keeping the first]",
                spec.id
            );
            continue;
        }
        let cancelled = journal.has_flag(&stem, "cancelled");
        let status = if cancelled {
            st.counters.cancelled += 1;
            JobStatus::Cancelled
        } else if let Some(stats) = results.load(&spec.system_config(), &spec.workload()) {
            st.counters.completed += 1;
            JobStatus::Completed(Box::new(stats))
        } else {
            st.counters.resumed += 1;
            JobStatus::Queued
        };
        let id = spec.id.clone();
        let client = spec.client.clone();
        let queued = matches!(status, JobStatus::Queued);
        st.jobs.insert(
            id.clone(),
            JobRecord {
                spec: *spec,
                status,
                cancel_requested: false,
                kill_fired: false,
                reply: None,
            },
        );
        if queued {
            enqueue(st, &client, id);
        }
    }
    let resumed = st.counters.resumed;
    if resumed > 0 {
        eprintln!("[daemon: resumed {resumed} journaled job(s) from a previous incarnation]");
    }
}

// ---------------------------------------------------------------------------
// Accept loop and per-connection protocol handling
// ---------------------------------------------------------------------------

fn accept_loop(shared: &Arc<Shared>, listener: Listener) {
    loop {
        let draining = shared
            .state
            .lock()
            .expect("daemon state poisoned")
            .draining
            .is_some();
        if draining {
            break;
        }
        match listener.accept() {
            Ok(conn) => {
                let sh = shared.clone();
                std::thread::spawn(move || serve_conn(&sh, conn));
            }
            Err(_) => break,
        }
    }
    // Drop the listener *now* — before any worker stops — so new
    // connections are refused for the whole remainder of the drain.
    drop(listener);
    let mut st = shared.state.lock().expect("daemon state poisoned");
    st.listener_closed = true;
    shared.settled.notify_all();
}

enum ReadLine {
    Line(String),
    Oversized,
    Eof,
}

/// Reads one `\n`-terminated line with a hard byte cap: an unbounded
/// sender cannot balloon daemon memory or wedge the connection — the
/// caller sheds `Oversized` as a typed error and closes.
fn read_bounded_line(reader: &mut BufReader<Conn>) -> std::io::Result<ReadLine> {
    let mut buf = Vec::new();
    let n = reader
        .by_ref()
        .take(MAX_LINE as u64 + 1)
        .read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(ReadLine::Eof);
    }
    if buf.len() > MAX_LINE {
        return Ok(ReadLine::Oversized);
    }
    Ok(ReadLine::Line(String::from_utf8_lossy(&buf).into_owned()))
}

fn serve_conn(shared: &Arc<Shared>, conn: Conn) {
    let conn_index = shared.conn_counter.fetch_add(1, Ordering::SeqCst);
    let Ok(write_half) = conn.try_clone() else {
        return;
    };
    let reply = ReplyHandle(Arc::new(Mutex::new(write_half)));
    let mut reader = BufReader::new(conn);
    let mut request_no: u64 = 0;
    loop {
        let line = match read_bounded_line(&mut reader) {
            Ok(ReadLine::Eof) | Err(_) => break,
            Ok(ReadLine::Oversized) => {
                reply.send_line(
                    &ProtoError {
                        kind: "oversized",
                        detail: format!("request line exceeds {MAX_LINE} bytes"),
                    }
                    .to_line(),
                );
                break; // the rest of the oversized line is unframed noise
            }
            Ok(ReadLine::Line(line)) => line,
        };
        if line.trim().is_empty() {
            continue;
        }
        let req = match parse_request(line.trim_end_matches(['\r', '\n'])) {
            Ok(req) => req,
            Err(e) => {
                reply.send_line(&e.to_line());
                continue;
            }
        };
        let this_no = request_no;
        request_no += 1;
        match req {
            Request::Submit(spec) => {
                // Chaos: drop the connection mid-stream — *after* the
                // daemon side committed, *instead of* answering. The
                // client's recovery is reconnect + resubmit; idempotent
                // ids make that safe.
                let drop_conn = shared
                    .cfg
                    .chaos
                    .as_ref()
                    .is_some_and(|p| p.conn_drop(conn_index, this_no));
                let response = handle_submit(shared, &spec, &reply);
                if drop_conn {
                    let mut st = shared.state.lock().expect("daemon state poisoned");
                    st.counters.conn_drops += 1;
                    drop(st);
                    eprintln!(
                        "[daemon chaos: dropping connection {conn_index} at request {this_no}]"
                    );
                    if let Ok(c) = reply.0.lock() {
                        c.shutdown();
                    }
                    return;
                }
                reply.send_line(&response);
            }
            Request::Cancel(id) => {
                let response = handle_cancel(shared, &id);
                reply.send_line(&response);
            }
            Request::Status => {
                let st = shared.state.lock().expect("daemon state poisoned");
                let line = Json::Obj(vec![
                    ("type".into(), Json::Str("status".into())),
                    ("queued".into(), Json::uint(st.queued as u64)),
                    ("running".into(), Json::uint(st.running.len() as u64)),
                    ("draining".into(), Json::Bool(st.draining.is_some())),
                    ("counters".into(), st.counters.to_json()),
                ])
                .to_string();
                drop(st);
                reply.send_line(&line);
            }
            Request::Metrics => {
                reply.send_line(&metrics_line(shared));
            }
            Request::Drain { fast } => {
                handle_drain(shared, fast, &reply);
                return; // the daemon is gone; nothing more to serve
            }
        }
    }
}

/// Builds the `{"op":"metrics"}` response: refreshes the state-derived
/// gauges (queue depth, worker health, the EWMA-based retry-after hint),
/// then snapshots the registry as both its stable JSON dump
/// (`"registry"`) and Prometheus-style text (`"exposition"`).
fn metrics_line(shared: &Arc<Shared>) -> String {
    let reg = &shared.registry;
    {
        let st = shared.state.lock().expect("daemon state poisoned");
        reg.set_help("beard_queue_depth", "Jobs queued and not yet running");
        reg.gauge("beard_queue_depth", &[]).set(st.queued as f64);
        reg.set_help("beard_running_jobs", "Jobs currently on a worker");
        reg.gauge("beard_running_jobs", &[])
            .set(st.running.len() as f64);
        reg.set_help("beard_workers_alive", "Live worker threads");
        reg.gauge("beard_workers_alive", &[])
            .set(st.workers_alive as f64);
        reg.set_help("beard_mean_job_ms", "EWMA of observed job wall time (ms)");
        reg.gauge("beard_mean_job_ms", &[]).set(st.mean_job_ms);
        reg.set_help(
            "beard_retry_after_hint_ms",
            "Retry-after hint an overloaded submission would receive right now (ms)",
        );
        reg.gauge("beard_retry_after_hint_ms", &[])
            .set(retry_after_ms(&st, shared.cfg.workers) as f64);
        reg.set_help("beard_draining", "1 once a drain has been requested");
        reg.gauge("beard_draining", &[])
            .set(if st.draining.is_some() { 1.0 } else { 0.0 });
    }
    let registry = Json::parse(&reg.to_json()).expect("registry dump is valid JSON");
    Json::Obj(vec![
        ("type".into(), Json::Str("metrics".into())),
        ("registry".into(), registry),
        ("exposition".into(), Json::Str(reg.exposition())),
    ])
    .to_string()
}

fn handle_submit(shared: &Arc<Shared>, spec: &JobSpec, reply: &ReplyHandle) -> String {
    let accepted_line = |id: &str| {
        Json::Obj(vec![
            ("type".into(), Json::Str("accepted".into())),
            ("id".into(), Json::Str(id.into())),
        ])
        .to_string()
    };
    {
        let mut st = shared.state.lock().expect("daemon state poisoned");
        if st.draining.is_some() {
            return ProtoError {
                kind: "draining",
                detail: "daemon is draining; submissions are closed".into(),
            }
            .to_line();
        }
        if let Some(rec) = st.jobs.get_mut(&spec.id) {
            if rec.spec == *spec {
                // Idempotent resubmission (a dropped ack, a resumed
                // job): re-attach the notification channel and restate
                // any already-settled outcome.
                rec.reply = Some(reply.clone());
                let settled = settle_line(&rec.spec, &rec.status);
                drop(st);
                if let Some(line) = settled {
                    reply.send_line(&accepted_line(&spec.id));
                    return line;
                }
                return accepted_line(&spec.id);
            }
            return ProtoError {
                kind: "id-conflict",
                detail: format!("job {:?} already exists with a different spec", spec.id),
            }
            .to_line();
        }
        if st.queued >= shared.cfg.queue_capacity {
            st.counters.shed += 1;
            record_shed(&shared.registry, &spec.client);
            return overloaded_line(spec, &st, shared.cfg.workers, "queue full");
        }
        let client_depth = st.queues.get(&spec.client).map_or(0, VecDeque::len);
        if client_depth >= shared.cfg.client_quota {
            st.counters.shed += 1;
            record_shed(&shared.registry, &spec.client);
            return overloaded_line(spec, &st, shared.cfg.workers, "client quota exhausted");
        }
        st.jobs.insert(
            spec.id.clone(),
            JobRecord {
                spec: spec.clone(),
                status: JobStatus::Queued,
                cancel_requested: false,
                kill_fired: false,
                reply: Some(reply.clone()),
            },
        );
        enqueue(&mut st, &spec.client, spec.id.clone());
        st.counters.accepted += 1;
        shared
            .registry
            .set_help("beard_admissions_total", "Jobs accepted, per client");
        shared
            .registry
            .counter("beard_admissions_total", &[("client", &spec.client)])
            .inc();
    }
    // Journal OUTSIDE the state lock (it fsyncs), but BEFORE the ack:
    // `accepted` is the durability receipt.
    if let Err(e) = shared
        .journal
        .store_raw(&spec.stem(), &format!("{}\n", spec.canonical_line()))
    {
        let mut st = shared.state.lock().expect("daemon state poisoned");
        if unqueue(&mut st, &spec.id) {
            st.jobs.remove(&spec.id);
            st.counters.accepted -= 1;
        }
        drop(st);
        return ProtoError {
            kind: "io",
            detail: format!("could not journal job: {e}"),
        }
        .to_line();
    }
    maybe_daemon_kill(shared, spec);
    shared.work.notify_all();
    accepted_line(&spec.id)
}

/// Bumps the per-client shed counter (both shed paths: queue full and
/// client quota).
fn record_shed(reg: &Registry, client: &str) {
    reg.set_help(
        "beard_sheds_total",
        "Submissions shed with `overloaded`, per client",
    );
    reg.counter("beard_sheds_total", &[("client", client)])
        .inc();
}

fn overloaded_line(spec: &JobSpec, st: &State, workers: usize, why: &str) -> String {
    Json::Obj(vec![
        ("type".into(), Json::Str("overloaded".into())),
        ("id".into(), Json::Str(spec.id.clone())),
        (
            "retry_after_ms".into(),
            Json::uint(retry_after_ms(st, workers)),
        ),
        ("detail".into(), Json::Str(why.into())),
    ])
    .to_string()
}

/// The chaos daemon-kill: abort the whole process in the worst window —
/// the job is journaled, the client is still waiting for the ack. Gated
/// by a per-job marker file so a restarted daemon does not re-fire, and
/// by `allow_kill` so in-process daemons never abort their host.
fn maybe_daemon_kill(shared: &Arc<Shared>, spec: &JobSpec) {
    let Some(plan) = &shared.cfg.chaos else {
        return;
    };
    if !shared.cfg.allow_kill || plan.daemon_fault(spec.key()) != Some(DaemonChaosKind::DaemonKill)
    {
        return;
    }
    let dir = shared.cfg.out.join("daemon").join("chaos-kills");
    let marker = dir.join(format!("kill-{:016x}.marker", spec.key()));
    if marker.exists() {
        return;
    }
    std::fs::create_dir_all(&dir).ok();
    if let Ok(mut f) = std::fs::File::create(&marker) {
        f.write_all(b"daemon-kill\n").ok();
        f.sync_all().ok();
    }
    eprintln!(
        "[daemon chaos: kill -9 between journal and ack (job {})]",
        spec.id
    );
    std::process::abort();
}

fn handle_cancel(shared: &Arc<Shared>, id: &str) -> String {
    let cancelled_line = |id: &str, state: &str| {
        Json::Obj(vec![
            ("type".into(), Json::Str(state.into())),
            ("id".into(), Json::Str(id.into())),
        ])
        .to_string()
    };
    let mut st = shared.state.lock().expect("daemon state poisoned");
    let Some(rec) = st.jobs.get_mut(id) else {
        return ProtoError {
            kind: "unknown-job",
            detail: format!("no job {id:?}"),
        }
        .to_line();
    };
    match rec.status {
        JobStatus::Queued => {
            let stem = rec.spec.stem();
            rec.status = JobStatus::Cancelled;
            st.counters.cancelled += 1;
            unqueue(&mut st, id);
            drop(st);
            if let Err(e) = shared.journal.set_flag(&stem, "cancelled") {
                eprintln!("[daemon: failed to persist cancellation of {id}: {e}]");
            }
            shared.settled.notify_all();
            cancelled_line(id, "cancelled")
        }
        JobStatus::Running => {
            // Cooperative: the supervised attempt finishes, its result
            // is discarded, and the job settles as cancelled then.
            rec.cancel_requested = true;
            cancelled_line(id, "cancelling")
        }
        JobStatus::Cancelled => cancelled_line(id, "cancelled"),
        JobStatus::Completed(_) | JobStatus::Failed { .. } => ProtoError {
            kind: "already-settled",
            detail: format!("job {id:?} already settled"),
        }
        .to_line(),
    }
}

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

fn worker_loop(shared: &Arc<Shared>, idx: usize) {
    loop {
        let id = {
            let mut st = shared.state.lock().expect("daemon state poisoned");
            loop {
                if st.draining == Some(DrainMode::Fast) {
                    return worker_exit(shared, st, idx);
                }
                if let Some(id) = pop_job(&mut st) {
                    st.running.insert(idx, id.clone());
                    if let Some(rec) = st.jobs.get_mut(&id) {
                        rec.status = JobStatus::Running;
                    }
                    break id;
                }
                if st.draining.is_some() {
                    return worker_exit(shared, st, idx); // full drain, queue dry
                }
                let (guard, _) = shared
                    .work
                    .wait_timeout(st, Duration::from_millis(100))
                    .expect("daemon state poisoned");
                st = guard;
            }
        };
        run_job(shared, idx, &id);
    }
}

fn worker_exit(shared: &Arc<Shared>, mut st: std::sync::MutexGuard<'_, State>, _idx: usize) {
    st.workers_alive -= 1;
    drop(st);
    shared.settled.notify_all();
}

fn run_job(shared: &Arc<Shared>, idx: usize, id: &str) {
    let started = Instant::now();
    let (spec, reply) = {
        let st = shared.state.lock().expect("daemon state poisoned");
        let rec = &st.jobs[id];
        (rec.spec.clone(), rec.reply.clone())
    };

    // Chaos worker-kill: die *outside* the supervised attempt, so the
    // supervisor's panic isolation cannot catch it — only the pool
    // monitor's healing can. Fires once per job per incarnation.
    if let Some(plan) = &shared.cfg.chaos {
        if plan.daemon_fault(spec.key()) == Some(DaemonChaosKind::WorkerKill) {
            let mut st = shared.state.lock().expect("daemon state poisoned");
            let fire = st.jobs.get_mut(id).is_some_and(|rec| {
                let fire = !rec.kill_fired;
                rec.kill_fired = true;
                fire
            });
            drop(st);
            if fire {
                panic!("chaos: injected worker kill (job {id})");
            }
        }
    }

    let cfg = spec.system_config();
    let workload = spec.workload();
    let key = checkpoint::cell_hash(&cfg, &workload);
    let scfg = SupervisorConfig {
        deadline_ms: spec.deadline_ms.or(shared.cfg.supervisor.deadline_ms),
        ..shared.cfg.supervisor
    };
    let config_label = cfg.design.label().to_string();
    let repro = format!(
        "beard job {} ({}; resubmit the same canonical line)",
        spec.id,
        spec.stem()
    );

    // Live telemetry: a per-job sink whose samples a forwarder thread
    // streams down the submitting connection as each window closes. Each
    // line carries the job's trace id, and the attributed byte deltas
    // accumulate into per-job gauges — the "decomposition so far" a
    // metrics scrape sees while the job is still running.
    let trace = spec.trace_id();
    let (live, forwarder) = if spec.telemetry && reply.is_some() {
        let (sink, rx) = live_channel();
        let fwd_reply = reply.clone().expect("checked above");
        let fwd_id = spec.id.clone();
        let fwd_trace = trace.clone();
        let fwd_reg = shared.registry.clone();
        let handle = std::thread::spawn(move || {
            let mut attr = [0u64; 8];
            for sample in rx {
                for (total, delta) in attr.iter_mut().zip(sample.attributed_bytes_by_class) {
                    *total += delta;
                }
                record_job_decomposition(&fwd_reg, &fwd_id, &attr, None);
                if let Ok(sample_json) = Json::parse(&sample.to_json_line()) {
                    let line = Json::Obj(vec![
                        ("type".into(), Json::Str("telemetry".into())),
                        ("id".into(), Json::Str(fwd_id.clone())),
                        ("trace".into(), Json::Str(fwd_trace.clone())),
                        ("sample".into(), sample_json),
                    ])
                    .to_string();
                    fwd_reply.send_line(&line);
                }
            }
        });
        (Some(sink), Some(handle))
    } else {
        (None, None)
    };

    let attempt = {
        let results = shared.results.clone();
        let cfg = cfg.clone();
        let workload = workload.clone();
        let live = live.clone();
        let spec = spec.clone();
        move |_n: u32| {
            if let Some(cached) = results.load(&cfg, &workload) {
                return Ok(cached);
            }
            let mut sys = System::try_build(&cfg, &workload)?;
            if spec.telemetry {
                sys.set_telemetry(bear_telemetry::TelemetryConfig::sampling(
                    spec.sample_window,
                ));
                if let Some(sink) = &live {
                    sys.set_telemetry_live(sink.clone());
                }
            }
            let mut stats = sys.run_monitored(cfg.warmup_cycles, cfg.measure_cycles)?;
            stats.workload = workload.name.clone();
            if let Err(e) = results.store(&cfg, &workload, &stats) {
                eprintln!(
                    "[daemon: failed to cache result for {}: {e}]",
                    workload.name
                );
            }
            Ok(stats)
        }
    };
    let (outcome, row) =
        supervisor::supervise_with(&scfg, key, &config_label, &spec.workload, &repro, attempt);
    drop(live);
    if let Some(h) = forwarder {
        h.join().ok();
    }

    if let Some(mut row) = row {
        row.experiment = "daemon".into();
        row.trace = Some(trace.clone());
        row.checkpoint = shared
            .results
            .committed_path(&cfg, &workload)
            .map(|p| p.display().to_string());
        let mut st = shared.state.lock().expect("daemon state poisoned");
        st.rows.push(row.clone());
        drop(st);
        if let Err(e) = supervisor::merge_rows_into(&shared.cfg.out, vec![row]) {
            eprintln!("[daemon: failed to persist failures.json: {e}]");
        }
    }

    // Observability: job wall time and, for completed jobs, the final
    // attributed decomposition. Idempotent by construction — a cached
    // replay or resumed job overwrites the same series.
    shared
        .registry
        .set_help("beard_job_wall_ms", "Job wall time (ms)");
    shared
        .registry
        .histogram(
            "beard_job_wall_ms",
            &[],
            &[10.0, 100.0, 1_000.0, 10_000.0, 60_000.0],
        )
        .observe(started.elapsed().as_secs_f64() * 1_000.0);
    if let Ok(stats) = &outcome {
        record_job_decomposition(
            &shared.registry,
            &spec.id,
            &stats.bloat.bytes,
            Some(stats.bloat.factor()),
        );
    }

    // Settle.
    let mut st = shared.state.lock().expect("daemon state poisoned");
    st.running.remove(&idx);
    let cancel = st.jobs.get(id).is_some_and(|rec| rec.cancel_requested);
    let new_status = if cancel {
        JobStatus::Cancelled
    } else {
        match outcome {
            Ok(stats) => JobStatus::Completed(Box::new(stats)),
            Err(e) => JobStatus::Failed {
                kind: e.kind().to_string(),
                error: e.to_string(),
                attempts: scfg.max_retries as usize + 1,
            },
        }
    };
    match new_status {
        JobStatus::Cancelled => st.counters.cancelled += 1,
        JobStatus::Completed(_) => st.counters.completed += 1,
        JobStatus::Failed { .. } => st.counters.failed += 1,
        JobStatus::Queued | JobStatus::Running => unreachable!("settled jobs settle"),
    }
    let Some(rec) = st.jobs.get_mut(id) else {
        return;
    };
    let stem = rec.spec.stem();
    rec.status = new_status;
    let line = settle_line(&rec.spec, &rec.status);
    let reply = rec.reply.clone();
    // EWMA of job wall time (the settle path itself is instantaneous;
    // what matters is a stable, positive hint base).
    let elapsed = started.elapsed().as_millis() as f64;
    st.mean_job_ms = if st.mean_job_ms > 0.0 {
        0.75 * st.mean_job_ms + 0.25 * elapsed.max(1.0)
    } else {
        elapsed.max(1.0)
    };
    drop(st);
    if cancel {
        if let Err(e) = shared.journal.set_flag(&stem, "cancelled") {
            eprintln!("[daemon: failed to persist cancellation of {id}: {e}]");
        }
    }
    if let (Some(reply), Some(line)) = (reply, line) {
        reply.send_line(&line);
    }
    shared.settled.notify_all();
}

/// Sets the per-job attributed-byte gauges (and, once known, the final
/// bloat factor). `set`, not `add`: live telemetry windows, retries, and
/// the final stats all converge on the same series without double
/// counting.
fn record_job_decomposition(reg: &Registry, job: &str, bytes: &[u64; 8], factor: Option<f64>) {
    reg.set_help(
        "beard_job_cache_bytes",
        "DRAM-cache bytes attributed per bloat category, per job (so far)",
    );
    for (key, &b) in bear_telemetry::CACHE_BYTE_KEYS.iter().zip(bytes) {
        reg.gauge("beard_job_cache_bytes", &[("job", job), ("category", key)])
            .set(b as f64);
    }
    if let Some(f) = factor {
        reg.set_help("beard_job_bloat_factor", "Final bloat factor, per job");
        reg.gauge("beard_job_bloat_factor", &[("job", job)]).set(f);
    }
}

/// The notification line a settled job sends its client; `None` for
/// jobs still queued or running.
fn settle_line(spec: &JobSpec, status: &JobStatus) -> Option<String> {
    let base = |kind: &str| {
        vec![
            ("type".to_string(), Json::Str(kind.into())),
            ("id".to_string(), Json::Str(spec.id.clone())),
        ]
    };
    match status {
        JobStatus::Queued | JobStatus::Running => None,
        JobStatus::Completed(stats) => {
            let mut fields = base("completed");
            fields.push(("config".into(), Json::Str(spec.design.label().into())));
            fields.push(("workload".into(), Json::Str(spec.workload.clone())));
            fields.push(("stats".into(), stats_to_json(stats)));
            Some(Json::Obj(fields).to_string())
        }
        JobStatus::Failed {
            kind,
            error,
            attempts,
        } => {
            let mut fields = base("failed");
            fields.push(("kind".into(), Json::Str(kind.clone())));
            fields.push(("error".into(), Json::Str(error.clone())));
            fields.push(("attempts".into(), Json::uint(*attempts as u64)));
            Some(Json::Obj(fields).to_string())
        }
        JobStatus::Cancelled => Some(Json::Obj(base("cancelled")).to_string()),
    }
}

/// Detects dead worker threads and heals the pool: the dead worker's
/// in-flight job is requeued at the front of its client's queue and a
/// replacement worker takes the same slot. A worker that *returned*
/// (drain) is left retired.
fn monitor_loop(shared: &Arc<Shared>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(20));
        let mut handles = shared
            .worker_handles
            .lock()
            .expect("worker handles poisoned");
        for idx in 0..handles.len() {
            let dead = handles[idx].as_ref().is_some_and(|h| h.is_finished());
            if !dead {
                continue;
            }
            let h = handles[idx].take().expect("checked above");
            if h.join().is_ok() {
                continue; // clean drain exit, not a death
            }
            {
                let mut st = shared.state.lock().expect("daemon state poisoned");
                if let Some(id) = st.running.remove(&idx) {
                    requeue_front(&mut st, id.clone());
                    shared.registry.set_help(
                        "beard_requeues_total",
                        "Jobs requeued after their worker died mid-job",
                    );
                    shared.registry.counter("beard_requeues_total", &[]).inc();
                    eprintln!("[daemon: worker {idx} died mid-job; requeued {id} and respawned]");
                } else {
                    eprintln!("[daemon: worker {idx} died idle; respawned]");
                }
                st.counters.workers_respawned += 1;
                shared.registry.set_help(
                    "beard_workers_respawned_total",
                    "Replacement workers spawned",
                );
                shared
                    .registry
                    .counter("beard_workers_respawned_total", &[])
                    .inc();
            }
            let sh = shared.clone();
            handles[idx] = Some(std::thread::spawn(move || worker_loop(&sh, idx)));
            shared.work.notify_all();
        }
    }
}

// ---------------------------------------------------------------------------
// Drain and the final report
// ---------------------------------------------------------------------------

fn handle_drain(shared: &Arc<Shared>, fast: bool, reply: &ReplyHandle) {
    {
        let mut st = shared.state.lock().expect("daemon state poisoned");
        if st.draining.is_none() {
            st.draining = Some(if fast {
                DrainMode::Fast
            } else {
                DrainMode::Full
            });
            eprintln!(
                "[daemon: draining ({}); intake closed]",
                if fast { "fast" } else { "full" }
            );
        }
    }
    shared.work.notify_all();
    // Unblock the accept loop so it observes the drain and closes the
    // listener (ordering guarantee: listener closed before pool stops).
    if let Ok(c) = dial(&shared.addr) {
        c.shutdown();
    }
    let summary = {
        let mut st = shared.state.lock().expect("daemon state poisoned");
        while !(st.listener_closed && st.workers_alive == 0) {
            let (guard, _) = shared
                .settled
                .wait_timeout(st, Duration::from_millis(100))
                .expect("daemon state poisoned");
            st = guard;
        }
        if st.finalized {
            // A concurrent drain already finalized; reuse its summary.
            None
        } else {
            st.finalized = true;
            let rows = std::mem::take(&mut st.rows);
            let report = write_report(&shared.cfg.out, &st.jobs);
            let pending = st
                .jobs
                .values()
                .filter(|r| matches!(r.status, JobStatus::Queued | JobStatus::Running))
                .count();
            let counters = st.counters;
            drop(st);
            if let Err(e) = supervisor::merge_rows_into(&shared.cfg.out, rows) {
                eprintln!("[daemon: failed to flush failures.json: {e}]");
            }
            let report = match report {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("[daemon: failed to write daemon_report.json: {e}]");
                    shared.cfg.out.join("daemon_report.json")
                }
            };
            Some(DrainSummary {
                counters,
                pending,
                report,
            })
        }
    };
    let summary = match summary {
        Some(s) => {
            let mut fin = shared.finished.lock().expect("finished poisoned");
            *fin = Some(s.clone());
            shared.done.notify_all();
            s
        }
        None => {
            let fin = shared.finished.lock().expect("finished poisoned");
            fin.clone().expect("finalized implies a summary")
        }
    };
    let line = Json::Obj(vec![
        ("type".into(), Json::Str("drained".into())),
        ("pending".into(), Json::uint(summary.pending as u64)),
        (
            "report".into(),
            Json::Str(summary.report.display().to_string()),
        ),
        ("counters".into(), summary.counters.to_json()),
    ])
    .to_string();
    reply.send_line(&line);
}

/// Writes the deterministic final report `OUT/daemon_report.json`
/// (atomically). Rows are keyed and ordered by job id; counters and
/// timings are deliberately absent, so a fault-free run and a
/// chaos-riddled run of the same jobs produce **byte-identical** files
/// — the recovery proof in `tests/daemon.rs` diffs them directly.
fn write_report(out: &Path, jobs: &BTreeMap<String, JobRecord>) -> std::io::Result<PathBuf> {
    let mut rows = Vec::new();
    let mut failures = Vec::new();
    let mut cancelled = Vec::new();
    let mut pending = Vec::new();
    for (id, rec) in jobs {
        match &rec.status {
            JobStatus::Completed(stats) => rows.push(Json::Obj(vec![
                ("id".into(), Json::Str(id.clone())),
                ("config".into(), Json::Str(rec.spec.design.label().into())),
                ("workload".into(), Json::Str(rec.spec.workload.clone())),
                ("stats".into(), stats_to_json(stats)),
            ])),
            JobStatus::Failed {
                kind,
                error,
                attempts,
            } => failures.push(Json::Obj(vec![
                ("id".into(), Json::Str(id.clone())),
                ("config".into(), Json::Str(rec.spec.design.label().into())),
                ("workload".into(), Json::Str(rec.spec.workload.clone())),
                ("kind".into(), Json::Str(kind.clone())),
                ("error".into(), Json::Str(error.clone())),
                ("attempts".into(), Json::uint(*attempts as u64)),
            ])),
            JobStatus::Cancelled => cancelled.push(Json::Str(id.clone())),
            JobStatus::Queued | JobStatus::Running => pending.push(Json::Str(id.clone())),
        }
    }
    let doc = Json::Obj(vec![
        ("service".into(), Json::Str("beard".into())),
        ("rows".into(), Json::Arr(rows)),
        ("failures".into(), Json::Arr(failures)),
        ("cancelled".into(), Json::Arr(cancelled)),
        ("pending".into(), Json::Arr(pending)),
    ]);
    std::fs::create_dir_all(out)?;
    let path = out.join("daemon_report.json");
    let tmp = out.join("daemon_report.json.tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(doc.to_string_pretty().as_bytes())?;
        f.write_all(b"\n")?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, &path)?;
    Ok(path)
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// A protocol client for `beard` — used by the smoke mode, the chaos
/// proof, and anything scripting the daemon.
#[derive(Debug)]
pub struct Client {
    writer: Conn,
    reader: BufReader<Conn>,
}

impl Client {
    /// Dials `addr` (`"unix:PATH"` or a TCP address).
    ///
    /// # Errors
    ///
    /// Propagates connection errors.
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        let conn = dial(addr)?;
        let writer = conn.try_clone()?;
        Ok(Client {
            writer,
            reader: BufReader::new(conn),
        })
    }

    /// Bounds every subsequent [`Client::recv`] wait.
    ///
    /// # Errors
    ///
    /// Propagates the socket option error.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Sends one request line.
    ///
    /// # Errors
    ///
    /// Propagates write errors (daemon gone).
    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    /// Writes raw bytes with no framing — the hardening tests use this
    /// to send truncated and malformed requests.
    ///
    /// # Errors
    ///
    /// Propagates write errors (daemon gone).
    pub fn send_raw(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.writer.write_all(bytes)?;
        self.writer.flush()
    }

    /// Receives the next response line, `None` on clean EOF.
    ///
    /// # Errors
    ///
    /// Propagates read errors (timeout, connection reset).
    pub fn recv(&mut self) -> std::io::Result<Option<Json>> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Ok(None);
        }
        Json::parse(line.trim_end())
            .map(Some)
            .map_err(|e| std::io::Error::other(format!("unparseable response: {e}: {line:?}")))
    }

    /// Sends a request and returns the next response line.
    ///
    /// # Errors
    ///
    /// I/O errors, EOF before a response, or an unparseable response.
    pub fn request(&mut self, line: &str) -> std::io::Result<Json> {
        self.send(line)?;
        self.recv()?
            .ok_or_else(|| std::io::Error::other("connection closed before a response"))
    }
}

// ---------------------------------------------------------------------------
// The pinned daemon chaos smoke grid
// ---------------------------------------------------------------------------

/// The seed the daemon chaos proof runs under. Pinned (see
/// `smoke_seed_covers_every_daemon_fault`) to draw at least one
/// worker-kill and one daemon-kill over [`smoke_jobs`], plus connection
/// drops on the early connections — every daemon fault class observably
/// fires.
pub const DAEMON_SMOKE_SEED: u64 = 21;

/// The canonical job set for daemon smoke and chaos runs: two clients,
/// two designs, four workloads, tiny cycle counts (milliseconds per job
/// in release builds).
pub fn smoke_jobs() -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for (j, design) in [DesignKind::Alloy, DesignKind::LohHill].iter().enumerate() {
        for (i, workload) in ["rate:mcf", "rate:lbm", "rate:libquantum", "rate:milc"]
            .iter()
            .enumerate()
        {
            jobs.push(JobSpec {
                id: format!("smoke-{j}{i}"),
                client: if i % 2 == 0 { "alice" } else { "bob" }.into(),
                design: *design,
                bear: "full".into(),
                workload: (*workload).into(),
                warmup: 2_000,
                measure: 3_000,
                scale_shift: 12,
                deadline_ms: None,
                telemetry: false,
                sample_window: 1_000,
            });
        }
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;
    use bear_sim::check::{check, Source};
    use bear_sim::prop_assert;

    fn empty_state() -> State {
        State {
            jobs: BTreeMap::new(),
            order: VecDeque::new(),
            queues: BTreeMap::new(),
            queued: 0,
            running: BTreeMap::new(),
            draining: None,
            listener_closed: false,
            workers_alive: 0,
            finalized: false,
            counters: Counters::default(),
            rows: Vec::new(),
            mean_job_ms: 0.0,
        }
    }

    fn spec(id: &str, client: &str) -> JobSpec {
        JobSpec {
            id: id.into(),
            client: client.into(),
            design: DesignKind::Alloy,
            bear: "full".into(),
            workload: "rate:mcf".into(),
            warmup: 2_000,
            measure: 3_000,
            scale_shift: 12,
            deadline_ms: None,
            telemetry: false,
            sample_window: 1_000,
        }
    }

    fn add_queued(st: &mut State, id: &str, client: &str) {
        st.jobs.insert(
            id.to_string(),
            JobRecord {
                spec: spec(id, client),
                status: JobStatus::Queued,
                cancel_requested: false,
                kill_fired: false,
                reply: None,
            },
        );
        enqueue(st, client, id.to_string());
    }

    #[test]
    fn canonical_lines_round_trip_exactly() {
        for job in smoke_jobs() {
            let line = job.canonical_line();
            let parsed = parse_request(&line).expect("canonical line must parse");
            assert_eq!(parsed, Request::Submit(Box::new(job.clone())));
            // Identity is stable across the round trip.
            let Request::Submit(back) = parsed else {
                unreachable!()
            };
            assert_eq!(back.key(), job.key());
            assert_eq!(back.canonical_line(), line);
        }
    }

    #[test]
    fn parse_rejections_are_typed() {
        let cases: &[(&str, &str)] = &[
            ("", "protocol"),
            ("not json at all", "protocol"),
            ("[1,2,3]", "protocol"),
            ("{\"op\":\"fnord\"}", "protocol"),
            ("{\"op\":\"submit\",\"id\":\"x\"}", "protocol"),
            (
                "{\"op\":\"submit\",\"id\":\"\",\"client\":\"c\",\"design\":\"Alloy\",\
                 \"bear\":\"full\",\"workload\":\"rate:mcf\",\"warmup\":1,\"measure\":1,\"scale\":12}",
                "bad-job",
            ),
            (
                "{\"op\":\"submit\",\"id\":\"x\",\"client\":\"c\",\"design\":\"Warp\",\
                 \"bear\":\"full\",\"workload\":\"rate:mcf\",\"warmup\":1,\"measure\":1,\"scale\":12}",
                "bad-job",
            ),
            (
                "{\"op\":\"submit\",\"id\":\"x\",\"client\":\"c\",\"design\":\"Alloy\",\
                 \"bear\":\"full\",\"workload\":\"rate:nope\",\"warmup\":1,\"measure\":1,\"scale\":12}",
                "bad-job",
            ),
            (
                "{\"op\":\"submit\",\"id\":\"x\",\"client\":\"c\",\"design\":\"Alloy\",\
                 \"bear\":\"full\",\"workload\":\"rate:mcf\",\"warmup\":1,\"measure\":0,\"scale\":12}",
                "bad-job",
            ),
            ("{\"op\":\"drain\",\"mode\":\"sideways\"}", "protocol"),
        ];
        for (line, want_kind) in cases {
            let err = parse_request(line).expect_err(line);
            assert_eq!(&err.kind, want_kind, "{line} -> {err:?}");
            assert!(!err.detail.is_empty());
            // The error renders as a parseable protocol line itself.
            let rendered = Json::parse(&err.to_line()).expect("error line must be JSON");
            assert_eq!(rendered.get("type").and_then(Json::as_str), Some("error"));
        }
        let oversized = format!("{{\"op\":\"status\",\"pad\":\"{}\"}}", "x".repeat(MAX_LINE));
        assert_eq!(parse_request(&oversized).unwrap_err().kind, "oversized");
    }

    /// Byte-level hardening: mutate valid canonical submit lines at
    /// random positions. `parse_request` must never panic — every
    /// mutation yields either a (different but valid) request or a typed
    /// error with a stable kind.
    #[test]
    fn parse_survives_byte_mutations() {
        let seeds: Vec<String> = smoke_jobs().iter().map(JobSpec::canonical_line).collect();
        check(512, |src: &mut Source| {
            let mut bytes = seeds[src.usize_in(0..seeds.len())].clone().into_bytes();
            for _ in 0..src.usize_in(1..8) {
                let pos = src.usize_in(0..bytes.len());
                match src.u8_in(0..3) {
                    0 => bytes[pos] = (src.any_u64() & 0xFF) as u8,
                    1 => {
                        bytes.remove(pos);
                        if bytes.is_empty() {
                            bytes.push(b'{');
                        }
                    }
                    _ => bytes.insert(pos, (src.any_u64() & 0xFF) as u8),
                }
            }
            let line = String::from_utf8_lossy(&bytes).into_owned();
            match parse_request(&line) {
                Ok(_) => {}
                Err(e) => {
                    prop_assert!(
                        ["protocol", "oversized", "bad-job"].contains(&e.kind),
                        "unexpected error kind {:?}",
                        e.kind
                    );
                    prop_assert!(!e.detail.is_empty());
                }
            }
            Ok(())
        });
    }

    #[test]
    fn fair_share_alternates_between_clients() {
        let mut st = empty_state();
        add_queued(&mut st, "a1", "alice");
        add_queued(&mut st, "a2", "alice");
        add_queued(&mut st, "a3", "alice");
        add_queued(&mut st, "b1", "bob");
        let mut order = Vec::new();
        while let Some(id) = pop_job(&mut st) {
            order.push(id);
        }
        // One job per client per turn: bob's single job interleaves into
        // alice's backlog instead of waiting behind it.
        assert_eq!(order, ["a1", "b1", "a2", "a3"]);
        assert_eq!(st.queued, 0);
        assert!(st.queues.is_empty());
    }

    #[test]
    fn requeue_front_preserves_next_in_line() {
        let mut st = empty_state();
        add_queued(&mut st, "a1", "alice");
        add_queued(&mut st, "a2", "alice");
        let first = pop_job(&mut st).unwrap();
        assert_eq!(first, "a1");
        st.jobs.get_mut("a1").unwrap().status = JobStatus::Running;
        // Worker dies; the healed job goes back to the *front*.
        requeue_front(&mut st, "a1".to_string());
        assert!(matches!(st.jobs["a1"].status, JobStatus::Queued));
        assert_eq!(pop_job(&mut st).as_deref(), Some("a1"));
        assert_eq!(pop_job(&mut st).as_deref(), Some("a2"));
    }

    #[test]
    fn unqueue_removes_only_queued_jobs() {
        let mut st = empty_state();
        add_queued(&mut st, "a1", "alice");
        add_queued(&mut st, "a2", "alice");
        assert!(unqueue(&mut st, "a1"));
        assert!(!unqueue(&mut st, "a1"));
        assert_eq!(st.queued, 1);
        assert_eq!(pop_job(&mut st).as_deref(), Some("a2"));
    }

    #[test]
    fn retry_after_hint_scales_with_backlog_and_clamps() {
        let mut st = empty_state();
        st.mean_job_ms = 100.0;
        st.queued = 4;
        assert_eq!(retry_after_ms(&st, 2), 200);
        st.queued = 10_000;
        assert_eq!(retry_after_ms(&st, 2), 60_000); // clamped high
        st.queued = 0;
        assert_eq!(retry_after_ms(&st, 2), 50); // clamped low
                                                // No history yet: a conservative 1s-per-job guess, not zero.
        st.mean_job_ms = 0.0;
        st.queued = 2;
        assert_eq!(retry_after_ms(&st, 2), 1_000);
    }

    /// The pinned daemon chaos seed must make every daemon fault class
    /// observably fire over the smoke grid: at least one worker kill, at
    /// least one daemon kill (but few enough that the chaos proof's
    /// restart budget holds), healthy jobs too, and connection drops that
    /// hit some but not all of the early connections.
    #[test]
    fn smoke_seed_covers_every_daemon_fault() {
        let plan = ChaosPlan::new(DAEMON_SMOKE_SEED);
        let jobs = smoke_jobs();
        let mut worker_kills = 0;
        let mut daemon_kills = 0;
        let mut clean = 0;
        for job in &jobs {
            match plan.daemon_fault(job.key()) {
                Some(DaemonChaosKind::WorkerKill) => worker_kills += 1,
                Some(DaemonChaosKind::DaemonKill) => daemon_kills += 1,
                Some(DaemonChaosKind::ConnDrop) | None => clean += 1,
            }
        }
        assert!(worker_kills >= 1, "no worker kill drawn: reseed");
        assert!(
            (1..=3).contains(&daemon_kills),
            "daemon kills {daemon_kills} out of budget"
        );
        assert!(clean >= 1, "every job drew a fault: reseed");
        let drops = (0..8u64)
            .flat_map(|c| (0..10u64).map(move |r| (c, r)))
            .filter(|&(c, r)| plan.conn_drop(c, r))
            .count();
        assert!(drops >= 1, "no connection ever drops: reseed");
        assert!(drops < 80, "every connection drops: reseed");
        // The chaos proof submits [`smoke_jobs`] in order over the first
        // connection: a drop must draw *before* the daemon-kill job's
        // submission aborts the process, so a mid-stream connection drop
        // observably fires in the very first incarnation.
        let dk_pos = jobs
            .iter()
            .position(|j| plan.daemon_fault(j.key()) == Some(DaemonChaosKind::DaemonKill))
            .expect("asserted above");
        let first_drop = (0..8u64).find(|&r| plan.conn_drop(0, r));
        assert!(
            first_drop.is_some_and(|r| (r as usize) < dk_pos),
            "conn 0 must drop (at {first_drop:?}) before the daemon kill (job {dk_pos}): reseed"
        );
    }

    /// Scout for [`DAEMON_SMOKE_SEED`] candidates. Not part of the suite.
    #[test]
    #[ignore = "seed scout, run by hand"]
    fn find_daemon_smoke_seed() {
        let jobs = smoke_jobs();
        for seed in 0..200u64 {
            let plan = ChaosPlan::new(seed);
            let (mut wk, mut dk, mut clean) = (0, 0, 0);
            for job in &jobs {
                match plan.daemon_fault(job.key()) {
                    Some(DaemonChaosKind::WorkerKill) => wk += 1,
                    Some(DaemonChaosKind::DaemonKill) => dk += 1,
                    _ => clean += 1,
                }
            }
            let drops = (0..8u64)
                .flat_map(|c| (0..10u64).map(move |r| (c, r)))
                .filter(|&(c, r)| plan.conn_drop(c, r))
                .count();
            let dk_pos = jobs
                .iter()
                .position(|j| plan.daemon_fault(j.key()) == Some(DaemonChaosKind::DaemonKill));
            let first_drop = (0..8u64).find(|&r| plan.conn_drop(0, r));
            let early_drop = match (first_drop, dk_pos) {
                (Some(r), Some(p)) => (r as usize) < p,
                _ => false,
            };
            if wk >= 1
                && (1..=2).contains(&dk)
                && clean >= 4
                && (4..40).contains(&drops)
                && early_drop
            {
                println!(
                    "seed {seed}: worker_kills={wk} daemon_kills={dk} clean={clean} \
                     drops={drops}/80 first_drop={first_drop:?} dk_pos={dk_pos:?}"
                );
            }
        }
    }

    #[test]
    fn stems_are_filesystem_safe_and_collision_coded() {
        let a = spec("weird/../id", "alice");
        let mut b = a.clone();
        b.measure += 1; // same id, different spec
        assert_ne!(a.stem(), b.stem(), "stem must encode the spec identity");
        for s in [a.stem(), b.stem()] {
            assert!(s
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-'));
        }
    }

    fn wait_status<F: Fn(&Json) -> bool>(client: &mut Client, pred: F) -> Json {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let status = client.request("{\"op\":\"status\"}").expect("status");
            if pred(&status) {
                return status;
            }
            assert!(
                Instant::now() < deadline,
                "daemon never reached state: {status}"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Reads lines until one of type `want` appears; notifications of
    /// other types may interleave (this is a multiplexed protocol: a
    /// fast job's `completed` can land between a request and its
    /// response).
    fn recv_type(c: &mut Client, want: &str) -> Json {
        for _ in 0..32 {
            let line = c.recv().expect("read").expect("open connection");
            if line.get("type").and_then(Json::as_str) == Some(want) {
                return line;
            }
        }
        panic!("no {want:?} line within 32 messages");
    }

    /// End-to-end, in process: submit, complete, idempotent resubmit,
    /// conflicting resubmit, drain. The daemon report lists every
    /// accepted job exactly once.
    #[test]
    fn daemon_completes_cancels_and_drains() {
        let dir = std::env::temp_dir().join(format!("beard-e2e-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut cfg = DaemonConfig::new(&dir);
        cfg.workers = 1;
        let daemon = Daemon::start(cfg, "127.0.0.1:0").expect("daemon start");
        let addr = daemon.addr().to_string();
        assert_eq!(
            std::fs::read_to_string(dir.join("daemon.addr"))
                .unwrap()
                .trim(),
            addr
        );

        let mut c = Client::connect(&addr).expect("connect");
        c.set_timeout(Some(Duration::from_secs(60))).unwrap();
        c.send(&spec("e2e-run", "alice").canonical_line()).unwrap();
        recv_type(&mut c, "accepted");
        let done = recv_type(&mut c, "completed");
        assert_eq!(done.get("id").and_then(Json::as_str), Some("e2e-run"));
        assert!(done.get("stats").is_some());

        // Same id, same spec: idempotent re-accept plus a replay of the
        // settled outcome — the recovery path for a dropped ack.
        c.send(&spec("e2e-run", "alice").canonical_line()).unwrap();
        recv_type(&mut c, "accepted");
        let replay = recv_type(&mut c, "completed");
        assert_eq!(
            replay.get("stats"),
            done.get("stats"),
            "replay must be verbatim"
        );

        // Same id, different spec: typed conflict.
        let mut conflicting = spec("e2e-run", "alice");
        conflicting.measure += 1;
        let conflict = c.request(&conflicting.canonical_line()).unwrap();
        assert_eq!(conflict.get("type").and_then(Json::as_str), Some("error"));
        assert_eq!(
            conflict.get("kind").and_then(Json::as_str),
            Some("id-conflict")
        );

        let drained = c.request("{\"op\":\"drain\"}").unwrap();
        assert_eq!(drained.get("type").and_then(Json::as_str), Some("drained"));
        assert_eq!(drained.get("pending").and_then(Json::as_u64), Some(0));
        let summary = daemon.wait();
        assert_eq!(summary.counters.completed, 1);
        assert_eq!(summary.counters.accepted, 1);
        assert_eq!(summary.pending, 0);

        // New connections are refused after drain.
        assert!(Client::connect(&addr).is_err());

        let report = Json::parse(&std::fs::read_to_string(dir.join("daemon_report.json")).unwrap())
            .expect("report parses");
        let rows = report.get("rows").and_then(Json::as_arr).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("id").and_then(Json::as_str), Some("e2e-run"));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Admission control with a zero-worker pool (nothing ever drains):
    /// the queue bound sheds typed `overloaded` responses and a fast
    /// drain checkpoints the still-queued jobs; a second daemon on the
    /// same directory resumes and completes them.
    #[test]
    fn overload_sheds_then_fast_drain_checkpoints_and_resumes() {
        let dir = std::env::temp_dir().join(format!("beard-shed-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut cfg = DaemonConfig::new(&dir);
        cfg.workers = 0;
        cfg.queue_capacity = 2;
        let daemon = Daemon::start(cfg, "127.0.0.1:0").expect("daemon start");
        let addr = daemon.addr().to_string();
        let mut c = Client::connect(&addr).expect("connect");
        c.set_timeout(Some(Duration::from_secs(60))).unwrap();

        let workloads = ["rate:mcf", "rate:lbm", "rate:libquantum", "rate:milc"];
        let mut accepted = Vec::new();
        let mut shed = 0;
        for (i, wl) in workloads.iter().enumerate() {
            let mut job = spec(&format!("shed-{i}"), "alice");
            job.workload = (*wl).into();
            let resp = c.request(&job.canonical_line()).unwrap();
            match resp.get("type").and_then(Json::as_str).unwrap() {
                "accepted" => accepted.push(job.id.clone()),
                "overloaded" => {
                    shed += 1;
                    let hint = resp.get("retry_after_ms").and_then(Json::as_u64).unwrap();
                    assert!((50..=60_000).contains(&hint));
                }
                other => panic!("unexpected response type {other}"),
            }
        }
        assert_eq!(accepted.len(), 2);
        assert_eq!(shed, 2);

        // With no workers, a queued cancel is deterministic: the job is
        // removed from the queue and durably flagged.
        let cancelled = c.request("{\"op\":\"cancel\",\"id\":\"shed-0\"}").unwrap();
        assert_eq!(
            cancelled.get("type").and_then(Json::as_str),
            Some("cancelled")
        );
        let twice = c.request("{\"op\":\"cancel\",\"id\":\"shed-0\"}").unwrap();
        assert_eq!(twice.get("type").and_then(Json::as_str), Some("cancelled"));
        let nosuch = c.request("{\"op\":\"cancel\",\"id\":\"ghost\"}").unwrap();
        assert_eq!(
            nosuch.get("kind").and_then(Json::as_str),
            Some("unknown-job")
        );

        let drained = c.request("{\"op\":\"drain\",\"mode\":\"fast\"}").unwrap();
        assert_eq!(drained.get("type").and_then(Json::as_str), Some("drained"));
        assert_eq!(drained.get("pending").and_then(Json::as_u64), Some(1));
        let summary = daemon.wait();
        assert_eq!(summary.counters.shed, 2);
        assert_eq!(summary.counters.cancelled, 1);
        assert_eq!(summary.pending, 1);
        let report = Json::parse(&std::fs::read_to_string(dir.join("daemon_report.json")).unwrap())
            .expect("report parses");
        assert_eq!(
            report.get("pending").and_then(Json::as_arr).unwrap().len(),
            1
        );
        assert_eq!(
            report.get("cancelled").and_then(Json::as_arr).unwrap(),
            &vec![Json::Str("shed-0".into())]
        );

        // Second incarnation on the same directory: the journal resumes
        // the surviving job with no resubmission and completes it; the
        // cancelled job stays cancelled.
        let daemon2 = Daemon::start(DaemonConfig::new(&dir), "127.0.0.1:0").expect("restart");
        let mut c2 = Client::connect(daemon2.addr()).expect("connect");
        c2.set_timeout(Some(Duration::from_secs(120))).unwrap();
        let status = wait_status(&mut c2, |s| {
            s.get("counters")
                .and_then(|c| c.get("completed"))
                .and_then(Json::as_u64)
                == Some(1)
        });
        assert_eq!(
            status
                .get("counters")
                .and_then(|c| c.get("resumed"))
                .and_then(Json::as_u64),
            Some(1)
        );
        let drained2 = c2.request("{\"op\":\"drain\"}").unwrap();
        assert_eq!(drained2.get("pending").and_then(Json::as_u64), Some(0));
        daemon2.wait();
        let report2 =
            Json::parse(&std::fs::read_to_string(dir.join("daemon_report.json")).unwrap())
                .expect("report parses");
        let rows = report2.get("rows").and_then(Json::as_arr).unwrap();
        let ids: Vec<&str> = rows
            .iter()
            .filter_map(|r| r.get("id").and_then(Json::as_str))
            .collect();
        assert_eq!(ids, ["shed-1"]);
        assert_eq!(
            report2.get("cancelled").and_then(Json::as_arr).unwrap(),
            &vec![Json::Str("shed-0".into())]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Oversized and malformed bytes over a real socket: typed error
    /// lines, no hang, no daemon damage.
    #[test]
    fn socket_hardening_rejects_garbage_without_wedging() {
        let dir = std::env::temp_dir().join(format!("beard-garb-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut cfg = DaemonConfig::new(&dir);
        cfg.workers = 0;
        let daemon = Daemon::start(cfg, "127.0.0.1:0").expect("daemon start");
        let addr = daemon.addr().to_string();

        // Malformed: typed error, connection stays usable.
        let mut c = Client::connect(&addr).unwrap();
        c.set_timeout(Some(Duration::from_secs(10))).unwrap();
        let err = c.request("{{{{ not json").unwrap();
        assert_eq!(err.get("kind").and_then(Json::as_str), Some("protocol"));
        let status = c.request("{\"op\":\"status\"}").unwrap();
        assert_eq!(status.get("type").and_then(Json::as_str), Some("status"));

        // Oversized: typed error, then the daemon closes the connection.
        let mut c = Client::connect(&addr).unwrap();
        c.set_timeout(Some(Duration::from_secs(10))).unwrap();
        let huge = "x".repeat(MAX_LINE + 10);
        c.send(&huge).unwrap();
        let err = c.recv().unwrap().expect("typed error before close");
        assert_eq!(err.get("kind").and_then(Json::as_str), Some("oversized"));
        assert!(c.recv().unwrap().is_none(), "connection must be closed");

        // Truncated submit (no newline, half a request, then EOF): the
        // daemon must neither accept nor wedge.
        let mut c = Client::connect(&addr).unwrap();
        let line = spec("trunc", "alice").canonical_line();
        c.writer
            .write_all(&line.as_bytes()[..line.len() / 2])
            .unwrap();
        c.writer.flush().unwrap();
        drop(c);
        let mut c = Client::connect(&addr).unwrap();
        c.set_timeout(Some(Duration::from_secs(10))).unwrap();
        let status = c.request("{\"op\":\"status\"}").unwrap();
        let accepted = status
            .get("counters")
            .and_then(|v| v.get("accepted"))
            .and_then(Json::as_u64);
        assert_eq!(accepted, Some(0), "truncated submit must not be accepted");

        c.request("{\"op\":\"drain\"}").unwrap();
        daemon.wait();
        std::fs::remove_dir_all(&dir).ok();
    }
}
