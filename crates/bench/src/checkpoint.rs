//! Campaign checkpoint/resume: durable per-cell result persistence.
//!
//! A full experiment campaign simulates hundreds of (configuration,
//! workload) cells over many minutes. Losing the whole campaign to a
//! mid-run crash, OOM-kill, or `kill -9` would make long campaigns
//! fragile, so every finished cell is persisted *incrementally* under the
//! report directory:
//!
//! ```text
//! DIR/cells/<experiment>/<slug>-<hash>.json   the cell's RunStats
//! DIR/cells/<experiment>/<slug>-<hash>.done   commit marker (empty)
//! ```
//!
//! The write protocol is crash-safe: stats are written to a temp file,
//! fsync'd, renamed into place, and only then marked committed by an
//! fsync'd `.done` file **containing the digest of the exact bytes of
//! the data file**. An interrupt at any point leaves either a complete,
//! marked cell or an ignorable partial — never a half-written cell that
//! a resume would trust. The digest closes the last gap: even a
//! committed-*looking* cell whose data file was torn after the fact (a
//! crashed filesystem, a partial disk flush, a chaos-injected
//! truncation) hashes wrong and is rejected, not merely relied on to
//! fail JSON parsing.
//!
//! `<hash>` is an FNV-1a digest of the **full Debug rendering** of the
//! cell's configuration and workload, so any parameter change — cycle
//! counts, scale, feature flags, suite contents — changes the filename
//! and stale cells are never reused. Reuse requires the `.done` marker,
//! a parseable document, and a matching recorded hash; anything less and
//! the cell silently re-runs.
//!
//! Because [`crate::report::stats_to_json`] round-trips `RunStats`
//! bit-for-bit, a resumed campaign produces a merged report **byte
//! identical** to an uninterrupted one (pinned by the `resume_identical`
//! integration test).
//!
//! The store is a field of the [`Campaign`] context, set per experiment
//! by the campaign driver ([`Campaign::experiment`]); `try_run_one`
//! consults it transparently, so every experiment module gains
//! checkpointing without code changes.

use crate::report::{stats_from_json, stats_to_json, Json};
use crate::Campaign;
use bear_core::config::SystemConfig;
use bear_core::metrics::RunStats;
use bear_sim::faultinject::ChaosKind;
use bear_workloads::Workload;
use std::fs::{self, File};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// FNV-1a 64-bit hash (offline-first: no hasher dependencies).
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Identity of a cell: digest over the full `Debug` rendering of its
/// configuration and workload.
pub fn cell_hash(cfg: &SystemConfig, workload: &Workload) -> u64 {
    fnv1a64(format!("{cfg:?}\n{workload:?}").as_bytes())
}

/// Filesystem-safe, human-skimmable cell file stem:
/// `<design>-<workload>-<hash>`. Shared with the telemetry sink so a
/// cell's checkpoint and its `telemetry/<stem>.jsonl` time series carry
/// the same name.
pub fn cell_stem(cfg: &SystemConfig, workload: &Workload) -> String {
    let slug: String = format!("{}-{}", cfg.design.label(), workload.name)
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .take(48)
        .collect();
    format!("{slug}-{:016x}", cell_hash(cfg, workload))
}

/// Durable store for one experiment's finished cells.
#[derive(Debug, Clone)]
pub struct CellStore {
    dir: PathBuf,
}

impl CellStore {
    /// Store rooted at `OUT_DIR/cells/<experiment>/`.
    pub fn new(out_dir: &Path, experiment: &str) -> CellStore {
        CellStore {
            dir: out_dir.join("cells").join(experiment),
        }
    }

    /// Store rooted at an explicit directory — for journals that reuse
    /// the commit protocol but are not per-experiment cell caches (the
    /// campaign daemon's job journal).
    pub fn at(dir: &Path) -> CellStore {
        CellStore {
            dir: dir.to_path_buf(),
        }
    }

    fn raw_paths(&self, stem: &str) -> (PathBuf, PathBuf) {
        (
            self.dir.join(format!("{stem}.json")),
            self.dir.join(format!("{stem}.done")),
        )
    }

    fn paths(&self, cfg: &SystemConfig, workload: &Workload) -> (PathBuf, PathBuf) {
        self.raw_paths(&cell_stem(cfg, workload))
    }

    /// Loads a committed cell, or `None` when the cell is absent,
    /// uncommitted (no `.done` marker), torn (the data file's bytes no
    /// longer hash to the digest the marker recorded at commit time),
    /// unparseable, or was produced by a different configuration (hash
    /// mismatch). `None` simply means "re-run the cell" — a corrupt
    /// checkpoint can cost work, never correctness.
    pub fn load(&self, cfg: &SystemConfig, workload: &Workload) -> Option<RunStats> {
        let body = self.load_raw(&cell_stem(cfg, workload))?;
        let doc = Json::parse(&body).ok()?;
        if doc.get("cell_hash")?.as_str()? != format!("{:016x}", cell_hash(cfg, workload)) {
            return None;
        }
        let name = doc.get("workload")?.as_str()?;
        if name != workload.name {
            return None;
        }
        stats_from_json(name, doc.get("stats")?).ok()
    }

    /// Persists a finished cell with the crash-safe protocol described in
    /// the module docs, with an optional chaos fault applied at the
    /// weakest points of the protocol: [`ChaosKind::CheckpointIo`] fails
    /// at the data file's fsync (nothing is committed — the classic
    /// full-disk / dying-device failure), and
    /// [`ChaosKind::TornCheckpoint`] truncates the data file *after* the
    /// commit marker landed (the committed-looking artifact a crashed
    /// filesystem can leave). Any other kind is a plain store.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error; callers treat
    /// checkpointing as best-effort and keep the in-memory result.
    pub(crate) fn store(
        &self,
        cfg: &SystemConfig,
        workload: &Workload,
        stats: &RunStats,
        fault: Option<ChaosKind>,
    ) -> std::io::Result<()> {
        let doc = Json::Obj(vec![
            (
                "cell_hash".into(),
                Json::Str(format!("{:016x}", cell_hash(cfg, workload))),
            ),
            ("workload".into(), Json::Str(workload.name.clone())),
            ("stats".into(), stats_to_json(stats)),
        ]);
        let mut body = doc.to_string_pretty();
        body.push('\n');
        self.commit_raw(&cell_stem(cfg, workload), &body, fault)
    }

    /// The shared commit path: temp file, fsync, rename, fsync'd `.done`
    /// marker recording the digest of the exact committed bytes, with the
    /// optional chaos fault applied at the protocol's weakest points.
    fn commit_raw(&self, stem: &str, body: &str, fault: Option<ChaosKind>) -> std::io::Result<()> {
        fs::create_dir_all(&self.dir)?;
        let (json_path, done_path) = self.raw_paths(stem);
        let tmp = json_path.with_extension("json.tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(body.as_bytes())?;
            if fault == Some(ChaosKind::CheckpointIo) {
                // The injected fsync failure: the data never provably
                // reached the disk, so the cell stays uncommitted.
                fs::remove_file(&tmp).ok();
                return Err(std::io::Error::other(
                    "chaos: injected fsync failure (checkpoint-io)",
                ));
            }
            f.sync_all()?;
        }
        fs::rename(&tmp, &json_path)?;
        {
            let mut marker = File::create(&done_path)?;
            marker.write_all(format!("{:016x}\n", fnv1a64(body.as_bytes())).as_bytes())?;
            marker.sync_all()?;
        }
        // Make the rename and the marker's directory entry durable too
        // (best-effort: not all filesystems support fsync on directories).
        if let Ok(d) = File::open(&self.dir) {
            d.sync_all().ok();
        }
        if fault == Some(ChaosKind::TornCheckpoint) {
            crate::chaos::tear_file(&json_path);
        }
        Ok(())
    }

    /// Commits an arbitrary record under `stem` with the full crash-safe
    /// protocol. The daemon journals job submissions through this, so a
    /// kill -9 at any instant leaves either a committed, digest-verified
    /// record or an ignorable partial.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn store_raw(&self, stem: &str, body: &str) -> std::io::Result<()> {
        self.commit_raw(stem, body, None)
    }

    /// Loads the committed record under `stem`, or `None` when it is
    /// absent, uncommitted, or its bytes no longer hash to the digest the
    /// `.done` marker recorded at commit time.
    pub fn load_raw(&self, stem: &str) -> Option<String> {
        let (json_path, done_path) = self.raw_paths(stem);
        let committed_digest = fs::read_to_string(&done_path).ok()?;
        let body = fs::read_to_string(&json_path).ok()?;
        if committed_digest.trim() != format!("{:016x}", fnv1a64(body.as_bytes())) {
            return None; // torn or truncated after commit
        }
        Some(body)
    }

    /// Stems of every committed record in the store, sorted. Partials
    /// without a `.done` marker are invisible; torn records still list
    /// (their marker exists) but fail [`CellStore::load_raw`].
    pub fn list_raw(&self) -> Vec<String> {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut stems: Vec<String> = entries
            .filter_map(|e| {
                let name = e.ok()?.file_name().into_string().ok()?;
                Some(name.strip_suffix(".done")?.to_string())
            })
            .collect();
        stems.sort();
        stems
    }

    /// Durably sets an auxiliary flag `<stem>.<flag>` next to the record
    /// (e.g. the daemon's `cancelled` tombstones). Idempotent.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn set_flag(&self, stem: &str, flag: &str) -> std::io::Result<()> {
        fs::create_dir_all(&self.dir)?;
        let f = File::create(self.dir.join(format!("{stem}.{flag}")))?;
        f.sync_all()?;
        if let Ok(d) = File::open(&self.dir) {
            d.sync_all().ok();
        }
        Ok(())
    }

    /// Whether [`CellStore::set_flag`] was durably recorded for `stem`.
    pub fn has_flag(&self, stem: &str, flag: &str) -> bool {
        self.dir.join(format!("{stem}.{flag}")).exists()
    }

    /// Path of this cell's committed data file, or `None` when the cell
    /// has no `.done` marker on disk (quarantine manifests record this so
    /// a failure's repro pointer says whether cached work exists).
    pub fn committed_path(&self, cfg: &SystemConfig, workload: &Workload) -> Option<PathBuf> {
        let (json_path, done_path) = self.paths(cfg, workload);
        done_path.exists().then_some(json_path)
    }
}

/// Persists a freshly simulated cell to the campaign's store, if it has
/// one. Write errors degrade to a warning — a full disk must not fail a
/// finished simulation. When the campaign armed a [`crate::chaos`] plan,
/// the plan's checkpoint fault for this cell (torn file, failed fsync) is
/// applied here and recorded as an *absorbed* supervision event: the
/// in-memory result survives either way, so the fault costs a re-run
/// after a crash, never a result.
pub(crate) fn store_cell(
    campaign: &Campaign,
    cfg: &SystemConfig,
    workload: &Workload,
    stats: &RunStats,
) {
    let Some(store) = &campaign.store else {
        return;
    };
    let fault = campaign
        .chaos
        .as_ref()
        .and_then(|c| c.plan.checkpoint_fault(cell_hash(cfg, workload)));
    let result = store.store(cfg, workload, stats, fault);
    if let Some(kind) = fault {
        let detail = if result.is_ok() {
            "data file truncated after commit; resume re-runs the cell"
        } else {
            "cell left unpersisted; resume re-runs the cell"
        };
        crate::chaos::record_absorbed(campaign, cfg, workload, kind, detail);
    }
    if let Err(e) = result {
        eprintln!(
            "[warning: failed to checkpoint {} × {}: {e}]",
            cfg.design.label(),
            workload.name
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bear_core::config::DesignKind;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("bear_checkpoint_{tag}_{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        dir
    }

    fn sample() -> (SystemConfig, Workload, RunStats) {
        let cfg = SystemConfig::paper_baseline(DesignKind::Alloy);
        let workload = bear_workloads::rate_workloads().remove(0);
        let mut stats = RunStats {
            workload: workload.name.clone(),
            design: cfg.design.label().to_string(),
            cycles: 12_345,
            insts_per_core: vec![10, 20, 30],
            ipc_per_core: vec![0.5, 1.0 / 3.0, 0.25],
            l3_hit_rate: 0.125,
            cache_read_queue_latency: 9.75,
            mem_bytes: 1 << 30,
            ..Default::default()
        };
        stats.l4.read_lookups = 99;
        stats.l4.hit_rate = 2.0 / 3.0;
        stats.bloat.bytes[0] = 640;
        stats.bloat.useful_lines = 8;
        (cfg, workload, stats)
    }

    #[test]
    fn store_then_load_roundtrips_exactly() {
        let dir = tmp_dir("roundtrip");
        let (cfg, workload, stats) = sample();
        let store = CellStore::new(&dir, "figXX");
        assert!(store.load(&cfg, &workload).is_none(), "empty store misses");
        store
            .store(&cfg, &workload, &stats, None)
            .expect("store cell");
        assert_eq!(store.load(&cfg, &workload), Some(stats));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn uncommitted_or_corrupt_cells_are_ignored() {
        let dir = tmp_dir("corrupt");
        let (cfg, workload, stats) = sample();
        let store = CellStore::new(&dir, "figXX");
        store
            .store(&cfg, &workload, &stats, None)
            .expect("store cell");
        let (json_path, done_path) = store.paths(&cfg, &workload);

        // Truncated (crash mid-write would have hit the tmp file, but
        // defend against external corruption too).
        fs::write(&json_path, "{\"cell_hash\": \"trunc").expect("corrupt");
        assert!(store.load(&cfg, &workload).is_none());

        // Restore, then drop the commit marker.
        store
            .store(&cfg, &workload, &stats, None)
            .expect("re-store");
        fs::remove_file(&done_path).expect("remove marker");
        assert!(store.load(&cfg, &workload).is_none());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn changed_config_changes_the_cell_identity() {
        let dir = tmp_dir("stale");
        let (cfg, workload, stats) = sample();
        let store = CellStore::new(&dir, "figXX");
        store
            .store(&cfg, &workload, &stats, None)
            .expect("store cell");
        let mut changed = cfg.clone();
        changed.measure_cycles += 1;
        assert!(
            store.load(&changed, &workload).is_none(),
            "any config change must miss the checkpoint"
        );
        assert_ne!(cell_hash(&cfg, &workload), cell_hash(&changed, &workload));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_truncation_of_a_committed_cell_is_rejected() {
        // A kill -9 (or chaos tear) can leave a committed-looking cell
        // whose data file holds any prefix of the real bytes. No prefix —
        // even one that still parses as JSON — may survive load: the
        // digest in the `.done` marker covers the exact committed bytes.
        let dir = tmp_dir("torn");
        let (cfg, workload, stats) = sample();
        let store = CellStore::new(&dir, "figXX");
        store
            .store(&cfg, &workload, &stats, None)
            .expect("store cell");
        let (json_path, _) = store.paths(&cfg, &workload);
        let full = fs::read(&json_path).expect("read committed bytes");
        for keep in (0..full.len()).step_by(7).chain([full.len() - 1]) {
            fs::write(&json_path, &full[..keep]).expect("tear");
            assert!(
                store.load(&cfg, &workload).is_none(),
                "torn cell ({keep}/{} bytes) must be rejected",
                full.len()
            );
        }
        // And the pristine bytes still load, so the digest is not
        // rejecting everything.
        fs::write(&json_path, &full).expect("restore");
        assert_eq!(store.load(&cfg, &workload), Some(stats));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bitflip_in_a_committed_cell_is_rejected() {
        let dir = tmp_dir("bitflip");
        let (cfg, workload, stats) = sample();
        let store = CellStore::new(&dir, "figXX");
        store
            .store(&cfg, &workload, &stats, None)
            .expect("store cell");
        let (json_path, _) = store.paths(&cfg, &workload);
        let mut bytes = fs::read(&json_path).expect("read committed bytes");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        fs::write(&json_path, &bytes).expect("corrupt");
        assert!(
            store.load(&cfg, &workload).is_none(),
            "a flipped byte must fail the digest check"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_store_faults_behave_like_their_real_counterparts() {
        use bear_sim::faultinject::ChaosKind;
        let dir = tmp_dir("chaosfault");
        let (cfg, workload, stats) = sample();
        let store = CellStore::new(&dir, "figXX");

        // checkpoint-io: the store fails, nothing is committed.
        let err = store
            .store(&cfg, &workload, &stats, Some(ChaosKind::CheckpointIo))
            .expect_err("injected fsync failure must error");
        assert!(err.to_string().contains("checkpoint-io"));
        assert!(store.load(&cfg, &workload).is_none());
        assert!(store.committed_path(&cfg, &workload).is_none());

        // torn-checkpoint: committed-looking but truncated — rejected by
        // the digest, so resume re-runs the cell.
        store
            .store(&cfg, &workload, &stats, Some(ChaosKind::TornCheckpoint))
            .expect("torn store commits before tearing");
        assert!(
            store.committed_path(&cfg, &workload).is_some(),
            "the marker exists — that is what makes the tear dangerous"
        );
        assert!(
            store.load(&cfg, &workload).is_none(),
            "the torn bytes must fail the digest check"
        );

        // A clean re-store heals the cell.
        store
            .store(&cfg, &workload, &stats, None)
            .expect("re-store");
        assert_eq!(store.load(&cfg, &workload), Some(stats));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn raw_records_share_the_commit_protocol() {
        let dir = tmp_dir("raw");
        let store = CellStore::at(&dir.join("jobs"));
        assert!(store.load_raw("job-1").is_none(), "empty store misses");
        assert!(store.list_raw().is_empty());
        store
            .store_raw("job-1", "{\"id\": \"a\"}\n")
            .expect("store");
        store
            .store_raw("job-2", "{\"id\": \"b\"}\n")
            .expect("store");
        assert_eq!(
            store.load_raw("job-1").as_deref(),
            Some("{\"id\": \"a\"}\n")
        );
        assert_eq!(store.list_raw(), vec!["job-1", "job-2"]);

        // Torn after commit: listed (the marker exists) but rejected.
        let (json_path, _) = store.raw_paths("job-1");
        fs::write(&json_path, "{\"id\"").expect("tear");
        assert!(store.load_raw("job-1").is_none());
        assert_eq!(store.list_raw().len(), 2);

        // Flags are durable and namespaced per stem.
        assert!(!store.has_flag("job-2", "cancelled"));
        store.set_flag("job-2", "cancelled").expect("flag");
        assert!(store.has_flag("job-2", "cancelled"));
        assert!(!store.has_flag("job-1", "cancelled"));
        assert!(
            store.load_raw("job-2").is_some(),
            "flags do not disturb the record"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cell_files_are_filesystem_safe() {
        let (cfg, workload, _) = sample();
        let stem = cell_stem(&cfg, &workload);
        assert!(
            stem.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-'),
            "stem {stem:?} has unsafe characters"
        );
        assert!(stem.contains("Alloy"), "stem is human-skimmable: {stem}");
    }
}
