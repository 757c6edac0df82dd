//! Fault-tolerant campaign runner: crash-safe journal, resume, per-task
//! deadlines, graceful degradation — and sharded
//! execution across worker processes (see [`crate::shard`]).
//!
//! A *campaign* is a long batch of deterministic tasks — experiment
//! tables, fuzz chunks, hunt restarts. With a campaign directory attached
//! (`--campaign DIR` in the bins) every completed task's result is
//! appended to a journal first, so `--resume` replays finished work from
//! disk and recomputes only the rest. Because every task in this repo is
//! a pure function of its key (seeded RNGs, order-preserving fan-outs —
//! the PR-2/3 determinism pins), a resumed run's final output is
//! byte-identical to an uninterrupted one, modulo the wall-clock columns
//! that are already nondeterministic run-to-run (and masked by
//! `tests/determinism.rs`).
//!
//! ## On-disk layout (under the campaign directory)
//!
//! * `journal.jsonl` — append-only; one `{"key", "full", "value"}` object
//!   per completed task. `key` is the short content-addressed key (a
//!   64-bit FNV-1a fingerprint), `full` the complete task descriptor the
//!   fingerprint was taken over: replay verifies the stored descriptor
//!   matches the requested one, so a 64-bit hash collision degrades to a
//!   recompute instead of silently returning another task's result. A
//!   `SIGKILL` mid-write can leave only a partial *final* line, which the
//!   loader skips; every intact line is a fully serialized result.
//!   Results are JSON-roundtrip-exact (`f64` via ryu), so replayed values
//!   match recomputed ones bit for bit.
//! * `journal-<w>.jsonl` — one shard worker's journal (worker mode,
//!   [`ShardSpec`]). A resumed or worker-mode [`Campaign::open`] loads
//!   every journal in the directory — each `journal-<w>.jsonl`, then
//!   `journal.jsonl`; a later line for a key replaces an earlier one —
//!   and appends only to its own file.
//! * `leases/<key>.lease` — claims in worker mode: a worker computes a
//!   leaf task that no journal holds if and only if it creates the task's
//!   lease (`O_EXCL`), so exactly one worker computes it; a dead worker's
//!   uncommitted leases are deleted by the coordinator before respawn.
//! * `manifest.json` — written once by [`Campaign::finish`] via temp file,
//!   atomic rename, and directory fsync; records the run key and the
//!   **deterministic** task-key set (sorted, digested), so a sharded run
//!   and a single-process run of the same campaign produce byte-identical
//!   manifests. Its presence marks a campaign that ran to completion.
//! * `stats.json` — per-run counters ([`RunStats`]); informational,
//!   deliberately outside the manifest because replay/compute counts differ
//!   between a fresh run, a resume, and a sharded run of the same work.
//!
//! A fresh (non-resume, non-worker) open removes all of these first
//! (`reset_dir`), so no artifact of an earlier run outlives it.
//!
//! ## Degradation
//!
//! With `--task-timeout SECS` each task gets a [`SolveBudget`]; the
//! certified LP lower bound polls it and aborts cleanly, falling back to
//! the closed-form bounds (an [`tf_lowerbound::LbOutcome`] with
//! `degraded` set).
//! The weakened bound is still *valid*, the output row records the
//! provenance (`lb src` column), [`Campaign::note_degraded`] counts it —
//! and the degraded value is **never** written to the lower-bound cache,
//! where it would silently weaken later unlimited runs.
//!
//! ## Handles, not globals
//!
//! The campaign is a plain handle ([`Campaign`] behind an `Arc`), carried
//! through [`crate::RunCtx`] as a [`CampaignScope`] and passed down the
//! `*_scoped` entry points ([`crate::ratio::empirical_ratios_scoped`],
//! [`crate::hunt::hunt_scoped`], `tf-audit`'s `run_fuzz_scoped`). Nothing
//! is process-global, so N shard workers, a server handling concurrent
//! requests, and unit tests can each hold their own campaign (or none) in
//! one process without interfering.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};
use tf_lowerbound::SolveBudget;

/// Which shard worker this process is: `worker` of `of` worker
/// processes. Every worker traverses the whole task graph and computes a
/// leaf task only if it wins the task's lease (see [`Campaign::run_leaf`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// This worker's index in `0..of`.
    pub worker: usize,
    /// Total worker count.
    pub of: usize,
}

impl ShardSpec {
    /// Parse the CLI form `"<worker>/<of>"` (e.g. `"2/8"`).
    pub fn parse(s: &str) -> Option<ShardSpec> {
        let (w, n) = s.split_once('/')?;
        let spec = ShardSpec {
            worker: w.parse().ok()?,
            of: n.parse().ok()?,
        };
        (spec.of > 0 && spec.worker < spec.of).then_some(spec)
    }
}

impl std::fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.worker, self.of)
    }
}

/// How a campaign run is configured (one `--campaign DIR` invocation).
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignCfg {
    /// Directory holding `journal*.jsonl`, `leases/`, and `manifest.json`.
    pub dir: PathBuf,
    /// Replay completed tasks from the existing journals (`--resume`);
    /// without it earlier runs' artifacts are removed and the campaign
    /// starts fresh.
    pub resume: bool,
    /// Per-task wall-clock deadline (`--task-timeout SECS`); `None`
    /// means tasks run to completion.
    pub task_timeout: Option<Duration>,
    /// Worker mode: compute only the leaf tasks whose leases this worker
    /// wins, journaling to `journal-<worker>.jsonl`. `None` = the
    /// ordinary single-process campaign.
    pub shard: Option<ShardSpec>,
}

impl CampaignCfg {
    /// Campaign in `dir` with no timeout and no resume.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CampaignCfg {
            dir: dir.into(),
            resume: false,
            task_timeout: None,
            shard: None,
        }
    }

    /// Enable resume-from-journal.
    pub fn resume(mut self, on: bool) -> Self {
        self.resume = on;
        self
    }

    /// Set the per-task deadline.
    pub fn task_timeout(mut self, d: Duration) -> Self {
        self.task_timeout = Some(d);
        self
    }

    /// Run as one shard worker of a coordinated campaign.
    pub fn shard(mut self, spec: ShardSpec) -> Self {
        self.shard = Some(spec);
        self
    }
}

/// A content-addressed task identity: the `short` key is what the journal
/// and the leases index by (`prefix:` + 64-bit FNV-1a hex);
/// the `full` descriptor is every input spelled out, stored alongside the
/// result so replay can verify the hash didn't collide.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskKey {
    short: String,
    full: String,
}

impl TaskKey {
    /// A key whose short form is `prefix:<fnv64(full)>`.
    pub fn hashed(prefix: &str, full: impl Into<String>) -> TaskKey {
        let full = full.into();
        TaskKey {
            short: format!("{prefix}:{:016x}", fingerprint(full.bytes())),
            full,
        }
    }

    /// A key used literally (short == full) — experiment-level keys,
    /// which are already unique human-readable ids.
    pub fn literal(key: impl Into<String>) -> TaskKey {
        let key = key.into();
        TaskKey {
            short: key.clone(),
            full: key,
        }
    }

    /// A key with an explicitly chosen short form (fuzz chunks append a
    /// readable `:<lo>-<hi>` range to the hash). The caller guarantees
    /// `short` is a pure function of `full`.
    pub fn with_short(short: impl Into<String>, full: impl Into<String>) -> TaskKey {
        TaskKey {
            short: short.into(),
            full: full.into(),
        }
    }

    /// The short (journal/lease) key.
    pub fn short(&self) -> &str {
        &self.short
    }

    /// The full task descriptor.
    pub fn full(&self) -> &str {
        &self.full
    }
}

/// One in-memory journal entry: the full descriptor it was recorded
/// under, the serialized value, and whether it is on disk (unworthy
/// [`Campaign::run_leaf_if`] values are memoized in-process only).
struct Entry {
    full: String,
    raw: String,
    persisted: bool,
}

/// Completed-task log plus its append writer.
struct Journal {
    completed: HashMap<String, Entry>,
    writer: BufWriter<File>,
}

/// One line of `journal.jsonl` (or of a shard's `journal-<w>.jsonl`).
#[derive(Serialize, Deserialize)]
pub(crate) struct JournalLine {
    /// Short key.
    pub(crate) key: String,
    /// Full task descriptor.
    pub(crate) full: String,
    /// Serialized result.
    pub(crate) value: serde_json::Value,
}

/// The intact lines of a journal's `text`, parsed. A kill mid-append
/// can truncate only the last line, and lines from the
/// pre-collision-guard schema have no `full` field; both are skipped. The
/// one reader of the journal format: [`Campaign::open`] replays with it
/// and the shard coordinator releases leases with it.
pub(crate) fn journal_lines(text: &str) -> impl Iterator<Item = JournalLine> + '_ {
    text.lines()
        .filter_map(|line| serde_json::from_str(line).ok())
}

/// The lease file name of a short key: `<key>.lease`, with every
/// character outside `[A-Za-z0-9-]` mapped to `_` (short keys are
/// `[a-z0-9:-]`, and `:` is not portable in file names).
pub(crate) fn lease_name(short: &str) -> String {
    let stem: String = short
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' {
                c
            } else {
                '_'
            }
        })
        .collect();
    format!("{stem}.lease")
}

/// The completion record written atomically as `manifest.json` by
/// [`Campaign::finish`]. Deliberately **deterministic**: it names the
/// task-key set, not the run's counters, so a sharded campaign and a
/// single-process campaign over the same work write byte-identical
/// manifests (counters live in `stats.json` / [`RunStats`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// Manifest schema version (2: deterministic key-set record).
    pub schema: u32,
    /// Caller-supplied identity of the run (ids + effort fingerprint).
    pub run_key: String,
    /// Number of journaled tasks.
    pub tasks: u64,
    /// 128-bit FNV-1a over the sorted short keys (newline-joined), hex.
    pub digest: String,
    /// The sorted short keys themselves.
    pub keys: Vec<String>,
}

/// Per-run counters, written as `stats.json` next to the manifest.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunStats {
    /// Tasks whose results were replayed from the journal.
    pub replays: u64,
    /// Tasks computed (and journaled) this process.
    pub computed: u64,
    /// Lower-bound solves that degraded to closed-form bounds.
    pub degradations: u64,
    /// Replays rejected because the stored full descriptor did not match
    /// the requested one (64-bit short-key collision) — recomputed.
    pub collisions: u64,
    /// Worker mode: leaf tasks skipped because another worker holds their
    /// lease.
    pub skipped: u64,
}

/// A live campaign: journal + counters. Shared across worker threads via
/// `Arc`; see [`CampaignScope`] for the way it is carried through
/// [`crate::RunCtx`].
pub struct Campaign {
    cfg: CampaignCfg,
    journal: Mutex<Journal>,
    replays: AtomicU64,
    computed: AtomicU64,
    degradations: AtomicU64,
    collisions: AtomicU64,
    skipped: AtomicU64,
}

/// fsync a directory so a preceding create/rename within it survives
/// power loss (ext4 semantics: the rename itself is atomic, but its
/// durability needs the parent directory synced).
fn sync_dir(dir: &Path) -> std::io::Result<()> {
    File::open(dir)?.sync_all()
}

/// Whether `name` is a journal: `journal.jsonl` or a worker's
/// `journal-<w>.jsonl`.
fn is_journal(name: &str) -> bool {
    name == "journal.jsonl" || (name.starts_with("journal-") && name.ends_with(".jsonl"))
}

/// Remove the artifacts of earlier campaign runs from `dir` — every
/// journal, the leases, the manifest (and a stale temp copy of it) and
/// the stats — so a fresh run starts from nothing. Keeps unrelated files.
pub(crate) fn reset_dir(dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if is_journal(&name)
            || name == "manifest.json"
            || name == "stats.json"
            || name.starts_with("manifest.tmp")
        {
            std::fs::remove_file(entry.path())?;
        }
    }
    let leases = dir.join("leases");
    if leases.is_dir() {
        std::fs::remove_dir_all(&leases)?;
    }
    Ok(())
}

/// Every journal in `dir` as one map: each `journal-<w>.jsonl`, then
/// `journal.jsonl` (`-` sorts before `.`), a later line for a key
/// replacing an earlier one.
fn load_journals(dir: &Path) -> std::io::Result<HashMap<String, Entry>> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(Result::ok)
        .filter(|e| is_journal(&e.file_name().to_string_lossy()))
        .map(|e| e.path())
        .collect();
    paths.sort();
    let mut completed = HashMap::new();
    for path in paths {
        // Lossy: a kill mid-append may tear a multi-byte character, and
        // only the torn line may be lost for it.
        let text = String::from_utf8_lossy(&std::fs::read(&path)?).into_owned();
        for l in journal_lines(&text) {
            if let Ok(raw) = serde_json::to_string(&l.value) {
                let entry = Entry {
                    full: l.full,
                    raw,
                    persisted: true,
                };
                completed.insert(l.key, entry);
            }
        }
    }
    Ok(completed)
}

impl Campaign {
    /// Open (or resume) a campaign in `cfg.dir`. A resumed open replays
    /// every journal in the directory; a fresh one first removes earlier
    /// runs' artifacts (`reset_dir`). In worker mode
    /// ([`CampaignCfg::shard`]) resume is implied (a respawned worker
    /// must replay what it and the others already committed) and results
    /// are appended to the worker's own `journal-<w>.jsonl`.
    pub fn open(mut cfg: CampaignCfg) -> std::io::Result<Arc<Campaign>> {
        std::fs::create_dir_all(&cfg.dir)?;
        let path = match cfg.shard {
            Some(spec) => {
                cfg.resume = true;
                std::fs::create_dir_all(cfg.dir.join("leases"))?;
                cfg.dir.join(format!("journal-{}.jsonl", spec.worker))
            }
            None => cfg.dir.join("journal.jsonl"),
        };
        let completed = if cfg.resume {
            load_journals(&cfg.dir)?
        } else {
            reset_dir(&cfg.dir)?;
            HashMap::new()
        };
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        // The open may have created the journal file; make the directory
        // entry durable before any task result lands in it.
        sync_dir(&cfg.dir)?;
        tf_obs::counter!("campaign", "journal_loaded", completed.len() as f64);
        Ok(Arc::new(Campaign {
            cfg,
            journal: Mutex::new(Journal {
                completed,
                writer: BufWriter::new(file),
            }),
            replays: AtomicU64::new(0),
            computed: AtomicU64::new(0),
            degradations: AtomicU64::new(0),
            collisions: AtomicU64::new(0),
            skipped: AtomicU64::new(0),
        }))
    }

    /// The campaign's configuration.
    pub fn cfg(&self) -> &CampaignCfg {
        &self.cfg
    }

    /// A fresh per-task budget (deadline = now + `--task-timeout`).
    pub fn task_budget(&self) -> SolveBudget {
        SolveBudget::with_optional_timeout(self.cfg.task_timeout)
    }

    /// Replayable value for `key`, verifying the stored full descriptor.
    /// A short-key match with a different descriptor is a fingerprint
    /// collision: counted, and treated as "not journaled" so the task is
    /// recomputed instead of silently returning another task's result.
    fn lookup(&self, key: &TaskKey) -> Option<String> {
        let j = self.journal.lock().unwrap_or_else(PoisonError::into_inner);
        match j.completed.get(key.short()) {
            Some(e) if e.full == key.full() => Some(e.raw.clone()),
            Some(_) => {
                drop(j);
                self.collisions.fetch_add(1, Ordering::Relaxed);
                tf_obs::instant!("campaign", "key_collision");
                None
            }
            None => None,
        }
    }

    fn replay_as<T: DeserializeOwned>(&self, key: &TaskKey) -> Option<T> {
        let raw = self.lookup(key)?;
        match serde_json::from_str::<T>(&raw) {
            Ok(v) => {
                self.replays.fetch_add(1, Ordering::Relaxed);
                tf_obs::instant!("campaign", "replay");
                Some(v)
            }
            // Journaled under an older value schema: recompute (and
            // re-journal under the same key; the loader keeps the last
            // occurrence).
            Err(_) => None,
        }
    }

    /// Memoize `value` for `key`, appending it to the journal when
    /// `persist` (flushed + fdatasync'd, so a kill after this point never
    /// loses the task). I/O errors degrade to "not journaled" — the
    /// campaign never makes a run fail.
    fn record<T: Serialize>(&self, key: &TaskKey, value: &T, persist: bool) {
        let Ok(value) = serde_json::to_value(value) else {
            return;
        };
        let Ok(raw) = serde_json::to_string(&value) else {
            return;
        };
        let line = JournalLine {
            key: key.short().to_string(),
            full: key.full().to_string(),
            value,
        };
        let Ok(mut json) = serde_json::to_string(&line) else {
            return;
        };
        json.push('\n');
        let mut j = self.journal.lock().unwrap_or_else(PoisonError::into_inner);
        let mut on_disk = false;
        if persist && j.writer.write_all(json.as_bytes()).is_ok() && j.writer.flush().is_ok() {
            on_disk = true;
            let _ = j.writer.get_ref().sync_data();
        }
        j.completed.insert(
            key.short().to_string(),
            Entry {
                full: key.full().to_string(),
                raw,
                persisted: on_disk,
            },
        );
    }

    fn compute_record<T, F>(&self, key: &TaskKey, compute: F, persist: impl FnOnce(&T) -> bool) -> T
    where
        T: Serialize,
        F: FnOnce() -> T,
    {
        tf_obs::instant!("campaign", "attempt");
        let v = compute();
        self.record(key, &v, persist(&v));
        self.computed.fetch_add(1, Ordering::Relaxed);
        v
    }

    /// Lease path for a short key (see [`lease_name`]).
    fn lease_path(&self, short: &str) -> PathBuf {
        self.cfg.dir.join("leases").join(lease_name(short))
    }

    /// Claim `short` for this worker by creating its lease file with
    /// `O_EXCL`, the content naming the worker. Any failure, an existing
    /// lease above all, loses the claim; what no worker computes, the
    /// coordinator's final in-process pass does.
    fn claim(&self, short: &str, worker: usize) -> bool {
        let lease = OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(self.lease_path(short));
        lease.is_ok_and(|mut f| {
            let _ = f.write_all(worker.to_string().as_bytes());
            true
        })
    }

    /// Replay `key` from the journal, or compute and journal it.
    ///
    /// *Structural* semantics for worker mode: a structural key (an
    /// `exp:` wrapper whose body fans out into journaled leaf tasks) is
    /// always **executed** by every worker and never journaled — the
    /// traversal is what reaches the leaves; the coordinator's final pass
    /// computes and journals the wrapper itself from replayed leaves.
    ///
    /// `T` must round-trip through JSON exactly (every `Serialize` type
    /// in this workspace does: numbers are f64/u64, serialized
    /// losslessly).
    pub fn run_structural<T, F>(&self, key: &TaskKey, compute: F) -> T
    where
        T: Serialize + DeserializeOwned,
        F: FnOnce() -> T,
    {
        if self.cfg.shard.is_some() {
            return compute();
        }
        if let Some(v) = self.replay_as(key) {
            return v;
        }
        self.compute_record(key, compute, |_| true)
    }

    /// Replay, compute, or — in worker mode — skip `key`.
    ///
    /// A *leaf* is the shardable unit. Outside worker mode this is
    /// exactly [`Campaign::run_structural`]. In worker mode a task that
    /// no journal holds runs if and only if this worker wins its lease;
    /// otherwise `skip` supplies a placeholder result (callers'
    /// aggregation must tolerate it — worker-mode table output is
    /// discarded).
    pub fn run_leaf<T, F, S>(&self, key: &TaskKey, compute: F, skip: S) -> T
    where
        T: Serialize + DeserializeOwned,
        F: FnOnce() -> T,
        S: FnOnce() -> T,
    {
        self.run_leaf_if(key, compute, |_| true, skip)
    }

    /// As [`Campaign::run_leaf`], but the computed value is persisted to
    /// the journal only when `worth_journaling(&value)` holds. Unworthy
    /// values are memoized in-process (a task met twice in one traversal
    /// computes once) but recomputed by any later process — e.g. fuzz
    /// chunks with violations, which must re-shrink and re-write
    /// counterexample records rather than replay a summary of them.
    pub fn run_leaf_if<T, F, P, S>(
        &self,
        key: &TaskKey,
        compute: F,
        worth_journaling: P,
        skip: S,
    ) -> T
    where
        T: Serialize + DeserializeOwned,
        F: FnOnce() -> T,
        P: FnOnce(&T) -> bool,
        S: FnOnce() -> T,
    {
        if let Some(v) = self.replay_as(key) {
            return v;
        }
        match self.cfg.shard {
            Some(spec) if !self.claim(key.short(), spec.worker) => {
                self.skipped.fetch_add(1, Ordering::Relaxed);
                skip()
            }
            _ => self.compute_record(key, compute, worth_journaling),
        }
    }

    /// Count one lower-bound degradation (budget-exceeded LP solve that
    /// fell back to closed-form bounds).
    pub fn note_degraded(&self) {
        self.degradations.fetch_add(1, Ordering::Relaxed);
        tf_obs::instant!("campaign", "degraded");
    }

    /// Counters so far.
    pub fn stats(&self) -> RunStats {
        RunStats {
            replays: self.replays.load(Ordering::Relaxed),
            computed: self.computed.load(Ordering::Relaxed),
            degradations: self.degradations.load(Ordering::Relaxed),
            collisions: self.collisions.load(Ordering::Relaxed),
            skipped: self.skipped.load(Ordering::Relaxed),
        }
    }

    /// The deterministic completion record: sorted persisted short keys
    /// plus their digest (also the shape [`Campaign::finish`] persists).
    pub fn manifest(&self, run_key: &str) -> Manifest {
        let mut keys: Vec<String> = {
            let j = self.journal.lock().unwrap_or_else(PoisonError::into_inner);
            j.completed
                .iter()
                .filter(|(_, e)| e.persisted)
                .map(|(k, _)| k.clone())
                .collect()
        };
        keys.sort_unstable();
        let mut h = FNV128_BASIS;
        for k in &keys {
            for b in k.bytes() {
                h = fnv128_step(h, b);
            }
            h = fnv128_step(h, b'\n');
        }
        Manifest {
            schema: 2,
            run_key: run_key.to_string(),
            tasks: keys.len() as u64,
            digest: format!("{h:032x}"),
            keys,
        }
    }

    /// Campaign counters as a flat [`tf_obs::ObsRegistry`] under the
    /// `campaign.` namespace, mergeable with `cache.`/`sim.`/`mcmf.`.
    pub fn registry(&self) -> tf_obs::ObsRegistry {
        let s = self.stats();
        tf_obs::ObsRegistry::from_counters([
            ("campaign.replays", s.replays as f64),
            ("campaign.computed", s.computed as f64),
            ("campaign.degradations", s.degradations as f64),
            ("campaign.collisions", s.collisions as f64),
            ("campaign.skipped", s.skipped as f64),
        ])
    }

    /// Flush the journal, write `stats.json`, and write `manifest.json`
    /// via temp-file + atomic rename + directory fsync: its presence
    /// marks a campaign that completed, durably. Not called in worker
    /// mode (the coordinator's final pass writes the one manifest).
    pub fn finish(&self, run_key: &str) -> std::io::Result<Manifest> {
        {
            let mut j = self.journal.lock().unwrap_or_else(PoisonError::into_inner);
            j.writer.flush()?;
            j.writer.get_ref().sync_data()?;
        }
        let stats = serde_json::to_string_pretty(&self.stats()).expect("stats serialize");
        std::fs::write(self.cfg.dir.join("stats.json"), stats)?;
        let m = self.manifest(run_key);
        let json = serde_json::to_string_pretty(&m).expect("manifest serializes");
        let path = self.cfg.dir.join("manifest.json");
        let tmp = self
            .cfg
            .dir
            .join(format!("manifest.tmp{}", std::process::id()));
        {
            let mut f = File::create(&tmp)?;
            f.write_all(json.as_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, &path)?;
        // Make the rename itself durable: an ext4 power loss after this
        // returns can no longer resurrect the old directory state
        // (missing manifest / stale temp file).
        sync_dir(&self.cfg.dir)?;
        Ok(m)
    }
}

/// Read `stats.json` from a finished campaign directory.
pub fn read_stats(dir: &Path) -> std::io::Result<RunStats> {
    let text = std::fs::read_to_string(dir.join("stats.json"))?;
    serde_json::from_str(&text).map_err(|e| std::io::Error::other(e.to_string()))
}

/// The campaign (or lack of one) a run executes under, carried through
/// [`crate::RunCtx`] into the library fan-outs. Cloning is cheap (an
/// `Arc` and an `Option<Duration>`); the no-campaign scope makes every
/// `run_*` call a plain compute, so library code takes `&CampaignScope`
/// unconditionally instead of consulting a process global.
#[derive(Clone, Default)]
pub struct CampaignScope {
    campaign: Option<Arc<Campaign>>,
    timeout: Option<Duration>,
}

impl CampaignScope {
    /// No campaign: every task computes directly, budgets are unlimited.
    pub fn none() -> Self {
        CampaignScope::default()
    }

    /// Scope over an open campaign (budget = the campaign's
    /// `task_timeout`).
    pub fn of(campaign: Arc<Campaign>) -> Self {
        let timeout = campaign.cfg().task_timeout;
        CampaignScope {
            campaign: Some(campaign),
            timeout,
        }
    }

    /// No campaign, but a per-task budget — e.g. one `tf-serve` request,
    /// which wants the `--task-timeout` degradation machinery without a
    /// journal.
    pub fn with_timeout(timeout: Duration) -> Self {
        CampaignScope {
            campaign: None,
            timeout: Some(timeout),
        }
    }

    /// The scoped campaign, if any.
    pub fn campaign(&self) -> Option<&Arc<Campaign>> {
        self.campaign.as_ref()
    }

    /// A fresh per-task [`SolveBudget`] (deadline = now + timeout).
    pub fn task_budget(&self) -> SolveBudget {
        SolveBudget::with_optional_timeout(self.timeout)
    }

    /// Count a degradation on the scoped campaign (no-op without one).
    pub fn note_degraded(&self) {
        if let Some(c) = &self.campaign {
            c.note_degraded();
        }
    }

    /// [`Campaign::run_structural`] under the scope (plain compute
    /// without a campaign).
    pub fn run_structural<T, F>(&self, key: &TaskKey, compute: F) -> T
    where
        T: Serialize + DeserializeOwned,
        F: FnOnce() -> T,
    {
        match &self.campaign {
            Some(c) => c.run_structural(key, compute),
            None => compute(),
        }
    }

    /// [`Campaign::run_leaf`] under the scope (plain compute without a
    /// campaign; `skip` only fires in worker mode).
    pub fn run_leaf<T, F, S>(&self, key: &TaskKey, compute: F, skip: S) -> T
    where
        T: Serialize + DeserializeOwned,
        F: FnOnce() -> T,
        S: FnOnce() -> T,
    {
        match &self.campaign {
            Some(c) => c.run_leaf(key, compute, skip),
            None => compute(),
        }
    }

    /// [`Campaign::run_leaf_if`] under the scope.
    pub fn run_leaf_if<T, F, P, S>(&self, key: &TaskKey, compute: F, worth: P, skip: S) -> T
    where
        T: Serialize + DeserializeOwned,
        F: FnOnce() -> T,
        P: FnOnce(&T) -> bool,
        S: FnOnce() -> T,
    {
        match &self.campaign {
            Some(c) => c.run_leaf_if(key, compute, worth, skip),
            None => compute(),
        }
    }
}

impl std::fmt::Debug for CampaignScope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CampaignScope")
            .field("campaign", &self.campaign.as_ref().map(|c| &c.cfg().dir))
            .field("timeout", &self.timeout)
            .finish()
    }
}

/// Stable fingerprint helper for campaign task keys (FNV-1a over raw
/// bytes, like the lower-bound cache key).
pub fn fingerprint(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

const FNV128_BASIS: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV128_PRIME: u128 = 0x0000000001000000000000000000013b;

fn fnv128_step(h: u128, b: u8) -> u128 {
    (h ^ u128::from(b)).wrapping_mul(FNV128_PRIME)
}

/// 128-bit FNV-1a, used where a 64-bit fingerprint inside a full task
/// descriptor would make the collision guard itself collision-prone
/// (trace contents) and for the manifest key digest.
pub fn fingerprint128(bytes: impl IntoIterator<Item = u8>) -> u128 {
    let mut h = FNV128_BASIS;
    for b in bytes {
        h = fnv128_step(h, b);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("tf-campaign-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn key(s: &str) -> TaskKey {
        TaskKey::hashed("test", s)
    }

    #[test]
    fn computes_then_replays_identically() {
        let dir = scratch("replay");
        let c = Campaign::open(CampaignCfg::new(&dir)).unwrap();
        let v: f64 = c.run_structural(&key("t1"), || 0.1 + 0.2);
        c.finish("test").unwrap();
        drop(c);

        let c2 = Campaign::open(CampaignCfg::new(&dir).resume(true)).unwrap();
        let replayed: f64 = c2.run_structural(&key("t1"), || panic!("must replay, not recompute"));
        assert_eq!(replayed.to_bits(), v.to_bits(), "bit-exact roundtrip");
        let s = c2.stats();
        assert_eq!((s.replays, s.computed), (1, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn partial_final_line_is_skipped() {
        let dir = scratch("torn");
        let c = Campaign::open(CampaignCfg::new(&dir)).unwrap();
        let _: u32 = c.run_structural(&key("a"), || 7);
        let _: u32 = c.run_structural(&key("b"), || 8);
        drop(c);
        // Simulate a SIGKILL mid-append: truncate inside the last line.
        let path = dir.join("journal.jsonl");
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 5]).unwrap();

        let c2 = Campaign::open(CampaignCfg::new(&dir).resume(true)).unwrap();
        let a: u32 = c2.run_structural(&key("a"), || panic!("intact line must replay"));
        assert_eq!(a, 7);
        let b: u32 = c2.run_structural(&key("b"), || 80); // torn line: recomputed
        assert_eq!(b, 80);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn without_resume_an_existing_journal_is_discarded() {
        let dir = scratch("fresh");
        let c = Campaign::open(CampaignCfg::new(&dir)).unwrap();
        let _: u32 = c.run_structural(&key("a"), || 1);
        drop(c);
        let c2 = Campaign::open(CampaignCfg::new(&dir)).unwrap();
        let a: u32 = c2.run_structural(&key("a"), || 2);
        assert_eq!(a, 2, "fresh campaign must not replay old results");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The collision guard: two keys with the same short hash but
    /// different full descriptors must not replay each other's values.
    /// (Constructing a genuine 64-bit FNV collision is impractical, so
    /// the test forges one with `TaskKey::with_short` — exactly the
    /// situation the guard defends against. Pre-fix, the journal indexed
    /// by short key alone and this test fails with `7` replayed for
    /// task B.)
    #[test]
    fn short_key_collision_recomputes_instead_of_replaying() {
        let dir = scratch("collide");
        let a = TaskKey::with_short("test:deadbeef", "task A");
        let b = TaskKey::with_short("test:deadbeef", "task B");
        let c = Campaign::open(CampaignCfg::new(&dir)).unwrap();
        let va: u32 = c.run_structural(&a, || 7);
        assert_eq!(va, 7);
        let vb: u32 = c.run_structural(&b, || 8);
        assert_eq!(vb, 8, "B collided with A's journal entry");
        assert_eq!(c.stats().collisions, 1);
        drop(c);

        // On disk too: the resumed journal holds B (last write wins);
        // replaying A must detect the descriptor mismatch and recompute.
        let c2 = Campaign::open(CampaignCfg::new(&dir).resume(true)).unwrap();
        let vb2: u32 = c2.run_structural(&b, || panic!("B must replay"));
        assert_eq!(vb2, 8);
        let va2: u32 = c2.run_structural(&a, || 70);
        assert_eq!(va2, 70, "A must recompute after the collision");
        assert_eq!(c2.stats().collisions, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pre_collision_guard_journal_lines_are_recomputed() {
        let dir = scratch("schema-v1");
        std::fs::create_dir_all(&dir).unwrap();
        // A PR-5-era line: no "full" field.
        std::fs::write(
            dir.join("journal.jsonl"),
            "{\"key\":\"test:0123456789abcdef\",\"value\":41}\n",
        )
        .unwrap();
        let c = Campaign::open(CampaignCfg::new(&dir).resume(true)).unwrap();
        let k = TaskKey::with_short("test:0123456789abcdef", "the task");
        let v: u32 = c.run_structural(&k, || 42);
        assert_eq!(v, 42, "unverifiable line must recompute");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scope_budget_and_degradation() {
        let dir = scratch("scope");
        assert!(CampaignScope::none().task_budget().is_unlimited());
        assert!(CampaignScope::none().campaign().is_none());
        assert!(!CampaignScope::with_timeout(Duration::from_secs(60))
            .task_budget()
            .is_unlimited());
        let c =
            Campaign::open(CampaignCfg::new(&dir).task_timeout(Duration::from_secs(60))).unwrap();
        let scope = CampaignScope::of(c.clone());
        assert!(!scope.task_budget().is_unlimited());
        let v: u32 = scope.run_structural(&key("k"), || 5);
        assert_eq!(v, 5);
        scope.note_degraded();
        assert_eq!(c.registry().get("campaign.degradations"), Some(1.0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_leaf_if_skips_journaling_unworthy_values() {
        let dir = scratch("runif");
        let c = Campaign::open(CampaignCfg::new(&dir)).unwrap();
        let dirty: u32 = c.run_leaf_if(&key("chunk"), || 13, |v| *v == 0, || 99);
        assert_eq!(dirty, 13);
        let clean: u32 = c.run_leaf_if(&key("ok"), || 0, |v| *v == 0, || 99);
        assert_eq!(clean, 0);
        // In-process, the unworthy value is memoized (worker passes
        // must not recompute a dirty chunk per pass)...
        let again: u32 = c.run_leaf_if(&key("chunk"), || panic!("memoized"), |v| *v == 0, || 99);
        assert_eq!(again, 13);
        drop(c);

        // ...but a later process recomputes it (it was never persisted).
        let c2 = Campaign::open(CampaignCfg::new(&dir).resume(true)).unwrap();
        let recomputed: u32 = c2.run_leaf_if(&key("chunk"), || 14, |v| *v == 0, || 99);
        assert_eq!(recomputed, 14, "unjournaled value must recompute");
        let replayed: u32 = c2.run_leaf_if(&key("ok"), || panic!("must replay"), |_| true, || 99);
        assert_eq!(replayed, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_is_deterministic_in_key_set_only() {
        let dir1 = scratch("manifest-a");
        let dir2 = scratch("manifest-b");
        let c1 = Campaign::open(CampaignCfg::new(&dir1)).unwrap();
        let _: u32 = c1.run_structural(&key("x"), || 9);
        let _: u32 = c1.run_structural(&key("y"), || 10);
        let m1 = c1.finish("run-xyz").unwrap();
        // Same tasks, other order, one replayed from a different route.
        let c2 = Campaign::open(CampaignCfg::new(&dir2)).unwrap();
        let _: u32 = c2.run_structural(&key("y"), || 10);
        let _: u32 = c2.run_structural(&key("x"), || 9);
        let m2 = c2.finish("run-xyz").unwrap();
        assert_eq!(m1, m2, "manifest must not depend on completion order");
        let b1 = std::fs::read(dir1.join("manifest.json")).unwrap();
        let b2 = std::fs::read(dir2.join("manifest.json")).unwrap();
        assert_eq!(b1, b2, "manifest files must be byte-identical");
        let on_disk: Manifest = serde_json::from_str(&String::from_utf8(b1).unwrap()).unwrap();
        assert_eq!(on_disk, m1);
        assert_eq!(on_disk.schema, 2);
        assert_eq!(on_disk.tasks, 2);
        // Counters live in stats.json, not the manifest.
        let s = read_stats(&dir1).unwrap();
        assert_eq!(s.computed, 2);
        // A stats.json from before the retry, attempt and stolen counters
        // were dropped loads.
        std::fs::write(
            dir2.join("stats.json"),
            r#"{"replays":1,"computed":2,"attempts":2,"retries":0,"degradations":0,
                "collisions":0,"stolen":0,"skipped":0}"#,
        )
        .unwrap();
        let old = read_stats(&dir2).unwrap();
        assert_eq!((old.replays, old.computed), (1, 2));
        std::fs::remove_dir_all(&dir1).ok();
        std::fs::remove_dir_all(&dir2).ok();
    }

    /// Claiming by lease alone: a worker computes a key iff it creates
    /// the key's lease, so every key is computed once however the
    /// workers' passes interleave, and a key whose lease the coordinator
    /// released (its worker died before committing) is recomputed by the
    /// next worker that reaches it.
    #[test]
    fn worker_mode_computes_each_leased_key_once() {
        let dir = scratch("worker");
        let keys: Vec<TaskKey> = (0..16).map(|i| key(&format!("task {i}"))).collect();
        let spec0 = ShardSpec { worker: 0, of: 2 };
        let spec1 = ShardSpec { worker: 1, of: 2 };
        let w0 = Campaign::open(CampaignCfg::new(&dir).shard(spec0)).unwrap();
        let w1 = Campaign::open(CampaignCfg::new(&dir).shard(spec1)).unwrap();
        // Worker 1's lease on the last key, which it never commits: it
        // dies computing it.
        let victim = &keys[15];
        std::fs::write(w0.lease_path(victim.short()), "1").unwrap();

        // Worker 0 reaches the even keys first, then both pass over all.
        for k in keys.iter().step_by(2) {
            let _: u32 = w0.run_leaf(k, || 1, || 0);
        }
        for w in [&w1, &w0] {
            for k in &keys {
                let _: u32 = w.run_leaf(k, || 1, || 0);
            }
        }
        let (s0, s1) = (w0.stats(), w1.stats());
        assert_eq!((s0.computed, s1.computed), (8, 7), "each key once");
        assert_eq!((s0.skipped, s1.skipped), (8, 9));

        // The coordinator releases worker 1's uncommitted lease; the
        // respawned worker 1 replays what both journaled and computes the
        // one released key.
        drop(w1);
        std::fs::remove_file(w0.lease_path(victim.short())).unwrap();
        let w1b = Campaign::open(CampaignCfg::new(&dir).shard(spec1)).unwrap();
        for k in &keys {
            let _: u32 = w1b.run_leaf(k, || 1, || 0);
        }
        let s = w1b.stats();
        assert_eq!((s.computed, s.replays, s.skipped), (1, 15, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn worker_journals_are_separate_files() {
        let dir = scratch("shardfiles");
        let w0 =
            Campaign::open(CampaignCfg::new(&dir).shard(ShardSpec { worker: 0, of: 2 })).unwrap();
        let _: u32 = w0.run_leaf(&key("probe"), || 3, || 0);
        drop(w0);
        assert!(dir.join("journal-0.jsonl").exists());
        assert!(!dir.join("journal.jsonl").exists());
        assert!(dir.join("leases").is_dir());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A worker replays every journal in the directory, so a finished
    /// campaign resumed sharded computes nothing.
    #[test]
    fn worker_replays_a_finished_single_process_campaign() {
        let dir = scratch("finished");
        let keys: Vec<TaskKey> = (0..8).map(|i| key(&format!("done {i}"))).collect();
        let c = Campaign::open(CampaignCfg::new(&dir)).unwrap();
        for k in &keys {
            let _: u32 = c.run_leaf(k, || 5, || 0);
        }
        c.finish("run").unwrap();
        drop(c);
        let w =
            Campaign::open(CampaignCfg::new(&dir).shard(ShardSpec { worker: 1, of: 2 })).unwrap();
        for k in &keys {
            let v: u32 = w.run_leaf(k, || panic!("must replay"), || 0);
            assert_eq!(v, 5);
        }
        let s = w.stats();
        assert_eq!((s.computed, s.replays, s.skipped), (0, 8, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A fresh open removes every artifact of an earlier run — a stale
    /// manifest would otherwise mark a killed fresh run as complete —
    /// and keeps unrelated files.
    #[test]
    fn fresh_open_removes_earlier_runs_artifacts_only() {
        let dir = scratch("reset");
        std::fs::create_dir_all(dir.join("leases")).unwrap();
        std::fs::write(dir.join("leases").join("x.lease"), "0").unwrap();
        let stale = [
            "journal-0.jsonl",
            "journal-1.jsonl",
            "manifest.json",
            "manifest.tmp42",
            "stats.json",
        ];
        for f in stale.iter().chain(&["journal.jsonl", "keepme.txt"]) {
            std::fs::write(dir.join(f), "{\"key\":\"a\",\"full\":\"a\",\"value\":1}\n").unwrap();
        }
        let c = Campaign::open(CampaignCfg::new(&dir)).unwrap();
        for f in stale {
            assert!(!dir.join(f).exists(), "{f} survived a fresh open");
        }
        assert!(!dir.join("leases").exists());
        assert!(dir.join("keepme.txt").exists());
        assert_eq!(std::fs::read(dir.join("journal.jsonl")).unwrap(), b"");
        let a: u32 = c.run_leaf(&TaskKey::literal("a"), || 2, || 0);
        assert_eq!(a, 2, "fresh campaign must not replay old results");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The loader over several journals: a torn final line is skipped,
    /// and a key two workers journaled (a lease raced a kill) replays
    /// once.
    #[test]
    fn loader_skips_torn_lines_and_replays_a_twice_journaled_key_once() {
        let dir = scratch("loader");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("journal-0.jsonl"),
            "{\"key\":\"b\",\"full\":\"b\",\"value\":2}\n{\"key\":\"a\",\"full\":\"a\",\"value\":1}\n",
        )
        .unwrap();
        std::fs::write(
            dir.join("journal-1.jsonl"),
            "{\"key\":\"a\",\"full\":\"a\",\"value\":1}\n{\"key\":\"c\",\"fu",
        )
        .unwrap();
        let c = Campaign::open(CampaignCfg::new(&dir).resume(true)).unwrap();
        assert_eq!(c.manifest("run").keys, ["a", "b"]);
        for (k, want) in [("a", 1), ("b", 2)] {
            let v: u32 = c.run_leaf(&TaskKey::literal(k), || panic!("{k} must replay"), || 0);
            assert_eq!(v, want);
        }
        let v: u32 = c.run_leaf(&TaskKey::literal("c"), || 3, || 0);
        assert_eq!(v, 3, "the torn line recomputes");
        let s = c.stats();
        assert_eq!((s.replays, s.computed, s.collisions), (2, 1, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Two journals holding one short key under different full
    /// descriptors: the later journal's line is loaded, and the other
    /// task's lookup is a counted collision and a recompute.
    #[test]
    fn loader_turns_a_cross_journal_conflict_into_a_counted_recompute() {
        let dir = scratch("conflict");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("journal-0.jsonl"),
            "{\"key\":\"k\",\"full\":\"task A\",\"value\":1}\n",
        )
        .unwrap();
        std::fs::write(
            dir.join("journal-1.jsonl"),
            "{\"key\":\"k\",\"full\":\"task B\",\"value\":2}\n",
        )
        .unwrap();
        let c = Campaign::open(CampaignCfg::new(&dir).resume(true)).unwrap();
        assert_eq!(c.manifest("run").tasks, 1);
        let b: u32 = c.run_structural(&TaskKey::with_short("k", "task B"), || panic!("B replays"));
        assert_eq!(b, 2);
        let a: u32 = c.run_structural(&TaskKey::with_short("k", "task A"), || 10);
        assert_eq!(a, 10, "A recomputes");
        assert_eq!(c.stats().collisions, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_spec_parses_and_bounds() {
        assert_eq!(
            ShardSpec::parse("2/8"),
            Some(ShardSpec { worker: 2, of: 8 })
        );
        assert_eq!(ShardSpec::parse("8/8"), None);
        assert_eq!(ShardSpec::parse("0/0"), None);
        assert_eq!(ShardSpec::parse("x/2"), None);
        assert_eq!(ShardSpec::parse("3"), None);
        assert_eq!(ShardSpec { worker: 2, of: 8 }.to_string(), "2/8");
    }

    #[test]
    fn fingerprints_are_stable() {
        assert_eq!(fingerprint("".bytes()), 0xcbf29ce484222325);
        assert_eq!(fingerprint128("".bytes()), FNV128_BASIS);
        assert_ne!(fingerprint128("a".bytes()), fingerprint128("b".bytes()));
    }
}
