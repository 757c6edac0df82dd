//! Sharded campaign execution: a coordinator that fans one campaign out
//! across N worker **processes** and deterministically merges their
//! journals back into the single-process form.
//!
//! ## Protocol
//!
//! 1. The coordinator prepares the campaign directory (fresh run: stale
//!    journals/leases/manifest removed; resume: kept) and spawns N
//!    workers — re-invocations of the current binary with `--shard i/N`.
//! 2. Each worker opens the campaign in worker mode
//!    ([`crate::campaign::ShardSpec`]): it traverses the full task
//!    graph, computes the leaf tasks it owns
//!    (`fnv64(key) % N == i`), journals them to its own crash-safe
//!    `journal-<i>.jsonl`, and skips the rest. Once its own shard is
//!    drained it enters *steal* passes — claiming any still-unleased key
//!    via `O_EXCL` lease files — and exits when a whole pass computes
//!    nothing (everything journaled or leased elsewhere).
//! 3. The coordinator babysits the workers. A worker that dies (crash,
//!    OOM-kill, SIGKILL) has its **uncommitted** leases deleted — leases
//!    whose key never reached its journal — so the work is re-leasable,
//!    and is respawned up to `max_respawns` times. Journaled results are
//!    never recomputed: the respawned worker replays its own shard
//!    journal on startup.
//! 4. When all workers have exited successfully, [`merge_shards`]
//!    combines `journal-*.jsonl` (plus any pre-existing `journal.jsonl`
//!    from a resumed single-process run) into one `journal.jsonl`,
//!    **sorted by short key** and deduplicated (first occurrence wins;
//!    duplicates can exist when a lease raced — values are
//!    deterministic, so which copy survives is immaterial).
//! 5. The caller then runs the campaign once more *in process* with
//!    `--resume` semantics: every task replays from the merged journal,
//!    tables render exactly as a single-process run would have rendered
//!    them, and [`crate::campaign::Campaign::finish`] writes the
//!    manifest. Because the manifest is a function of the sorted task-key
//!    set only, it is **byte-identical** to the single-process run's.
//!
//! The merged `journal.jsonl` itself is sorted, whereas a single-process
//! journal is in completion order — only `manifest.json` is the
//! byte-comparable artifact.
//!
//! The campaign binaries (`experiments`, `audit`) run this protocol
//! through [`run_coordinator`] and [`run_worker`]: a binary hands its own
//! pass to the worker loop as a closure, and renders its output from the
//! context the coordinator returns.

use std::collections::HashMap;
use std::collections::HashSet;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use crate::cli::CommonCli;
use crate::runctx::RunCtx;

/// Coordinator configuration.
#[derive(Debug, Clone)]
pub struct CoordinatorCfg {
    /// The campaign directory shared by all workers.
    pub dir: PathBuf,
    /// Worker process count (≥ 1).
    pub workers: usize,
    /// Times a dead worker slot is respawned before the run fails.
    pub max_respawns: u32,
}

impl CoordinatorCfg {
    /// Coordinator over `dir` with `workers` workers, 3 respawns.
    pub fn new(dir: impl Into<PathBuf>, workers: usize) -> Self {
        CoordinatorCfg {
            dir: dir.into(),
            workers: workers.max(1),
            max_respawns: 3,
        }
    }
}

/// What the coordinator did, for operator output.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardReport {
    /// Worker processes in the pool.
    pub workers: usize,
    /// Distinct task keys in the merged journal.
    pub merged_tasks: u64,
    /// Journal lines dropped as exact duplicates of an earlier shard's
    /// line (lease races; harmless).
    pub duplicates: u64,
    /// Duplicate short keys whose *full descriptors* differed — a
    /// fingerprint collision across shards. The first occurrence wins;
    /// the final replay pass detects the mismatch and recomputes.
    pub conflicts: u64,
    /// Worker deaths that were re-leased and respawned.
    pub respawns: u32,
}

/// Why a sharded run failed.
#[derive(Debug)]
pub enum ShardError {
    /// Spawning or waiting on a worker failed at the OS level.
    Io(std::io::Error),
    /// A worker kept dying past the respawn budget.
    WorkerFailed {
        /// The worker slot that failed.
        worker: usize,
        /// Its last exit status description.
        status: String,
    },
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Io(e) => write!(f, "shard coordinator I/O error: {e}"),
            ShardError::WorkerFailed { worker, status } => {
                write!(f, "shard worker {worker} failed permanently: {status}")
            }
        }
    }
}

impl std::error::Error for ShardError {}

impl From<std::io::Error> for ShardError {
    fn from(e: std::io::Error) -> Self {
        ShardError::Io(e)
    }
}

/// Remove the artifacts of a previous campaign run from `dir` (shard and
/// merged journals, leases, manifest, stats) so a non-`--resume` sharded
/// run starts from nothing, like `Campaign::open` truncating the journal
/// in the single-process case. Keeps unrelated files.
pub fn reset_dir(dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let stale = name == "journal.jsonl"
            || name == "manifest.json"
            || name == "stats.json"
            || (name.starts_with("journal-") && name.ends_with(".jsonl"))
            || name.starts_with("manifest.tmp");
        if stale {
            std::fs::remove_file(entry.path())?;
        }
    }
    let leases = dir.join("leases");
    if leases.is_dir() {
        std::fs::remove_dir_all(&leases)?;
    }
    Ok(())
}

/// Clear stale leases before a (re)spawn wave. On a fresh run the
/// directory was just reset; on resume, leases from a previous
/// coordinator are all stale (their workers are gone) — committed keys
/// replay from the journals and uncommitted ones must be re-leasable.
fn clear_leases(dir: &Path) -> std::io::Result<()> {
    let leases = dir.join("leases");
    if leases.is_dir() {
        std::fs::remove_dir_all(&leases)?;
    }
    std::fs::create_dir_all(&leases)
}

/// The short keys committed to one worker's shard journal.
fn committed_keys(path: &Path) -> HashSet<String> {
    let mut keys = HashSet::new();
    if let Ok(text) = std::fs::read_to_string(path) {
        for line in text.lines() {
            if let Ok(v) = serde_json::from_str::<serde_json::Value>(line) {
                if let Some(k) = v.as_map().and_then(|m| serde::map_get(m, "key")) {
                    if let Some(k) = k.as_str() {
                        keys.insert(k.to_string());
                    }
                }
            }
        }
    }
    keys
}

/// Delete every lease held by `worker` whose key is NOT in the worker's
/// journal: the worker died between claiming and committing, so the key
/// must become claimable again. Committed keys keep their leases (the
/// result is safe in the journal; the respawned worker replays it).
fn release_uncommitted_leases(dir: &Path, worker: usize) -> std::io::Result<u64> {
    let committed = committed_keys(&dir.join(format!("journal-{worker}.jsonl")));
    let leases = dir.join("leases");
    let mut released = 0;
    if !leases.is_dir() {
        return Ok(0);
    }
    let wid = worker.to_string();
    for entry in std::fs::read_dir(&leases)? {
        let entry = entry?;
        let Ok(owner) = std::fs::read_to_string(entry.path()) else {
            continue;
        };
        if owner.trim() != wid {
            continue;
        }
        // Lease filenames are sanitized key names; recover the key by
        // comparing against the committed set's sanitized forms.
        let fname = entry.file_name();
        let fname = fname.to_string_lossy();
        let stem = fname.strip_suffix(".lease").unwrap_or(&fname);
        let is_committed = committed.iter().any(|k| sanitize(k) == stem);
        if !is_committed {
            std::fs::remove_file(entry.path())?;
            released += 1;
        }
    }
    Ok(released)
}

/// Mirror of the lease-filename sanitizer in `campaign.rs`.
fn sanitize(key: &str) -> String {
    key.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Merge all shard journals in `dir` (and any pre-existing merged
/// `journal.jsonl`) into one `journal.jsonl`: lines sorted by short key,
/// first occurrence of each key wins. Written atomically (temp + rename)
/// so a crash mid-merge leaves the shard journals intact for a re-run.
pub fn merge_shards(dir: &Path) -> std::io::Result<ShardReport> {
    let mut sources: Vec<PathBuf> = Vec::new();
    let merged_path = dir.join("journal.jsonl");
    if merged_path.exists() {
        sources.push(merged_path.clone());
    }
    let mut shard_files: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("journal-") && n.ends_with(".jsonl"))
        })
        .collect();
    shard_files.sort();
    sources.extend(shard_files);

    // key -> (full descriptor, raw line). First occurrence wins; the
    // iteration order over sources is deterministic (merged journal
    // first, then shards sorted by worker index).
    let mut lines: HashMap<String, (String, String)> = HashMap::new();
    let mut report = ShardReport::default();
    for src in &sources {
        let text = std::fs::read_to_string(src)?;
        for line in text.lines() {
            let Ok(v) = serde_json::from_str::<serde_json::Value>(line) else {
                continue; // torn tail of a killed worker's journal
            };
            let Some(m) = v.as_map() else { continue };
            let (Some(key), Some(full)) = (
                serde::map_get(m, "key").and_then(|k| k.as_str()),
                serde::map_get(m, "full").and_then(|k| k.as_str()),
            ) else {
                continue;
            };
            match lines.get(key) {
                None => {
                    lines.insert(key.to_string(), (full.to_string(), line.to_string()));
                }
                Some((first_full, _)) if first_full == full => report.duplicates += 1,
                Some(_) => report.conflicts += 1,
            }
        }
    }
    let mut keys: Vec<&String> = lines.keys().collect();
    keys.sort();
    report.merged_tasks = keys.len() as u64;

    let tmp = dir.join(format!("journal.merge{}", std::process::id()));
    {
        let mut f = std::fs::File::create(&tmp)?;
        for k in &keys {
            f.write_all(lines[*k].1.as_bytes())?;
            f.write_all(b"\n")?;
        }
        f.sync_all()?;
    }
    std::fs::rename(&tmp, &merged_path)?;
    std::fs::File::open(dir)?.sync_all()?;
    Ok(report)
}

/// Filter a binary's own argv (everything after the program name) down
/// to what its shard workers should be re-invoked with: strips the
/// coordinator-only `--shard-workers N` (the caller appends `--shard
/// i/N` instead) and `--resume` (worker mode always resumes).
pub fn worker_args(args: impl Iterator<Item = String>) -> Vec<String> {
    let mut out = Vec::new();
    let mut args = args;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--shard-workers" => {
                let _ = args.next();
            }
            "--resume" => {}
            _ => out.push(a),
        }
    }
    out
}

/// One worker slot the coordinator babysits.
struct Slot {
    child: Child,
    respawns: u32,
    done: bool,
}

/// Run a sharded campaign: spawn `cfg.workers` workers built by
/// `make_worker(i)` (a ready-to-spawn `Command`, typically the current
/// executable with `--shard i/N`), babysit them with re-lease + respawn
/// on death, and merge the shard journals on success.
///
/// The caller is responsible for [`reset_dir`] beforehand (unless
/// resuming) and for running the final in-process replay pass afterwards.
pub fn run_sharded(
    cfg: &CoordinatorCfg,
    make_worker: impl Fn(usize) -> Command,
) -> Result<ShardReport, ShardError> {
    let mut span = tf_obs::span!("shard", "coordinate");
    span.arg("workers", cfg.workers as f64);
    clear_leases(&cfg.dir)?;

    let spawn = |i: usize| -> std::io::Result<Child> {
        let mut cmd = make_worker(i);
        // Workers inherit stderr (their progress lines interleave with
        // the coordinator's) but their stdout—table rendering—is
        // meaningless mid-shard and would interleave corruptly.
        cmd.stdout(Stdio::null());
        cmd.spawn()
    };

    let mut slots: Vec<Slot> = Vec::with_capacity(cfg.workers);
    for i in 0..cfg.workers {
        slots.push(Slot {
            child: spawn(i)?,
            respawns: 0,
            done: false,
        });
    }

    // Test hook: TF_SHARD_KILL=<i> SIGKILLs worker i once its shard
    // journal is non-empty, exactly once — the worker-kill integration
    // test drives the re-lease + respawn path with it.
    let mut kill_target: Option<usize> = std::env::var("TF_SHARD_KILL")
        .ok()
        .and_then(|v| v.parse().ok());

    let mut total_respawns = 0u32;
    loop {
        let mut all_done = true;
        for (i, slot) in slots.iter_mut().enumerate() {
            if slot.done {
                continue;
            }
            all_done = false;

            if kill_target == Some(i) {
                let journal = cfg.dir.join(format!("journal-{i}.jsonl"));
                let has_progress = std::fs::metadata(&journal).is_ok_and(|m| m.len() > 0);
                if has_progress {
                    kill_target = None;
                    let _ = slot.child.kill();
                    eprintln!("shard: killed worker {i} (TF_SHARD_KILL test hook)");
                }
            }

            match slot.child.try_wait()? {
                None => {}
                Some(status) if status.success() => slot.done = true,
                Some(status) => {
                    let released = release_uncommitted_leases(&cfg.dir, i)?;
                    if slot.respawns >= cfg.max_respawns {
                        // Stop the rest of the pool before failing.
                        for other in slots.iter_mut() {
                            let _ = other.child.kill();
                        }
                        return Err(ShardError::WorkerFailed {
                            worker: i,
                            status: status.to_string(),
                        });
                    }
                    slot.respawns += 1;
                    total_respawns += 1;
                    tf_obs::instant!("shard", "respawn");
                    eprintln!(
                        "shard: worker {i} died ({status}); released {released} uncommitted \
                         lease(s), respawning (attempt {}/{})",
                        slot.respawns, cfg.max_respawns
                    );
                    slot.child = spawn(i)?;
                }
            }
        }
        if all_done {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    let mut report = merge_shards(&cfg.dir)?;
    report.workers = cfg.workers;
    report.respawns = total_respawns;
    span.arg("merged_tasks", report.merged_tasks as f64);
    span.arg("respawns", f64::from(report.respawns));
    Ok(report)
}

/// Worker mode (`--shard I/N`, spawned by [`run_coordinator`]): run
/// `pass` over this worker's own shard, then keep running steal passes
/// until one computes nothing new, and print the shard's summary line.
/// Nothing is rendered and no manifest is written: the coordinator owns
/// the merge, the final pass and the exit status.
///
/// # Panics
/// If `ctx` has no open campaign (`--shard` requires `--campaign`).
pub fn run_worker(ctx: &RunCtx, mut pass: impl FnMut(&RunCtx)) {
    let c = ctx
        .campaign_handle()
        .expect("--shard requires --campaign")
        .clone();
    pass(ctx);
    let _ = c.take_pass_progress();
    c.begin_steal_pass();
    loop {
        pass(ctx);
        if c.take_pass_progress() == 0 {
            break;
        }
    }
    let s = c.stats();
    let shard = c.cfg().shard.expect("worker mode");
    eprintln!(
        "shard {shard}: {} computed, {} replayed, {} stolen, {} skipped",
        s.computed, s.replays, s.stolen, s.skipped
    );
    let _ = tf_obs::flush();
}

/// Coordinator mode (`--shard-workers N`): respawn the current binary N
/// times with `--shard I/N` ([`run_sharded`]), then reopen the campaign
/// with `--resume` semantics and return that context, so the caller's
/// final in-process pass replays every task from the merged journal. A
/// directory that cannot be reset exits with status 2, a worker that
/// keeps dying with status 1.
///
/// # Panics
/// If `cli` has no campaign directory (the CLI parser rejects
/// `--shard-workers` without `--campaign`).
pub fn run_coordinator(cli: &CommonCli, workers: usize, trace_stem: &str) -> RunCtx {
    let dir = cli
        .campaign_dir
        .clone()
        .expect("validated: --shard-workers requires --campaign");
    if !cli.resume {
        if let Err(e) = reset_dir(&dir) {
            eprintln!("cannot reset campaign directory: {e}");
            std::process::exit(2);
        }
    }
    let exe = std::env::current_exe().expect("current_exe");
    let base = worker_args(std::env::args().skip(1));
    let report = run_sharded(&CoordinatorCfg::new(&dir, workers), |i| {
        let mut cmd = Command::new(&exe);
        cmd.args(&base).arg("--shard").arg(format!("{i}/{workers}"));
        cmd
    })
    .unwrap_or_else(|e| {
        eprintln!("sharded run failed: {e}");
        std::process::exit(1);
    });

    let mut resumed = cli.clone();
    resumed.resume = true;
    let ctx = resumed.applied_run_ctx(trace_stem);
    eprintln!(
        "shard: {} workers, {} merged tasks, {} duplicates, {} conflicts, {} respawns",
        report.workers, report.merged_tasks, report.duplicates, report.conflicts, report.respawns
    );
    ctx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{Campaign, CampaignCfg, ShardSpec, TaskKey};

    fn scratch(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("tf-shard-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn merge_sorts_and_dedups() {
        let dir = scratch("merge");
        std::fs::write(
            dir.join("journal-0.jsonl"),
            "{\"key\":\"b\",\"full\":\"b\",\"value\":2}\n{\"key\":\"a\",\"full\":\"a\",\"value\":1}\n",
        )
        .unwrap();
        std::fs::write(
            dir.join("journal-1.jsonl"),
            // duplicate of "a" (lease race) + torn final line
            "{\"key\":\"a\",\"full\":\"a\",\"value\":1}\n{\"key\":\"c\",\"fu",
        )
        .unwrap();
        let report = merge_shards(&dir).unwrap();
        assert_eq!(report.merged_tasks, 2);
        assert_eq!(report.duplicates, 1);
        assert_eq!(report.conflicts, 0);
        let merged = std::fs::read_to_string(dir.join("journal.jsonl")).unwrap();
        let keys: Vec<String> = merged
            .lines()
            .map(|l| {
                let v: serde_json::Value = serde_json::from_str(l).unwrap();
                v.as_map()
                    .and_then(|m| serde::map_get(m, "key"))
                    .and_then(|k| k.as_str())
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(keys, ["a", "b"], "sorted by short key");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merge_counts_full_descriptor_conflicts() {
        let dir = scratch("conflict");
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
        let report = merge_shards(&dir).unwrap();
        assert_eq!(report.merged_tasks, 1);
        assert_eq!(report.conflicts, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reset_dir_removes_campaign_artifacts_only() {
        let dir = scratch("reset");
        for f in [
            "journal.jsonl",
            "journal-0.jsonl",
            "manifest.json",
            "stats.json",
            "keepme.txt",
        ] {
            std::fs::write(dir.join(f), "x").unwrap();
        }
        std::fs::create_dir_all(dir.join("leases")).unwrap();
        reset_dir(&dir).unwrap();
        assert!(dir.join("keepme.txt").exists());
        assert!(!dir.join("journal.jsonl").exists());
        assert!(!dir.join("journal-0.jsonl").exists());
        assert!(!dir.join("manifest.json").exists());
        assert!(!dir.join("stats.json").exists());
        assert!(!dir.join("leases").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn uncommitted_leases_are_released_committed_ones_kept() {
        let dir = scratch("release");
        let spec = ShardSpec { worker: 0, of: 1 };
        let c = Campaign::open(CampaignCfg::new(&dir).shard(spec).no_dirsync(true)).unwrap();
        // Committed: computed through the normal path (lease + journal).
        let committed = TaskKey::hashed("test", "committed");
        let _: u32 = c.run_leaf(&committed, || 1, || 0);
        drop(c);
        // Uncommitted: lease exists, journal entry does not (died between).
        let orphan = sanitize("test:0000000000000000");
        std::fs::write(dir.join("leases").join(format!("{orphan}.lease")), "0").unwrap();
        let released = release_uncommitted_leases(&dir, 0).unwrap();
        assert_eq!(released, 1, "only the orphaned lease is released");
        let remaining = std::fs::read_dir(dir.join("leases")).unwrap().count();
        assert_eq!(remaining, 1, "the committed key keeps its lease");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// End-to-end in-process: worker-mode campaigns over a random-ish
    /// partition produce shard journals that merge + replay into the
    /// same manifest as a single-process run (the proptest in
    /// `tests/shard_merge.rs` randomizes this further).
    #[test]
    fn shard_merge_replay_matches_single_process_manifest() {
        let single = scratch("single");
        let sharded = scratch("sharded");
        let keys: Vec<TaskKey> = (0..12)
            .map(|i| TaskKey::hashed("test", format!("t{i}")))
            .collect();

        let c = Campaign::open(CampaignCfg::new(&single).no_dirsync(true)).unwrap();
        for (i, k) in keys.iter().enumerate() {
            let _: usize = c.run_structural(k, || i * i);
        }
        let m_single = c.finish("run").unwrap();

        for w in 0..3 {
            let cw = Campaign::open(
                CampaignCfg::new(&sharded)
                    .shard(ShardSpec { worker: w, of: 3 })
                    .no_dirsync(true),
            )
            .unwrap();
            for (i, k) in keys.iter().enumerate() {
                let _: usize = cw.run_leaf(k, || i * i, || usize::MAX);
            }
        }
        merge_shards(&sharded).unwrap();
        let fin = Campaign::open(CampaignCfg::new(&sharded).resume(true).no_dirsync(true)).unwrap();
        for (i, k) in keys.iter().enumerate() {
            let v: usize = fin.run_structural(k, || panic!("must replay"));
            assert_eq!(v, i * i);
        }
        let m_sharded = fin.finish("run").unwrap();
        assert_eq!(m_single, m_sharded);
        assert_eq!(
            std::fs::read(single.join("manifest.json")).unwrap(),
            std::fs::read(sharded.join("manifest.json")).unwrap(),
            "manifests must be byte-identical"
        );
        std::fs::remove_dir_all(&single).ok();
        std::fs::remove_dir_all(&sharded).ok();
    }
}
