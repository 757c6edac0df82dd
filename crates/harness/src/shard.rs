//! Sharded campaign execution: a coordinator that fans one campaign out
//! across N worker **processes**, which share the campaign directory and
//! claim leaf tasks by lease alone.
//!
//! ## Protocol
//!
//! 1. The coordinator prepares the campaign directory — a fresh run
//!    removes earlier runs' artifacts (`campaign::reset_dir`), a
//!    resume keeps the journals — and deletes every lease: no worker is
//!    alive yet, so none is held. It then spawns N workers,
//!    re-invocations of the current binary with `--shard i/N`.
//! 2. Each worker opens the campaign in worker mode
//!    ([`crate::campaign::ShardSpec`]), replaying every journal in the
//!    directory, and makes one pass over the full task graph. It
//!    computes a leaf task that no journal holds if and only if it
//!    creates the task's `O_EXCL` lease, journals it to its own
//!    crash-safe `journal-<i>.jsonl`, and skips a task another worker
//!    holds: a free worker takes the next unclaimed task.
//! 3. The coordinator babysits the workers. A worker that dies (crash,
//!    OOM-kill, SIGKILL) has its **uncommitted** leases deleted — leases
//!    whose key never reached its journal — so the work is re-leasable,
//!    and is respawned up to [`MAX_RESPAWNS`] times. Journaled results
//!    are never recomputed: the respawned worker replays them, and its
//!    pass claims each released key that no other worker reached first.
//! 4. When all workers have exited successfully, the caller runs the
//!    campaign once more *in process* with `--resume` semantics: every
//!    task replays from the workers' journals, what no worker computed
//!    (an unjournaled dirty fuzz chunk, say) is computed, tables render
//!    exactly as a single-process run would have rendered them, and
//!    [`crate::campaign::Campaign::finish`] writes the manifest. Because
//!    the manifest is a function of the sorted task-key set only, it is
//!    **byte-identical** to the single-process run's.
//!
//! The journals themselves are in completion order and split across
//! files — only `manifest.json` is the byte-comparable artifact.
//!
//! The campaign binaries (`experiments`, `audit`) run this protocol
//! through [`run_coordinator`] and [`run_worker`]: a binary hands its own
//! pass to the worker as a closure, and renders its output from the
//! context the coordinator returns.

use std::collections::HashSet;
use std::io::Write;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use crate::campaign::{journal_lines, lease_name, reset_dir, RunStats, ShardSpec};
use crate::cli::CommonCli;
use crate::runctx::RunCtx;

/// Times a dead worker slot is respawned before the run fails.
pub const MAX_RESPAWNS: u32 = 3;

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

/// Write `line` and a newline to `out` in one `write_all`. Stderr is
/// unbuffered and `eprintln!` writes each literal piece and argument on
/// its own, so lines that workers and the coordinator print at the same
/// time would interleave mid-line; one write per line keeps them whole.
fn write_line(out: &mut impl Write, mut line: String) -> std::io::Result<()> {
    line.push('\n');
    out.write_all(line.as_bytes())
}

/// Print `line` on stderr in one write (see [`write_line`]).
fn say(line: String) {
    let _ = write_line(&mut std::io::stderr(), line);
}

/// A worker's summary line, `shard i/N: C computed, R replayed, S skipped`.
fn summary(shard: ShardSpec, s: &RunStats) -> String {
    format!(
        "shard {shard}: {} computed, {} replayed, {} skipped",
        s.computed, s.replays, s.skipped
    )
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

/// The lease file names of the keys committed to one worker's shard
/// journal.
fn committed_leases(path: &Path) -> HashSet<String> {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    journal_lines(&text).map(|l| lease_name(&l.key)).collect()
}

/// Delete every lease held by `worker` whose key is NOT in the worker's
/// journal: the worker died between claiming and committing, so the key
/// must become claimable again. Committed keys keep their leases (the
/// result is safe in the journal; every worker opened later replays it).
fn release_uncommitted_leases(dir: &Path, worker: usize) -> std::io::Result<u64> {
    let committed = committed_leases(&dir.join(format!("journal-{worker}.jsonl")));
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
        if !committed.contains(&*entry.file_name().to_string_lossy()) {
            std::fs::remove_file(entry.path())?;
            released += 1;
        }
    }
    Ok(released)
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

/// Run the workers of a sharded campaign in `dir`: spawn `workers`
/// workers built by `make_worker(i)` (a ready-to-spawn `Command`,
/// typically the current executable with `--shard i/N`) and babysit them
/// with re-lease + respawn on death until all have exited successfully.
/// Returns the number of respawns.
///
/// The caller is responsible for `reset_dir` beforehand (unless
/// resuming) and for running the final in-process replay pass afterwards.
pub fn run_sharded(
    dir: &Path,
    workers: usize,
    make_worker: impl Fn(usize) -> Command,
) -> Result<u32, ShardError> {
    let mut span = tf_obs::span!("shard", "coordinate");
    span.arg("workers", workers as f64);
    clear_leases(dir)?;

    let spawn = |i: usize| -> std::io::Result<Child> {
        let mut cmd = make_worker(i);
        // Workers inherit stderr (their progress lines interleave with
        // the coordinator's) but their stdout—table rendering—is
        // meaningless mid-shard and would interleave corruptly.
        cmd.stdout(Stdio::null());
        cmd.spawn()
    };

    let mut slots: Vec<Slot> = Vec::with_capacity(workers);
    for i in 0..workers {
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
                let journal = dir.join(format!("journal-{i}.jsonl"));
                let has_progress = std::fs::metadata(&journal).is_ok_and(|m| m.len() > 0);
                if has_progress {
                    kill_target = None;
                    let _ = slot.child.kill();
                    say(format!(
                        "shard: killed worker {i} (TF_SHARD_KILL test hook)"
                    ));
                }
            }

            match slot.child.try_wait()? {
                None => {}
                Some(status) if status.success() => slot.done = true,
                Some(status) => {
                    let released = release_uncommitted_leases(dir, i)?;
                    if slot.respawns >= MAX_RESPAWNS {
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
                    say(format!(
                        "shard: worker {i} died ({status}); released {released} uncommitted \
                         lease(s), respawning (attempt {}/{MAX_RESPAWNS})",
                        slot.respawns
                    ));
                    slot.child = spawn(i)?;
                }
            }
        }
        if all_done {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    span.arg("respawns", f64::from(total_respawns));
    Ok(total_respawns)
}

/// Worker mode (`--shard I/N`, spawned by [`run_coordinator`]): make one
/// `pass` over the task graph, computing the leaf tasks whose leases
/// this worker wins, and print the shard's summary line. Nothing is
/// rendered and no manifest is written: the coordinator owns the final
/// pass and the exit status.
///
/// # Panics
/// If `ctx` has no open campaign (`--shard` requires `--campaign`).
pub fn run_worker(ctx: &RunCtx, pass: impl FnOnce(&RunCtx)) {
    let c = ctx
        .campaign_handle()
        .expect("--shard requires --campaign")
        .clone();
    pass(ctx);
    say(summary(c.cfg().shard.expect("worker mode"), &c.stats()));
    let _ = tf_obs::flush();
}

/// Coordinator mode (`--shard-workers N`): respawn the current binary N
/// times with `--shard I/N` ([`run_sharded`]), then reopen the campaign
/// with `--resume` semantics and return that context, so the caller's
/// final in-process pass replays every task from the workers' journals.
/// A directory that cannot be reset exits with status 2, a worker that
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
            say(format!("cannot reset campaign directory: {e}"));
            std::process::exit(2);
        }
    }
    let exe = std::env::current_exe().expect("current_exe");
    let base = worker_args(std::env::args().skip(1));
    let respawns = run_sharded(&dir, workers, |i| {
        let mut cmd = Command::new(&exe);
        cmd.args(&base).arg("--shard").arg(format!("{i}/{workers}"));
        cmd
    })
    .unwrap_or_else(|e| {
        say(format!("sharded run failed: {e}"));
        std::process::exit(1);
    });

    let mut resumed = cli.clone();
    resumed.resume = true;
    let ctx = resumed.applied_run_ctx(trace_stem);
    say(format!("shard: {workers} workers, {respawns} respawns"));
    ctx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{Campaign, CampaignCfg, TaskKey};
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("tf-shard-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// A writer that records what it is given and counts `write` calls,
    /// as an unbuffered stderr turns each into one system call.
    #[derive(Default)]
    struct Calls {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for Calls {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_summary_line_is_one_write() {
        let (shard, s) = (
            ShardSpec { worker: 3, of: 4 },
            RunStats {
                replays: 41,
                ..RunStats::default()
            },
        );
        let mut whole = Calls::default();
        write_line(&mut whole, summary(shard, &s)).unwrap();
        assert_eq!(
            whole.bytes,
            b"shard 3/4: 0 computed, 41 replayed, 0 skipped\n"
        );
        assert_eq!(whole.writes, 1, "one write per line");
        // `eprintln!`'s form, `write_fmt` on an unbuffered writer, writes
        // each piece on its own: another process can land between them.
        let mut pieces = Calls::default();
        writeln!(
            pieces,
            "shard {shard}: {} computed, {} replayed, {} skipped",
            s.computed, s.replays, s.skipped
        )
        .unwrap();
        assert_eq!(pieces.bytes, whole.bytes);
        assert!(pieces.writes > 1, "{} writes", pieces.writes);
    }

    #[test]
    fn uncommitted_leases_are_released_committed_ones_kept() {
        let dir = scratch("release");
        let spec = ShardSpec { worker: 0, of: 1 };
        let c = Campaign::open(CampaignCfg::new(&dir).shard(spec)).unwrap();
        // Committed: computed through the normal path (lease + journal).
        let committed = TaskKey::hashed("test", "committed");
        let _: u32 = c.run_leaf(&committed, || 1, || 0);
        drop(c);
        // Uncommitted: lease exists, journal entry does not (died between).
        let orphan = lease_name("test:0000000000000000");
        std::fs::write(dir.join("leases").join(orphan), "0").unwrap();
        let released = release_uncommitted_leases(&dir, 0).unwrap();
        assert_eq!(released, 1, "only the orphaned lease is released");
        let remaining = std::fs::read_dir(dir.join("leases")).unwrap().count();
        assert_eq!(remaining, 1, "the committed key keeps its lease");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// End-to-end in-process: worker-mode campaigns write journals that
    /// the coordinator's final `--resume` pass replays into the same
    /// manifest as a single-process run (the proptest in
    /// `tests/shard_replay.rs` randomizes this further).
    #[test]
    fn worker_journals_replay_to_the_single_process_manifest() {
        let single = scratch("single");
        let sharded = scratch("sharded");
        let keys: Vec<TaskKey> = (0..12)
            .map(|i| TaskKey::hashed("test", format!("t{i}")))
            .collect();

        let c = Campaign::open(CampaignCfg::new(&single)).unwrap();
        for (i, k) in keys.iter().enumerate() {
            let _: usize = c.run_structural(k, || i * i);
        }
        let m_single = c.finish("run").unwrap();

        let workers: Vec<_> = (0..3)
            .map(|w| {
                Campaign::open(CampaignCfg::new(&sharded).shard(ShardSpec { worker: w, of: 3 }))
                    .unwrap()
            })
            .collect();
        // Interleaved single steps, worker w starting its pass at task
        // 4w, as workers busy with earlier tasks would.
        for step in 0..keys.len() {
            for (w, cw) in workers.iter().enumerate() {
                let i = (step + 4 * w) % keys.len();
                let _: usize = cw.run_leaf(&keys[i], || i * i, || usize::MAX);
            }
        }
        let computed: Vec<u64> = workers.iter().map(|c| c.stats().computed).collect();
        assert_eq!(
            computed,
            [4, 4, 4],
            "each task computed once, by its lease winner"
        );
        drop(workers);

        let fin = Campaign::open(CampaignCfg::new(&sharded).resume(true)).unwrap();
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
