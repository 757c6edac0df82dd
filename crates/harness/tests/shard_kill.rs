//! Sharded execution, end to end against the real `experiments` binary:
//! a 4-way sharded campaign — with one worker SIGKILLed mid-run via the
//! coordinator's `TF_SHARD_KILL` test hook — must produce a manifest
//! byte-identical to a single-process campaign and the same tables
//! (modulo the one intentional wall-clock cell, masked the same way as
//! `tests/campaign_resume.rs`); and a finished campaign, sharded or not,
//! resumed sharded must recompute nothing.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const IDS: [&str; 2] = ["e1", "e2"];

fn scratch(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("tf-shardkill-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn experiments(dir: &Path) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_experiments"));
    cmd.args(IDS)
        .args(["--quick", "--no-cache", "--format", "csv", "--campaign"])
        .arg(dir);
    cmd
}

fn run(cmd: &mut Command) -> Output {
    let out = cmd.output().expect("spawn experiments binary");
    assert!(
        out.status.success(),
        "experiments failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// Mask every "alloc ms" cell in the CSV table stream (same masking as
/// `tests/campaign_resume.rs` / `tests/determinism.rs`).
fn masked_csv(stdout: &[u8]) -> String {
    let text = String::from_utf8_lossy(stdout);
    let mut alloc_col: Option<usize> = None;
    let mut out = String::new();
    for line in text.lines() {
        let cells: Vec<&str> = line.split(',').collect();
        if let Some(i) = cells.iter().position(|c| *c == "alloc ms") {
            alloc_col = Some(i);
            out.push_str(line);
        } else if let Some(i) = alloc_col.filter(|&i| i < cells.len()) {
            let masked: Vec<&str> = cells
                .iter()
                .enumerate()
                .map(|(j, c)| if j == i { "<t>" } else { *c })
                .collect();
            out.push_str(&masked.join(","));
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

#[test]
fn four_way_shard_with_killed_worker_matches_single_process() {
    let single = scratch("single");
    let control = run(&mut experiments(&single));

    let sharded = scratch("sharded");
    let killed = run(experiments(&sharded)
        .args(["--shard-workers", "4"])
        .env("TF_SHARD_KILL", "1"));

    let stderr = String::from_utf8_lossy(&killed.stderr);
    assert!(
        stderr.contains("killed worker 1"),
        "the kill hook must have fired: {stderr}"
    );
    assert!(
        stderr.contains("shard: 4 workers, "),
        "the coordinator must print its summary: {stderr}"
    );

    let manifest_a = std::fs::read(single.join("manifest.json")).expect("single manifest");
    let manifest_b = std::fs::read(sharded.join("manifest.json")).expect("sharded manifest");
    assert_eq!(
        String::from_utf8_lossy(&manifest_a),
        String::from_utf8_lossy(&manifest_b),
        "sharded manifest must be byte-identical to single-process"
    );

    assert_eq!(
        masked_csv(&control.stdout),
        masked_csv(&killed.stdout),
        "sharded tables diverged from single-process"
    );

    std::fs::remove_dir_all(&single).ok();
    std::fs::remove_dir_all(&sharded).ok();
}

/// Line count of every non-empty `journal*.jsonl` in `dir` (a worker
/// that journals nothing leaves an empty file).
fn journal_lines(dir: &Path) -> BTreeMap<String, usize> {
    std::fs::read_dir(dir)
        .expect("campaign dir")
        .map(|e| e.expect("dir entry").path())
        .filter_map(|p| {
            let name = p.file_name()?.to_str()?.to_string();
            let lines = std::fs::read_to_string(&p).ok()?.lines().count();
            (name.starts_with("journal") && name.ends_with(".jsonl") && lines > 0)
                .then_some((name, lines))
        })
        .collect()
}

/// A finished campaign — 2-way sharded, or single-process — rerun with
/// `--resume --shard-workers 2` replays everything: no journal gains a
/// line and the manifest is byte-unchanged.
#[test]
fn resumed_finished_campaign_recomputes_nothing() {
    let first_runs: [(&str, &[&str]); 2] = [
        ("resume-sharded", &["--shard-workers", "2"]),
        ("resume-single", &[]),
    ];
    for (name, first) in first_runs {
        let dir = scratch(name);
        let e2 = |extra: &[&str]| {
            let mut cmd = Command::new(env!("CARGO_BIN_EXE_experiments"));
            cmd.args([
                "e2",
                "--quick",
                "--no-cache",
                "--threads",
                "1",
                "--campaign",
            ])
            .arg(&dir)
            .args(extra);
            run(&mut cmd)
        };
        e2(first);
        let lines = journal_lines(&dir);
        let manifest = std::fs::read(dir.join("manifest.json")).expect("manifest");
        assert!(lines.values().sum::<usize>() > 0, "{name}: {lines:?}");

        e2(&["--resume", "--shard-workers", "2"]);
        assert_eq!(
            journal_lines(&dir),
            lines,
            "{name}: the resume journaled new lines"
        );
        assert_eq!(
            std::fs::read(dir.join("manifest.json")).expect("manifest"),
            manifest,
            "{name}: the resume changed the manifest"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
