//! The budget-degraded lower-bound path, end to end through the real
//! `experiments` binary: `--task-timeout` must turn every LP solve into a
//! closed-form fallback that the table marks, the campaign counts, and
//! the lower-bound cache never stores.
//!
//! A timeout of `1e-12` s passes the CLI's positive-value check and
//! converts to a zero `Duration`, so every LP solve trips at its first
//! budget poll.

use std::path::{Path, PathBuf};
use std::process::Command;
use tf_harness::campaign::read_stats;

/// A fresh working directory, so the run sees an empty `results/cache/`.
fn scratch(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("tf-degraded-it-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create scratch dir");
    d
}

/// Run `e1 --quick` in `cwd` with the cache on, returning the `lb src`
/// cells of its CSV output.
fn e1_lb_sources(cwd: &Path, extra: &[&str]) -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["e1", "--quick", "--format", "csv"])
        .args(extra)
        .current_dir(cwd)
        .output()
        .expect("spawn experiments binary");
    assert!(
        out.status.success(),
        "experiments failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("utf-8 table");
    let mut col = None;
    let mut cells = Vec::new();
    for line in text.lines() {
        let row: Vec<&str> = line.split(',').collect();
        if let Some(i) = row.iter().position(|c| *c == "lb src") {
            col = Some(i);
        } else if let Some(cell) = col.and_then(|i| row.get(i)) {
            cells.push(cell.to_string());
        }
    }
    assert!(!cells.is_empty(), "no `lb src` column in:\n{text}");
    cells
}

/// The `lb-*.json` entries the run left in its cache directory.
fn cache_entries(cwd: &Path) -> usize {
    match std::fs::read_dir(cwd.join("results").join("cache")) {
        Ok(dir) => dir
            .filter_map(Result::ok)
            .filter(|e| {
                let name = e.file_name().to_string_lossy().into_owned();
                name.starts_with("lb-") && name.ends_with(".json")
            })
            .count(),
        Err(_) => 0,
    }
}

#[test]
fn task_timeout_degrades_every_bound_and_caches_none() {
    let cwd = scratch("timeout");
    let campaign = cwd.join("campaign");
    let campaign_arg = campaign.to_str().expect("utf-8 path");
    let cells = e1_lb_sources(
        &cwd,
        &["--campaign", campaign_arg, "--task-timeout", "1e-12"],
    );
    for cell in &cells {
        assert!(cell.ends_with(" (degraded)"), "undegraded cell {cell:?}");
    }
    let stats = read_stats(&campaign).expect("stats.json");
    assert_eq!(stats.degradations, 24);
    assert_eq!(stats.degradations, cells.len() as u64);
    assert_eq!(cache_entries(&cwd), 0, "a degraded bound reached the cache");
    std::fs::remove_dir_all(&cwd).ok();
}

#[test]
fn without_a_timeout_no_bound_degrades_and_the_cache_fills() {
    let cwd = scratch("plain");
    let cells = e1_lb_sources(&cwd, &[]);
    for cell in &cells {
        assert!(!cell.contains("degraded"), "degraded cell {cell:?}");
    }
    assert!(cache_entries(&cwd) > 0, "the plain run cached nothing");
    std::fs::remove_dir_all(&cwd).ok();
}
