//! The committed benchmark records, `BENCH_<n>.json` at the repository
//! root: one writer and one reader, so how a record is serialized, where
//! it lives and who may write it is decided here.
//!
//! | Record | Written by |
//! |--------|------------|
//! | `BENCH_1`, `BENCH_2` | nobody: frozen baselines the `perf` bench reads |
//! | `BENCH_3` | `cargo bench -p tf-bench --bench perf` |
//! | `BENCH_4` | `experiments stream` |
//! | `BENCH_5` | `cargo bench -p tf-bench --bench solver_scale` |
//! | `BENCH_6` | `experiments e22` |
//!
//! The two experiments write through [`RunCtx::write_record`], which
//! writes only for a context a binary has applied, so
//! [`crate::run_experiment`], the bench targets and the tests leave the
//! committed records alone.
//!
//! [`RunCtx::write_record`]: crate::RunCtx::write_record

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

fn path(n: u32) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../BENCH_{n}.json"))
}

/// Pretty-print `record` to `BENCH_<n>.json` at the repository root and
/// return the path written.
///
/// # Errors
/// The file could not be written.
pub fn write<T: Serialize>(n: u32, record: &T) -> io::Result<PathBuf> {
    let path = path(n);
    let json = serde_json::to_string_pretty(record).map_err(io::Error::other)?;
    std::fs::write(&path, json + "\n")?;
    Ok(path)
}

/// One timed benchmark, as a record's `benches` list holds it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchRow {
    /// Benchmark group, e.g. `perf/lower_bound`.
    pub group: String,
    /// Benchmark within the group, e.g. `lk_k2_m2/160`.
    pub bench: String,
    /// Mean of the per-sample nanoseconds per iteration.
    pub mean_ns: f64,
    /// Median of the per-sample nanoseconds per iteration.
    pub median_ns: f64,
    /// Fastest sample's nanoseconds per iteration.
    pub min_ns: f64,
    /// Iterations measured.
    pub iters: u64,
}

/// The `benches` rows of the committed `BENCH_<n>.json`; empty when the
/// file is missing or holds no such list, so every ratio against it is
/// left out.
pub fn committed_benches(n: u32) -> Vec<BenchRow> {
    #[derive(Deserialize)]
    struct Benches {
        benches: Vec<BenchRow>,
    }
    std::fs::read_to_string(path(n))
        .ok()
        .and_then(|json| serde_json::from_str::<Benches>(&json).ok())
        .map_or_else(Vec::new, |r| r.benches)
}

/// Named ratios, one JSON object in key order. (An alias, because the
/// vendored serde derive cannot parse a field type with a comma in it.)
pub type Ratios = BTreeMap<String, f64>;

/// `old / new` of `stat`, so 2.0 reads "twice as fast", for every row
/// of `old` whose name (`group/bench`) is `old_prefix` + key and whose
/// key also names a row of `new` under `new_prefix`.
pub fn speedups(
    stat: fn(&BenchRow) -> f64,
    (old, old_prefix): (&[BenchRow], &str),
    (new, new_prefix): (&[BenchRow], &str),
) -> Ratios {
    let name = |r: &BenchRow| format!("{}/{}", r.group, r.bench);
    let ratio = |o: &BenchRow| {
        let key = name(o).strip_prefix(old_prefix)?.to_string();
        let n = new
            .iter()
            .find(|r| name(r) == format!("{new_prefix}{key}"))?;
        Some((key, stat(o) / stat(n)))
    };
    old.iter().filter_map(ratio).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The line scan the benches used before this module: `median_ns` of
    /// the first line naming both `group` and `bench`.
    fn line_scan_median(record: &str, group: &str, bench: &str) -> Option<f64> {
        let group_tag = format!("\"group\": {group:?}");
        let bench_tag = format!("\"bench\": {bench:?}");
        let line = record
            .lines()
            .find(|l| l.contains(&group_tag) && l.contains(&bench_tag))?;
        let rest = line.split("\"median_ns\": ").nth(1)?;
        let num: String = rest
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.')
            .collect();
        num.parse().ok()
    }

    /// Each committed record read here was written one row per line, so
    /// the old scan reads every row and must agree with the reader.
    #[test]
    fn reader_returns_the_medians_the_line_scan_returned() {
        for n in 1..=3 {
            let text = std::fs::read_to_string(path(n)).unwrap();
            let rows = committed_benches(n);
            assert!(rows.len() >= 10, "BENCH_{n}: {} rows", rows.len());
            for r in &rows {
                assert_eq!(
                    line_scan_median(&text, &r.group, &r.bench),
                    Some(r.median_ns),
                    "BENCH_{n} {}/{}",
                    r.group,
                    r.bench
                );
            }
        }
        let bench3 = committed_benches(3);
        let lb = |r: &&BenchRow| r.group == "perf/lower_bound" && r.bench == "lk_k2_m2/160";
        assert_eq!(bench3.iter().find(lb).unwrap().median_ns, 42_612_526.0);
        assert!(committed_benches(99).is_empty());
    }

    #[test]
    fn speedups_divide_old_by_new_over_the_rows_both_sides_hold() {
        let row = |group: &str, bench: &str, median_ns: f64| BenchRow {
            group: group.into(),
            bench: bench.into(),
            mean_ns: 2.0 * median_ns,
            median_ns,
            min_ns: median_ns,
            iters: 1,
        };
        let old = [
            row("g/old", "b/1", 30.0),
            row("g/old", "b/2", 8.0),
            row("g/old_too", "b/1", 5.0),
        ];
        let new = [row("g/new", "b/1", 10.0), row("g/new", "b/3", 1.0)];
        let got = speedups(|r| r.mean_ns, (&old, "g/old/"), (&new, "g/new/"));
        assert_eq!(got, Ratios::from([("b/1".to_string(), 3.0)]));
        let all = speedups(|r| r.median_ns, (&old, ""), (&old[1..], ""));
        let keys: Vec<&String> = all.keys().collect();
        assert_eq!(keys, ["g/old/b/2", "g/old_too/b/1"]);
    }
}
