//! Reference outputs: `reference/outputs.tsv` holds, per (workload, seed,
//! scale), the outputs a correct run reproduces. `--record-reference`
//! rewrites a run's rows; every other run is checked against its rows
//! when the file has them.

use std::path::Path;

use crate::Output;

const HEADER: &str = "# workload\tseed\tscale\tkey\tvalue";

/// One stored output.
#[derive(Debug, Clone, PartialEq)]
struct Row {
    workload: String,
    seed: u64,
    scale: String,
    key: String,
    value: f64,
}

fn load(path: &Path) -> Result<Vec<Row>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
    };
    let mut rows = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let bad = || format!("{}:{}: malformed reference row", path.display(), i + 1);
        let f: Vec<&str> = line.split('\t').collect();
        let [workload, seed, scale, key, value] = f[..] else {
            return Err(bad());
        };
        rows.push(Row {
            workload: workload.to_string(),
            seed: seed.parse().map_err(|_| bad())?,
            scale: scale.to_string(),
            key: key.to_string(),
            value: value.parse().map_err(|_| bad())?,
        });
    }
    Ok(rows)
}

fn group(r: &Row, workload: &str, seed: u64, scale: &str) -> bool {
    r.workload == workload && r.seed == seed && r.scale == scale
}

/// Check `outputs` against the stored rows. `Ok(None)` when the file has
/// no rows for this run, else the list of mismatches.
pub fn check(
    path: &Path,
    workload: &str,
    seed: u64,
    scale: f64,
    outputs: &[Output],
) -> Result<Option<Vec<String>>, String> {
    let scale = scale.to_string();
    let rows: Vec<Row> = load(path)?
        .into_iter()
        .filter(|r| group(r, workload, seed, &scale))
        .collect();
    if rows.is_empty() {
        return Ok(None);
    }
    let mut problems = Vec::new();
    for o in outputs {
        match rows.iter().find(|r| r.key == o.key) {
            None => problems.push(format!("no reference value for {}", o.key)),
            Some(r) if !o.matches(r.value) => problems.push(format!(
                "{} = {} but the reference is {}",
                o.key, o.value, r.value
            )),
            Some(_) => {}
        }
    }
    for r in &rows {
        if !outputs.iter().any(|o| o.key == r.key) {
            problems.push(format!("run produced no {}", r.key));
        }
    }
    Ok(Some(problems))
}

/// Replace this run's rows with `outputs`, keeping every other row.
pub fn record(
    path: &Path,
    workload: &str,
    seed: u64,
    scale: f64,
    outputs: &[Output],
) -> Result<(), String> {
    let scale = scale.to_string();
    let mut rows: Vec<Row> = load(path)?
        .into_iter()
        .filter(|r| !group(r, workload, seed, &scale))
        .collect();
    rows.extend(outputs.iter().map(|o| Row {
        workload: workload.to_string(),
        seed,
        scale: scale.clone(),
        key: o.key.clone(),
        value: o.value,
    }));
    // Stable: keys keep the order the run produced them in.
    rows.sort_by(|a, b| (&a.workload, a.seed, &a.scale).cmp(&(&b.workload, b.seed, &b.scale)));
    let mut text = format!("{HEADER}\n");
    for r in &rows {
        text.push_str(&format!(
            "{}\t{}\t{}\t{}\t{:?}\n",
            r.workload, r.seed, r.scale, r.key, r.value
        ));
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}
