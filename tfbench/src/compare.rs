//! `tfbench compare A B`: two directories of run results (each file the
//! standard output of one untraced run, named `<workload>.<anything>`),
//! one row per workload and end-to-end metric, with a verdict on B
//! against A.

use std::collections::BTreeMap;
use std::path::Path;

use serde::Value;

use crate::catalogue::{Better, Metric, END_TO_END, WORKLOADS};

/// Metric values of every run in a directory, by (workload, metric).
type Runs = BTreeMap<(String, String), Vec<f64>>;

fn load(dir: &Path) -> Result<Runs, String> {
    let mut runs = Runs::new();
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        let workload = name.split('.').next().unwrap_or_default();
        if WORKLOADS.iter().all(|w| w.name != workload) {
            continue;
        }
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let last = text
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .unwrap_or_default();
        let v: Value = serde_json::from_str(last)
            .map_err(|e| format!("{}: no result line ({e})", path.display()))?;
        let metrics = v
            .get("metrics")
            .and_then(Value::as_map)
            .ok_or_else(|| format!("{}: result has no metrics", path.display()))?;
        for (metric, m) in metrics {
            if let Some(x) = m
                .get("value")
                .and_then(|x| serde::Deserialize::from_value(x).ok())
            {
                runs.entry((workload.to_string(), metric.clone()))
                    .or_default()
                    .push(x);
            }
        }
    }
    Ok(runs)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the default "exclusive" method).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let ld = d.len();
    if ld < 2 {
        return [d.first().copied().unwrap_or(f64::NAN); 3];
    }
    let m = ld + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    })
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worse_by(metric: &Metric, a: f64, b: f64) -> f64 {
    match metric.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// The verdict on B against A for one metric. `setup_s` is judged on its
/// medians alone: a set-up of a fraction of a second spreads wider than
/// any bound on a shared machine, and what its bound guards against is
/// work moved into set-up, which shows in the median.
pub fn verdict(metric: &Metric, a: &[f64], b: &[f64]) -> &'static str {
    let (qa, qb) = (quartiles(a), quartiles(b));
    let spread = if metric.name == "setup_s" {
        0.0
    } else {
        ((qa[2] - qa[0]) / qa[1]).max((qb[2] - qb[0]) / qb[1])
    };
    let change = worse_by(metric, qa[1], qb[1]);
    let beats = |x: &[f64], y: &[f64]| {
        x.iter()
            .all(|&u| y.iter().all(|&v| worse_by(metric, v, u) < 0.0))
    };
    if beats(b, a) {
        "better"
    } else if beats(a, b) {
        if change > metric.bound {
            "worse"
        } else {
            "within bound"
        }
    } else if spread > metric.bound {
        "unresolved"
    } else if change > metric.bound {
        "worse"
    } else if -change > metric.bound {
        "better"
    } else {
        "within bound"
    }
}

/// The comparison table, and whether no metric came out worse or
/// unresolved.
pub fn compare(a: &Path, b: &Path) -> Result<(String, bool), String> {
    let (ra, rb) = (load(a)?, load(b)?);
    let mut clean = true;
    let mut text = format!(
        "{:<17} {:<17} {:>5} {:>34} {:>34} {:>8}  verdict\n",
        "workload", "metric", "runs", "A median [q1, q3]", "B median [q1, q3]", "change"
    );
    let cell = |q: [f64; 3]| format!("{:.6} [{:.6}, {:.6}]", q[1], q[0], q[2]);
    for w in WORKLOADS {
        for metric in END_TO_END {
            let key = (w.name.to_string(), metric.name.to_string());
            let (Some(va), Some(vb)) = (ra.get(&key), rb.get(&key)) else {
                continue;
            };
            let (qa, qb) = (quartiles(va), quartiles(vb));
            let v = verdict(metric, va, vb);
            clean &= v != "worse" && v != "unresolved";
            text.push_str(&format!(
                "{:<17} {:<17} {:>2}/{:<2} {:>34} {:>34} {:>+7.2}%  {v}\n",
                w.name,
                metric.name,
                va.len(),
                vb.len(),
                cell(qa),
                cell(qb),
                100.0 * (qb[1] - qa[1]) / qa[1]
            ));
        }
    }
    Ok((text, clean))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalogue::end_to_end;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn verdicts() {
        let tput = end_to_end("throughput_per_s").expect("catalogue metric");
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(verdict(tput, &a, &a), "within bound");
        assert_eq!(verdict(tput, &a, &a.map(|x| x * 2.0)), "better");
        assert_eq!(verdict(tput, &a, &a.map(|x| x / 2.0)), "worse");
        let wide = [50.0, 150.0, 60.0, 140.0, 100.0];
        assert_eq!(verdict(tput, &a, &wide), "unresolved");
        let setup = end_to_end("setup_s").expect("catalogue metric");
        assert_eq!(verdict(setup, &a, &wide), "within bound");
    }
}
