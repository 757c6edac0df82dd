//! The printed result: every catalogue metric of the run's mode by name
//! with its unit, then one JSON line (written by hand) as the last line
//! of standard output.

use crate::catalogue::{END_TO_END, PER_LAYER};
use crate::Outcome;

/// The (name, unit) list a run of this mode prints.
fn names(traced: bool) -> Vec<(&'static str, &'static str)> {
    if traced {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    }
}

/// Resolve every metric of the mode and render the human-readable block
/// and the JSON line. A per-layer metric the workload never set is a
/// layer it does not enter, reported as 0; a missing or non-finite
/// end-to-end metric fails the run.
pub fn render(out: &mut Outcome, traced: bool) -> (String, String) {
    let mut rows = Vec::new();
    for (name, unit) in names(traced) {
        let value = match out.metrics.iter().find(|(n, _)| *n == name) {
            Some(&(_, v)) if v.is_finite() => v,
            Some(&(_, v)) => {
                out.fail(format!("metric {name} is {v}"));
                0.0
            }
            None if traced => 0.0,
            None => {
                out.fail(format!("metric {name} was not measured"));
                0.0
            }
        };
        rows.push((name, unit, value));
    }
    let width = rows.iter().map(|r| r.0.len()).max().unwrap_or(0);
    let mut human = String::new();
    for (name, unit, value) in &rows {
        human.push_str(&format!("{name:<width$}  {value} {unit}\n"));
    }
    let metrics: Vec<String> = rows
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    (human, json)
}
