//! # tfbench — the repository benchmark
//!
//! One invocation runs one workload at one seed and prints every metric
//! of the catalogue ([`catalogue`]) by name with its unit, then one JSON
//! line. With tracing off (`--trace 0`) the metrics are the end-to-end
//! ones; a traced run (`--trace 1`) prints the per-layer split. Every run
//! checks its outputs: against invariants always, bit for bit between
//! reps and between a traced and an untraced pass, and against the stored
//! reference outputs for the seeds that have them ([`reference`]).
//!
//! Layers are timed from outside, through the crates' public functions
//! and traits ([`probe`]); no other crate carries a probe for this
//! benchmark. See README.md for the workloads, the metric glossary and
//! the layer → end-to-end map.

use std::path::PathBuf;
use std::time::Instant;

pub mod catalogue;
pub mod compare;
pub mod probe;
pub mod reference;
pub mod report;
pub mod serve;
pub mod stream;
pub mod sweep;

/// Everything one run needs to know.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub workload: &'static str,
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    pub traced: bool,
    /// Input-size multiplier; 1 for the benchmark, smaller in tests.
    pub scale: f64,
    /// Where traced runs write their chrome traces.
    pub trace_dir: PathBuf,
}

impl Ctx {
    /// `n` scaled, but never below `min`.
    pub fn scaled(&self, n: u64, min: u64) -> u64 {
        ((n as f64 * self.scale).round() as u64).max(min)
    }

    /// Path of this run's trace file with the given suffix.
    pub fn trace_file(&self, suffix: &str) -> PathBuf {
        self.trace_dir
            .join(format!("{}-seed{}{suffix}", self.workload, self.seed))
    }
}

/// How closely an output must match its reference value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tol {
    /// Bit for bit.
    Exact,
    /// Within this relative error.
    Rel(f64),
}

/// One checkable output of a run.
#[derive(Debug, Clone)]
pub struct Output {
    pub key: String,
    pub value: f64,
    pub tol: Tol,
}

impl Output {
    pub fn exact(key: impl Into<String>, value: f64) -> Self {
        Output {
            key: key.into(),
            value,
            tol: Tol::Exact,
        }
    }

    pub fn rel(key: impl Into<String>, value: f64) -> Self {
        Output {
            key: key.into(),
            value,
            tol: Tol::Rel(1e-9),
        }
    }

    /// Whether `reference` is close enough to this output.
    pub fn matches(&self, reference: f64) -> bool {
        match self.tol {
            Tol::Exact => self.value.to_bits() == reference.to_bits(),
            Tol::Rel(r) => (self.value - reference).abs() <= r * reference.abs(),
        }
    }
}

/// Compare two passes' outputs bit for bit; the first difference, if any.
pub fn diff_outputs(a: &[Output], b: &[Output]) -> Option<String> {
    if a.len() != b.len() {
        return Some(format!("{} outputs vs {}", a.len(), b.len()));
    }
    a.iter().zip(b).find_map(|(x, y)| {
        (x.key != y.key || x.value.to_bits() != y.value.to_bits())
            .then(|| format!("{} = {} vs {} = {}", x.key, x.value, y.key, y.value))
    })
}

/// What a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric name → value; end-to-end metrics for an untraced run,
    /// per-layer ones for a traced run.
    pub metrics: Vec<(&'static str, f64)>,
    /// Outputs compared against the stored reference.
    pub outputs: Vec<Output>,
    /// Operations attempted: reps, tasks or requests.
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }
}

/// Decides whether another timed rep fits in the budget: always at least
/// one, then only while the median rep so far still fits.
#[derive(Debug)]
pub struct RepClock {
    start: Instant,
    budget: f64,
    pub walls: Vec<f64>,
}

impl RepClock {
    pub fn new(budget: f64) -> Self {
        RepClock {
            start: Instant::now(),
            budget,
            walls: Vec::new(),
        }
    }

    pub fn more(&self) -> bool {
        self.walls.is_empty()
            || self.start.elapsed().as_secs_f64() + median(&self.walls) <= self.budget
    }
}

pub fn median(v: &[f64]) -> f64 {
    tf_metrics::percentile(v, 0.5)
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The fewest set-ups `setup_s` is the median of.
pub const SETUPS: usize = 3;
