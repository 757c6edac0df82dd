//! Seeded fuzzing: random traces through every registered policy and the
//! whole invariant catalogue, with automatic counterexample shrinking.
//!
//! The driver is deterministic: instance `i` of a run with master seed
//! `s` is derived via splitmix64 (the same generator the
//! `worst_case_miner` example and the adversary hunter use), so a failing
//! index can be replayed exactly with `--seed s` regardless of how many
//! traces the original run drew. Three instance families are mixed:
//!
//! * ~60 % small **integral** traces (the LP and certificate checks need
//!   integral instances, and small integers shrink beautifully); half of
//!   them carry skewed job weights from `{1, 2, 4}`, exercising the
//!   weighted checks (W-SHARE, W-UNIT-REDUCE, M-WEIGHT-SCALE) on
//!   genuinely weighted instances;
//! * ~25 % **fractional** traces from `tf-workload`'s Poisson generator,
//!   at mixed machine counts and speeds (including augmented speeds,
//!   which exercise the speed-scaled feasibility envelope);
//! * ~15 % **adversarial** batch/two-wave traces (simultaneous-arrival
//!   tie groups and load spikes, the structures the paper's analysis and
//!   the relabeling checks care most about).
//!
//! Each failure is shrunk with [`crate::shrink_trace`] under "the same
//! check still fails" and written as JSON to the output directory
//! (default `results/audit/`).

use crate::catalogue::{audit_trace, AuditConfig, AuditReport, Violation};
use crate::metamorphic::metamorphic_suite;
use crate::shrink::shrink_trace;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use tf_harness::campaign::{fingerprint, CampaignScope, TaskKey};
use tf_policies::Policy;
use tf_simcore::{Trace, TraceBuilder};
use tf_workload::{splitmix64, PoissonWorkload, SizeDist};

/// Configuration of one fuzz run.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Number of random instances to generate and audit.
    pub traces: usize,
    /// Master seed; instance `i` uses `splitmix64(seed ⊕ mix(i))`.
    pub seed: u64,
    /// Invariant-catalogue configuration shared by every audit.
    pub audit: AuditConfig,
    /// Also run the metamorphic suite on every instance.
    pub metamorphic: bool,
    /// Where to write shrunk counterexamples (`None` = don't write).
    pub out_dir: Option<PathBuf>,
    /// Stop shrinking/recording after this many failures (the run still
    /// counts the rest).
    pub max_failures: usize,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            traces: 1000,
            seed: 0xA5D17,
            audit: AuditConfig::default(),
            metamorphic: true,
            out_dir: Some(PathBuf::from("results/audit")),
            max_failures: 5,
        }
    }
}

/// One audited instance: the trace and its machine environment.
#[derive(Debug, Clone)]
pub struct FuzzInstance {
    /// The generated trace.
    pub trace: Trace,
    /// Machine count.
    pub m: usize,
    /// Machine speed.
    pub speed: f64,
}

/// A failure found by the fuzzer, with its shrunk reproduction.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// Index of the failing instance (replay with the same master seed).
    pub index: usize,
    /// Master seed of the run.
    pub seed: u64,
    /// Machine count of the failing environment.
    pub m: usize,
    /// Machine speed of the failing environment.
    pub speed: f64,
    /// Catalogue id of the first violated check.
    pub check: String,
    /// Policy the violation was observed under, if policy-specific.
    pub policy: Option<String>,
    /// Violation detail from the original (unshrunk) failure.
    pub detail: String,
    /// The original failing trace.
    pub trace: Trace,
    /// The shrunk failing trace (still fails the same check).
    pub shrunk: Trace,
    /// Where the failure was written, when an output directory was set.
    pub path: Option<PathBuf>,
}

/// The on-disk form of a [`FuzzFailure`] (everything but the output
/// path, which is where the record itself lives).
#[derive(Serialize)]
struct FailureRecord {
    index: usize,
    seed: u64,
    m: usize,
    speed: f64,
    check: String,
    policy: Option<String>,
    detail: String,
    trace: Trace,
    shrunk: Trace,
}

/// Aggregate outcome of a fuzz run.
#[derive(Debug, Default)]
pub struct FuzzSummary {
    /// Instances generated and audited.
    pub traces: usize,
    /// Total catalogue checks evaluated across all instances.
    pub checks_run: usize,
    /// Total violations observed (shrunk-and-recorded or not).
    pub violations: usize,
    /// Shrunk, recorded failures (capped at `max_failures`).
    pub failures: Vec<FuzzFailure>,
}

impl FuzzSummary {
    /// True iff no instance violated any invariant.
    pub fn ok(&self) -> bool {
        self.violations == 0
    }
}

/// Tiny deterministic RNG over splitmix64: a Weyl sequence of states,
/// each one mixed by [`splitmix64`].
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed)
    }
    fn next(&mut self) -> u64 {
        let z = splitmix64(self.0);
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z
    }
    /// Uniform integer in `[lo, hi]`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
    /// Uniform float in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[(self.next() % xs.len() as u64) as usize]
    }
}

/// Generate the `index`-th instance of a run with master seed `seed`.
/// Public so a failing index can be regenerated in isolation.
pub fn gen_instance(seed: u64, index: usize) -> FuzzInstance {
    let mut rng = Rng::new(seed ^ splitmix64(index as u64 + 1));
    let family = rng.range(0, 99);
    if family < 60 {
        gen_integral(&mut rng)
    } else if family < 85 {
        gen_workload(&mut rng, seed, index)
    } else {
        gen_adversarial(&mut rng)
    }
}

fn gen_integral(rng: &mut Rng) -> FuzzInstance {
    let n = rng.range(2, 10) as usize;
    // Half the integral instances are weighted: small power-of-two
    // weights keep the weighted-policy arithmetic exact (and shrink
    // well), while still skewing every weight-sensitive code path.
    let weighted = rng.range(0, 1) == 1;
    let mut b = TraceBuilder::new();
    for _ in 0..n {
        let arrival = rng.range(0, 12) as f64;
        let size = rng.range(1, 6) as f64;
        let weight = if weighted {
            rng.pick(&[1.0, 2.0, 4.0])
        } else {
            1.0
        };
        b.push_weighted(arrival, size, weight);
    }
    FuzzInstance {
        trace: b.build().expect("integral jobs are valid"),
        m: rng.pick(&[1usize, 2, 4]),
        speed: 1.0,
    }
}

fn gen_workload(rng: &mut Rng, seed: u64, index: usize) -> FuzzInstance {
    let n = rng.range(8, 30) as usize;
    let m = rng.pick(&[1usize, 2]);
    let rho = rng.pick(&[0.6, 0.9, 1.3]);
    let sizes = if rng.unit() < 0.5 {
        SizeDist::Exponential { mean: 2.0 }
    } else {
        SizeDist::Pareto {
            alpha: 1.8,
            min: 0.5,
        }
    };
    let trace = PoissonWorkload::new(n, rho, m, sizes, seed.wrapping_add(index as u64)).generate();
    FuzzInstance {
        trace,
        m,
        speed: rng.pick(&[1.0, 1.5, 4.4]),
    }
}

fn gen_adversarial(rng: &mut Rng) -> FuzzInstance {
    // A batch at time 0 plus a second wave: maximal tie groups and a
    // congestion step — the structure RR's analysis is tightest on.
    let batch = rng.range(2, 8) as usize;
    let wave = rng.range(1, 6) as usize;
    let gap = rng.range(1, 10) as f64;
    let mut b = TraceBuilder::new();
    for _ in 0..batch {
        b.push(0.0, rng.range(1, 4) as f64);
    }
    for _ in 0..wave {
        b.push(gap, rng.range(1, 4) as f64);
    }
    FuzzInstance {
        trace: b.build().expect("adversarial jobs are valid"),
        m: rng.pick(&[1usize, 2]),
        speed: 1.0,
    }
}

/// Audit one instance: full catalogue plus (optionally) the metamorphic
/// suite.
pub fn audit_instance(inst: &FuzzInstance, cfg: &FuzzConfig) -> AuditReport {
    let mut rep = audit_trace(&inst.trace, inst.m, inst.speed, &Policy::all(), &cfg.audit);
    if cfg.metamorphic {
        rep.merge(metamorphic_suite(
            &inst.trace,
            inst.m,
            inst.speed,
            &cfg.audit,
        ));
    }
    rep
}

/// Indices per campaign-journal chunk: the fuzzer checkpoints every
/// `CHUNK` instances, so a killed run loses at most one chunk's work.
const CHUNK: usize = 50;

/// The journaled outcome of one *clean* chunk of indices (no instance
/// violated anything, so the counts are all a resume needs). Chunks
/// with violations are deliberately never journaled: a resumed run must
/// recompute them so failures re-shrink and the counterexample records
/// are re-written.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CleanChunk {
    traces: u64,
    checks_run: u64,
}

/// Campaign journal key for the chunk `[lo, hi)`: master seed plus every
/// `FuzzConfig` knob that changes what a chunk computes. The short key
/// keeps the chunk range visible (it names the shard lease files); the
/// full descriptor is what the journal's collision guard verifies.
fn chunk_key(cfg: &FuzzConfig, lo: usize, hi: usize) -> TaskKey {
    let a = &cfg.audit;
    // v2: integral instances gained weighted generation and the catalogue
    // gained the W-checks, so v1 journal entries must not replay. v3: X5
    // is gone and X1–X4 always run, so a chunk runs different checks. v4:
    // X4 is gone, so a chunk runs fewer checks.
    let full = format!(
        "audit v4 seed {:016x} chunk {lo}-{hi} rel_tol {:016x} k {} eps {:016x} metamorphic {}",
        cfg.seed,
        a.rel_tol.to_bits(),
        a.k,
        a.eps.to_bits(),
        cfg.metamorphic,
    );
    let short = format!("audit:{:016x}:{lo}-{hi}", fingerprint(full.bytes()));
    TaskKey::with_short(short, full)
}

/// Counts from one computed chunk (clean or not).
struct ChunkCounts {
    traces: u64,
    checks_run: u64,
    violations: u64,
}

/// Audit the chunk of indices `[lo, hi)`, appending any shrunk failures
/// to `failures` (respecting `cfg.max_failures` across the whole run).
fn run_chunk(
    cfg: &FuzzConfig,
    lo: usize,
    hi: usize,
    failures: &mut Vec<FuzzFailure>,
) -> ChunkCounts {
    let mut counts = ChunkCounts {
        traces: 0,
        checks_run: 0,
        violations: 0,
    };
    for index in lo..hi {
        let inst = gen_instance(cfg.seed, index);
        let rep = audit_instance(&inst, cfg);
        counts.traces += 1;
        counts.checks_run += rep.checks_run as u64;
        counts.violations += rep.violations.len() as u64;
        if let Some(first) = rep.violations.first() {
            if failures.len() < cfg.max_failures {
                failures.push(shrink_and_record(cfg, index, &inst, first));
            }
        }
    }
    counts
}

/// Run the fuzzer without a campaign scope. Deterministic for a given
/// [`FuzzConfig`]; failures are shrunk and (when `out_dir` is set)
/// written to `<out_dir>/audit-fail-<index>-<check>.json`.
///
/// ```
/// use tf_audit::{run_fuzz, FuzzConfig};
///
/// let cfg = FuzzConfig {
///     traces: 5,
///     out_dir: None,
///     ..FuzzConfig::default()
/// };
/// let summary = run_fuzz(&cfg);
/// assert!(summary.ok(), "{:?}", summary.failures);
/// assert_eq!(summary.traces, 5);
/// ```
pub fn run_fuzz(cfg: &FuzzConfig) -> FuzzSummary {
    run_fuzz_scoped(&CampaignScope::none(), cfg)
}

/// Run the fuzzer under a [`CampaignScope`] (`audit --campaign DIR`):
/// the run is journaled in chunks of 50 indices, so a resumed run
/// replays the counts of clean chunks and recomputes only the chunk
/// that was in flight — plus any chunk that had violations, which must
/// re-shrink and re-write its counterexample records. Under a sharded
/// campaign (`--shard I/N`), chunks leased by other workers are skipped;
/// their counts surface only in the coordinator's final replay pass.
pub fn run_fuzz_scoped(scope: &CampaignScope, cfg: &FuzzConfig) -> FuzzSummary {
    let mut span = tf_obs::span!("audit", "fuzz");
    span.arg("traces", cfg.traces as f64);
    let mut summary = FuzzSummary::default();
    let mut lo = 0usize;
    while lo < cfg.traces {
        let hi = (lo + CHUNK).min(cfg.traces);
        // `run_leaf_if` journals only `Some` (clean) outcomes, so a
        // resumed campaign replays the counts of clean chunks and fully
        // recomputes dirty or unfinished ones.
        let mut failures: Vec<FuzzFailure> = Vec::new();
        let mut computed: Option<ChunkCounts> = None;
        let mut skipped = false;
        let replayed: Option<CleanChunk> = scope.run_leaf_if(
            &chunk_key(cfg, lo, hi),
            || {
                let counts = run_chunk(cfg, lo, hi, &mut failures);
                let clean = (counts.violations == 0).then_some(CleanChunk {
                    traces: counts.traces,
                    checks_run: counts.checks_run,
                });
                computed = Some(counts);
                clean
            },
            Option::is_some,
            || {
                skipped = true;
                None
            },
        );
        lo = hi;
        if skipped {
            continue;
        }
        if let Some(counts) = computed {
            summary.traces += counts.traces as usize;
            summary.checks_run += counts.checks_run as usize;
            summary.violations += counts.violations as usize;
        } else {
            let clean = replayed.expect("the journal only holds clean chunks");
            summary.traces += clean.traces as usize;
            summary.checks_run += clean.checks_run as usize;
        }
        summary.failures.append(&mut failures);
    }
    if tf_obs::enabled() {
        tf_obs::counter!("audit", "fuzz_traces", summary.traces as f64);
        tf_obs::counter!("audit", "fuzz_violations", summary.violations as f64);
    }
    summary
}

fn shrink_and_record(
    cfg: &FuzzConfig,
    index: usize,
    inst: &FuzzInstance,
    violation: &Violation,
) -> FuzzFailure {
    let check = violation.check;
    let shrunk = shrink_trace(&inst.trace, |t| {
        let probe = FuzzInstance {
            trace: t.clone(),
            m: inst.m,
            speed: inst.speed,
        };
        audit_instance(&probe, cfg).has(check)
    });
    let mut failure = FuzzFailure {
        index,
        seed: cfg.seed,
        m: inst.m,
        speed: inst.speed,
        check: check.to_string(),
        policy: violation.policy.clone(),
        detail: violation.detail.clone(),
        trace: inst.trace.clone(),
        shrunk,
        path: None,
    };
    if let Some(dir) = &cfg.out_dir {
        match write_failure(dir, &failure) {
            Ok(path) => failure.path = Some(path),
            Err(e) => eprintln!("audit: could not write failure record: {e}"),
        }
    }
    failure
}

fn write_failure(dir: &Path, failure: &FuzzFailure) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let slug: String = failure
        .check
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect();
    let path = dir.join(format!("audit-fail-{}-{}.json", failure.index, slug));
    let record = FailureRecord {
        index: failure.index,
        seed: failure.seed,
        m: failure.m,
        speed: failure.speed,
        check: failure.check.clone(),
        policy: failure.policy.clone(),
        detail: failure.detail.clone(),
        trace: failure.trace.clone(),
        shrunk: failure.shrunk.clone(),
    };
    let json =
        serde_json::to_string_pretty(&record).map_err(|e| std::io::Error::other(e.to_string()))?;
    std::fs::write(&path, json)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_varied() {
        let a: Vec<_> = (0..20).map(|i| gen_instance(7, i)).collect();
        let b: Vec<_> = (0..20).map(|i| gen_instance(7, i)).collect();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.trace, y.trace);
            assert_eq!((x.m, x.speed), (y.m, y.speed));
        }
        // Different seeds give different instances.
        let c = gen_instance(8, 0);
        assert!(a[0].trace != c.trace || a[0].m != c.m || a[0].speed != c.speed);
        // The mix covers more than one machine count across 20 draws.
        assert!(
            a.iter()
                .map(|i| i.m)
                .collect::<std::collections::HashSet<_>>()
                .len()
                > 1
        );
    }

    #[test]
    fn short_clean_run_passes() {
        let cfg = FuzzConfig {
            traces: 25,
            out_dir: None,
            ..FuzzConfig::default()
        };
        let s = run_fuzz(&cfg);
        assert!(s.ok(), "{:?}", s.failures);
        assert_eq!(s.traces, 25);
        assert!(s.checks_run > 25 * 10, "only {} checks ran", s.checks_run);
    }

    #[test]
    fn failure_records_round_trip_to_disk() {
        let t = Trace::from_pairs([(0.0, 1.0)]).unwrap();
        let f = FuzzFailure {
            index: 3,
            seed: 9,
            m: 1,
            speed: 1.0,
            check: "P-RR-SHARE".into(),
            policy: Some("RR".into()),
            detail: "example".into(),
            trace: t.clone(),
            shrunk: t,
            path: None,
        };
        let dir = std::env::temp_dir().join("tf-audit-test-records");
        let path = write_failure(&dir, &f).unwrap();
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("P-RR-SHARE"));
        assert!(json.contains("\"shrunk\""));
        std::fs::remove_dir_all(&dir).ok();
    }
}
