#![warn(missing_docs)]

//! # tf-bench — benchmark support
//!
//! The actual benchmarks live in `benches/`:
//!
//! * `experiments` — one Criterion target per experiment table (E1–E22),
//!   regenerating each table at `Effort::Quick`;
//! * `engine` — simulator throughput across policies and instance sizes;
//! * `solvers` — min-cost-flow / LP lower-bound scaling;
//! * `ablations` — design-choice ablations called out in DESIGN.md
//!   (adaptive-step fidelity, LAPS β sweep, profile-recording overhead,
//!   McNaughton realization cost);
//! * `settings` — throughput of immediate dispatch, speed-up curves and
//!   broadcast;
//! * `perf` — the gating engine and lower-bound benches, written to
//!   `BENCH_3.json`;
//! * `solver_scale` — certified lower bounds out to n = 5000, written to
//!   `BENCH_5.json`.
//!
//! `cargo bench -p tf-bench` writes those two records and no other,
//! through `tf_harness::record`. This library hosts the shared fixtures
//! and the `BENCH_5.json` record type, whose keys are CI's solver gate
//! (a test here pins them).

use serde::Serialize;
use tf_harness::record::{BenchRow, Ratios};
use tf_simcore::Trace;
use tf_workload::{ArrivalProcess, SizeDist, WorkloadSpec};

/// A reproducible Poisson/exponential workload of `n` jobs at ~90% load of
/// one machine, used across bench targets so numbers are comparable.
pub fn bench_trace(n: usize, seed: u64) -> Trace {
    WorkloadSpec {
        n,
        arrivals: ArrivalProcess::Poisson { rate: 0.9 / 3.0 },
        sizes: SizeDist::Exponential { mean: 3.0 },
        seed,
    }
    .generate()
}

/// Integral variant for LP-dependent targets.
pub fn bench_trace_integral(n: usize, seed: u64) -> Trace {
    bench_trace(n, seed).to_integral()
}

/// A run's criterion results as a record's `benches` rows.
pub fn bench_rows(results: &[criterion::BenchResult]) -> Vec<BenchRow> {
    results
        .iter()
        .map(|r| BenchRow {
            group: r.group.clone(),
            bench: r.bench.clone(),
            mean_ns: r.mean_ns,
            median_ns: r.median_ns,
            min_ns: r.min_ns,
            iters: r.iters,
        })
        .collect()
}

/// `BENCH_5.json`, the `solver_scale` bench's record.
#[derive(Serialize)]
pub struct Bench5 {
    /// Every bench of the run.
    pub benches: Vec<BenchRow>,
    /// The committed `BENCH_3.json` `perf/lower_bound` medians over this
    /// run's column-generation medians; CI gates them at 5.
    pub speedup_vs_bench3: Ratios,
    /// One certified lower bound per size of the ladder.
    pub certified_frontier: Vec<FrontierPoint>,
    /// Relative gap between the column-generation and the reference LP
    /// values at n = 320.
    pub equivalence_at_320_rel_diff: f64,
}

/// One certified frontier point: wall-clock seconds plus the bound and
/// the raw LP value behind it.
#[derive(Serialize)]
pub struct FrontierPoint {
    /// Jobs in the trace.
    pub n: usize,
    /// Wall-clock seconds of the one solve.
    pub seconds: f64,
    /// The certified lower bound.
    pub value: f64,
    /// Which bound won (`LbKind::label`).
    pub kind: &'static str,
    /// The LP's own value.
    pub lp_raw: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_deterministic_and_sized() {
        let a = bench_trace(100, 1);
        let b = bench_trace(100, 1);
        assert_eq!(a, b);
        assert_eq!(a.len(), 100);
        assert!(bench_trace_integral(50, 2).is_integral(1e-9));
    }

    /// Every key CI's solver-gate step reads from `BENCH_5.json`.
    #[test]
    fn bench5_carries_the_keys_ci_reads() {
        #[derive(serde::Deserialize)]
        struct Point {
            n: usize,
            seconds: f64,
            value: f64,
            lp_raw: f64,
        }
        #[derive(serde::Deserialize)]
        struct Ci {
            speedup_vs_bench3: Ratios,
            equivalence_at_320_rel_diff: f64,
            certified_frontier: Vec<Point>,
        }
        let record = Bench5 {
            benches: Vec::new(),
            speedup_vs_bench3: Ratios::from([("lk_k2_m2/160".to_string(), 9.0)]),
            certified_frontier: vec![FrontierPoint {
                n: 640,
                seconds: 0.1,
                value: 13163.0,
                kind: "size",
                lp_raw: 12000.5,
            }],
            equivalence_at_320_rel_diff: 0.0,
        };
        let ci: Ci = serde_json::from_str(&serde_json::to_string_pretty(&record).unwrap()).unwrap();
        assert_eq!(ci.speedup_vs_bench3["lk_k2_m2/160"], 9.0);
        assert_eq!(ci.equivalence_at_320_rel_diff, 0.0);
        let p = &ci.certified_frontier[0];
        assert_eq!(
            (p.n, p.seconds, p.value, p.lp_raw),
            (640, 0.1, 13163.0, 12000.5)
        );
    }
}
