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
//! This library only hosts shared fixture helpers.

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
}
