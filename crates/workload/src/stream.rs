//! Open (streaming) workload generation.
//!
//! The closed-workload path ([`crate::WorkloadSpec`]) materialises a
//! `Vec<f64>` of arrivals up front, which caps instances at available
//! memory. An [`OpenWorkload`] instead yields jobs *on the fly* through
//! [`tf_simcore::JobSource`], so the streaming engine
//! ([`tf_simcore::simulate_stream`]) can push through 10⁷+ jobs in flat
//! memory.
//!
//! Design points:
//!
//! * **One arrival step.** A stream steps the same [`ArrivalProcess`]
//!   code as a closed trace, one arrival per job, so the two paths share
//!   every process and differ only in their RNGs.
//! * **Per-stream RNGs.** Arrival gaps and job sizes draw from two
//!   independent `StdRng`s whose seeds are derived from the workload seed
//!   by splitmix64. The closed path interleaves one RNG across both
//!   draws, so changing `n` perturbs every size; here the k-th job's size
//!   is a function of `seed` and `k` alone, regardless of the bound.
//! * **Bound.** A stream is finite by construction: it emits exactly
//!   [`StreamBound::Count`] jobs.
//! * **Validation.** [`OpenWorkload::stream`] validates every parameter
//!   with the typed [`WorkloadError`]s, so a NaN rate fails at
//!   construction rather than 40 minutes into a 10⁷-job run.

use crate::arrivals::ArrivalProcess;
use crate::error::WorkloadError;
use crate::sizes::SizeDist;
use crate::splitmix64;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use tf_simcore::{JobSource, SourcedJob};

/// Arrival process of an open stream: a one-variant wrapper around
/// [`ArrivalProcess`], kept because serialized stream specs and `tfbench`
/// name it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StreamArrivals {
    /// Any closed-form process, streamed (Poisson, periodic, batched,
    /// all-at-once, diurnal).
    Process(ArrivalProcess),
}

impl StreamArrivals {
    /// Check every parameter (see [`ArrivalProcess::validate`]).
    pub fn validate(&self) -> Result<(), WorkloadError> {
        let StreamArrivals::Process(p) = self;
        p.validate()
    }

    /// Long-run arrival rate (jobs per unit time); infinite for
    /// all-at-once.
    pub fn rate(&self) -> f64 {
        let StreamArrivals::Process(p) = self;
        p.rate()
    }
}

/// When an open stream ends: after a fixed number of jobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum StreamBound {
    /// Exactly this many jobs.
    Count(u64),
}

impl StreamBound {
    /// Check the job count is positive.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        let StreamBound::Count(n) = *self;
        if n == 0 {
            return Err(WorkloadError::BadBound(0.0));
        }
        Ok(())
    }
}

/// A fully-specified open workload: stream arrivals × sizes × bound ×
/// seed. Serializable so experiments can record exactly what they ran —
/// the streaming counterpart of [`crate::WorkloadSpec`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpenWorkload {
    /// Arrival process.
    pub arrivals: StreamArrivals,
    /// Size distribution.
    pub sizes: SizeDist,
    /// Termination bound.
    pub bound: StreamBound,
    /// RNG seed — same spec + same seed ⇒ identical stream.
    pub seed: u64,
}

impl OpenWorkload {
    /// Poisson arrivals targeting utilization `rho` on `m` unit-speed
    /// machines (`λ = ρ·m / E[p]`) — the streaming counterpart of
    /// [`crate::PoissonWorkload`].
    pub fn poisson(rho: f64, m: usize, sizes: SizeDist, bound: StreamBound, seed: u64) -> Self {
        let rate = rho * m as f64 / sizes.mean();
        OpenWorkload {
            arrivals: StreamArrivals::Process(ArrivalProcess::Poisson { rate }),
            sizes,
            bound,
            seed,
        }
    }

    /// Check every parameter.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        self.arrivals.validate()?;
        self.sizes.validate()?;
        self.bound.validate()
    }

    /// Validate and open the job stream.
    pub fn stream(&self) -> Result<OpenJobStream, WorkloadError> {
        self.validate()?;
        let StreamArrivals::Process(arrivals) = self.arrivals;
        let StreamBound::Count(n) = self.bound;
        Ok(OpenJobStream {
            arrivals,
            sizes: self.sizes,
            n,
            arrival_rng: StdRng::seed_from_u64(splitmix64(self.seed ^ 0x00A5)),
            size_rng: StdRng::seed_from_u64(splitmix64(self.seed ^ 0x5A00)),
            i: 0,
            t: 0.0,
        })
    }

    /// Label for tables: `"poisson sizes=exp(1) ×1000000"`-style.
    pub fn label(&self) -> String {
        let StreamArrivals::Process(p) = self.arrivals;
        let arr = match p {
            ArrivalProcess::Poisson { .. } => "poisson",
            ArrivalProcess::Periodic { .. } => "periodic",
            ArrivalProcess::Batched { .. } => "batched",
            ArrivalProcess::AllAtOnce => "all-at-once",
            ArrivalProcess::Diurnal { .. } => "diurnal",
        };
        let StreamBound::Count(n) = self.bound;
        format!("{arr} sizes={} ×{n}", self.sizes.label())
    }
}

/// A running open workload: implements [`JobSource`] for
/// [`tf_simcore::simulate_stream`]. Holds O(1) state — two RNGs, the
/// last arrival, and a counter.
#[derive(Debug, Clone)]
pub struct OpenJobStream {
    arrivals: ArrivalProcess,
    sizes: SizeDist,
    /// Jobs to emit in total.
    n: u64,
    arrival_rng: StdRng,
    size_rng: StdRng,
    /// Jobs emitted so far.
    i: u64,
    /// Arrival of the last emitted job (0 before the first).
    t: f64,
}

impl JobSource for OpenJobStream {
    fn next_job(&mut self) -> Option<SourcedJob> {
        if self.i >= self.n {
            return None;
        }
        self.t = self
            .arrivals
            .next_arrival(self.i, self.t, &mut self.arrival_rng);
        self.i += 1;
        let size = self.sizes.sample(&mut self.size_rng);
        Some(SourcedJob::new(self.t, size))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(w: &OpenWorkload) -> Vec<SourcedJob> {
        let mut s = w.stream().unwrap();
        std::iter::from_fn(|| s.next_job()).collect()
    }

    fn poisson_count(n: u64, seed: u64) -> OpenWorkload {
        OpenWorkload::poisson(
            0.9,
            1,
            SizeDist::Exponential { mean: 1.0 },
            StreamBound::Count(n),
            seed,
        )
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let w = poisson_count(500, 7);
        assert_eq!(drain(&w), drain(&w));
        let other = OpenWorkload {
            seed: 8,
            ..w.clone()
        };
        assert_ne!(drain(&w), drain(&other));
    }

    #[test]
    fn sizes_are_independent_of_the_bound() {
        // Per-stream RNGs: job k's size must not depend on how many jobs
        // the stream is bounded to (the closed path interleaves one RNG
        // and loses this property).
        let short = drain(&poisson_count(50, 3));
        let long = drain(&poisson_count(500, 3));
        for (a, b) in short.iter().zip(&long) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn count_bound_holds() {
        let w = poisson_count(123, 1);
        assert_eq!(drain(&w).len(), 123);
    }

    #[test]
    fn arrivals_are_monotone_and_sizes_positive_across_families() {
        let families = [
            StreamArrivals::Process(ArrivalProcess::Poisson { rate: 2.0 }),
            StreamArrivals::Process(ArrivalProcess::Periodic { interval: 0.5 }),
            StreamArrivals::Process(ArrivalProcess::Batched {
                interval: 1.0,
                per_batch: 3,
            }),
            StreamArrivals::Process(ArrivalProcess::Diurnal {
                base: 2.0,
                amplitude: 0.5,
                period: 20.0,
            }),
            StreamArrivals::Process(ArrivalProcess::AllAtOnce),
        ];
        for arr in families {
            let w = OpenWorkload {
                arrivals: arr.clone(),
                sizes: SizeDist::Pareto {
                    alpha: 1.7,
                    min: 0.2,
                },
                bound: StreamBound::Count(2_000),
                seed: 11,
            };
            let jobs = drain(&w);
            assert_eq!(jobs.len(), 2_000, "{arr:?}");
            let mut prev = 0.0;
            for j in &jobs {
                assert!(j.arrival >= prev, "{arr:?}");
                assert!(j.size > 0.0 && j.size.is_finite(), "{arr:?}");
                prev = j.arrival;
            }
        }
    }

    #[test]
    fn long_run_rates_match_rate_across_families() {
        let families = [
            StreamArrivals::Process(ArrivalProcess::Poisson { rate: 2.0 }),
            StreamArrivals::Process(ArrivalProcess::Periodic { interval: 0.5 }),
            StreamArrivals::Process(ArrivalProcess::Batched {
                interval: 1.5,
                per_batch: 3,
            }),
            StreamArrivals::Process(ArrivalProcess::Diurnal {
                base: 2.0,
                amplitude: 0.5,
                period: 20.0,
            }),
        ];
        for arr in families {
            let expect = arr.rate();
            let w = OpenWorkload {
                arrivals: arr.clone(),
                sizes: SizeDist::Deterministic(1.0),
                bound: StreamBound::Count(200_000),
                seed: 5,
            };
            let jobs = drain(&w);
            let measured = jobs.len() as f64 / jobs.last().unwrap().arrival;
            assert!(
                (measured - expect).abs() / expect < 0.05,
                "{arr:?}: measured {measured}, expected {expect}"
            );
        }
    }

    #[test]
    fn validation_rejects_bad_streams() {
        let base = poisson_count(10, 0);
        assert!(base.validate().is_ok());

        let bad = OpenWorkload {
            arrivals: StreamArrivals::Process(ArrivalProcess::Poisson { rate: 0.0 }),
            ..base.clone()
        };
        assert_eq!(bad.stream().err(), Some(WorkloadError::BadRate(0.0)));

        let bad = OpenWorkload {
            bound: StreamBound::Count(0),
            ..base.clone()
        };
        assert_eq!(bad.stream().err(), Some(WorkloadError::BadBound(0.0)));

        // All-at-once emits its count of jobs at t = 0.
        let ok = OpenWorkload {
            arrivals: StreamArrivals::Process(ArrivalProcess::AllAtOnce),
            ..base
        };
        assert_eq!(drain(&ok).len(), 10);
    }

    #[test]
    fn spec_serde_roundtrip() {
        let w = OpenWorkload {
            arrivals: StreamArrivals::Process(ArrivalProcess::Diurnal {
                base: 2.0,
                amplitude: 0.5,
                period: 24.0,
            }),
            sizes: SizeDist::Exponential { mean: 1.0 },
            bound: StreamBound::Count(100),
            seed: 42,
        };
        let s = serde_json::to_string(&w).unwrap();
        let back: OpenWorkload = serde_json::from_str(&s).unwrap();
        assert_eq!(w, back);
    }

    #[test]
    fn labels_are_informative() {
        let w = poisson_count(1000, 0);
        let l = w.label();
        assert!(l.contains("poisson") && l.contains("1000"), "{l}");
    }
}
