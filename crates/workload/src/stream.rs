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
//! * **Per-stream RNGs.** Arrival gaps and job sizes draw from two
//!   independent `StdRng`s whose seeds are derived from the workload seed
//!   by splitmix64. The closed path interleaves one RNG across both
//!   draws, so changing `n` perturbs every size; here the k-th job's size
//!   is a function of `seed` and `k` alone, regardless of the bound.
//! * **Bounds.** A stream is finite by construction: either a job
//!   [`StreamBound::Count`] or a time horizon [`StreamBound::Duration`]
//!   (jobs arriving strictly before the horizon). Validation rejects the
//!   one unbounded combination (duration bound over
//!   [`ArrivalProcess::AllAtOnce`]).
//! * **Validation.** [`OpenWorkload::stream`] validates every parameter
//!   with the typed [`WorkloadError`]s, so a NaN rate fails at
//!   construction rather than 40 minutes into a 10⁷-job run.

use crate::arrivals::ArrivalProcess;
use crate::error::WorkloadError;
use crate::sizes::SizeDist;
use crate::splitmix64;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use tf_simcore::{JobSource, SourcedJob};

/// An empirical distribution over a binned histogram: bin `i` spans
/// `[edges[i], edges[i+1])` and carries probability mass proportional to
/// `weights[i]`; sampling picks a bin by weight and a uniform point
/// within it. Used for replaying measured inter-arrival gap histograms
/// (the "empirical" stream family).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    /// Bin edges, strictly increasing, `edges[0] ≥ 0`; `len ≥ 2`.
    pub edges: Vec<f64>,
    /// Per-bin weights (`len == edges.len() − 1`), non-negative with a
    /// positive sum; need not be normalised.
    pub weights: Vec<f64>,
}

impl Histogram {
    /// A histogram from bin edges and weights.
    pub fn new(edges: Vec<f64>, weights: Vec<f64>) -> Self {
        Histogram { edges, weights }
    }

    /// Check the histogram is well-formed (see field docs).
    pub fn validate(&self) -> Result<(), WorkloadError> {
        let bad = |msg: String| Err(WorkloadError::BadHistogram(msg));
        if self.edges.len() < 2 {
            return bad(format!("need ≥ 2 edges, got {}", self.edges.len()));
        }
        if self.weights.len() != self.edges.len() - 1 {
            return bad(format!(
                "{} edges need {} weights, got {}",
                self.edges.len(),
                self.edges.len() - 1,
                self.weights.len()
            ));
        }
        if !self.edges.iter().all(|e| e.is_finite()) || self.edges[0] < 0.0 {
            return bad("edges must be finite and non-negative".into());
        }
        if self.edges.windows(2).any(|w| w[0] >= w[1]) {
            return bad("edges must be strictly increasing".into());
        }
        if !self.weights.iter().all(|w| w.is_finite() && *w >= 0.0) {
            return bad("weights must be finite and non-negative".into());
        }
        let total: f64 = self.weights.iter().sum();
        if !(total.is_finite() && total > 0.0) {
            return bad(format!(
                "weights must have positive finite sum, got {total}"
            ));
        }
        Ok(())
    }

    /// Mean of the distribution (bin-midpoint approximation, exact for
    /// the uniform-within-bin sampling used here).
    pub fn mean(&self) -> f64 {
        let total: f64 = self.weights.iter().sum();
        self.weights
            .iter()
            .zip(self.edges.windows(2))
            .map(|(w, e)| w * 0.5 * (e[0] + e[1]))
            .sum::<f64>()
            / total
    }

    /// Draw one value: a weighted bin choice, then uniform within the bin.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let total: f64 = self.weights.iter().sum();
        let mut u = rng.gen::<f64>() * total;
        for (w, e) in self.weights.iter().zip(self.edges.windows(2)) {
            if u < *w {
                return rng.gen_range(e[0]..e[1]);
            }
            u -= w;
        }
        // Numerical spill (u == total): last non-empty bin.
        let i = self
            .weights
            .iter()
            .rposition(|w| *w > 0.0)
            .expect("validated: positive total weight");
        rng.gen_range(self.edges[i]..self.edges[i + 1])
    }
}

/// Arrival process of an open stream. Extends the closed-form
/// [`ArrivalProcess`] family with processes that only make sense (or only
/// stay tractable) in streaming form.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StreamArrivals {
    /// Any closed-form process, streamed (Poisson, periodic, batched,
    /// all-at-once, diurnal).
    Process(ArrivalProcess),
    /// Markov-modulated Poisson process: states are visited cyclically,
    /// each visit lasting an `Exp(mean_sojourn)` time during which
    /// arrivals are Poisson at that state's rate. The classic bursty
    /// overload model (e.g. an on/off source with `rates: [λ, 0]`).
    Mmpp {
        /// Per-state arrival rates; all finite and `≥ 0`, at least one
        /// `> 0`.
        rates: Vec<f64>,
        /// Mean sojourn time in each state, finite and positive.
        mean_sojourn: f64,
    },
    /// Heavy-tailed renewal process: i.i.d. Pareto inter-arrival gaps
    /// (`P(G > g) = (min_gap/g)^alpha`, `alpha > 1`) — arrival *bursts*
    /// separated by occasional very long quiet periods.
    ParetoGaps {
        /// Tail exponent of the gap distribution, `> 1` for a finite
        /// mean gap (and hence a well-defined rate).
        alpha: f64,
        /// Minimum (scale) gap, finite and positive.
        min_gap: f64,
    },
    /// Renewal process with inter-arrival gaps drawn from a measured
    /// [`Histogram`] (empirical replay).
    Empirical(Histogram),
}

impl StreamArrivals {
    /// Check every parameter (see variant docs for the constraints).
    pub fn validate(&self) -> Result<(), WorkloadError> {
        match self {
            StreamArrivals::Process(p) => p.validate(),
            StreamArrivals::Mmpp {
                rates,
                mean_sojourn,
            } => {
                if rates.is_empty() {
                    return Err(WorkloadError::BadMmpp("no states".into()));
                }
                if !rates.iter().all(|r| r.is_finite() && *r >= 0.0) {
                    return Err(WorkloadError::BadMmpp(
                        "state rates must be finite and non-negative".into(),
                    ));
                }
                if !rates.iter().any(|r| *r > 0.0) {
                    return Err(WorkloadError::BadMmpp(
                        "at least one state needs a positive rate".into(),
                    ));
                }
                if !(mean_sojourn.is_finite() && *mean_sojourn > 0.0) {
                    return Err(WorkloadError::BadMmpp(format!(
                        "mean sojourn {mean_sojourn} must be finite and positive"
                    )));
                }
                Ok(())
            }
            StreamArrivals::ParetoGaps { alpha, min_gap } => {
                if !(alpha.is_finite() && *alpha > 1.0) {
                    return Err(WorkloadError::BadRate(*alpha));
                }
                if !(min_gap.is_finite() && *min_gap > 0.0) {
                    return Err(WorkloadError::BadInterval(*min_gap));
                }
                Ok(())
            }
            StreamArrivals::Empirical(h) => {
                h.validate()?;
                if h.mean() <= 0.0 {
                    return Err(WorkloadError::BadHistogram(
                        "mean inter-arrival gap must be positive".into(),
                    ));
                }
                Ok(())
            }
        }
    }

    /// Long-run arrival rate (jobs per unit time); infinite for
    /// all-at-once.
    pub fn rate(&self) -> f64 {
        match self {
            StreamArrivals::Process(p) => p.rate(),
            StreamArrivals::Mmpp {
                rates,
                mean_sojourn: _,
            } => {
                // Equal mean sojourns ⇒ equal long-run state occupancy.
                rates.iter().sum::<f64>() / rates.len() as f64
            }
            StreamArrivals::ParetoGaps { alpha, min_gap } => {
                (alpha - 1.0) / (alpha * min_gap) // 1 / mean gap
            }
            StreamArrivals::Empirical(h) => 1.0 / h.mean(),
        }
    }

    /// Whether the process emits unboundedly many jobs in finite time
    /// (only [`ArrivalProcess::AllAtOnce`] does).
    fn bursts_forever_at_once(&self) -> bool {
        matches!(self, StreamArrivals::Process(ArrivalProcess::AllAtOnce))
    }
}

/// When an open stream ends.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum StreamBound {
    /// Exactly this many jobs.
    Count(u64),
    /// All jobs arriving strictly before this time.
    Duration(f64),
}

impl StreamBound {
    /// Check the bound is finite and positive.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        match *self {
            StreamBound::Count(n) => {
                if n == 0 {
                    return Err(WorkloadError::BadBound(0.0));
                }
            }
            StreamBound::Duration(t) => {
                if !(t.is_finite() && t > 0.0) {
                    return Err(WorkloadError::BadBound(t));
                }
            }
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

    /// Check every parameter, including the bound/process combination.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        self.arrivals.validate()?;
        self.sizes.validate()?;
        self.bound.validate()?;
        if matches!(self.bound, StreamBound::Duration(_)) && self.arrivals.bursts_forever_at_once()
        {
            return Err(WorkloadError::UnboundedStream);
        }
        Ok(())
    }

    /// Validate and open the job stream.
    pub fn stream(&self) -> Result<OpenJobStream, WorkloadError> {
        self.validate()?;
        Ok(OpenJobStream::new(self))
    }

    /// Label for tables: `"poisson sizes=exp(1) ×1000000"`-style.
    pub fn label(&self) -> String {
        let arr = match &self.arrivals {
            StreamArrivals::Process(p) => match p {
                ArrivalProcess::Poisson { .. } => "poisson".to_string(),
                ArrivalProcess::Periodic { .. } => "periodic".to_string(),
                ArrivalProcess::Batched { .. } => "batched".to_string(),
                ArrivalProcess::AllAtOnce => "all-at-once".to_string(),
                ArrivalProcess::Diurnal { .. } => "diurnal".to_string(),
            },
            StreamArrivals::Mmpp { rates, .. } => format!("mmpp({})", rates.len()),
            StreamArrivals::ParetoGaps { alpha, .. } => format!("pareto-gaps({alpha})"),
            StreamArrivals::Empirical(_) => "empirical".to_string(),
        };
        let bound = match self.bound {
            StreamBound::Count(n) => format!("×{n}"),
            StreamBound::Duration(t) => format!("horizon={t}"),
        };
        format!("{arr} sizes={} {bound}", self.sizes.label())
    }
}

/// Mutable per-variant arrival state of a running stream.
#[derive(Debug, Clone)]
enum ArrivalState {
    /// Counter for periodic/batched processes.
    Indexed { i: u64 },
    /// Current MMPP state and the time its sojourn ends.
    Mmpp { state: usize, state_end: f64 },
    /// No extra state (Poisson, all-at-once, diurnal, renewal gaps).
    None,
}

/// A running open workload: implements [`JobSource`] for
/// [`tf_simcore::simulate_stream`]. Holds O(1) state — two RNGs, the
/// clock, and a counter.
#[derive(Debug, Clone)]
pub struct OpenJobStream {
    arrivals: StreamArrivals,
    sizes: SizeDist,
    bound: StreamBound,
    arrival_rng: StdRng,
    size_rng: StdRng,
    state: ArrivalState,
    /// Arrival clock: time of the last emitted arrival.
    t: f64,
    emitted: u64,
}

impl OpenJobStream {
    fn new(w: &OpenWorkload) -> Self {
        let state = match &w.arrivals {
            StreamArrivals::Process(
                ArrivalProcess::Periodic { .. } | ArrivalProcess::Batched { .. },
            ) => ArrivalState::Indexed { i: 0 },
            StreamArrivals::Mmpp { .. } => ArrivalState::Mmpp {
                state: 0,
                state_end: 0.0, // first sojourn drawn lazily at t = 0
            },
            _ => ArrivalState::None,
        };
        OpenJobStream {
            arrivals: w.arrivals.clone(),
            sizes: w.sizes,
            bound: w.bound,
            arrival_rng: StdRng::seed_from_u64(splitmix64(w.seed ^ 0x00A5)),
            size_rng: StdRng::seed_from_u64(splitmix64(w.seed ^ 0x5A00)),
            state,
            t: 0.0,
            emitted: 0,
        }
    }

    /// Jobs emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Exponential gap with rate `rate` (mirrors the closed generator's
    /// inversion sampling, including its open-interval draw).
    fn exp_gap(rng: &mut StdRng, rate: f64) -> f64 {
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        -u.ln() / rate
    }

    /// Advance the arrival clock to the next arrival and return it.
    fn next_arrival(&mut self) -> f64 {
        match &self.arrivals {
            StreamArrivals::Process(p) => match *p {
                ArrivalProcess::Poisson { rate } => {
                    self.t += Self::exp_gap(&mut self.arrival_rng, rate);
                    self.t
                }
                ArrivalProcess::Periodic { interval } => {
                    let ArrivalState::Indexed { i } = &mut self.state else {
                        unreachable!("periodic streams carry an index");
                    };
                    let t = *i as f64 * interval;
                    *i += 1;
                    self.t = t;
                    t
                }
                ArrivalProcess::Batched {
                    interval,
                    per_batch,
                } => {
                    let ArrivalState::Indexed { i } = &mut self.state else {
                        unreachable!("batched streams carry an index");
                    };
                    let per_batch = per_batch.max(1) as u64;
                    let t = (*i / per_batch) as f64 * interval;
                    *i += 1;
                    self.t = t;
                    t
                }
                ArrivalProcess::AllAtOnce => 0.0,
                ArrivalProcess::Diurnal {
                    base,
                    amplitude,
                    period,
                } => {
                    // Thinning at the peak rate, as in the closed path.
                    let lmax = base * (1.0 + amplitude);
                    loop {
                        self.t += Self::exp_gap(&mut self.arrival_rng, lmax);
                        let rate = base
                            * (1.0 + amplitude * (std::f64::consts::TAU * self.t / period).sin());
                        if self.arrival_rng.gen::<f64>() * lmax <= rate {
                            return self.t;
                        }
                    }
                }
            },
            StreamArrivals::Mmpp {
                rates,
                mean_sojourn,
            } => {
                let ArrivalState::Mmpp { state, state_end } = &mut self.state else {
                    unreachable!("MMPP streams carry modulation state");
                };
                loop {
                    if self.t >= *state_end {
                        // Sojourn over: rotate to the next state and draw
                        // its length (memoryless, so no residual to carry).
                        *state = (*state + 1) % rates.len();
                        *state_end =
                            self.t + Self::exp_gap(&mut self.arrival_rng, 1.0 / mean_sojourn);
                        continue;
                    }
                    let rate = rates[*state];
                    if rate <= 0.0 {
                        self.t = *state_end; // silent state: skip it
                        continue;
                    }
                    let cand = self.t + Self::exp_gap(&mut self.arrival_rng, rate);
                    if cand < *state_end {
                        self.t = cand;
                        return cand;
                    }
                    // No arrival before the state ends; memorylessness
                    // lets us resume fresh from the boundary.
                    self.t = *state_end;
                }
            }
            StreamArrivals::ParetoGaps { alpha, min_gap } => {
                let u: f64 = self.arrival_rng.gen_range(f64::MIN_POSITIVE..1.0);
                self.t += min_gap * u.powf(-1.0 / alpha);
                self.t
            }
            StreamArrivals::Empirical(h) => {
                self.t += h.sample(&mut self.arrival_rng);
                self.t
            }
        }
    }
}

impl JobSource for OpenJobStream {
    fn next_job(&mut self) -> Option<SourcedJob> {
        if let StreamBound::Count(n) = self.bound {
            if self.emitted >= n {
                return None;
            }
        }
        let arrival = self.next_arrival();
        if let StreamBound::Duration(horizon) = self.bound {
            if arrival >= horizon {
                return None;
            }
        }
        let size = self.sizes.sample(&mut self.size_rng);
        self.emitted += 1;
        Some(SourcedJob::new(arrival, size))
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
    fn count_and_duration_bounds_hold() {
        let w = poisson_count(123, 1);
        assert_eq!(drain(&w).len(), 123);

        let w = OpenWorkload {
            bound: StreamBound::Duration(50.0),
            ..w
        };
        let jobs = drain(&w);
        assert!(!jobs.is_empty());
        assert!(jobs.iter().all(|j| j.arrival < 50.0));
        // ρ=0.9, unit mean sizes ⇒ λ=0.9 ⇒ ≈45 jobs in 50 time units.
        assert!((20..=80).contains(&jobs.len()), "{}", jobs.len());
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
            StreamArrivals::Mmpp {
                rates: vec![4.0, 0.0, 1.0],
                mean_sojourn: 5.0,
            },
            StreamArrivals::ParetoGaps {
                alpha: 1.8,
                min_gap: 0.1,
            },
            StreamArrivals::Empirical(Histogram::new(
                vec![0.0, 0.5, 1.0, 4.0],
                vec![5.0, 3.0, 1.0],
            )),
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
            StreamArrivals::Mmpp {
                rates: vec![3.0, 1.0],
                mean_sojourn: 2.0,
            },
            StreamArrivals::ParetoGaps {
                alpha: 2.5,
                min_gap: 0.3,
            },
            StreamArrivals::Empirical(Histogram::new(vec![0.0, 1.0, 2.0], vec![1.0, 1.0])),
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
    fn mmpp_is_actually_bursty() {
        // On/off source: arrivals cluster in the on-state, so the gap
        // variance is far above the Poisson variance at the same mean rate.
        let w = OpenWorkload {
            arrivals: StreamArrivals::Mmpp {
                rates: vec![8.0, 0.0],
                mean_sojourn: 10.0,
            },
            sizes: SizeDist::Deterministic(1.0),
            bound: StreamBound::Count(50_000),
            seed: 2,
        };
        let jobs = drain(&w);
        let gaps: Vec<f64> = jobs
            .windows(2)
            .map(|w| w[1].arrival - w[0].arrival)
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64;
        // Exponential gaps would have var ≈ mean²; bursty gaps are far
        // over-dispersed.
        assert!(var > 3.0 * mean * mean, "var {var}, mean {mean}");
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
            arrivals: StreamArrivals::Mmpp {
                rates: vec![],
                mean_sojourn: 1.0,
            },
            ..base.clone()
        };
        assert!(matches!(bad.stream(), Err(WorkloadError::BadMmpp(_))));

        let bad = OpenWorkload {
            arrivals: StreamArrivals::Mmpp {
                rates: vec![0.0, 0.0],
                mean_sojourn: 1.0,
            },
            ..base.clone()
        };
        assert!(matches!(bad.stream(), Err(WorkloadError::BadMmpp(_))));

        let bad = OpenWorkload {
            arrivals: StreamArrivals::ParetoGaps {
                alpha: 1.0,
                min_gap: 1.0,
            },
            ..base.clone()
        };
        assert!(bad.stream().is_err());

        let bad = OpenWorkload {
            arrivals: StreamArrivals::Empirical(Histogram::new(vec![1.0, 0.5], vec![1.0])),
            ..base.clone()
        };
        assert!(matches!(bad.stream(), Err(WorkloadError::BadHistogram(_))));

        let bad = OpenWorkload {
            bound: StreamBound::Count(0),
            ..base.clone()
        };
        assert_eq!(bad.stream().err(), Some(WorkloadError::BadBound(0.0)));

        let bad = OpenWorkload {
            bound: StreamBound::Duration(f64::NAN),
            ..base.clone()
        };
        assert!(bad.stream().is_err());

        // The one genuinely unbounded combination.
        let bad = OpenWorkload {
            arrivals: StreamArrivals::Process(ArrivalProcess::AllAtOnce),
            bound: StreamBound::Duration(10.0),
            ..base.clone()
        };
        assert_eq!(bad.stream().err(), Some(WorkloadError::UnboundedStream));
        // …while the count-bounded form is fine.
        let ok = OpenWorkload {
            arrivals: StreamArrivals::Process(ArrivalProcess::AllAtOnce),
            ..base
        };
        assert_eq!(drain(&ok).len(), 10);
    }

    #[test]
    fn histogram_sampling_respects_bins_and_mean() {
        let h = Histogram::new(vec![0.0, 1.0, 2.0, 10.0], vec![2.0, 1.0, 1.0]);
        h.validate().unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let n = 100_000;
        let mut sum = 0.0;
        let mut first_bin = 0usize;
        for _ in 0..n {
            let x = h.sample(&mut rng);
            assert!((0.0..10.0).contains(&x));
            sum += x;
            if x < 1.0 {
                first_bin += 1;
            }
        }
        // Mean: (2·0.5 + 1·1.5 + 1·6)/4 = 2.125.
        assert!((sum / n as f64 - h.mean()).abs() < 0.05);
        assert!((h.mean() - 2.125).abs() < 1e-12);
        // First bin holds half the mass.
        assert!((first_bin as f64 / n as f64 - 0.5).abs() < 0.01);
    }

    #[test]
    fn spec_serde_roundtrip() {
        let w = OpenWorkload {
            arrivals: StreamArrivals::Mmpp {
                rates: vec![2.0, 0.5],
                mean_sojourn: 4.0,
            },
            sizes: SizeDist::Exponential { mean: 1.0 },
            bound: StreamBound::Duration(100.0),
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
