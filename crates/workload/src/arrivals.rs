//! Arrival processes.

use crate::error::WorkloadError;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// How job arrival times are generated.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// Poisson process with the given rate (jobs per unit time):
    /// i.i.d. exponential inter-arrival gaps.
    Poisson {
        /// Arrival rate (jobs per unit time).
        rate: f64,
    },
    /// Deterministic arrivals every `interval` time units.
    Periodic {
        /// Gap between consecutive arrivals.
        interval: f64,
    },
    /// `per_batch` simultaneous arrivals every `interval` time units —
    /// maximizes instantaneous contention.
    Batched {
        /// Gap between batches.
        interval: f64,
        /// Simultaneous arrivals per batch.
        per_batch: usize,
    },
    /// All jobs arrive at time 0.
    AllAtOnce,
    /// Non-homogeneous Poisson with a sinusoidal ("diurnal") rate:
    /// `λ(t) = base · (1 + amplitude·sin(2πt/period))`, sampled by
    /// thinning. Models the day/night load cycles real clusters see.
    Diurnal {
        /// Mean arrival rate (jobs per unit time).
        base: f64,
        /// Relative swing, in `[0, 1)` (0 = plain Poisson).
        amplitude: f64,
        /// Cycle length.
        period: f64,
    },
}

impl ArrivalProcess {
    /// Check every parameter, rejecting values that would silently produce
    /// garbage arrivals: `Poisson { rate: 0.0 }` yields `inf` arrival
    /// times, a zero `interval` collapses all batches onto t=0, and a
    /// diurnal `amplitude ≥ 1` makes the instantaneous rate negative
    /// (nonsensical thinning acceptance probabilities).
    pub fn validate(&self) -> Result<(), WorkloadError> {
        let finite_pos = |v: f64| v.is_finite() && v > 0.0;
        match *self {
            ArrivalProcess::Poisson { rate } => {
                if !finite_pos(rate) {
                    return Err(WorkloadError::BadRate(rate));
                }
            }
            ArrivalProcess::Periodic { interval } | ArrivalProcess::Batched { interval, .. } => {
                if !finite_pos(interval) {
                    return Err(WorkloadError::BadInterval(interval));
                }
            }
            ArrivalProcess::AllAtOnce => {}
            ArrivalProcess::Diurnal {
                base,
                amplitude,
                period,
            } => {
                if !finite_pos(base) {
                    return Err(WorkloadError::BadRate(base));
                }
                if !(0.0..1.0).contains(&amplitude) {
                    return Err(WorkloadError::BadAmplitude(amplitude));
                }
                if !finite_pos(period) {
                    return Err(WorkloadError::BadPeriod(period));
                }
            }
        }
        Ok(())
    }

    /// Generate `n` arrival times (non-decreasing, starting at 0).
    pub fn generate<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<f64> {
        let mut prev = 0.0;
        (0..n as u64)
            .map(|i| {
                prev = self.next_arrival(i, prev, rng);
                prev
            })
            .collect()
    }

    /// Arrival `i` (0-based) given arrival `i − 1` (`prev`; 0 before the
    /// first). Closed traces ([`ArrivalProcess::generate`]) and open
    /// streams ([`crate::OpenJobStream`]) both step this one function, so
    /// they differ only in the RNG they pass.
    pub(crate) fn next_arrival<R: Rng + ?Sized>(&self, i: u64, prev: f64, rng: &mut R) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate } => prev + exp_gap(rng, rate),
            ArrivalProcess::Periodic { interval } => i as f64 * interval,
            ArrivalProcess::Batched {
                interval,
                per_batch,
            } => (i / per_batch.max(1) as u64) as f64 * interval,
            ArrivalProcess::AllAtOnce => 0.0,
            ArrivalProcess::Diurnal {
                base,
                amplitude,
                period,
            } => {
                // Thinning: draw from a Poisson process at the peak rate
                // λ_max = base·(1+amplitude), accept each point with
                // probability λ(t)/λ_max.
                let lmax = base * (1.0 + amplitude);
                let mut t = prev;
                loop {
                    t += exp_gap(rng, lmax);
                    let rate =
                        base * (1.0 + amplitude * (std::f64::consts::TAU * t / period).sin());
                    if rng.gen::<f64>() * lmax <= rate {
                        return t;
                    }
                }
            }
        }
    }

    /// Long-run arrival rate (jobs per unit time); infinite for
    /// [`ArrivalProcess::AllAtOnce`].
    pub fn rate(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate } => rate,
            ArrivalProcess::Periodic { interval } => 1.0 / interval,
            ArrivalProcess::Batched {
                interval,
                per_batch,
            } => {
                // `generate()` clamps `per_batch` to 1; clamp identically
                // here so load/ρ computations never divide by a rate the
                // generator cannot produce (per_batch = 0 used to report
                // rate 0 while the generator emitted one job per interval).
                per_batch.max(1) as f64 / interval
            }
            ArrivalProcess::AllAtOnce => f64::INFINITY,
            ArrivalProcess::Diurnal { base, .. } => base,
        }
    }
}

/// An `Exp(rate)` gap by inversion, with `u ∈ [f64::MIN_POSITIVE, 1)` so
/// `ln u` stays finite.
fn exp_gap<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    -u.ln() / rate
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn poisson_mean_gap_matches_rate() {
        let p = ArrivalProcess::Poisson { rate: 2.0 };
        let mut rng = StdRng::seed_from_u64(5);
        let times = p.generate(100_000, &mut rng);
        let mean_gap = times.last().unwrap() / times.len() as f64;
        assert!((mean_gap - 0.5).abs() < 0.01, "{mean_gap}");
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn periodic_and_batched() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(
            ArrivalProcess::Periodic { interval: 2.0 }.generate(3, &mut rng),
            vec![0.0, 2.0, 4.0]
        );
        assert_eq!(
            ArrivalProcess::Batched {
                interval: 1.0,
                per_batch: 2
            }
            .generate(5, &mut rng),
            vec![0.0, 0.0, 1.0, 1.0, 2.0]
        );
        assert_eq!(
            ArrivalProcess::AllAtOnce.generate(3, &mut rng),
            vec![0.0; 3]
        );
    }

    #[test]
    fn diurnal_mean_rate_and_cycle_bias() {
        let p = ArrivalProcess::Diurnal {
            base: 1.0,
            amplitude: 0.8,
            period: 100.0,
        };
        let mut rng = StdRng::seed_from_u64(21);
        let times = p.generate(100_000, &mut rng);
        // Long-run rate ≈ base.
        let mean_gap = times.last().unwrap() / times.len() as f64;
        assert!((mean_gap - 1.0).abs() < 0.03, "{mean_gap}");
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        // Peaks (first half of each cycle, sin > 0) must hold well over
        // half the arrivals.
        let peak =
            times.iter().filter(|&&t| (t % 100.0) < 50.0).count() as f64 / times.len() as f64;
        assert!(peak > 0.6, "no diurnal bias: {peak}");
    }

    #[test]
    fn batched_zero_per_batch_rate_matches_generator() {
        // Regression: `generate()` clamps per_batch to 1, so `rate()` must
        // report the clamped rate rather than 0 (which made downstream ρ
        // computations divide by a rate the generator never produced).
        let p = ArrivalProcess::Batched {
            interval: 2.0,
            per_batch: 0,
        };
        let mut rng = StdRng::seed_from_u64(0);
        let times = p.generate(3, &mut rng);
        assert_eq!(times, vec![0.0, 2.0, 4.0]); // one job per interval
        assert_eq!(p.rate(), 0.5); // 1 job / 2 time units — not 0
    }

    #[test]
    fn validate_accepts_good_and_rejects_bad() {
        use crate::error::WorkloadError;
        assert!(ArrivalProcess::Poisson { rate: 1.0 }.validate().is_ok());
        assert!(ArrivalProcess::AllAtOnce.validate().is_ok());
        assert!(ArrivalProcess::Diurnal {
            base: 2.0,
            amplitude: 0.0,
            period: 10.0
        }
        .validate()
        .is_ok());

        assert_eq!(
            ArrivalProcess::Poisson { rate: 0.0 }.validate(),
            Err(WorkloadError::BadRate(0.0))
        );
        assert!(ArrivalProcess::Poisson { rate: f64::NAN }
            .validate()
            .is_err());
        assert!(ArrivalProcess::Poisson {
            rate: f64::INFINITY
        }
        .validate()
        .is_err());
        assert_eq!(
            ArrivalProcess::Periodic { interval: 0.0 }.validate(),
            Err(WorkloadError::BadInterval(0.0))
        );
        assert_eq!(
            ArrivalProcess::Batched {
                interval: -1.0,
                per_batch: 2
            }
            .validate(),
            Err(WorkloadError::BadInterval(-1.0))
        );
        assert_eq!(
            ArrivalProcess::Diurnal {
                base: 1.0,
                amplitude: 1.0,
                period: 10.0
            }
            .validate(),
            Err(WorkloadError::BadAmplitude(1.0))
        );
        assert!(ArrivalProcess::Diurnal {
            base: 1.0,
            amplitude: -0.1,
            period: 10.0
        }
        .validate()
        .is_err());
        assert!(matches!(
            ArrivalProcess::Diurnal {
                base: 1.0,
                amplitude: 0.5,
                period: f64::NAN
            }
            .validate(),
            Err(WorkloadError::BadPeriod(p)) if p.is_nan()
        ));
    }

    #[test]
    fn rates() {
        assert_eq!(ArrivalProcess::Poisson { rate: 3.0 }.rate(), 3.0);
        assert_eq!(ArrivalProcess::Periodic { interval: 0.5 }.rate(), 2.0);
        assert_eq!(
            ArrivalProcess::Batched {
                interval: 2.0,
                per_batch: 4
            }
            .rate(),
            2.0
        );
        assert!(ArrivalProcess::AllAtOnce.rate().is_infinite());
    }
}
