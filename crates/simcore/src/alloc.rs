//! The rate-allocation interface between policies and the engine.

use crate::error::SimError;
use serde::{Deserialize, Serialize};

/// The machine environment: `m` identical machines, each of speed `speed`.
///
/// `speed > 1` models resource augmentation: an `s`-speed algorithm
/// processes jobs `s` times faster than the optimal scheduler it is
/// compared against (which runs at speed 1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Number of identical machines, `m ≥ 1`.
    pub m: usize,
    /// Speed of every machine, `s > 0`.
    pub speed: f64,
}

impl MachineConfig {
    /// `m` machines of unit speed.
    pub fn new(m: usize) -> Self {
        MachineConfig { m, speed: 1.0 }
    }

    /// `m` machines of speed `speed`.
    pub fn with_speed(m: usize, speed: f64) -> Self {
        MachineConfig { m, speed }
    }

    /// Per-job rate cap: one machine of speed `s` (a job occupies at most
    /// one machine at a time — Section 2 of the paper).
    #[inline]
    pub fn job_cap(&self) -> f64 {
        self.speed
    }

    /// Aggregate rate cap `m·s`.
    #[inline]
    pub fn total_cap(&self) -> f64 {
        self.m as f64 * self.speed
    }

    /// The processor-sharing rate `s·min(1, m/n)` each of `n` alive jobs
    /// gets when the machines are split equally — Round Robin's allocation
    /// (paper, Section 1.1). This one expression is what a policy
    /// declaring [`RateAllocator::equal_share`] promises to fill, and what
    /// the engine uses in its place.
    #[inline]
    pub fn equal_share(&self, n: usize) -> f64 {
        self.speed * (self.m as f64 / n as f64).min(1.0)
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.m == 0 {
            return Err(SimError::NoMachines);
        }
        if !self.speed.is_finite() || self.speed <= 0.0 {
            return Err(SimError::BadSpeed(self.speed));
        }
        Ok(())
    }
}

/// Snapshot of an alive (released, uncompleted) job handed to allocators.
///
/// Non-clairvoyant policies (RR, SETF, FCFS, LAPS) must ignore
/// [`AliveJob::size`] and [`AliveJob::remaining`]; the engine exposes them
/// uniformly so clairvoyant baselines (SRPT, SJF) share the same interface.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AliveJob {
    /// Trace id of the job.
    pub id: crate::JobId,
    /// Arrival time `r_j`.
    pub arrival: f64,
    /// Total size `p_j` (clairvoyant information).
    pub size: f64,
    /// Weight (1.0 in the unweighted setting).
    pub weight: f64,
    /// Remaining work `p_j −` attained (clairvoyant information).
    pub remaining: f64,
    /// Work received so far (elapsed service; observable on-line).
    pub attained: f64,
    /// Arrival rank among all jobs in the trace (0-based; earlier arrivals
    /// have smaller rank, ties by trace order). Observable on-line.
    pub seq: u32,
}

impl AliveJob {
    /// Age `t − r_j` of the job at time `t ≥ r_j`.
    #[inline]
    pub fn age_at(&self, t: f64) -> f64 {
        (t - self.arrival).max(0.0)
    }
}

/// A scheduling policy, expressed as an instantaneous rate allocator.
///
/// At any time the engine asks the policy to distribute processing rates
/// over the alive jobs subject to the feasibility constraints of Section 2
/// of the paper (scaled by the speed `s`):
///
/// * `0 ≤ rates[i] ≤ cfg.job_cap()` for every job, and
/// * `Σ_i rates[i] ≤ cfg.total_cap()`.
///
/// The engine assumes the allocation stays constant until the next *event*:
/// an arrival, a completion, or the policy-declared review point
/// ([`RateAllocator::review_in`]). Policies whose allocation varies
/// continuously between events (e.g. rates proportional to job age) must
/// return `true` from [`RateAllocator::continuous`]; the engine then bounds
/// step length and re-invokes `allocate` on a fine adaptive grid.
pub trait RateAllocator {
    /// Short stable name for tables and logs (e.g. `"RR"`, `"SRPT"`).
    fn name(&self) -> &'static str;

    /// Fill `rates[i]` with the processing rate for `alive[i]` at time
    /// `now`. `rates` arrives zeroed and has `alive.len()` entries; `alive`
    /// is sorted by `(arrival, seq)`.
    fn allocate(&mut self, now: f64, alive: &[AliveJob], cfg: &MachineConfig, rates: &mut [f64]);

    /// If the allocation just returned may change at a known future time
    /// even without arrivals/completions (e.g. SETF's age-equalization
    /// points), return the duration until that time. `None` means the
    /// allocation is valid until the next external event.
    fn review_in(&self, _now: f64, _alive: &[AliveJob], _cfg: &MachineConfig) -> Option<f64> {
        None
    }

    /// True if rates vary continuously with time between events. The engine
    /// then integrates with bounded adaptive steps instead of trusting
    /// piecewise-constant extrapolation.
    fn continuous(&self) -> bool {
        false
    }

    /// Reset internal state before a fresh simulation run. Stateless
    /// policies need not override this.
    fn reset(&mut self) {}

    /// True if this policy is processor sharing: `allocate` always fills
    /// every rate with [`MachineConfig::equal_share`]`(alive.len())`,
    /// [`RateAllocator::review_in`] is always `None`, and
    /// [`RateAllocator::continuous`] is `false`. Only Round Robin makes
    /// this promise.
    ///
    /// The engine then never calls `allocate`: when no profile is
    /// recorded it runs Round Robin in virtual time, one shared service
    /// counter plus a heap of finish points, at O(log alive) per event
    /// instead of O(alive). The general loop computes the same bits on
    /// every step whose rates are all equal, so a wrapper that forwards
    /// the other methods and leaves this one `false` gets the same
    /// schedule, only slower.
    fn equal_share(&self) -> bool {
        false
    }
}

/// Check an allocation against the feasibility constraints with relative
/// tolerance `rel_eps`; returns the first violation found.
pub fn check_rates(
    alive: &[AliveJob],
    cfg: &MachineConfig,
    rates: &[f64],
    rel_eps: f64,
) -> Result<(), SimError> {
    debug_assert_eq!(alive.len(), rates.len());
    let rules = RateRules::new(cfg, rel_eps);
    let mut total = 0.0;
    for (a, &r) in alive.iter().zip(rates) {
        rules.rate(a.id, r)?;
        total += r;
    }
    rules.total(total)
}

/// The rules [`check_rates`] applies, one rate at a time, so the engine
/// can fold them into its own single pass over an allocation. Checking
/// every rate in job order and then the sum of the unclamped rates
/// reports the same first violation `check_rates` does.
pub(crate) struct RateRules {
    cap: f64,
    tol: f64,
    total_cap: f64,
    rel_eps: f64,
}

impl RateRules {
    pub(crate) fn new(cfg: &MachineConfig, rel_eps: f64) -> Self {
        let cap = cfg.job_cap();
        RateRules {
            cap,
            tol: cap * rel_eps + crate::ABS_EPS,
            total_cap: cfg.total_cap(),
            rel_eps,
        }
    }

    /// `rate` must be finite and within `[0, cap]` up to the tolerance.
    #[inline]
    pub(crate) fn rate(&self, job: crate::JobId, rate: f64) -> Result<(), SimError> {
        if !rate.is_finite() || rate < -self.tol {
            return Err(SimError::BadRate { job, rate });
        }
        if rate > self.cap + self.tol {
            return Err(SimError::RateCapViolated {
                job,
                rate,
                cap: self.cap,
            });
        }
        Ok(())
    }

    /// The rates' sum must stay within the aggregate cap `m·s`.
    #[inline]
    pub(crate) fn total(&self, total: f64) -> Result<(), SimError> {
        if total > self.total_cap * (1.0 + self.rel_eps) + crate::ABS_EPS {
            return Err(SimError::TotalRateViolated {
                total,
                cap: self.total_cap,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alive(n: usize) -> Vec<AliveJob> {
        (0..n)
            .map(|i| AliveJob {
                id: i as u32,
                arrival: 0.0,
                size: 1.0,
                weight: 1.0,
                remaining: 1.0,
                attained: 0.0,
                seq: i as u32,
            })
            .collect()
    }

    #[test]
    fn config_caps() {
        let cfg = MachineConfig::with_speed(4, 2.5);
        assert_eq!(cfg.job_cap(), 2.5);
        assert_eq!(cfg.total_cap(), 10.0);
        assert!(cfg.validate().is_ok());
        assert!(MachineConfig::new(0).validate().is_err());
        assert!(MachineConfig::with_speed(1, 0.0).validate().is_err());
        assert!(MachineConfig::with_speed(1, f64::INFINITY)
            .validate()
            .is_err());
    }

    #[test]
    fn check_rates_accepts_feasible() {
        let cfg = MachineConfig::with_speed(2, 1.0);
        let a = alive(3);
        assert!(check_rates(&a, &cfg, &[1.0, 0.5, 0.5], 1e-9).is_ok());
        assert!(check_rates(&a, &cfg, &[0.0, 0.0, 0.0], 1e-9).is_ok());
    }

    #[test]
    fn check_rates_rejects_violations() {
        let cfg = MachineConfig::with_speed(2, 1.0);
        let a = alive(3);
        assert!(matches!(
            check_rates(&a, &cfg, &[1.5, 0.0, 0.0], 1e-9),
            Err(SimError::RateCapViolated { .. })
        ));
        assert!(matches!(
            check_rates(&a, &cfg, &[1.0, 1.0, 1.0], 1e-9),
            Err(SimError::TotalRateViolated { .. })
        ));
        assert!(matches!(
            check_rates(&a, &cfg, &[-0.5, 0.0, 0.0], 1e-9),
            Err(SimError::BadRate { .. })
        ));
        assert!(matches!(
            check_rates(&a, &cfg, &[f64::NAN, 0.0, 0.0], 1e-9),
            Err(SimError::BadRate { .. })
        ));
    }

    #[test]
    fn check_rates_tolerates_rounding() {
        let cfg = MachineConfig::with_speed(3, 1.0);
        let a = alive(3);
        // Sum is 3.0 + 3 ulps-ish of noise: fine.
        let r = [1.0 + 1e-12, 1.0, 1.0];
        assert!(check_rates(&a, &cfg, &r, 1e-9).is_ok());
    }
}
