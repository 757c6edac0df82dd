//! Traces: validated, arrival-sorted job sequences.

use crate::error::SimError;
use crate::job::{Job, JobId};
use serde::{Deserialize, Serialize};

/// A validated scheduling instance: jobs sorted by arrival time (ties broken
/// by insertion order), each with finite positive size and weight.
///
/// Job ids equal indices into [`Trace::jobs`], so downstream code can use
/// dense `Vec`s indexed by `JobId` for per-job data.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Trace {
    jobs: Vec<Job>,
}

impl Deserialize for Trace {
    /// Deserialization goes through [`TraceBuilder::build`], so a
    /// hand-written or corrupted JSON trace (non-finite arrival, zero
    /// size, unsorted jobs, stale ids) is rejected or repaired instead of
    /// silently violating the sorted-and-validated invariant every
    /// consumer relies on. A derived impl previously accepted any
    /// `Vec<Job>` verbatim.
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let jobs_value = v
            .get("jobs")
            .ok_or_else(|| serde::Error::missing_field("jobs"))?;
        let jobs: Vec<Job> = Deserialize::from_value(jobs_value)?;
        let mut b = TraceBuilder::new();
        for j in &jobs {
            b.push_weighted(j.arrival, j.size, j.weight);
        }
        b.build().map_err(serde::Error::custom)
    }
}

impl Trace {
    /// Build a trace from `(arrival, size)` pairs with unit weights.
    ///
    /// # Errors
    /// Returns [`SimError`] if any arrival is negative/non-finite or any
    /// size is non-positive/non-finite.
    pub fn from_pairs<I>(pairs: I) -> Result<Self, SimError>
    where
        I: IntoIterator<Item = (f64, f64)>,
    {
        let mut b = TraceBuilder::new();
        for (arrival, size) in pairs {
            b.push(arrival, size);
        }
        b.build()
    }

    /// All jobs, sorted by `(arrival, insertion order)`.
    #[inline]
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Number of jobs `n`.
    #[inline]
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True iff the trace has no jobs.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Job lookup by id (id == index).
    #[inline]
    pub fn job(&self, id: JobId) -> &Job {
        &self.jobs[id as usize]
    }

    /// Total processing requirement `Σ_j p_j`.
    pub fn total_size(&self) -> f64 {
        self.jobs.iter().map(|j| j.size).sum()
    }

    /// Largest job size `max_j p_j` (0 for an empty trace).
    pub fn max_size(&self) -> f64 {
        self.jobs.iter().fold(0.0, |a, j| a.max(j.size))
    }

    /// Earliest arrival (0 for an empty trace).
    pub fn first_arrival(&self) -> f64 {
        self.jobs.first().map_or(0.0, |j| j.arrival)
    }

    /// Latest arrival (0 for an empty trace).
    pub fn last_arrival(&self) -> f64 {
        self.jobs.last().map_or(0.0, |j| j.arrival)
    }

    /// An upper bound on the makespan of *any* non-idling schedule on `m`
    /// machines of speed `speed`: last arrival plus total remaining work
    /// drained at the slowest non-idling rate (one machine).
    ///
    /// Useful for sizing time-indexed LPs and event budgets.
    pub fn makespan_upper_bound(&self, speed: f64) -> f64 {
        self.last_arrival() + self.total_size() / speed
    }

    /// True if all arrivals and sizes are integers (within `tol`) and
    /// every size rounds to at least one unit, the precondition for the
    /// exact time-indexed LP lower bound (its arc costs divide by the
    /// size).
    pub fn is_integral(&self, tol: f64) -> bool {
        self.jobs.iter().all(|j| {
            (j.arrival - j.arrival.round()).abs() <= tol
                && (j.size - j.size.round()).abs() <= tol
                && j.size.round() >= 1.0
        })
    }

    /// Round every arrival down and every size up to the nearest integer,
    /// yielding an integral trace whose optimum lower-bounds metrics of the
    /// original only approximately; used to feed the time-indexed LP when
    /// the source trace is fractional. Sizes are clamped to at least 1.
    pub fn to_integral(&self) -> Trace {
        let jobs = self
            .jobs
            .iter()
            .map(|j| Job {
                id: j.id,
                arrival: j.arrival.floor(),
                size: j.size.ceil().max(1.0),
                weight: j.weight,
            })
            .collect();
        Trace { jobs }
    }

    /// System utilization `ρ = Σ p_j / (m·s·T)` where `T` spans first to
    /// last arrival; a rough congestion indicator (meaningful for arrival
    /// spans `> 0`).
    pub fn utilization(&self, m: usize, speed: f64) -> f64 {
        let span = self.last_arrival() - self.first_arrival();
        if span <= 0.0 {
            f64::INFINITY
        } else {
            self.total_size() / (m as f64 * speed * span)
        }
    }
}

/// Incremental builder for [`Trace`]; sorts and assigns ids at
/// [`TraceBuilder::build`].
#[derive(Debug, Default, Clone)]
pub struct TraceBuilder {
    jobs: Vec<(f64, f64, f64)>, // arrival, size, weight
}

impl TraceBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a unit-weight job.
    pub fn push(&mut self, arrival: f64, size: f64) -> &mut Self {
        self.jobs.push((arrival, size, 1.0));
        self
    }

    /// Append a weighted job.
    pub fn push_weighted(&mut self, arrival: f64, size: f64, weight: f64) -> &mut Self {
        self.jobs.push((arrival, size, weight));
        self
    }

    /// Number of jobs added so far.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True iff no jobs have been added.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Validate, sort by arrival (stable — ties keep insertion order), and
    /// assign dense ids.
    pub fn build(self) -> Result<Trace, SimError> {
        for (i, &(arrival, size, weight)) in self.jobs.iter().enumerate() {
            let id = i as JobId;
            if !size.is_finite() || size <= 0.0 {
                return Err(SimError::BadJobSize { job: id, size });
            }
            if !arrival.is_finite() || arrival < 0.0 {
                return Err(SimError::BadArrival { job: id, arrival });
            }
            if !weight.is_finite() || weight <= 0.0 {
                return Err(SimError::BadWeight { job: id, weight });
            }
        }
        let mut jobs: Vec<Job> = self
            .jobs
            .into_iter()
            .map(|(arrival, size, weight)| Job {
                id: 0,
                arrival,
                size,
                weight,
            })
            .collect();
        // The validation loop above already rejected non-finite arrivals
        // with a typed error, but sort with `total_cmp` anyway: the old
        // `partial_cmp(..).expect("finite arrivals")` left a panic path
        // inside the sort that would fire deep in comparator context if
        // validation and sorting ever drifted apart.
        jobs.sort_by(|a, b| a.arrival.total_cmp(&b.arrival));
        for (i, j) in jobs.iter_mut().enumerate() {
            j.id = i as JobId;
        }
        Ok(Trace { jobs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sorts_and_assigns_ids() {
        let t = Trace::from_pairs([(3.0, 1.0), (1.0, 2.0), (2.0, 5.0)]).unwrap();
        let arrivals: Vec<f64> = t.jobs().iter().map(|j| j.arrival).collect();
        assert_eq!(arrivals, vec![1.0, 2.0, 3.0]);
        let ids: Vec<JobId> = t.jobs().iter().map(|j| j.id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn ties_keep_insertion_order() {
        let mut b = TraceBuilder::new();
        b.push(1.0, 10.0).push(1.0, 20.0).push(1.0, 30.0);
        let t = b.build().unwrap();
        let sizes: Vec<f64> = t.jobs().iter().map(|j| j.size).collect();
        assert_eq!(sizes, vec![10.0, 20.0, 30.0]);
    }

    #[test]
    fn rejects_bad_jobs() {
        assert!(matches!(
            Trace::from_pairs([(0.0, 0.0)]),
            Err(SimError::BadJobSize { .. })
        ));
        assert!(matches!(
            Trace::from_pairs([(-1.0, 1.0)]),
            Err(SimError::BadArrival { .. })
        ));
        assert!(matches!(
            Trace::from_pairs([(0.0, f64::NAN)]),
            Err(SimError::BadJobSize { .. })
        ));
        let mut b = TraceBuilder::new();
        b.push_weighted(0.0, 1.0, 0.0);
        assert!(matches!(b.build(), Err(SimError::BadWeight { .. })));
    }

    #[test]
    fn aggregates() {
        let t = Trace::from_pairs([(0.0, 2.0), (4.0, 6.0)]).unwrap();
        assert_eq!(t.total_size(), 8.0);
        assert_eq!(t.max_size(), 6.0);
        assert_eq!(t.first_arrival(), 0.0);
        assert_eq!(t.last_arrival(), 4.0);
        assert_eq!(t.makespan_upper_bound(2.0), 4.0 + 4.0);
        assert!((t.utilization(1, 1.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn integrality_checks_and_rounding() {
        let t = Trace::from_pairs([(0.0, 2.0), (3.0, 1.0)]).unwrap();
        assert!(t.is_integral(1e-9));
        let f = Trace::from_pairs([(0.5, 1.2)]).unwrap();
        assert!(!f.is_integral(1e-9));
        let g = f.to_integral();
        assert_eq!(g.job(0).arrival, 0.0);
        assert_eq!(g.job(0).size, 2.0);
        // Tiny sizes round up to at least 1.
        let h = Trace::from_pairs([(0.0, 0.01)]).unwrap().to_integral();
        assert_eq!(h.job(0).size, 1.0);
    }

    /// A positive size within the tolerance of 0 rounds to a 0-unit job,
    /// which the time-indexed LP cannot hold: it divides by the size.
    #[test]
    fn near_zero_sizes_are_not_integral() {
        for tiny in [1e-12, 1e-310] {
            let t = Trace::from_pairs([(0.0, 3.0), (0.0, tiny)]).unwrap();
            assert!(!t.is_integral(1e-9), "size {tiny}");
        }
    }

    #[test]
    fn empty_trace() {
        let t = TraceBuilder::new().build().unwrap();
        assert!(t.is_empty());
        assert_eq!(t.total_size(), 0.0);
        assert_eq!(t.makespan_upper_bound(1.0), 0.0);
    }

    #[test]
    fn serde_roundtrip() {
        let t = Trace::from_pairs([(0.0, 2.0), (4.0, 6.0)]).unwrap();
        let s = serde_json::to_string(&t).unwrap();
        let back: Trace = serde_json::from_str(&s).unwrap();
        assert_eq!(t, back);
    }

    /// Non-finite arrivals must surface the typed validation error, never
    /// reach the sort. (The sort itself now uses `total_cmp`, so there is
    /// no panic path even hypothetically.)
    #[test]
    fn non_finite_arrivals_yield_typed_errors() {
        assert!(matches!(
            Trace::from_pairs([(f64::NAN, 1.0)]),
            Err(SimError::BadArrival { job: 0, .. })
        ));
        assert!(matches!(
            Trace::from_pairs([(0.0, 1.0), (f64::INFINITY, 1.0)]),
            Err(SimError::BadArrival { job: 1, .. })
        ));
        assert!(matches!(
            Trace::from_pairs([(0.0, f64::INFINITY)]),
            Err(SimError::BadJobSize { .. })
        ));
    }

    /// Regression: the derived `Deserialize` accepted any `Vec<Job>`
    /// verbatim — invalid values and unsorted arrivals bypassed
    /// validation entirely. Deserialization now routes through the
    /// builder.
    #[test]
    fn deserialize_validates_and_restores_invariants() {
        // Invalid size sneaks past no more.
        let bad = r#"{"jobs":[{"id":0,"arrival":0.0,"size":0.0,"weight":1.0}]}"#;
        assert!(serde_json::from_str::<Trace>(bad).is_err());
        // Negative arrival rejected.
        let bad = r#"{"jobs":[{"id":0,"arrival":-1.0,"size":1.0,"weight":1.0}]}"#;
        assert!(serde_json::from_str::<Trace>(bad).is_err());
        // Unsorted input is re-sorted and re-id'd, restoring the invariant.
        let unsorted = r#"{"jobs":[
            {"id":7,"arrival":5.0,"size":1.0,"weight":1.0},
            {"id":3,"arrival":1.0,"size":2.0,"weight":1.0}]}"#;
        let t: Trace = serde_json::from_str(unsorted).unwrap();
        assert_eq!(t.job(0).arrival, 1.0);
        assert_eq!(t.job(1).arrival, 5.0);
        assert_eq!(t.jobs().iter().map(|j| j.id).collect::<Vec<_>>(), [0, 1]);
    }
}
