//! Piecewise-constant schedule profiles.
//!
//! A [`Profile`] is the exact record of what a policy did: a sequence of
//! time segments, each with a constant rate per alive job. Downstream
//! analysis (the dual-fitting machinery in `tf-core`, the schedule
//! validator, fairness time series) consumes profiles rather than
//! re-simulating.
//!
//! Internally the per-segment `(job, rate)` lists live in one flat arena
//! shared by all segments, so recording a segment is an arena append
//! rather than a fresh `Vec` allocation — the engine records one segment
//! per event, and per-event allocation dominated profiling cost before
//! this layout. Segments are exposed as borrowed [`SegmentRef`] views;
//! the owned [`Segment`] remains as a convenience for construction in
//! tests and for single-segment utilities (McNaughton realization).

use crate::job::JobId;
use serde::{Deserialize, Serialize};

/// One maximal interval `[t0, t1)` during which the alive set and all
/// rates are constant — the *owned* form, used to build profiles by hand
/// ([`Profile::from_segments`]) and as input to single-segment utilities.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Segment {
    /// Segment start time.
    pub t0: f64,
    /// Segment end time (`> t0`).
    pub t1: f64,
    /// `(job, rate)` for every alive job, sorted by job id (= arrival
    /// order). Jobs with zero rate are included: aliveness matters to the
    /// analysis even when a job is not being processed.
    pub rates: Vec<(JobId, f64)>,
}

impl Segment {
    /// Borrowed view of this segment.
    #[inline]
    pub fn as_ref(&self) -> SegmentRef<'_> {
        SegmentRef {
            t0: self.t0,
            t1: self.t1,
            rates: &self.rates,
        }
    }

    /// Segment length `t1 − t0`.
    #[inline]
    pub fn duration(&self) -> f64 {
        self.as_ref().duration()
    }

    /// Number of alive jobs `n_t` in this segment.
    #[inline]
    pub fn n_alive(&self) -> usize {
        self.as_ref().n_alive()
    }

    /// Whether the segment is *overloaded* in the paper's sense
    /// (`|A(t)| ≥ m`, all machines busy under RR).
    #[inline]
    pub fn overloaded(&self, m: usize) -> bool {
        self.as_ref().overloaded(m)
    }

    /// Rate of `job` in this segment, or `None` if it is not alive here.
    pub fn rate_of(&self, job: JobId) -> Option<f64> {
        self.as_ref().rate_of(job)
    }

    /// Total processing rate in this segment.
    pub fn total_rate(&self) -> f64 {
        self.as_ref().total_rate()
    }
}

/// Borrowed view of one profile segment: times plus a slice into the
/// profile's rate arena. `Copy`, so iteration hands these out by value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentRef<'a> {
    /// Segment start time.
    pub t0: f64,
    /// Segment end time (`> t0`).
    pub t1: f64,
    /// `(job, rate)` per alive job, sorted by job id (= arrival order).
    pub rates: &'a [(JobId, f64)],
}

impl SegmentRef<'_> {
    /// Segment length `t1 − t0`.
    #[inline]
    pub fn duration(&self) -> f64 {
        self.t1 - self.t0
    }

    /// Number of alive jobs `n_t` in this segment.
    #[inline]
    pub fn n_alive(&self) -> usize {
        self.rates.len()
    }

    /// Whether the segment is *overloaded* in the paper's sense
    /// (`|A(t)| ≥ m`, all machines busy under RR).
    #[inline]
    pub fn overloaded(&self, m: usize) -> bool {
        self.rates.len() >= m
    }

    /// Rate of `job` in this segment, or `None` if it is not alive here.
    pub fn rate_of(&self, job: JobId) -> Option<f64> {
        self.rates
            .binary_search_by_key(&job, |&(id, _)| id)
            .ok()
            .map(|i| self.rates[i].1)
    }

    /// Total processing rate in this segment.
    pub fn total_rate(&self) -> f64 {
        self.rates.iter().map(|&(_, r)| r).sum()
    }

    /// Owned copy of this segment.
    pub fn to_owned(&self) -> Segment {
        Segment {
            t0: self.t0,
            t1: self.t1,
            rates: self.rates.to_vec(),
        }
    }
}

/// Index entry of one segment: its times and its slice of the arena.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct Span {
    t0: f64,
    t1: f64,
    /// First entry in the arena.
    start: usize,
    /// Number of arena entries (= alive jobs).
    len: usize,
}

/// The complete piecewise-constant execution record of one simulation.
///
/// Segments are contiguous and ordered: `segment(i).t1 == segment(i+1).t0`
/// except across idle gaps (no alive jobs), which are omitted. Access them
/// through [`Profile::segments`] / [`Profile::segment`]; the backing
/// storage is a flat arena, not per-segment vectors.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Profile {
    /// Per-segment index into `arena`.
    spans: Vec<Span>,
    /// All segments' `(job, rate)` entries, back to back.
    arena: Vec<(JobId, f64)>,
    /// Machine count the schedule ran on.
    pub m: usize,
    /// Machine speed the schedule ran at.
    pub speed: f64,
}

impl Profile {
    /// An empty profile for the given machine environment.
    pub fn new(m: usize, speed: f64) -> Self {
        Profile {
            spans: Vec::new(),
            arena: Vec::new(),
            m,
            speed,
        }
    }

    /// Build a profile from owned segments (test/bench convenience; the
    /// engine records directly into the arena via [`Profile::push`]).
    pub fn from_segments(segments: Vec<Segment>, m: usize, speed: f64) -> Self {
        let mut p = Profile::new(m, speed);
        for s in segments {
            p.push(s.t0, s.t1, s.rates);
        }
        p
    }

    /// Append a segment: `(job, rate)` entries go into the shared arena,
    /// so the only per-call cost is an amortized slice append.
    pub fn push(&mut self, t0: f64, t1: f64, rates: impl IntoIterator<Item = (JobId, f64)>) {
        let start = self.arena.len();
        self.arena.extend(rates);
        self.spans.push(Span {
            t0,
            t1,
            start,
            len: self.arena.len() - start,
        });
    }

    /// Extend the last segment's end to `t` if `t` is beyond it. The
    /// engine uses this to keep the profile contiguous after snapping time
    /// exactly onto an arrival instant; the adjustment is floating-point
    /// noise by construction (asserted at the call site).
    pub fn stretch_last_end(&mut self, t: f64) {
        if let Some(s) = self.spans.last_mut() {
            s.t1 = s.t1.max(t);
        }
    }

    /// Number of segments.
    #[inline]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True iff the profile has no segments.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The `i`-th segment.
    ///
    /// # Panics
    /// If `i >= self.len()`.
    #[inline]
    pub fn segment(&self, i: usize) -> SegmentRef<'_> {
        let s = &self.spans[i];
        SegmentRef {
            t0: s.t0,
            t1: s.t1,
            rates: &self.arena[s.start..s.start + s.len],
        }
    }

    /// Iterate over all segments in time order.
    pub fn segments(&self) -> Segments<'_> {
        Segments {
            profile: self,
            front: 0,
            back: self.spans.len(),
        }
    }

    /// The first segment, if any.
    pub fn first(&self) -> Option<SegmentRef<'_>> {
        (!self.is_empty()).then(|| self.segment(0))
    }

    /// The last segment, if any.
    pub fn last(&self) -> Option<SegmentRef<'_>> {
        self.len().checked_sub(1).map(|i| self.segment(i))
    }

    /// Mutable access to the `i`-th segment's `(job, rate)` entries —
    /// for tests that tamper with recorded profiles to exercise
    /// validators. Not used by the engine.
    pub fn rates_mut(&mut self, i: usize) -> &mut [(JobId, f64)] {
        let s = &self.spans[i];
        &mut self.arena[s.start..s.start + s.len]
    }

    /// Total work processed across all segments (`Σ rate·duration`).
    pub fn total_work(&self) -> f64 {
        self.segments().map(|s| s.total_rate() * s.duration()).sum()
    }

    /// Work received by `job` over the whole profile.
    pub fn work_of(&self, job: JobId) -> f64 {
        self.segments()
            .filter_map(|s| s.rate_of(job).map(|r| r * s.duration()))
            .sum()
    }

    /// The segment covering time `t` (segments are half-open `[t0, t1)`),
    /// or `None` during idle gaps / outside the horizon.
    pub fn segment_at(&self, t: f64) -> Option<SegmentRef<'_>> {
        let i = self.spans.partition_point(|s| s.t1 <= t);
        (i < self.spans.len())
            .then(|| self.segment(i))
            .filter(|s| s.t0 <= t && t < s.t1)
    }

    /// End of the last segment (makespan), or 0 for an empty profile.
    pub fn end(&self) -> f64 {
        self.spans.last().map_or(0.0, |s| s.t1)
    }

    /// Merge adjacent segments with identical alive sets and rates;
    /// the engine already emits maximal segments for piecewise-constant
    /// policies, but adaptive stepping of continuous policies produces many
    /// splittable neighbors. `rate_tol` is the absolute per-job tolerance
    /// for "identical". Compacts the arena as a side effect.
    pub fn coalesce(&mut self, rate_tol: f64) {
        let mut spans: Vec<Span> = Vec::with_capacity(self.spans.len());
        let mut arena: Vec<(JobId, f64)> = Vec::with_capacity(self.arena.len());
        for s in &self.spans {
            let rates = &self.arena[s.start..s.start + s.len];
            // On the first iteration `spans` is empty, so the merge arm is
            // structurally unreachable then: `last_mut()` is `None` and we
            // fall through to the push arm. (An earlier version computed
            // `spans.last().is_some_and(..)` and then re-fetched
            // `spans.last_mut().unwrap()` — correct, but the unwrap's
            // safety depended on the two calls observing the same state.)
            if let Some(last) = spans.last_mut().filter(|last: &&mut Span| {
                last.t1 == s.t0
                    && last.len == s.len
                    && arena[last.start..last.start + last.len]
                        .iter()
                        .zip(rates)
                        .all(|(&(i1, r1), &(i2, r2))| i1 == i2 && (r1 - r2).abs() <= rate_tol)
            }) {
                last.t1 = s.t1;
            } else {
                let start = arena.len();
                arena.extend_from_slice(rates);
                spans.push(Span {
                    t0: s.t0,
                    t1: s.t1,
                    start,
                    len: s.len,
                });
            }
        }
        self.spans = spans;
        self.arena = arena;
    }
}

/// Equality is over the *logical* segments, independent of arena layout
/// (coalescing or hand-construction may pack the arena differently).
impl PartialEq for Profile {
    fn eq(&self, other: &Self) -> bool {
        self.m == other.m
            && self.speed == other.speed
            && self.len() == other.len()
            && self.segments().zip(other.segments()).all(|(a, b)| a == b)
    }
}

/// Iterator over a profile's segments (see [`Profile::segments`]).
pub struct Segments<'a> {
    profile: &'a Profile,
    front: usize,
    back: usize,
}

impl<'a> Iterator for Segments<'a> {
    type Item = SegmentRef<'a>;

    fn next(&mut self) -> Option<SegmentRef<'a>> {
        (self.front < self.back).then(|| {
            let s = self.profile.segment(self.front);
            self.front += 1;
            s
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.back - self.front;
        (n, Some(n))
    }
}

impl DoubleEndedIterator for Segments<'_> {
    fn next_back(&mut self) -> Option<Self::Item> {
        (self.front < self.back).then(|| {
            self.back -= 1;
            self.profile.segment(self.back)
        })
    }
}

impl ExactSizeIterator for Segments<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(t0: f64, t1: f64, rates: &[(JobId, f64)]) -> Segment {
        Segment {
            t0,
            t1,
            rates: rates.to_vec(),
        }
    }

    fn profile(segs: Vec<Segment>) -> Profile {
        Profile::from_segments(segs, 1, 1.0)
    }

    #[test]
    fn segment_accessors() {
        let s = seg(1.0, 3.0, &[(0, 0.5), (2, 0.25)]);
        assert_eq!(s.duration(), 2.0);
        assert_eq!(s.n_alive(), 2);
        assert_eq!(s.rate_of(0), Some(0.5));
        assert_eq!(s.rate_of(1), None);
        assert_eq!(s.rate_of(2), Some(0.25));
        assert_eq!(s.total_rate(), 0.75);
        assert!(s.overloaded(2));
        assert!(!s.overloaded(3));
        // The borrowed view agrees with the owned segment.
        let r = s.as_ref();
        assert_eq!(r.to_owned(), s);
    }

    #[test]
    fn work_accounting() {
        let p = profile(vec![
            seg(0.0, 2.0, &[(0, 1.0)]),
            seg(2.0, 4.0, &[(0, 0.5), (1, 0.5)]),
        ]);
        assert!((p.total_work() - 4.0).abs() < 1e-12);
        assert!((p.work_of(0) - 3.0).abs() < 1e-12);
        assert!((p.work_of(1) - 1.0).abs() < 1e-12);
        assert_eq!(p.work_of(9), 0.0);
        assert_eq!(p.end(), 4.0);
    }

    #[test]
    fn segment_lookup_handles_gaps() {
        let p = profile(vec![seg(0.0, 1.0, &[(0, 1.0)]), seg(5.0, 6.0, &[(1, 1.0)])]);
        assert_eq!(p.segment_at(0.5).map(|s| s.n_alive()), Some(1));
        assert!(p.segment_at(3.0).is_none()); // idle gap
        assert_eq!(p.segment_at(5.0).map(|s| s.n_alive()), Some(1));
        assert!(p.segment_at(6.0).is_none()); // half-open at the end
        assert!(p.segment_at(0.999999).is_some());
        assert!(p.segment_at(1.0).is_none());
    }

    #[test]
    fn coalesce_merges_identical_neighbors() {
        let mut p = profile(vec![
            seg(0.0, 1.0, &[(0, 0.5), (1, 0.5)]),
            seg(1.0, 2.0, &[(0, 0.5), (1, 0.5)]),
            seg(2.0, 3.0, &[(0, 1.0)]),
        ]);
        p.coalesce(1e-12);
        assert_eq!(p.len(), 2);
        assert_eq!(p.segment(0).t1, 2.0);
        // Coalescing compacted the arena: 2 + 1 entries remain.
        assert_eq!(p.segments().map(|s| s.n_alive()).sum::<usize>(), 3);
    }

    #[test]
    fn coalesce_respects_gaps_and_rate_differences() {
        let mut p = profile(vec![
            seg(0.0, 1.0, &[(0, 0.5)]),
            seg(2.0, 3.0, &[(0, 0.5)]), // gap: no merge
            seg(3.0, 4.0, &[(0, 0.6)]), // different rate: no merge
        ]);
        p.coalesce(1e-12);
        assert_eq!(p.len(), 3);
    }

    /// Edge cases around the coalesce merge arm: an empty profile (the
    /// merge arm must be structurally unreachable, not just guarded), and
    /// a zero-length leading sliver, which the engine can emit when an
    /// arrival lands exactly on a review point.
    #[test]
    fn coalesce_edge_cases() {
        let mut empty = Profile::new(1, 1.0);
        empty.coalesce(1e-12);
        assert!(empty.is_empty());

        // Zero-length leading sliver with the same rates as its successor:
        // it merges away (t1 == successor.t0, identical alive set/rates).
        let mut p = profile(vec![seg(0.0, 0.0, &[(0, 1.0)]), seg(0.0, 2.0, &[(0, 1.0)])]);
        p.coalesce(1e-12);
        assert_eq!(p.len(), 1);
        assert_eq!(p.segment(0).t0, 0.0);
        assert_eq!(p.segment(0).t1, 2.0);

        // A lone zero-length sliver survives untouched (nothing to merge).
        let mut lone = profile(vec![seg(3.0, 3.0, &[(0, 1.0)])]);
        lone.coalesce(1e-12);
        assert_eq!(lone.len(), 1);
        assert_eq!(lone.segment(0).duration(), 0.0);
    }

    #[test]
    fn push_and_iterate() {
        let mut p = Profile::new(2, 1.5);
        p.push(0.0, 1.0, [(0, 1.0), (1, 0.5)]);
        p.push(1.0, 2.5, [(1, 1.0)]);
        assert_eq!(p.len(), 2);
        assert_eq!(p.segments().len(), 2);
        let segs: Vec<_> = p.segments().collect();
        assert_eq!(segs[0].rates, [(0, 1.0), (1, 0.5)]);
        assert_eq!(segs[1].rates, [(1, 1.0)]);
        // Reverse iteration sees the same segments.
        let rev: Vec<_> = p.segments().rev().collect();
        assert_eq!(rev[0], segs[1]);
        assert_eq!(rev[1], segs[0]);
        assert_eq!(p.first().unwrap(), segs[0]);
        assert_eq!(p.last().unwrap(), segs[1]);
    }

    #[test]
    fn stretch_last_end_only_grows() {
        let mut p = Profile::new(1, 1.0);
        p.stretch_last_end(5.0); // no segments: no-op
        assert!(p.is_empty());
        p.push(0.0, 1.0, [(0, 1.0)]);
        p.stretch_last_end(0.5); // earlier than t1: no-op
        assert_eq!(p.last().unwrap().t1, 1.0);
        p.stretch_last_end(1.25);
        assert_eq!(p.last().unwrap().t1, 1.25);
    }

    #[test]
    fn logical_equality_ignores_arena_layout() {
        let a = profile(vec![seg(0.0, 1.0, &[(0, 0.5)]), seg(1.0, 2.0, &[(0, 0.5)])]);
        let mut b = a.clone();
        b.coalesce(0.0); // no merge possible? identical rates — merges!
        assert_ne!(a, b); // merged: different logical segments
        let mut c = a.clone();
        c.coalesce(-1.0); // negative tolerance: nothing merges, layout same
        assert_eq!(a, c);
    }

    #[test]
    fn serde_roundtrip() {
        let p = profile(vec![
            seg(0.0, 1.5, &[(0, 0.25), (1, 0.75)]),
            seg(1.5, 2.0, &[(1, 1.0)]),
        ]);
        let json = serde_json::to_string(&p).unwrap();
        let back: Profile = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}
