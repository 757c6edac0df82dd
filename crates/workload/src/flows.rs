//! Multi-flow workloads: named, weighted traffic classes sharing one
//! machine pool.
//!
//! The fair-queueing literature the paper's introduction leans on (packet
//! scheduling, WFQ/DRR) phrases fairness *per flow*: each flow `i` has a
//! weight `w_i` and the scheduler should hand it a `w_i`-proportional
//! share of service. Experiment E22 measures exactly that, which needs
//! instances where every job belongs to a named flow with its own arrival
//! process, size distribution, and weight:
//!
//! * [`FlowSpec`] — one flow: name × weight × [`StreamArrivals`] ×
//!   [`SizeDist`];
//! * [`FlowSet`] — a set of flows plus one seed; per-flow generator seeds
//!   are derived by splitmix64 so adding a flow never perturbs the
//!   others' jobs;
//! * [`FlowSet::build`] — the *closed* path: drain the open path below
//!   into a plain [`Trace`] (jobs carry their flow's weight; the
//!   [`Job`](tf_simcore::Job) type is untouched) plus a [`FlowMap`]
//!   recording each job's flow membership on the side;
//! * [`FlowSet::stream`] — the *open* path: a [`FlowJobStream`] k-way
//!   merge over per-flow [`OpenJobStream`]s implementing
//!   [`tf_simcore::JobSource`], with a shared [`FlowLog`] the completion
//!   sink reads job→flow membership from (the engine holds the source
//!   mutably, so the tags travel through a shared handle).
//!
//! The two paths generate the *same* jobs: `build` drains `stream` into
//! a trace (pinned by a test below), so streaming results at 10⁶ jobs
//! are directly comparable to closed runs at 10⁴.

use crate::error::WorkloadError;
use crate::sizes::SizeDist;
use crate::splitmix64;
use crate::stream::{OpenJobStream, OpenWorkload, StreamArrivals, StreamBound};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::rc::Rc;
use tf_simcore::{JobId, JobSource, SourcedJob, Trace, TraceBuilder};

/// One traffic class: every job this flow emits carries `weight`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowSpec {
    /// Flow name for tables (non-empty, unique within a [`FlowSet`]).
    pub name: String,
    /// Weight attached to every job of this flow; finite and positive.
    pub weight: f64,
    /// Arrival process of this flow alone.
    pub arrivals: StreamArrivals,
    /// Size distribution of this flow's jobs.
    pub sizes: SizeDist,
}

impl FlowSpec {
    /// A flow from its four parameters.
    pub fn new(
        name: impl Into<String>,
        weight: f64,
        arrivals: StreamArrivals,
        sizes: SizeDist,
    ) -> Self {
        FlowSpec {
            name: name.into(),
            weight,
            arrivals,
            sizes,
        }
    }

    /// Check name, weight, and the underlying process parameters.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        if self.name.is_empty() {
            return Err(WorkloadError::BadFlow("flow name must be non-empty".into()));
        }
        if !(self.weight.is_finite() && self.weight > 0.0) {
            return Err(WorkloadError::BadFlow(format!(
                "flow {:?}: weight {} must be finite and positive",
                self.name, self.weight
            )));
        }
        self.arrivals.validate()?;
        self.sizes.validate()
    }
}

/// A set of flows plus one master seed — the multi-flow counterpart of
/// [`OpenWorkload`]. Serializable so E22 can record exactly what it ran.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowSet {
    /// The flows; at least one, names unique.
    pub flows: Vec<FlowSpec>,
    /// Master seed; flow `i` generates from `splitmix64(seed ⊕ mix(i))`,
    /// so the same flow produces the same jobs regardless of which other
    /// flows accompany it.
    pub seed: u64,
}

impl FlowSet {
    /// A flow set from flows and a seed.
    pub fn new(flows: Vec<FlowSpec>, seed: u64) -> Self {
        FlowSet { flows, seed }
    }

    /// Number of flows.
    pub fn n_flows(&self) -> usize {
        self.flows.len()
    }

    /// Per-flow weights in flow order.
    pub fn weights(&self) -> Vec<f64> {
        self.flows.iter().map(|f| f.weight).collect()
    }

    /// Check every flow and the set-level invariants (non-empty, unique
    /// names).
    pub fn validate(&self) -> Result<(), WorkloadError> {
        if self.flows.is_empty() {
            return Err(WorkloadError::BadFlow("need at least one flow".into()));
        }
        for (i, f) in self.flows.iter().enumerate() {
            f.validate()?;
            if self.flows[..i].iter().any(|g| g.name == f.name) {
                return Err(WorkloadError::BadFlow(format!(
                    "duplicate flow name {:?}",
                    f.name
                )));
            }
        }
        Ok(())
    }

    /// The [`OpenWorkload`] of flow `idx` under `bound` (per-flow seed
    /// derivation lives here so build and stream agree bitwise).
    fn flow_workload(&self, idx: usize, bound: StreamBound) -> OpenWorkload {
        OpenWorkload {
            arrivals: self.flows[idx].arrivals.clone(),
            sizes: self.flows[idx].sizes,
            bound,
            seed: splitmix64(self.seed ^ (0xF10A_0000 + idx as u64)),
        }
    }

    /// **Closed path**: drain [`FlowSet::stream`] under `bound` (applied
    /// per flow: `Count(n)` means `n` jobs *per flow*) into a [`Trace`]
    /// whose jobs carry their flow's weight. The stream's merge order is
    /// the trace's job order (ties resolved by flow index, then per-flow
    /// generation order), so the returned [`FlowMap`] is the stream's
    /// [`FlowLog`].
    ///
    /// # Errors
    /// Validation errors of any flow or the bound.
    pub fn build(&self, bound: StreamBound) -> Result<(Trace, FlowMap), WorkloadError> {
        let mut stream = self.stream(bound)?;
        let mut b = TraceBuilder::new();
        while let Some(j) = stream.next_job() {
            b.push_weighted(j.arrival, j.size, j.weight);
        }
        // The merge emits in nondecreasing arrival order, so the builder's
        // stable sort keeps it and job id k is the k-th emitted job.
        let trace = b
            .build()
            .map_err(|e| WorkloadError::BadFlow(e.to_string()))?;
        let map = FlowMap {
            names: self.flows.iter().map(|f| f.name.clone()).collect(),
            weights: self.weights(),
            flow_of: stream.log.0.take(),
        };
        Ok((trace, map))
    }

    /// **Open path**: a merged [`JobSource`] over all flows under `bound`
    /// (per flow, as in [`FlowSet::build`]), for
    /// [`tf_simcore::simulate_stream`]. Job→flow membership is recorded
    /// in the returned stream's [`FlowLog`] as jobs are emitted.
    ///
    /// # Errors
    /// Validation errors of any flow or the bound.
    pub fn stream(&self, bound: StreamBound) -> Result<FlowJobStream, WorkloadError> {
        self.validate()?;
        let mut streams = Vec::with_capacity(self.flows.len());
        for i in 0..self.flows.len() {
            streams.push(self.flow_workload(i, bound).stream()?);
        }
        let mut next: Vec<Option<SourcedJob>> = Vec::with_capacity(streams.len());
        for s in &mut streams {
            next.push(s.next_job());
        }
        Ok(FlowJobStream {
            streams,
            next,
            weights: self.weights(),
            log: FlowLog::default(),
        })
    }

    /// Label for tables: `"3 flows [a:1, b:2, c:4]"`-style.
    pub fn label(&self) -> String {
        let parts: Vec<String> = self
            .flows
            .iter()
            .map(|f| format!("{}:{}", f.name, f.weight))
            .collect();
        format!("{} flows [{}]", self.flows.len(), parts.join(", "))
    }
}

/// Side table mapping jobs of a built [`Trace`] back to their flows —
/// kept *beside* the trace so the core [`Job`](tf_simcore::Job) type (and
/// everything downstream of it) stays flow-agnostic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowMap {
    names: Vec<String>,
    weights: Vec<f64>,
    flow_of: Vec<u32>,
}

impl FlowMap {
    /// Number of flows.
    pub fn n_flows(&self) -> usize {
        self.names.len()
    }

    /// Number of mapped jobs (= the trace's length).
    pub fn n_jobs(&self) -> usize {
        self.flow_of.len()
    }

    /// Name of flow `f`.
    pub fn name(&self, f: usize) -> &str {
        &self.names[f]
    }

    /// Weight of flow `f`.
    pub fn weight(&self, f: usize) -> f64 {
        self.weights[f]
    }

    /// Per-flow weights in flow order.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The flow index of job `id`.
    pub fn flow_of(&self, id: JobId) -> usize {
        self.flow_of[id as usize] as usize
    }

    /// Flow index of every job, indexed by job id.
    pub fn flow_indices(&self) -> &[u32] {
        &self.flow_of
    }
}

/// Shared, append-only record of which flow each streamed job belongs
/// to, indexed by the dense job id [`simulate_stream`][ss] assigns in
/// emission order. The engine borrows the [`FlowJobStream`] mutably for
/// the whole run, so the completion sink reads membership through this
/// cloned handle instead. 4 bytes per emitted job — the one per-job
/// allocation of the streaming path (4 MB at 10⁶ jobs).
///
/// [ss]: tf_simcore::simulate_stream
#[derive(Debug, Clone, Default)]
pub struct FlowLog(Rc<RefCell<Vec<u32>>>);

impl FlowLog {
    /// The flow index of emitted job `id`.
    ///
    /// # Panics
    /// If `id` has not been emitted yet.
    pub fn flow_of(&self, id: JobId) -> usize {
        self.0.borrow()[id as usize] as usize
    }

    /// Jobs emitted so far.
    pub fn len(&self) -> usize {
        self.0.borrow().len()
    }

    /// Whether no job has been emitted yet.
    pub fn is_empty(&self) -> bool {
        self.0.borrow().is_empty()
    }

    fn push(&self, flow: u32) {
        self.0.borrow_mut().push(flow);
    }
}

/// K-way arrival-order merge over per-flow [`OpenJobStream`]s: one
/// lookahead job per flow, smallest arrival next (ties to the lowest
/// flow index), each emitted job re-weighted to its flow's weight.
#[derive(Debug)]
pub struct FlowJobStream {
    streams: Vec<OpenJobStream>,
    next: Vec<Option<SourcedJob>>,
    weights: Vec<f64>,
    log: FlowLog,
}

impl FlowJobStream {
    /// A handle onto the job→flow record; clone it into the completion
    /// sink before handing the stream to the engine.
    pub fn flow_log(&self) -> FlowLog {
        self.log.clone()
    }
}

impl JobSource for FlowJobStream {
    fn next_job(&mut self) -> Option<SourcedJob> {
        let mut best: Option<usize> = None;
        for (i, j) in self.next.iter().enumerate() {
            if let Some(j) = j {
                if best.is_none_or(|b| j.arrival < self.next[b].unwrap().arrival) {
                    best = Some(i);
                }
            }
        }
        let f = best?;
        let j = self.next[f].take().expect("best points at a job");
        self.next[f] = self.streams[f].next_job();
        self.log.push(f as u32);
        Some(SourcedJob {
            arrival: j.arrival,
            size: j.size,
            weight: self.weights[f],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::ArrivalProcess;

    fn two_flows(seed: u64) -> FlowSet {
        FlowSet::new(
            vec![
                FlowSpec::new(
                    "light",
                    1.0,
                    StreamArrivals::Process(ArrivalProcess::Poisson { rate: 0.5 }),
                    SizeDist::Exponential { mean: 1.0 },
                ),
                FlowSpec::new(
                    "heavy",
                    4.0,
                    StreamArrivals::Process(ArrivalProcess::Poisson { rate: 0.3 }),
                    SizeDist::Pareto {
                        alpha: 1.8,
                        min: 0.3,
                    },
                ),
            ],
            seed,
        )
    }

    fn drain(s: &mut FlowJobStream) -> Vec<SourcedJob> {
        std::iter::from_fn(|| s.next_job()).collect()
    }

    #[test]
    fn build_merges_sorted_and_tags_every_job() {
        let (trace, map) = two_flows(7).build(StreamBound::Count(200)).unwrap();
        assert_eq!(trace.len(), 400);
        assert_eq!(map.n_jobs(), 400);
        assert_eq!(map.n_flows(), 2);
        assert_eq!(map.name(0), "light");
        assert_eq!(map.weight(1), 4.0);
        let mut prev = 0.0;
        let mut per_flow = [0usize; 2];
        for j in trace.jobs() {
            assert!(j.arrival >= prev);
            prev = j.arrival;
            let f = map.flow_of(j.id);
            per_flow[f] += 1;
            // Jobs carry their flow's weight.
            assert_eq!(j.weight, map.weight(f));
        }
        assert_eq!(per_flow, [200, 200]);
    }

    #[test]
    fn build_is_deterministic_and_flows_are_independent() {
        let (t1, m1) = two_flows(9).build(StreamBound::Count(100)).unwrap();
        let (t2, m2) = two_flows(9).build(StreamBound::Count(100)).unwrap();
        assert_eq!(t1.jobs(), t2.jobs());
        assert_eq!(m1, m2);

        // Dropping the second flow must not change the first flow's jobs:
        // per-flow seeds make flows independent of their neighbours.
        let solo = FlowSet::new(vec![two_flows(9).flows.remove(0)], 9);
        let (ts, _) = solo.build(StreamBound::Count(100)).unwrap();
        let light: Vec<(f64, f64)> = t1
            .jobs()
            .iter()
            .filter(|j| m1.flow_of(j.id) == 0)
            .map(|j| (j.arrival, j.size))
            .collect();
        let solo_jobs: Vec<(f64, f64)> = ts.jobs().iter().map(|j| (j.arrival, j.size)).collect();
        assert_eq!(light, solo_jobs);
    }

    #[test]
    fn stream_matches_build_bitwise() {
        let set = two_flows(11);
        let bound = StreamBound::Count(150);
        let (trace, map) = set.build(bound).unwrap();
        let mut s = set.stream(bound).unwrap();
        let log = s.flow_log();
        let jobs = drain(&mut s);
        assert_eq!(jobs.len(), trace.len());
        for (k, (j, t)) in jobs.iter().zip(trace.jobs()).enumerate() {
            assert_eq!(j.arrival, t.arrival, "job {k}");
            assert_eq!(j.size, t.size, "job {k}");
            assert_eq!(j.weight, t.weight, "job {k}");
            assert_eq!(log.flow_of(k as u32), map.flow_of(k as u32), "job {k}");
        }
        assert_eq!(log.len(), trace.len());
    }

    #[test]
    fn validation_rejects_bad_sets() {
        let empty = FlowSet::new(vec![], 0);
        assert!(matches!(
            empty.build(StreamBound::Count(10)),
            Err(WorkloadError::BadFlow(_))
        ));

        let mut dup = two_flows(0);
        dup.flows[1].name = "light".into();
        assert!(matches!(
            dup.validate(),
            Err(WorkloadError::BadFlow(m)) if m.contains("duplicate")
        ));

        let mut bad_w = two_flows(0);
        bad_w.flows[0].weight = 0.0;
        assert!(matches!(bad_w.validate(), Err(WorkloadError::BadFlow(_))));
        bad_w.flows[0].weight = f64::NAN;
        assert!(matches!(bad_w.validate(), Err(WorkloadError::BadFlow(_))));

        let mut unnamed = two_flows(0);
        unnamed.flows[0].name.clear();
        assert!(matches!(unnamed.validate(), Err(WorkloadError::BadFlow(_))));

        // Flow-level process validation still fires.
        let mut bad_rate = two_flows(0);
        bad_rate.flows[0].arrivals =
            StreamArrivals::Process(ArrivalProcess::Poisson { rate: -1.0 });
        assert_eq!(bad_rate.validate(), Err(WorkloadError::BadRate(-1.0)));

        // Bad bound surfaces through build/stream.
        assert!(two_flows(0).build(StreamBound::Count(0)).is_err());
        assert!(two_flows(0).stream(StreamBound::Count(0)).is_err());
    }

    #[test]
    fn serde_roundtrip_and_label() {
        let set = two_flows(42);
        let s = serde_json::to_string(&set).unwrap();
        let back: FlowSet = serde_json::from_str(&s).unwrap();
        assert_eq!(set, back);
        let l = set.label();
        assert!(
            l.contains("2 flows") && l.contains("light") && l.contains("heavy"),
            "{l}"
        );
    }

    #[test]
    fn equal_arrival_ties_go_to_the_lowest_flow_index() {
        // Two periodic flows on the same grid: at every tick both flows
        // have a job; flow 0's must come first in both paths.
        let set = FlowSet::new(
            vec![
                FlowSpec::new(
                    "a",
                    1.0,
                    StreamArrivals::Process(ArrivalProcess::Periodic { interval: 1.0 }),
                    SizeDist::Deterministic(1.0),
                ),
                FlowSpec::new(
                    "b",
                    2.0,
                    StreamArrivals::Process(ArrivalProcess::Periodic { interval: 1.0 }),
                    SizeDist::Deterministic(1.0),
                ),
            ],
            0,
        );
        let (trace, map) = set.build(StreamBound::Count(5)).unwrap();
        let mut s = set.stream(StreamBound::Count(5)).unwrap();
        let log = s.flow_log();
        let jobs = drain(&mut s);
        assert_eq!(jobs.len(), 10);
        for k in 0..10u32 {
            let expect = (k % 2) as usize; // a, b, a, b, … on each tick
            assert_eq!(map.flow_of(k), expect, "job {k} (closed)");
            assert_eq!(log.flow_of(k), expect, "job {k} (open)");
        }
        assert_eq!(trace.jobs()[0].weight, 1.0);
        assert_eq!(trace.jobs()[1].weight, 2.0);
    }
}
