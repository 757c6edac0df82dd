//! Per-flow flow-time metrics.
//!
//! The fair-queueing view of temporal fairness (experiment E22) asks how
//! a policy treats *flows* — weighted traffic classes — rather than
//! individual jobs. Jobs are mapped to flows by the side table
//! `tf-workload` builds ([`FlowMap`]-style `flow_of` indices); these
//! helpers regroup a job-indexed flow-time vector by flow and compute
//! the paper's ℓk objectives within each group.
//!
//! Like the weighted objectives ([`crate::weighted`]), all functions
//! panic on malformed inputs (length mismatches, out-of-range flow
//! indices) — a silently dropped job would mis-state every per-flow
//! norm.
//!
//! [`FlowMap`]: ../tf_workload/flows/struct.FlowMap.html

use crate::stats::FlowStats;
use crate::streaming::{StreamingFlowStats, StreamingNorm};

/// Panics unless `flow_of` matches `n_values` entries and every index is
/// `< n_flows`.
fn validate_flow_of(n_values: usize, flow_of: &[u32], n_flows: usize) {
    assert_eq!(
        n_values,
        flow_of.len(),
        "per-flow metrics: {} values but {} flow tags",
        n_values,
        flow_of.len()
    );
    if let Some(&f) = flow_of.iter().find(|&&f| f as usize >= n_flows) {
        panic!("per-flow metrics: flow index {f} out of range (n_flows = {n_flows})");
    }
}

/// Regroup a job-indexed value vector (`values[j]` = flow time of job
/// `j`) into per-flow vectors: result `[f]` holds the values of the jobs
/// with `flow_of[j] == f`, in job order.
///
/// # Panics
/// If `values` and `flow_of` differ in length or any flow index is
/// `≥ n_flows`.
pub fn group_by_flow(values: &[f64], flow_of: &[u32], n_flows: usize) -> Vec<Vec<f64>> {
    validate_flow_of(values.len(), flow_of, n_flows);
    let mut groups = vec![Vec::new(); n_flows];
    for (&v, &f) in values.iter().zip(flow_of) {
        groups[f as usize].push(v);
    }
    groups
}

/// The ℓk norm of each flow's flow times: result `[f]` is
/// [`crate::lk_norm`] over the jobs of flow `f` (0 for an empty flow).
///
/// # Panics
/// As [`group_by_flow`].
pub fn per_flow_lk_norms(values: &[f64], flow_of: &[u32], n_flows: usize, k: f64) -> Vec<f64> {
    group_by_flow(values, flow_of, n_flows)
        .iter()
        .map(|g| crate::lk_norm(g, k))
        .collect()
}

/// Per-flow *mean* flow time (0 for an empty flow) — the per-flow share
/// vector the weighted temporal Jain index
/// ([`crate::fairness::weighted_jain_index`]) is usually fed with.
///
/// # Panics
/// As [`group_by_flow`].
pub fn per_flow_mean_flow(values: &[f64], flow_of: &[u32], n_flows: usize) -> Vec<f64> {
    validate_flow_of(values.len(), flow_of, n_flows);
    let mut sum = vec![0.0f64; n_flows];
    let mut cnt = vec![0u64; n_flows];
    for (&v, &f) in values.iter().zip(flow_of) {
        sum[f as usize] += v;
        cnt[f as usize] += 1;
    }
    sum.iter()
        .zip(&cnt)
        .map(|(&s, &c)| if c == 0 { 0.0 } else { s / c as f64 })
        .collect()
}

/// Mergeable one-pass per-flow statistics for the streaming engine: one
/// [`StreamingFlowStats`] (moments + t-digest percentiles) and one
/// [`StreamingNorm`] (an overflow-safe ℓk accumulator at a caller-chosen
/// `k`) per flow. Shards processing disjoint chunks of a stream build
/// independent accumulators and [`merge`](Self::merge) them — the same
/// contract as the underlying single-flow types.
#[derive(Debug, Clone)]
pub struct PerFlowStreamingStats {
    stats: Vec<StreamingFlowStats>,
    norms: Vec<StreamingNorm>,
}

impl PerFlowStreamingStats {
    /// Accumulators for `n_flows` flows, t-digest `compression` per flow
    /// (64 is plenty for tables), ℓ`k` norm tracking per flow.
    pub fn new(n_flows: usize, compression: usize, k: f64) -> Self {
        PerFlowStreamingStats {
            stats: (0..n_flows)
                .map(|_| StreamingFlowStats::new(compression))
                .collect(),
            norms: (0..n_flows).map(|_| StreamingNorm::new(k)).collect(),
        }
    }

    /// Number of flows.
    pub fn n_flows(&self) -> usize {
        self.stats.len()
    }

    /// Record one flow time for flow `flow`.
    ///
    /// # Panics
    /// If `flow ≥ n_flows`.
    pub fn push(&mut self, flow: usize, value: f64) {
        assert!(
            flow < self.stats.len(),
            "per-flow metrics: flow index {flow} out of range (n_flows = {})",
            self.stats.len()
        );
        self.stats[flow].push(value);
        self.norms[flow].push(value);
    }

    /// Total samples across all flows.
    pub fn n(&self) -> u64 {
        self.stats.iter().map(StreamingFlowStats::n).sum()
    }

    /// The ℓk norm of flow `f` so far (at the `k` chosen at
    /// construction).
    pub fn norm(&self, f: usize) -> f64 {
        self.norms[f].value()
    }

    /// Fold another shard's accumulators into this one, flow by flow.
    ///
    /// # Panics
    /// If the flow counts differ (the shards disagree about the
    /// instance).
    pub fn merge(&mut self, other: &PerFlowStreamingStats) {
        assert_eq!(
            self.stats.len(),
            other.stats.len(),
            "per-flow merge: {} flows vs {}",
            self.stats.len(),
            other.stats.len()
        );
        for (a, b) in self.stats.iter_mut().zip(&other.stats) {
            a.merge(b);
        }
        for (a, b) in self.norms.iter_mut().zip(&other.norms) {
            a.merge(b);
        }
    }

    /// Finalise: one [`FlowStats`] per flow (empty flows yield the empty
    /// stats the underlying accumulator produces).
    pub fn finish(&mut self) -> Vec<FlowStats> {
        self.stats
            .iter_mut()
            .map(StreamingFlowStats::finish)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grouping_and_norms() {
        let v = [1.0, 2.0, 3.0, 4.0];
        let f = [0u32, 1, 0, 1];
        let g = group_by_flow(&v, &f, 3);
        assert_eq!(g, vec![vec![1.0, 3.0], vec![2.0, 4.0], vec![]]);

        let n1 = per_flow_lk_norms(&v, &f, 3, 1.0);
        assert_eq!(n1, vec![4.0, 6.0, 0.0]);
        let ninf = per_flow_lk_norms(&v, &f, 3, f64::INFINITY);
        assert_eq!(ninf, vec![3.0, 4.0, 0.0]);

        let means = per_flow_mean_flow(&v, &f, 3);
        assert_eq!(means, vec![2.0, 3.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "values but")]
    fn length_mismatch_panics() {
        group_by_flow(&[1.0, 2.0], &[0], 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_flow_panics() {
        per_flow_lk_norms(&[1.0], &[5], 2, 2.0);
    }

    #[test]
    fn streaming_matches_closed_and_merges() {
        let v: Vec<f64> = (0..400).map(|i| 0.5 + (i % 17) as f64).collect();
        let f: Vec<u32> = (0..400).map(|i| (i % 3) as u32).collect();

        // One accumulator over the whole stream…
        let mut whole = PerFlowStreamingStats::new(3, 64, 2.0);
        for (&x, &fl) in v.iter().zip(&f) {
            whole.push(fl as usize, x);
        }
        // …vs two shards merged.
        let mut a = PerFlowStreamingStats::new(3, 64, 2.0);
        let mut b = PerFlowStreamingStats::new(3, 64, 2.0);
        for (i, (&x, &fl)) in v.iter().zip(&f).enumerate() {
            if i < 200 {
                a.push(fl as usize, x);
            } else {
                b.push(fl as usize, x);
            }
        }
        a.merge(&b);
        assert_eq!(whole.n(), 400);
        assert_eq!(a.n(), 400);

        let closed_norms = per_flow_lk_norms(&v, &f, 3, 2.0);
        let closed_means = per_flow_mean_flow(&v, &f, 3);
        let ws = whole.finish();
        let ms = a.finish();
        for fl in 0..3 {
            assert!(
                (whole.norm(fl) - closed_norms[fl]).abs() < 1e-9,
                "flow {fl}"
            );
            assert!((a.norm(fl) - closed_norms[fl]).abs() < 1e-9, "flow {fl}");
            assert!((ws[fl].mean - closed_means[fl]).abs() < 1e-9, "flow {fl}");
            assert!((ms[fl].mean - closed_means[fl]).abs() < 1e-9, "flow {fl}");
            assert_eq!(ws[fl].n, f.iter().filter(|&&x| x as usize == fl).count());
        }
    }

    #[test]
    #[should_panic(expected = "per-flow merge")]
    fn merging_different_flow_counts_panics() {
        let mut a = PerFlowStreamingStats::new(2, 32, 2.0);
        let b = PerFlowStreamingStats::new(3, 32, 2.0);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn streaming_push_out_of_range_panics() {
        PerFlowStreamingStats::new(2, 32, 2.0).push(2, 1.0);
    }
}
