//! Mergeable streaming accumulators: flow-time statistics without the
//! completion vector.
//!
//! The materialised path ([`crate::flow_stats`], [`crate::lk_norm`])
//! needs every flow time in memory; at 10⁷+ jobs that vector is the
//! dominant allocation. These accumulators consume completions one at a
//! time in O(1)/O(compression) state and **merge**, so per-chunk partials
//! can be combined across threads or checkpoints:
//!
//! * [`StreamingMoments`] — count/total/min/max plus Welford mean and
//!   M2, merged with the Chan et al. parallel update. Exactly the moment
//!   set of [`crate::FlowStats`].
//! * [`StreamingNorm`] — the running ℓk power sum in the same
//!   max-factored form as [`crate::lk_norm`] (`Σ(v/max)^k` with the sum
//!   rescaled whenever a new maximum appears), so it stays finite
//!   whenever the maximum is.
//! * [`TDigest`] — a small t-digest-style quantile sketch (uniform
//!   weight-capped centroids) for p50/p90/p99 with bounded rank error.
//! * [`StreamingFlowStats`] — the three combined; `finish()` yields a
//!   [`crate::FlowStats`] whose moment fields agree with the
//!   materialised computation to floating-point accumulation order, and
//!   whose percentiles carry the digest's rank-error bound.
//!
//! NaN semantics match the (post-fix) materialised path: NaN samples are
//! ignored and do not count toward `n`.

use crate::stats::FlowStats;
use serde::{Deserialize, Serialize};

/// Running count/total/min/max and Welford mean/variance of a sample.
/// Push is O(1); merge is the Chan et al. pairwise combination.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StreamingMoments {
    n: u64,
    total: f64,
    mean: f64,
    /// Sum of squared deviations from the running mean (Welford's M2).
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for StreamingMoments {
    fn default() -> Self {
        StreamingMoments {
            n: 0,
            total: 0.0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl StreamingMoments {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorb one sample (NaN is ignored).
    pub fn push(&mut self, v: f64) {
        if v.is_nan() {
            return;
        }
        self.n += 1;
        self.total += v;
        let delta = v - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (v - self.mean);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Fold another accumulator into this one (Chan et al. parallel
    /// variance update); order-insensitive up to floating-point rounding.
    pub fn merge(&mut self, other: &StreamingMoments) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.n += other.n;
        self.total += other.total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Samples absorbed (NaN excluded).
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Sum of samples.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (÷n, matching [`crate::flow_stats`]; 0 when
    /// empty).
    pub fn variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum (0 when empty, matching [`crate::flow_stats`]).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Maximum (0 when empty, matching [`crate::flow_stats`]).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }
}

/// Running ℓk norm in max-factored form: tracks `max` and
/// `Σ (v_i / max)^k`, rescaling the sum by `(old_max/new_max)^k` whenever
/// a new maximum arrives. Every term is ≤ 1, so the sum never overflows
/// — the streaming counterpart of [`crate::lk_norm`]'s overflow fix.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StreamingNorm {
    k: f64,
    n: u64,
    max: f64,
    /// `Σ (v_i / max)^k` over all pushed values (0 while `max == 0`).
    scaled_sum: f64,
}

impl StreamingNorm {
    /// An empty accumulator for the ℓk norm (`k = ∞` tracks the max).
    pub fn new(k: f64) -> Self {
        StreamingNorm {
            k,
            n: 0,
            max: 0.0,
            scaled_sum: 0.0,
        }
    }

    /// The exponent this accumulator was built for.
    pub fn k(&self) -> f64 {
        self.k
    }

    /// Samples absorbed (NaN excluded).
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Absorb one (non-negative) sample; NaN is ignored.
    pub fn push(&mut self, v: f64) {
        if v.is_nan() {
            return;
        }
        self.n += 1;
        if self.k.is_infinite() {
            self.max = self.max.max(v);
            return;
        }
        if v > self.max {
            if self.max > 0.0 {
                self.scaled_sum *= (self.max / v).powf(self.k);
            }
            self.max = v;
            self.scaled_sum += 1.0; // (v/v)^k
        } else if self.max > 0.0 {
            self.scaled_sum += (v / self.max).powf(self.k);
        }
        // v ≤ max == 0 contributes 0 to the power sum.
    }

    /// Fold another accumulator (same `k`) into this one.
    ///
    /// # Panics
    /// If the exponents differ.
    pub fn merge(&mut self, other: &StreamingNorm) {
        assert_eq!(
            self.k.to_bits(),
            other.k.to_bits(),
            "cannot merge ℓ{} into ℓ{}",
            other.k,
            self.k
        );
        self.n += other.n;
        if self.k.is_infinite() || other.max <= 0.0 {
            self.max = self.max.max(other.max);
            return;
        }
        if other.max > self.max {
            if self.max > 0.0 {
                self.scaled_sum *= (self.max / other.max).powf(self.k);
            }
            self.max = other.max;
            self.scaled_sum += other.scaled_sum;
        } else {
            self.scaled_sum += other.scaled_sum * (other.max / self.max).powf(self.k);
        }
    }

    /// The ℓk norm of everything pushed so far:
    /// `max · (Σ(v/max)^k)^{1/k}` (the max itself for `k = ∞`).
    pub fn value(&self) -> f64 {
        if self.k.is_infinite() || self.max <= 0.0 {
            return self.max;
        }
        self.max * self.scaled_sum.powf(1.0 / self.k)
    }

    /// The normalized ℓk norm (÷ `n^{1/k}` inside the root), the
    /// streaming counterpart of [`crate::normalized_lk_norm`].
    pub fn normalized_value(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        if self.k.is_infinite() || self.max <= 0.0 {
            return self.max;
        }
        self.max * (self.scaled_sum / self.n as f64).powf(1.0 / self.k)
    }
}

/// A t-digest-style quantile sketch: centroids `(mean, weight)` kept
/// sorted, each capped at `⌈n / compression⌉` weight (uniform scale
/// function), with new values buffered and folded in batches. Rank error
/// for mid quantiles is O(n / compression); tails are exact-ish because
/// min/max are tracked separately by [`StreamingFlowStats`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TDigest {
    compression: usize,
    /// Sorted by mean.
    centroids: Vec<(f64, f64)>,
    buffer: Vec<f64>,
    count: u64,
}

impl TDigest {
    /// A sketch with the given compression (≥ 8; number of retained
    /// centroids is ~compression, memory O(compression)).
    pub fn new(compression: usize) -> Self {
        let compression = compression.max(8);
        TDigest {
            compression,
            centroids: Vec::with_capacity(compression + 1),
            buffer: Vec::with_capacity(4 * compression),
            count: 0,
        }
    }

    /// Samples absorbed (NaN excluded).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Absorb one sample (NaN ignored). Every `4c` pushes cost one sort
    /// of the `4c` buffered values and one merge pass over the centroids.
    pub fn push(&mut self, v: f64) {
        if v.is_nan() {
            return;
        }
        self.count += 1;
        self.buffer.push(v);
        if self.buffer.len() >= 4 * self.compression {
            self.compress();
        }
    }

    /// Fold another sketch into this one: its centroids join this one's,
    /// its buffer joins this one's, and the two fold together.
    pub fn merge(&mut self, other: &TDigest) {
        self.count += other.count;
        self.centroids.extend_from_slice(&other.centroids);
        self.buffer.extend_from_slice(&other.buffer);
        self.compress();
    }

    /// Rebuild the centroid list from the centroids and the buffered
    /// values, visited in one stable `total_cmp` order of
    /// `centroids ++ buffer`, greedily merging neighbours while staying
    /// under the per-centroid weight cap.
    ///
    /// Only the buffer needs a real sort. The centroids are already in
    /// order (the stable sort checks that in one pass, and keeps the
    /// rare list that rounding left unordered exact), and the sorted
    /// buffer is merged into them with a centroid first on a tie, which
    /// is where the stable sort of the concatenation puts it.
    fn compress(&mut self) {
        // Order-preserving keys (a negative's bits all flipped, only the
        // sign bit of the rest): equal keys are equal bits, so the
        // unstable integer sort gives the `total_cmp` order exactly. Both
        // collects reuse the buffer's allocation.
        let mut keys: Vec<u64> = std::mem::take(&mut self.buffer)
            .into_iter()
            .map(|v| {
                let b = v.to_bits();
                b ^ ((b as i64 >> 63) as u64 | 1 << 63)
            })
            .collect();
        keys.sort_unstable();
        self.buffer = keys
            .into_iter()
            .map(|k| f64::from_bits(k ^ ((!k as i64 >> 63) as u64 | 1 << 63)))
            .collect();
        self.centroids.sort_by(|a, b| a.0.total_cmp(&b.0));

        // Integral weights, so the sum is exact in any order.
        let total = self.centroids.iter().map(|&(_, w)| w).sum::<f64>() + self.buffer.len() as f64;
        let cap = (total / self.compression as f64).ceil().max(1.0);
        let mut out: Vec<(f64, f64)> = Vec::with_capacity(self.compression + 1);
        let mut fold = |(m, w): (f64, f64)| match out.last_mut() {
            Some((lm, lw)) if *lw + w <= cap => {
                let nw = *lw + w;
                *lm += (m - *lm) * w / nw;
                *lw = nw;
            }
            _ => out.push((m, w)),
        };
        let mut values = self.buffer.drain(..).peekable();
        for &c in &self.centroids {
            while let Some(v) = values.next_if(|v| v.total_cmp(&c.0).is_lt()) {
                fold((v, 1.0));
            }
            fold(c);
        }
        values.for_each(|v| fold((v, 1.0)));
        self.centroids = out;
    }

    /// Estimate the `q`-quantile (`q ∈ [0, 1]`) by midpoint
    /// interpolation across the cumulative centroid weights. Returns 0
    /// for an empty sketch.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if !self.buffer.is_empty() {
            self.compress();
        }
        if self.centroids.is_empty() {
            return 0.0;
        }
        let total: f64 = self.centroids.iter().map(|&(_, w)| w).sum();
        let target = q.clamp(0.0, 1.0) * total;
        // Cumulative weight up to each centroid's midpoint.
        let mut cum = 0.0;
        let mut prev_mid = 0.0;
        let mut prev_mean = self.centroids[0].0;
        for (i, &(m, w)) in self.centroids.iter().enumerate() {
            let mid = cum + w / 2.0;
            if target < mid {
                if i == 0 {
                    return m;
                }
                let frac = (target - prev_mid) / (mid - prev_mid);
                return prev_mean + frac * (m - prev_mean);
            }
            cum += w;
            prev_mid = mid;
            prev_mean = m;
        }
        self.centroids.last().expect("non-empty").0
    }
}

/// All of [`crate::FlowStats`], streaming: Welford moments plus a
/// quantile sketch, consuming one flow time per completed job. Mergeable
/// across chunks; the merge is traced as a `metrics.merge` span.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamingFlowStats {
    /// Moment accumulator (count, total, mean, variance, min, max).
    pub moments: StreamingMoments,
    /// Quantile sketch for p50/p90/p99.
    pub digest: TDigest,
}

impl Default for StreamingFlowStats {
    fn default() -> Self {
        Self::new(128)
    }
}

impl StreamingFlowStats {
    /// An empty accumulator with the given digest compression.
    pub fn new(compression: usize) -> Self {
        StreamingFlowStats {
            moments: StreamingMoments::new(),
            digest: TDigest::new(compression),
        }
    }

    /// Absorb one flow time (NaN ignored, matching
    /// [`crate::flow_stats`]).
    pub fn push(&mut self, flow: f64) {
        self.moments.push(flow);
        self.digest.push(flow);
    }

    /// Samples absorbed.
    pub fn n(&self) -> u64 {
        self.moments.n()
    }

    /// Fold another accumulator into this one. Emits a `metrics.merge`
    /// tf-obs span when tracing is enabled.
    pub fn merge(&mut self, other: &StreamingFlowStats) {
        let mut span = tf_obs::span!("metrics", "merge");
        if tf_obs::enabled() {
            span.arg("n_left", self.n() as f64);
            span.arg("n_right", other.n() as f64);
        }
        self.moments.merge(&other.moments);
        self.digest.merge(&other.digest);
    }

    /// The summary so far. Moment fields (`n`, `total`, `mean`,
    /// `variance`, `std_dev`, `min`, `max`) are exact up to accumulation
    /// order; `p50`/`p90`/`p99` carry the digest's rank-error bound.
    pub fn finish(&mut self) -> FlowStats {
        FlowStats {
            n: self.moments.n() as usize,
            total: self.moments.total(),
            mean: self.moments.mean(),
            variance: self.moments.variance(),
            std_dev: self.moments.std_dev(),
            min: self.moments.min(),
            p50: self.digest.quantile(0.5),
            p90: self.digest.quantile(0.9),
            p99: self.digest.quantile(0.99),
            max: self.moments.max(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::norms::{lk_norm, normalized_lk_norm};
    use crate::stats::flow_stats;

    fn pseudo_sample(n: usize, seed: u64) -> Vec<f64> {
        // Deterministic LCG-ish sample mixing magnitudes.
        let mut x = seed
            .wrapping_mul(2862933555777941757)
            .wrapping_add(3037000493);
        (0..n)
            .map(|_| {
                x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
                let u = (x >> 11) as f64 / (1u64 << 53) as f64;
                (u * 6.0).exp() // log-uniform over ~[1, 400]
            })
            .collect()
    }

    #[test]
    fn moments_match_flow_stats() {
        let v = pseudo_sample(10_000, 7);
        let mut acc = StreamingMoments::new();
        for &x in &v {
            acc.push(x);
        }
        let exact = flow_stats(&v);
        assert_eq!(acc.n() as usize, exact.n);
        assert!((acc.total() - exact.total).abs() / exact.total < 1e-12);
        assert!((acc.mean() - exact.mean).abs() / exact.mean < 1e-12);
        assert!((acc.variance() - exact.variance).abs() / exact.variance < 1e-9);
        assert_eq!(acc.min(), exact.min);
        assert_eq!(acc.max(), exact.max);
    }

    #[test]
    fn moments_merge_equals_single_pass() {
        let v = pseudo_sample(5_000, 3);
        let (a, b) = v.split_at(1_700);
        let mut left = StreamingMoments::new();
        let mut right = StreamingMoments::new();
        let mut whole = StreamingMoments::new();
        for &x in a {
            left.push(x);
        }
        for &x in b {
            right.push(x);
        }
        for &x in &v {
            whole.push(x);
        }
        left.merge(&right);
        assert_eq!(left.n(), whole.n());
        assert!((left.mean() - whole.mean()).abs() / whole.mean() < 1e-12);
        assert!((left.variance() - whole.variance()).abs() / whole.variance() < 1e-9);
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());

        // Merging into an empty accumulator is the identity.
        let mut empty = StreamingMoments::new();
        empty.merge(&whole);
        assert_eq!(empty, whole);
        let before = whole;
        whole.merge(&StreamingMoments::new());
        assert_eq!(whole, before);
    }

    #[test]
    fn norm_matches_lk_norm_including_huge_values() {
        for k in [1.0, 2.0, 3.0, 6.0] {
            let mut v = pseudo_sample(2_000, 11);
            v.push(1e60); // the overflow regime of the naive evaluation
            let mut acc = StreamingNorm::new(k);
            for &x in &v {
                acc.push(x);
            }
            let exact = lk_norm(&v, k);
            assert!(acc.value().is_finite());
            assert!(
                (acc.value() - exact).abs() / exact < 1e-9,
                "k={k}: {} vs {exact}",
                acc.value()
            );
            let nexact = normalized_lk_norm(&v, k);
            assert!((acc.normalized_value() - nexact).abs() / nexact < 1e-9);
        }
        // k = ∞ tracks the max.
        let mut acc = StreamingNorm::new(f64::INFINITY);
        for x in [1.0, 5.0, 2.0] {
            acc.push(x);
        }
        assert_eq!(acc.value(), 5.0);
        assert_eq!(acc.normalized_value(), 5.0);
    }

    #[test]
    fn norm_merge_equals_single_pass() {
        let v = pseudo_sample(3_000, 19);
        let (a, b) = v.split_at(900);
        for k in [2.0, 4.0] {
            let mut left = StreamingNorm::new(k);
            let mut right = StreamingNorm::new(k);
            let mut whole = StreamingNorm::new(k);
            for &x in a {
                left.push(x);
            }
            for &x in b {
                right.push(x);
            }
            for &x in &v {
                whole.push(x);
            }
            left.merge(&right);
            assert_eq!(left.n(), whole.n());
            assert!(
                (left.value() - whole.value()).abs() / whole.value() < 1e-9,
                "k={k}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "cannot merge")]
    fn norm_merge_rejects_mismatched_k() {
        let mut a = StreamingNorm::new(2.0);
        a.merge(&StreamingNorm::new(3.0));
    }

    #[test]
    fn norm_handles_zeros_and_empty() {
        let mut acc = StreamingNorm::new(2.0);
        assert_eq!(acc.value(), 0.0);
        assert_eq!(acc.normalized_value(), 0.0);
        acc.push(0.0);
        acc.push(0.0);
        assert_eq!(acc.value(), 0.0);
        acc.push(3.0);
        acc.push(4.0);
        assert!((acc.value() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn digest_quantiles_have_bounded_rank_error() {
        let n = 50_000;
        let v = pseudo_sample(n, 23);
        let mut d = TDigest::new(128);
        for &x in &v {
            d.push(x);
        }
        let mut sorted = v.clone();
        sorted.sort_by(f64::total_cmp);
        for q in [0.01, 0.1, 0.5, 0.9, 0.99] {
            let est = d.quantile(q);
            // Rank of the estimate in the true sample.
            let rank = sorted.partition_point(|&x| x < est) as f64 / n as f64;
            assert!(
                (rank - q).abs() < 0.02,
                "q={q}: estimate {est} has rank {rank}"
            );
        }
    }

    #[test]
    fn digest_merge_preserves_count_and_accuracy() {
        let v = pseudo_sample(20_000, 31);
        let (a, b) = v.split_at(8_000);
        let mut da = TDigest::new(128);
        let mut db = TDigest::new(128);
        for &x in a {
            da.push(x);
        }
        for &x in b {
            db.push(x);
        }
        da.merge(&db);
        assert_eq!(da.count(), v.len() as u64);
        let mut sorted = v.clone();
        sorted.sort_by(f64::total_cmp);
        for q in [0.1, 0.5, 0.9] {
            let est = da.quantile(q);
            let rank = sorted.partition_point(|&x| x < est) as f64 / v.len() as f64;
            assert!((rank - q).abs() < 0.03, "q={q}: rank {rank}");
        }
    }

    #[test]
    fn digest_memory_is_bounded() {
        let mut d = TDigest::new(64);
        for i in 0..100_000 {
            d.push((i % 977) as f64);
        }
        assert!(d.centroids.len() <= 2 * 64, "{}", d.centroids.len());
        assert!(d.buffer.len() < 4 * 64);
    }

    #[test]
    fn digest_small_samples_are_near_exact() {
        let mut d = TDigest::new(128);
        for x in [1.0, 2.0, 3.0, 4.0, 5.0] {
            d.push(x);
        }
        assert_eq!(d.count(), 5);
        let p50 = d.quantile(0.5);
        assert!((2.0..=4.0).contains(&p50), "{p50}");
        assert_eq!(d.quantile(0.0), 1.0);
        assert_eq!(d.quantile(1.0), 5.0);
        let mut empty = TDigest::new(64);
        assert_eq!(empty.quantile(0.5), 0.0);
    }

    #[test]
    fn flow_stats_accumulator_matches_materialised() {
        let v = pseudo_sample(30_000, 41);
        let mut acc = StreamingFlowStats::new(256);
        for &x in &v {
            acc.push(x);
        }
        let got = acc.finish();
        let exact = flow_stats(&v);
        assert_eq!(got.n, exact.n);
        assert!((got.mean - exact.mean).abs() / exact.mean < 1e-12);
        assert!((got.variance - exact.variance).abs() / exact.variance < 1e-9);
        assert_eq!(got.min, exact.min);
        assert_eq!(got.max, exact.max);
        for (est, truth) in [
            (got.p50, exact.p50),
            (got.p90, exact.p90),
            (got.p99, exact.p99),
        ] {
            assert!(
                (est - truth).abs() / truth < 0.05,
                "estimate {est} vs {truth}"
            );
        }
    }

    #[test]
    fn nan_is_ignored_everywhere() {
        let mut acc = StreamingFlowStats::new(64);
        acc.push(1.0);
        acc.push(f64::NAN);
        acc.push(3.0);
        assert_eq!(acc.n(), 2);
        let s = acc.finish();
        assert_eq!(s.n, 2);
        assert_eq!(s.total, 4.0);
        let mut norm = StreamingNorm::new(2.0);
        norm.push(f64::NAN);
        assert_eq!(norm.n(), 0);
        assert_eq!(norm.value(), 0.0);
    }

    #[test]
    fn serde_roundtrip_for_checkpointing() {
        let mut acc = StreamingFlowStats::new(64);
        for &x in &pseudo_sample(1_000, 5) {
            acc.push(x);
        }
        let json = serde_json::to_string(&acc).unwrap();
        let mut back: StreamingFlowStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, acc);
        assert_eq!(back.finish(), acc.finish());
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use crate::norms::lk_norm;
    use crate::stats::{flow_stats, percentile};
    use proptest::prelude::*;

    fn arb_values() -> impl Strategy<Value = Vec<f64>> {
        prop::collection::vec((-6.0f64..60.0).prop_map(|e| 10f64.powf(e)), 1..200)
    }

    /// The fold as it was before `compress` sorted only its buffer: every
    /// point, centroids and buffer alike, stable-sorted by mean, then the
    /// greedy merge. The oracle the merge-based `compress` must match.
    fn oracle_fold(d: &mut TDigest, mut points: Vec<(f64, f64)>) {
        points.sort_by(|a, b| a.0.total_cmp(&b.0));
        let total: f64 = points.iter().map(|&(_, w)| w).sum();
        let cap = (total / d.compression as f64).ceil().max(1.0);
        let mut out: Vec<(f64, f64)> = Vec::new();
        for (m, w) in points {
            match out.last_mut() {
                Some((lm, lw)) if *lw + w <= cap => {
                    let nw = *lw + w;
                    *lm += (m - *lm) * w / nw;
                    *lw = nw;
                }
                _ => out.push((m, w)),
            }
        }
        d.centroids = out;
    }

    fn oracle_compress(d: &mut TDigest) {
        let mut points = std::mem::take(&mut d.centroids);
        points.extend(d.buffer.drain(..).map(|v| (v, 1.0)));
        oracle_fold(d, points);
    }

    fn oracle_push(d: &mut TDigest, v: f64) {
        if v.is_nan() {
            return;
        }
        d.count += 1;
        d.buffer.push(v);
        if d.buffer.len() >= 4 * d.compression {
            oracle_compress(d);
        }
    }

    fn oracle_merge(d: &mut TDigest, other: &TDigest) {
        d.count += other.count;
        d.buffer.extend_from_slice(&other.buffer);
        let mut points = std::mem::take(&mut d.centroids);
        points.extend(other.centroids.iter().copied());
        points.extend(d.buffer.drain(..).map(|v| (v, 1.0)));
        oracle_fold(d, points);
    }

    /// Every bit of a digest's state.
    fn state_bits(d: &TDigest) -> (u64, Vec<[u64; 2]>, Vec<u64>) {
        let centroids = d.centroids.iter().map(|&(m, w)| [m.to_bits(), w.to_bits()]);
        let buffer = d.buffer.iter().map(|v| v.to_bits());
        (d.count, centroids.collect(), buffer.collect())
    }

    /// Samples that stress the sort order: exact duplicates, ±0.0,
    /// subnormals, ±1e300 and the largest magnitudes (whose means can
    /// overflow to ±∞ and then NaN), ±∞ and NaN.
    fn arb_edge_value() -> impl Strategy<Value = f64> {
        prop_oneof![
            0.0f64..10.0,
            prop_oneof![Just(1.0), Just(2.5), Just(0.0), Just(-0.0)],
            (1u64..1 << 52, any::<bool>()).prop_map(|(b, neg)| {
                let v = f64::from_bits(b);
                if neg {
                    -v
                } else {
                    v
                }
            }),
            (-1.0f64..1.0).prop_map(|x| x * 1e300),
            prop_oneof![Just(f64::MAX), Just(-f64::MAX), Just(f64::INFINITY)],
            prop_oneof![Just(f64::NEG_INFINITY), Just(f64::NAN), Just(-3.0)],
        ]
    }

    /// Digests of unequal compression and fill: some still all buffer,
    /// some past several compressions.
    fn arb_digests() -> impl Strategy<Value = Vec<(usize, Vec<f64>)>> {
        prop::collection::vec(
            (8usize..24, prop::collection::vec(arb_edge_value(), 0..300)),
            1..5,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Push, merge and quantile leave every bit of the digest as the
        /// sort-everything fold does.
        #[test]
        fn compress_matches_the_sort_everything_fold(specs in arb_digests()) {
            let mut built = Vec::new();
            for (compression, values) in &specs {
                let (mut new, mut old) = (TDigest::new(*compression), TDigest::new(*compression));
                for &v in values {
                    new.push(v);
                    oracle_push(&mut old, v);
                }
                prop_assert_eq!(state_bits(&new), state_bits(&old));
                built.push((new, old));
            }
            let (mut total, mut oracle) = built.remove(0);
            for (new, old) in &built {
                total.merge(new);
                oracle_merge(&mut oracle, old);
                prop_assert_eq!(state_bits(&total), state_bits(&oracle));
            }
            if !oracle.buffer.is_empty() {
                oracle_compress(&mut oracle);
            }
            for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
                prop_assert_eq!(total.quantile(q).to_bits(), oracle.quantile(q).to_bits());
            }
            prop_assert_eq!(state_bits(&total), state_bits(&oracle));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Streaming moments agree with the materialised `flow_stats` to
        /// 1e-9 relative error over ~66 orders of magnitude, under any
        /// split-and-merge.
        #[test]
        fn moments_agree_with_materialised(v in arb_values(), split in 0usize..200) {
            let split = split.min(v.len());
            let exact = flow_stats(&v);
            let mut a = StreamingMoments::new();
            let mut b = StreamingMoments::new();
            for &x in &v[..split] { a.push(x); }
            for &x in &v[split..] { b.push(x); }
            a.merge(&b);
            prop_assert_eq!(a.n() as usize, exact.n);
            prop_assert!((a.total() - exact.total).abs() <= 1e-9 * exact.total.abs());
            prop_assert!((a.mean() - exact.mean).abs() <= 1e-9 * exact.mean.abs());
            // Welford vs two-pass variance: both stable; allow scale-aware
            // slack since catastrophic ranges make the variance itself huge.
            let scale = exact.variance.abs().max(exact.mean * exact.mean);
            prop_assert!((a.variance() - exact.variance).abs() <= 1e-6 * scale.max(1e-300));
            prop_assert_eq!(a.min(), exact.min);
            prop_assert_eq!(a.max(), exact.max);
        }

        /// Streaming ℓk norm agrees with the max-factored materialised
        /// norm to 1e-9 relative error, under any split-and-merge.
        #[test]
        fn norm_agrees_with_materialised(
            v in arb_values(), split in 0usize..200, k in 1u32..10) {
            let split = split.min(v.len());
            let kf = f64::from(k);
            let exact = lk_norm(&v, kf);
            let mut a = StreamingNorm::new(kf);
            let mut b = StreamingNorm::new(kf);
            for &x in &v[..split] { a.push(x); }
            for &x in &v[split..] { b.push(x); }
            a.merge(&b);
            prop_assert!(a.value().is_finite());
            prop_assert!((a.value() - exact).abs() <= 1e-9 * exact,
                         "k={k}: {} vs {}", a.value(), exact);
        }

        /// Digest quantile estimates respect the rank-error bound of the
        /// uniform scale function: |rank(est) − q| ≤ max(3, 2n/c)/n.
        #[test]
        fn digest_rank_error_bound(v in arb_values(), q in 0.0f64..1.0) {
            let n = v.len();
            let mut d = TDigest::new(64);
            for &x in &v { d.push(x); }
            let est = d.quantile(q);
            let mut sorted = v.clone();
            sorted.sort_by(f64::total_cmp);
            let below = sorted.partition_point(|&x| x < est);
            let at_or_below = sorted.partition_point(|&x| x <= est);
            let target = q * n as f64;
            let slack = (3.0f64).max(2.0 * n as f64 / 64.0);
            // target must lie within slack of the estimate's rank range.
            prop_assert!(
                target >= below as f64 - slack && target <= at_or_below as f64 + slack,
                "q={q}: est {est} has rank range [{below}, {at_or_below}], target {target}"
            );
            // The estimate stays inside the sample range.
            prop_assert!(est >= percentile(&v, 0.0) && est <= percentile(&v, 1.0));
        }
    }
}
