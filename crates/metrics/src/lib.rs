#![deny(missing_docs)]

//! # tf-metrics — flow-time objectives and fairness measures
//!
//! The quantities the paper reasons about, computable from schedules:
//!
//! * [`lk_norm`] / [`flow_power_sum`] — the ℓk-norm of flow time
//!   `(Σ_j F_j^k)^{1/k}` (k = ∞ gives max flow), the paper's objective.
//!   The [`norms`] module is defined in tf-simcore, where
//!   `Schedule::flow_norm` calls it, and re-exported here;
//! * [`flow_stats`] — mean / variance / percentiles / max of flow times,
//!   quantifying the Silberschatz–Galvin–Gagne "predictable response time"
//!   criterion quoted in the introduction;
//! * [`jain_index`] and [`fairness`] — *instantaneous* fairness: how evenly
//!   a schedule splits the machines among alive jobs at each instant (RR is
//!   1.0 by construction);
//! * [`stretch`] — slowdown `F_j / p_j` statistics.
//! * [`perflow`] — per-flow regrouping of flow times with per-flow
//!   ℓk-norms and mergeable streaming accumulators, plus the *weighted*
//!   Jain index ([`weighted_jain_index`]) over normalized shares
//!   `x_i / w_i` (experiment E22's fair-queueing view).
//! * [`streaming`] — mergeable one-pass accumulators
//!   ([`StreamingFlowStats`], [`StreamingNorm`], [`TDigest`]) computing
//!   the same objectives without materialising the flow vector, for the
//!   bounded-memory streaming engine.

pub mod fairness;
pub mod occupancy;
pub mod perflow;
pub mod queueing;
pub mod stats;
pub mod streaming;
pub mod stretch;
pub mod weighted;

pub use fairness::{
    instantaneous_fairness, instantaneous_weighted_fairness, jain_index, job_starvation,
    weighted_jain_index, FairnessSeries,
};
pub use norms::{flow_power_sum, lk_norm, normalized_lk_norm};
pub use occupancy::{alive_series, occupancy_stats, OccupancyStats};
pub use perflow::{group_by_flow, per_flow_lk_norms, per_flow_mean_flow, PerFlowStreamingStats};
pub use queueing::{mg1_fcfs_mean_flow, mg1_ps_mean_flow, mg1_ps_mean_flow_of_size, mm1_mean_flow};
pub use stats::{flow_stats, percentile, FlowStats};
pub use streaming::{StreamingFlowStats, StreamingMoments, StreamingNorm, TDigest};
pub use stretch::{stretch_stats, StretchStats};
pub use tf_simcore::norms;
pub use weighted::{weighted_flow_power_sum, weighted_lk_norm, weighted_mean_flow};
