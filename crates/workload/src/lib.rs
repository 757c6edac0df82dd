#![warn(missing_docs)]

//! # tf-workload — instance generation for the experiment suite
//!
//! The paper proves worst-case guarantees over *all* instances; an
//! empirical reproduction needs concrete instance families that (a) stress
//! the mechanisms the proof reasons about and (b) include the explicit
//! adversarial constructions behind the cited lower bounds.
//!
//! * [`SizeDist`] — job-size distributions (deterministic, uniform,
//!   exponential, Pareto heavy-tail, bimodal, lognormal), with hand-rolled
//!   samplers over `rand`'s uniform source so results are reproducible
//!   across crate versions;
//! * [`PoissonWorkload`] — the M/G/m-style random workload: Poisson
//!   arrivals at a target utilization with any size distribution;
//! * [`adversarial`] — named hard instances: equal-size batches (maximum
//!   sharing), the long-job-plus-short-stream *PS killer*, the geometric
//!   cascade driving RR's low-speed blow-up (experiment E3), and the
//!   SRPT-starvation instance motivating temporal fairness (experiment E7);
//! * [`ArrivalProcess`] — Poisson, periodic, batched, all-at-once and
//!   diurnal arrivals, generated by one step function that closed traces
//!   and open streams share;
//! * [`OpenWorkload`] — *open* (streaming) workloads for the
//!   bounded-memory engine: a fixed count of jobs generated on the fly
//!   from any [`ArrivalProcess`], with per-stream seeded RNGs;
//! * [`FlowSet`] — multi-flow (fair-queueing-style) workloads: named,
//!   weighted traffic classes merged into one trace or one job stream,
//!   with a job→flow map kept beside the trace (experiment E22);
//! * [`traceio`] — JSON (de)serialization of traces and workload specs.
//!
//! All parameters are validated with typed [`WorkloadError`]s before any
//! generation ([`ArrivalProcess::validate`], [`SizeDist::validate`],
//! [`OpenWorkload::validate`]), so a NaN rate or a zero interval fails at
//! construction rather than poisoning a long run.

pub mod adversarial;
pub mod arrivals;
pub mod error;
pub mod flows;
pub mod sizes;
pub mod spec;
pub mod stream;
pub mod traceio;

pub use arrivals::ArrivalProcess;
pub use error::WorkloadError;
pub use flows::{FlowJobStream, FlowLog, FlowMap, FlowSet, FlowSpec};
pub use sizes::SizeDist;
pub use spec::{PoissonWorkload, WorkloadSpec};
pub use stream::{OpenJobStream, OpenWorkload, StreamArrivals, StreamBound};

/// The splitmix64 finalizer, the workspace's one seed-derivation step:
/// maps a seed (or seed ⊕ index) to a decorrelated 64-bit value, so a
/// one-bit difference in the input decorrelates the outputs. Generators
/// derive per-stream, per-flow, per-restart and per-instance seeds with it.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
