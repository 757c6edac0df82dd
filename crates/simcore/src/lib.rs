#![deny(missing_docs)]

//! # tf-simcore — exact multi-machine scheduling simulation
//!
//! This crate is the substrate for reproducing *Temporal Fairness of Round
//! Robin: Competitive Analysis for Lk-norms of Flow Time* (SPAA 2015). It
//! models the paper's scheduling environment exactly:
//!
//! * `m` **identical machines**, optionally sped up by a factor `s`
//!   (resource augmentation). A feasible schedule assigns each alive job a
//!   processing rate `rate_j ∈ [0, s]` with `Σ_j rate_j ≤ m·s` — the
//!   fractional characterization `{m_j(t)}` from Section 2 of the paper,
//!   scaled by `s`.
//! * **Online arrivals**: job `j` has arrival time `r_j` and size `p_j`;
//!   the scheduler first learns of `j` at `r_j`.
//! * Policies are [`RateAllocator`]s: at any instant they map the set of
//!   alive jobs to rates. Round Robin is `rate_j = s·min(1, m/n_t)`.
//!
//! The engine is **event-driven and exact**: between events (arrivals,
//! completions, policy review points) rates are constant, so the next
//! completion time is computed analytically. There is no time quantization
//! and no integration drift for piecewise-constant policies. Policies whose
//! rates vary continuously in time (e.g. age-weighted Round Robin) declare
//! [`RateAllocator::continuous`] and are integrated with bounded adaptive
//! steps.
//!
//! The engine can record a full [`Profile`] — the piecewise-constant rate
//! trajectory with the alive set per segment — which downstream crates use
//! to evaluate the paper's dual-fitting construction in closed form and to
//! compute exact `ℓk` objectives.
//!
//! The [`norms`] module holds the one ℓk-norm evaluation:
//! [`Schedule::flow_norm`] calls it, and tf-metrics re-exports it for
//! every other flow vector.
//!
//! A separate [`quantum`] module provides a *discrete* Round Robin with a
//! finite time quantum and context-switch overhead, used to measure how far
//! practical RR deviates from the idealized processor-sharing RR that the
//! paper analyzes.

pub mod alloc;
pub mod engine;
pub mod error;
pub mod gantt;
pub mod job;
pub mod mcnaughton;
pub mod norms;
pub mod profile;
pub mod quantum;
pub mod schedule;
pub mod stats;
pub mod stream;
pub mod trace;
pub mod validate;

pub use alloc::{AliveJob, MachineConfig, RateAllocator};
pub use engine::{simulate, SimOptions};
pub use error::SimError;
pub use job::{Job, JobId};
pub use profile::{Profile, Segment, SegmentRef};
pub use schedule::Schedule;
pub use stats::SimStats;
pub use stream::{
    simulate_stream, CompletedJob, JobSource, SourcedJob, StreamOptions, StreamReport, TraceSource,
};
/// Re-export of the observability layer, so downstream code can reach
/// sinks and the registry without naming `tf_obs` in its own manifest.
pub use tf_obs as obs;
pub use trace::{Trace, TraceBuilder};

/// Relative tolerance used throughout the simulator for floating-point
/// comparisons (completion detection, rate-cap validation).
pub const REL_EPS: f64 = 1e-9;

/// Absolute tolerance floor: quantities below this are treated as zero.
pub const ABS_EPS: f64 = 1e-12;
