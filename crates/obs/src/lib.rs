#![warn(missing_docs)]

//! # tf-obs — near-zero-cost-when-off tracing and metrics
//!
//! The workspace's observability substrate: structured **spans** (named,
//! categorized durations), **counters**, and **instant events**, collected
//! into a process-global buffer and written out through a pluggable sink —
//! no-op, JSON-lines, or the chrome-trace `trace_event` format that loads
//! directly into `about:tracing` / [Perfetto](https://ui.perfetto.dev).
//!
//! ## Cost model
//!
//! * **Off** (no sink installed): each probe site costs one relaxed
//!   atomic load in [`enabled`] and a predictable branch.
//! * **On**: spans take two clock reads plus one short mutex-held
//!   buffer push. Tracing is a diagnostic mode; the hot paths it wraps
//!   (an LP solve, a simulation run, a Dijkstra phase) dwarf this cost,
//!   and the perf benches gate the *off* configurations, which are the
//!   ones production sweeps run in.
//!
//! ## Determinism
//!
//! Events carry a **logical track** (set per task by fan-out code via
//! [`set_track`], inherited by everything the task runs) and a per-track
//! sequence number. Flushing sorts by `(track, seq)`, so the *structure*
//! of a trace — which spans, on which tracks, in which order — is
//! byte-identical however many worker threads the run used. Wall-clock
//! `ts`/`dur` fields are the only nondeterministic bytes; comparison
//! tooling masks them (see `crates/harness/tests/determinism.rs`).
//!
//! ## Usage
//!
//! ```
//! tf_obs::install(tf_obs::SinkSpec::Off); // start clean for the doctest
//! tf_obs::install_collect();              // collect without a file sink
//! {
//!     let mut span = tf_obs::span("demo", "outer");
//!     span.arg("n", 3.0);
//!     tf_obs::counter("demo", "items", 3.0);
//! }
//! let events = tf_obs::take_events();
//! assert_eq!(events.len(), 2);
//! assert_eq!(events[0].name, "outer");
//! tf_obs::install(tf_obs::SinkSpec::Off);
//! ```
//!
//! Binaries pick the sink from the environment with
//! [`SinkSpec::from_env`]: `TF_TRACE={off,jsonl,chrome}` selects it, and
//! an optional explicit path (the harness `--trace <path>` flag)
//! overrides the default output file. See `docs/OBSERVABILITY.md` for
//! the span-naming scheme.

mod collector;
mod registry;
mod sink;

pub use collector::{
    counter, install, install_collect, installed, instant, set_track, span, summary, take_events,
    Event, EventKind, SpanGuard, SpanSummary, TrackGuard,
};
pub use registry::ObsRegistry;
pub use sink::{render_chrome, render_jsonl, SinkSpec};

/// True iff a sink is currently installed. Probe sites branch on this
/// (one relaxed atomic load).
#[inline(always)]
pub fn enabled() -> bool {
    collector::runtime_on()
}

/// Drain the collected events through the installed sink, writing the
/// output file for file-backed sinks. Returns the path written, if any.
/// The buffer and per-track sequence counters are cleared either way.
pub fn flush() -> std::io::Result<Option<std::path::PathBuf>> {
    let (spec, events) = collector::drain();
    match &spec {
        SinkSpec::Off | SinkSpec::Collect => Ok(None),
        SinkSpec::Jsonl(p) => {
            std::fs::write(p, render_jsonl(&events))?;
            Ok(Some(p.clone()))
        }
        SinkSpec::Chrome(p) => {
            std::fs::write(p, render_chrome(&events))?;
            Ok(Some(p.clone()))
        }
    }
}

/// Open a span; sugar over [`span()`] so call sites read uniformly with
/// [`counter!`] and [`instant!`]. Binds the guard to the given name:
/// `let _s = tf_obs::span!("sim", "simulate");`
#[macro_export]
macro_rules! span {
    ($cat:expr, $name:expr) => {
        $crate::span($cat, $name)
    };
}

/// Record a numeric counter sample (no-op unless tracing is enabled).
#[macro_export]
macro_rules! counter {
    ($cat:expr, $name:expr, $value:expr) => {
        $crate::counter($cat, $name, $value)
    };
}

/// Record an instant event (no-op unless tracing is enabled).
#[macro_export]
macro_rules! instant {
    ($cat:expr, $name:expr) => {
        $crate::instant($cat, $name)
    };
}
