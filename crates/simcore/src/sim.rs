//! [`Simulation`] — the builder-style front door to the engine.
//!
//! [`crate::simulate`] takes four positional arguments, two of which are
//! almost always defaulted; call sites ended up as
//! `simulate(&trace, &mut rr, MachineConfig::new(1), SimOptions::default())`.
//! The builder names every knob, keeps the common case one line, and folds
//! in the tracing sink so a diagnostic run reads declaratively:
//!
//! ```text
//! Simulation::of(&trace)
//!     .policy(&mut rr)
//!     .machines(2)
//!     .speed(1.5)
//!     .record_profile()
//!     .trace(SinkSpec::Chrome("run.trace.json".into()))
//!     .run()?
//! ```
//!
//! [`Simulation::run`] delegates to [`crate::simulate`], which remains the
//! underlying (and still public) entry point.

use crate::alloc::{MachineConfig, RateAllocator};
use crate::engine::{simulate, SimOptions};
use crate::error::SimError;
use crate::schedule::Schedule;
use crate::trace::Trace;

/// A configured-but-not-yet-run simulation. Build with
/// [`Simulation::of`], chain setters, finish with [`Simulation::run`].
///
/// # Example
///
/// ```
/// use tf_simcore::{AliveJob, MachineConfig, RateAllocator, Simulation, Trace};
///
/// struct Rr;
/// impl RateAllocator for Rr {
///     fn name(&self) -> &'static str {
///         "RR"
///     }
///     fn allocate(&mut self, _t: f64, alive: &[AliveJob], cfg: &MachineConfig, rates: &mut [f64]) {
///         let share = cfg.speed * (cfg.m as f64 / alive.len() as f64).min(1.0);
///         rates.fill(share);
///     }
/// }
///
/// let trace = Trace::from_pairs([(0.0, 1.0), (0.0, 2.0)]).unwrap();
/// let schedule = Simulation::of(&trace).policy(&mut Rr).run().unwrap();
/// assert!((schedule.total_flow() - 5.0).abs() < 1e-9);
/// ```
#[must_use = "a Simulation does nothing until .run() is called"]
pub struct Simulation<'t, 'p> {
    trace: &'t Trace,
    policy: Option<&'p mut dyn RateAllocator>,
    cfg: MachineConfig,
    opts: SimOptions,
    sink: Option<tf_obs::SinkSpec>,
}

impl<'t, 'p> Simulation<'t, 'p> {
    /// Start building a simulation of `trace`. Defaults: one unit-speed
    /// machine, no profile recording, no tracing, no policy (a policy is
    /// required before [`Simulation::run`]).
    pub fn of(trace: &'t Trace) -> Self {
        Simulation {
            trace,
            policy: None,
            cfg: MachineConfig::new(1),
            opts: SimOptions::default(),
            sink: None,
        }
    }

    /// The scheduling policy to drive (required).
    pub fn policy(mut self, policy: &'p mut dyn RateAllocator) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Number of identical machines (default 1).
    pub fn machines(mut self, m: usize) -> Self {
        self.cfg.m = m;
        self
    }

    /// Per-machine speed for resource augmentation (default 1.0).
    pub fn speed(mut self, speed: f64) -> Self {
        self.cfg.speed = speed;
        self
    }

    /// Replace the whole [`MachineConfig`] at once.
    pub fn config(mut self, cfg: MachineConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Record the full piecewise-constant [`crate::Profile`]
    /// (see [`SimOptions::record_profile`]).
    pub fn record_profile(mut self) -> Self {
        self.opts.record_profile = true;
        self
    }

    /// Measure wall-clock time spent in the policy's `allocate`
    /// (see [`SimOptions::time_alloc`]).
    pub fn timed(mut self) -> Self {
        self.opts.time_alloc = true;
        self
    }

    /// Maximum step length for continuously-varying policies
    /// (see [`SimOptions::max_step`]).
    pub fn max_step(mut self, dt: f64) -> Self {
        self.opts.max_step = Some(dt);
        self
    }

    /// Hard cap on engine events (see [`SimOptions::max_events`]).
    pub fn max_events(mut self, budget: u64) -> Self {
        self.opts.max_events = Some(budget);
        self
    }

    /// Install `sink` as the process-wide tf-obs sink when the simulation
    /// runs, so this run's spans and counters are collected. The sink
    /// stays installed afterwards; call [`tf_obs::flush`] to write the
    /// output file, or install [`tf_obs::SinkSpec::Off`] to stop.
    pub fn trace(mut self, sink: tf_obs::SinkSpec) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Run the simulation via [`crate::simulate`].
    ///
    /// # Panics
    /// If no policy was set with [`Simulation::policy`].
    ///
    /// # Errors
    /// Exactly those of [`crate::simulate`].
    pub fn run(self) -> Result<Schedule, SimError> {
        if let Some(sink) = self.sink {
            tf_obs::install(sink);
        }
        let policy = self
            .policy
            .expect("Simulation::run: no policy set; call .policy(&mut ...) first");
        simulate(self.trace, policy, self.cfg, self.opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::AliveJob;

    struct Rr;
    impl RateAllocator for Rr {
        fn name(&self) -> &'static str {
            "RR"
        }
        fn allocate(
            &mut self,
            _now: f64,
            alive: &[AliveJob],
            cfg: &MachineConfig,
            rates: &mut [f64],
        ) {
            let share = cfg.speed * (cfg.m as f64 / alive.len() as f64).min(1.0);
            rates.fill(share);
        }
    }

    fn trace(pairs: &[(f64, f64)]) -> Trace {
        Trace::from_pairs(pairs.iter().copied()).unwrap()
    }

    #[test]
    fn builder_matches_direct_simulate() {
        let t = trace(&[(0.0, 3.0), (0.5, 1.0), (2.0, 2.0)]);
        let via_builder = Simulation::of(&t)
            .policy(&mut Rr)
            .machines(2)
            .speed(1.5)
            .record_profile()
            .run()
            .unwrap();
        let direct = simulate(
            &t,
            &mut Rr,
            MachineConfig::with_speed(2, 1.5),
            SimOptions::with_profile(),
        )
        .unwrap();
        assert_eq!(via_builder.completion, direct.completion);
        assert_eq!(via_builder.events, direct.events);
        assert!(via_builder.profile.is_some());
    }

    #[test]
    fn builder_defaults_are_one_unit_machine() {
        let t = trace(&[(0.0, 2.0)]);
        let s = Simulation::of(&t).policy(&mut Rr).run().unwrap();
        assert!((s.completion[0] - 2.0).abs() < 1e-12);
        assert!(s.profile.is_none());
    }

    #[test]
    #[should_panic(expected = "no policy set")]
    fn builder_without_policy_panics() {
        let t = trace(&[(0.0, 1.0)]);
        let _ = Simulation::of(&t).run();
    }

    #[test]
    fn builder_max_events_cap_applies() {
        let t = trace(&[(0.0, 1.0), (5.0, 1.0), (10.0, 1.0)]);
        let e = Simulation::of(&t).policy(&mut Rr).max_events(1).run();
        assert!(matches!(e, Err(SimError::EventBudgetExhausted { .. })));
    }
}
