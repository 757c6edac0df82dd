#![warn(missing_docs)]

//! # tf-speedup — arbitrary speed-up curves, where RR *fails*
//!
//! The paper's Section 1.2 contrasts its positive result with the
//! *arbitrary speed-up curves* setting: "in other scheduling environments
//! such as the arbitrary speed-up curves and broadcast settings, RR was
//! shown not to be O(1)-speed O(1)-competitive" for the ℓ2 norm \[15\],
//! while it *is* O(1)-speed O(1)-competitive for the ℓ1 norm there
//! \[13\]. Reproducing that contrast requires the other model, so this
//! crate implements it:
//!
//! * jobs are sequences of **phases**; a phase holds `work` and is either
//!   **parallelizable** (`Par`: progresses at rate `s·ρ` when allocated
//!   `ρ` processors of speed `s`) or **sequential** (`Seq`: progresses at
//!   rate `s` regardless of allocation — extra processors are wasted);
//! * a policy splits `P = m` processors over alive jobs at each instant;
//!   **EQUI** (= RR here) gives every alive job `P/n_t`, oblivious to
//!   phases; **LAPS(β)** favors the latest arrivals \[13\]; **GreedyPar**
//!   is the clairvoyant baseline that concentrates all processors on the
//!   parallel-phase job with least remaining work (sequential phases run
//!   free);
//! * [`families::seq_swarm_overlapped`] is the instance family behind
//!   the negative result: a swarm of short sequential jobs keeps `n_t`
//!   large *at zero opportunity cost to the optimum* (sequential work
//!   needs no processors), so EQUI starves the parallel job by the full
//!   factor `n_t` — and extra speed only divides, never cancels, that
//!   factor.
//!   Experiment E15 measures exactly this: ℓ2 ratio growing linearly with
//!   the swarm size at *every* constant speed, while ℓ1 stays flat.

pub mod engine;
pub mod families;
pub mod job;
pub mod policy;

pub use engine::{simulate_speedup, SpeedupSchedule};
pub use job::{Phase, PhaseKind, SpeedupJob, SpeedupTrace};
pub use policy::{Equi, GreedyPar, LapsCurves, ProcessorPolicy};
