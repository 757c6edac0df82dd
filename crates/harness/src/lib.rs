#![warn(missing_docs)]

//! # tf-harness — the experiment suite (E1–E22)
//!
//! The paper is pure theory; its "evaluation" is the set of quantitative
//! claims it proves or cites. DESIGN.md maps each claim to an experiment
//! id; this crate implements them:
//!
//! | Id | Claim |
//! |----|-------|
//! | E1 | Theorem 1: RR is `2k(1+10ε)`-speed `O(k/ε)`-competitive for ℓk |
//! | E2 | RR is `(4+ε)`-speed `O(1)`-competitive for ℓ2 |
//! | E3 | RR blows up with `n` at speed < 3/2 for ℓ2 (cited lower bound) |
//! | E4 | ratio-vs-speed crossover for ℓ2 |
//! | E5 | RR is O(1)-speed O(1)-competitive for ℓ1 |
//! | E6 | SRPT/SJF/SETF are scalable for ℓk |
//! | E7 | SRPT starves; RR is temporally fair (motivation table) |
//! | E8 | RR is instantaneously fair (Jain index 1) |
//! | E9 | RR vs age-weighted RR for ℓ2 |
//! | E10 | Lemmas 1–4 + dual feasibility certify (Section 3) |
//! | E11 | LP relaxation quality (Section 3.1) |
//! | E12 | discrete-quantum RR → ideal RR convergence |
//! | E13 | multi-machine RR semantics across m |
//! | E14 | the price of no migration (immediate dispatch, \[2,3\]) |
//! | E15 | speed-up curves: RR fails for ℓ2, fine for ℓ1 (\[13,15\]) |
//! | E16 | broadcast scheduling: shared transmissions (\[12,15\]) |
//! | E17 | weighted flow: oblivious RR vs WRR vs HDF |
//! | E18 | simulator vs closed-form M/G/1 queueing theory |
//! | E19 | adversary-mined worst instances (certified true ratios) |
//! | E20 | the k = ∞ endpoint: max flow, true ratios to FCFS |
//! | E21 | starvation-mitigated SRPT and multi-list dispatch vs RR's ℓ2/ℓ3 bracket |
//! | E22 | per-flow weighted fairness: named flows through RR / WRR / HDF / SRPT |
//!
//! The `stream` family (not in `all`) runs 10⁷-job open workloads in
//! bounded memory.
//!
//! Every experiment returns [`table::Table`]s; the `experiments` binary
//! renders them as text/markdown/CSV. All randomness is seeded — rerunning
//! reproduces the tables exactly.

pub mod campaign;
pub mod cli;
pub mod corpus;
pub mod experiments;
pub mod hunt;
pub mod lbcache;
pub mod ratio;
pub mod record;
pub mod runctx;
pub mod shard;
pub mod sweep;
pub mod table;

pub use campaign::{Campaign, CampaignCfg, CampaignScope, ShardSpec, TaskKey};
pub use experiments::{run_experiment, run_experiment_ctx, Effort};
pub use ratio::{
    empirical_ratio, empirical_ratio_scoped, empirical_ratios, empirical_ratios_scoped,
    min_speed_for_ratio, RatioEstimate, RatioTask,
};
pub use runctx::RunCtx;
pub use table::Table;
