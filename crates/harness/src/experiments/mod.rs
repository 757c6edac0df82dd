//! Experiment implementations E1–E22. See the crate docs and DESIGN.md for
//! the claim-to-experiment mapping.

mod e01_theorem1;
mod e02_l2_headline;
mod e03_low_speed_blowup;
mod e04_speed_sweep;
mod e05_l1;
mod e06_clairvoyant;
mod e07_starvation;
mod e08_instantaneous;
mod e09_agedrr;
mod e10_dualfit;
mod e11_lp_quality;
mod e12_quantum;
mod e13_machines;
mod e14_dispatch;
mod e15_speedup_curves;
mod e16_broadcast;
mod e17_weighted;
mod e18_queueing;
mod e19_adversary_search;
mod e20_max_flow;
mod e21_hybrid_frontier;
mod e22_flows;
mod stream;

pub use e01_theorem1::e1;
pub use e02_l2_headline::e2;
pub use e03_low_speed_blowup::e3;
pub use e04_speed_sweep::e4;
pub use e05_l1::e5;
pub use e06_clairvoyant::e6;
pub use e07_starvation::e7;
pub use e08_instantaneous::e8;
pub use e09_agedrr::e9;
pub use e10_dualfit::e10;
pub use e11_lp_quality::e11;
pub use e12_quantum::e12;
pub use e13_machines::e13;
pub use e14_dispatch::e14;
pub use e15_speedup_curves::e15;
pub use e16_broadcast::e16;
pub use e17_weighted::e17;
pub use e18_queueing::e18;
pub use e19_adversary_search::e19;
pub use e20_max_flow::e20;
pub use e21_hybrid_frontier::e21;
pub use e22_flows::e22;
pub use stream::stream;

use crate::table::Table;

pub use crate::runctx::RunCtx;

/// How big to run: `Quick` keeps each experiment under a second for tests;
/// `Full` is the paper-scale run used by the CLI and benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Small instances, single repetition — CI-friendly.
    Quick,
    /// Full-scale tables.
    Full,
}

impl Effort {
    /// Baseline job count for random workloads.
    pub fn n(self) -> usize {
        match self {
            Effort::Quick => 30,
            Effort::Full => 120,
        }
    }

    /// Scale parameter for adversarial families (e.g. cascade levels).
    pub fn scale(self) -> u32 {
        match self {
            Effort::Quick => 3,
            Effort::Full => 6,
        }
    }
}

type ExperimentFn = fn(&RunCtx) -> Vec<Table>;

/// Campaign granularity of one experiment — the unit shard workers claim
/// of it (see [`crate::shard`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExpGrain {
    /// The experiment journals as a single `exp:` task: the shard worker
    /// that wins its lease computes the whole table set; other workers
    /// skip it.
    Whole,
    /// The experiment's body fans out into journaled leaf tasks
    /// (`ratio:`/`hunt:` keys): every worker traverses the experiment
    /// (its structure is cheap) and the leaves shard individually. The
    /// `exp:` wrapper is journaled only by non-worker runs (such as the
    /// coordinator's final pass), which replay the leaves.
    Leaves,
}

/// The experiment registry in presentation order. [`run_experiment`] and
/// [`all_ids`] both derive from this table, so the dispatcher and the id
/// list cannot drift apart (an earlier revision listed e1–e19 here but
/// dispatched e20 too, silently dropping it from `all` runs). The grain
/// column marks the experiments whose bodies journal leaf tasks
/// (`empirical_ratios` fan-outs, hunt restarts).
const REGISTRY: &[(&str, ExperimentFn, ExpGrain)] = &[
    ("e1", e1, ExpGrain::Leaves),
    ("e2", e2, ExpGrain::Leaves),
    ("e3", e3, ExpGrain::Whole),
    ("e4", e4, ExpGrain::Whole),
    ("e5", e5, ExpGrain::Whole),
    ("e6", e6, ExpGrain::Whole),
    ("e7", e7, ExpGrain::Whole),
    ("e8", e8, ExpGrain::Whole),
    ("e9", e9, ExpGrain::Whole),
    ("e10", e10, ExpGrain::Whole),
    ("e11", e11, ExpGrain::Whole),
    ("e12", e12, ExpGrain::Whole),
    ("e13", e13, ExpGrain::Whole),
    ("e14", e14, ExpGrain::Whole),
    ("e15", e15, ExpGrain::Whole),
    ("e16", e16, ExpGrain::Whole),
    ("e17", e17, ExpGrain::Whole),
    ("e18", e18, ExpGrain::Whole),
    ("e19", e19, ExpGrain::Leaves),
    ("e20", e20, ExpGrain::Whole),
    ("e21", e21, ExpGrain::Leaves),
    ("e22", e22, ExpGrain::Whole),
];

/// Named experiment *families* dispatched alongside the numbered
/// registry but deliberately excluded from [`all_ids`]: at default scale
/// they are throughput/memory benchmarks (`stream` pushes 10⁷ jobs), so
/// `all` runs should opt in by naming them explicitly.
const FAMILIES: &[(&str, ExperimentFn, ExpGrain)] = &[("stream", stream, ExpGrain::Whole)];

/// Run an experiment by id (`"e1"`..`"e22"` or a family id such as
/// `"stream"`, case-insensitive) under the given [`RunCtx`]. Returns
/// `None` for unknown ids. The whole experiment is wrapped in a
/// `harness.<id>` span so per-experiment wall-clock shows up in traces
/// and the timing table.
///
/// Under an active campaign ([`crate::campaign`]) the finished table set
/// is journaled per experiment, so a resumed run replays completed
/// experiments verbatim — including wall-clock cells like "alloc ms"
/// that would otherwise differ between runs — and only recomputes the
/// one that was in flight when the previous run died.
pub fn run_experiment_ctx(id: &str, ctx: &RunCtx) -> Option<Vec<Table>> {
    let id = id.to_ascii_lowercase();
    REGISTRY
        .iter()
        .chain(FAMILIES.iter())
        .find(|(name, _, _)| *name == id)
        .map(|(name, f, grain)| {
            let _span = tf_obs::span!("harness", *name);
            let key = crate::campaign::TaskKey::literal(format!("exp:{name}:{:?}", ctx.effort));
            let scope = ctx.scope();
            match grain {
                // Leaf-grained experiments are traversed by every shard
                // worker (the leaves partition themselves); the `exp:`
                // wrapper journals only in non-worker runs.
                ExpGrain::Leaves => scope.run_structural(&key, || f(ctx)),
                // Whole-grained experiments shard as one unit.
                ExpGrain::Whole => scope.run_leaf(&key, || f(ctx), Vec::new),
            }
        })
}

/// [`run_experiment_ctx`] with a default context at the given effort —
/// the stable convenience entry point (cache on, no tracing changes).
pub fn run_experiment(id: &str, effort: Effort) -> Option<Vec<Table>> {
    run_experiment_ctx(&id.to_ascii_lowercase(), &RunCtx::with_effort(effort))
}

/// All *numbered* experiment ids in order (what `all` runs). Named
/// families ([`family_ids`]) are dispatched by [`run_experiment_ctx`] but
/// must be requested explicitly.
pub fn all_ids() -> Vec<&'static str> {
    REGISTRY.iter().map(|(name, _, _)| *name).collect()
}

/// Ids of the named experiment families (e.g. `"stream"`).
pub fn family_ids() -> Vec<&'static str> {
    FAMILIES.iter().map(|(name, _, _)| *name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry covers e1..e22 contiguously with unique ids — the
    /// shape regression that once dropped "e20" from `all` runs.
    #[test]
    fn registry_is_contiguous_and_unique() {
        let ids = all_ids();
        assert_eq!(ids.len(), 22);
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(*id, format!("e{}", i + 1));
        }
    }

    /// The `stream` family dispatches by name but stays out of `all`.
    #[test]
    fn stream_family_dispatches_but_is_not_in_all() {
        assert!(!all_ids().contains(&"stream"));
        assert_eq!(family_ids(), vec!["stream"]);
        // Shrink the sweep via the env overrides so dispatch coverage
        // stays test-sized (the env is only read by the stream family).
        std::env::set_var("TF_STREAM_N", "300");
        std::env::set_var("TF_STREAM_RHO", "0.5");
        let tables = run_experiment("STREAM", Effort::Quick).unwrap();
        std::env::remove_var("TF_STREAM_N");
        std::env::remove_var("TF_STREAM_RHO");
        assert!(!tables.is_empty());
        assert!(tables[0].rows.iter().any(|r| r[0] == "300"));
    }

    #[test]
    fn unknown_id_is_none() {
        assert!(run_experiment("e99", Effort::Quick).is_none());
        assert!(run_experiment("", Effort::Quick).is_none());
    }

    #[test]
    fn ids_are_case_insensitive() {
        assert!(run_experiment("E7", Effort::Quick).is_some());
    }

    /// Every experiment runs at Quick effort and yields non-empty tables
    /// with consistent row arity.
    #[test]
    fn all_experiments_run_quick() {
        for id in all_ids() {
            let tables = run_experiment(id, Effort::Quick).unwrap();
            assert!(!tables.is_empty(), "{id} produced no tables");
            for t in &tables {
                assert!(!t.rows.is_empty(), "{id}: empty table {}", t.title);
                for row in &t.rows {
                    assert_eq!(
                        row.len(),
                        t.headers.len(),
                        "{id}: ragged row in {}",
                        t.title
                    );
                }
            }
        }
    }
}
