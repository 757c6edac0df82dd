//! Declarative grid sweeps: every (instance × policy × speed × k × m)
//! combination, evaluated with the ratio bracket, as one CSV-able table.
//!
//! The E1–E22 experiments answer the paper's questions; `sweep` is the
//! open-ended tool an adopter points at their *own* question. A
//! [`SweepConfig`] is plain serde JSON, so grids live in version control
//! next to the results they produced.

use crate::campaign::CampaignScope;
use crate::corpus::integral_poisson;
use crate::ratio::{default_baselines, empirical_ratios_scoped, RatioTask};
use crate::table::{fnum, Table};
use serde::{Deserialize, Serialize};
use tf_policies::Policy;
use tf_simcore::Trace;
use tf_workload::SizeDist;

/// Where sweep instances come from.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum SweepInstance {
    /// Load a JSON trace from disk (see `tf_workload::traceio`).
    TraceFile {
        /// Path to the trace JSON.
        path: String,
    },
    /// Generate an integral Poisson workload.
    Poisson {
        /// Job count.
        n: usize,
        /// Target utilization of `m` machines (the sweep's `m` values each
        /// regenerate at their own load).
        rho: f64,
        /// Size distribution.
        sizes: SizeDist,
        /// RNG seed.
        seed: u64,
    },
}

/// A full sweep specification. Unknown keys are ignored, so configs
/// that still carry the retired `warm_lb` flag parse unchanged.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepConfig {
    /// Instances to evaluate.
    pub instances: Vec<SweepInstance>,
    /// Policies (names as accepted by `Policy::from_str`, e.g. `"rr"`,
    /// `"srpt"`, `"laps:0.25"`).
    pub policies: Vec<String>,
    /// Speeds for the evaluated policy (baselines always run at 1).
    pub speeds: Vec<f64>,
    /// Norm exponents.
    pub ks: Vec<u32>,
    /// Machine counts.
    pub ms: Vec<usize>,
}

impl SweepConfig {
    /// Parse policies, failing fast with the offending name.
    pub fn parsed_policies(&self) -> Result<Vec<Policy>, String> {
        self.policies.iter().map(|s| s.parse::<Policy>()).collect()
    }

    /// Number of grid points.
    pub fn points(&self) -> usize {
        self.instances.len()
            * self.policies.len()
            * self.speeds.len()
            * self.ks.len()
            * self.ms.len()
    }
}

fn materialize(inst: &SweepInstance, m: usize) -> Result<(String, Trace), String> {
    match inst {
        SweepInstance::TraceFile { path } => {
            let t = tf_workload::traceio::load_trace(path).map_err(|e| format!("{path}: {e}"))?;
            Ok((path.clone(), t))
        }
        SweepInstance::Poisson {
            n,
            rho,
            sizes,
            seed,
        } => {
            let t = integral_poisson(*n, *rho, m, *sizes, *seed);
            Ok((format!("poisson-{}-n{n}-rho{rho}", sizes.label()), t))
        }
    }
}

/// Run the sweep, producing one row per grid point. The grid points run
/// through [`empirical_ratios_scoped`] under `scope`, so inside a
/// campaign each journals under its content-addressed ratio key and
/// replays on resume; [`CampaignScope::none`] runs outside any campaign.
pub fn run_sweep_scoped(scope: &CampaignScope, cfg: &SweepConfig) -> Result<Table, String> {
    let mut obs_span = tf_obs::span!("harness", "sweep");
    let policies = cfg.parsed_policies()?;
    let baselines = default_baselines();
    let mut table = Table::new(
        "sweep",
        &[
            "instance", "policy", "m", "speed", "k", "alg^k", "LB", "best", "ratio>=", "ratio<=",
        ],
    );

    // Materialize instances per machine count (Poisson load depends on m).
    let mut names: Vec<String> = Vec::new();
    let mut tasks: Vec<RatioTask> = Vec::new();
    for &m in &cfg.ms {
        for inst in &cfg.instances {
            let (name, trace) = materialize(inst, m)?;
            for &policy in &policies {
                for &speed in &cfg.speeds {
                    for &k in &cfg.ks {
                        names.push(name.clone());
                        tasks.push(RatioTask {
                            trace: trace.clone(),
                            policy,
                            m,
                            speed,
                            k,
                        });
                    }
                }
            }
        }
    }
    let estimates = empirical_ratios_scoped(scope, &tasks, &baselines);
    for ((name, t), r) in names.into_iter().zip(&tasks).zip(&estimates) {
        table.push_row(vec![
            name,
            t.policy.to_string(),
            t.m.to_string(),
            fnum(t.speed),
            t.k.to_string(),
            fnum(r.alg_power_sum),
            fnum(r.lower_bound),
            fnum(r.best_power_sum),
            fnum(r.ratio_vs_best),
            fnum(r.ratio_vs_lb),
        ]);
    }
    table.note(format!(
        "{} grid points; baselines at speed 1: SRPT/SJF/SETF/RR.",
        cfg.points()
    ));
    if tf_obs::enabled() {
        obs_span.arg("points", cfg.points() as f64);
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> SweepConfig {
        SweepConfig {
            instances: vec![SweepInstance::Poisson {
                n: 15,
                rho: 0.9,
                sizes: SizeDist::Exponential { mean: 3.0 },
                seed: 4,
            }],
            policies: vec!["rr".into(), "srpt".into()],
            speeds: vec![1.0, 2.0],
            ks: vec![1, 2],
            ms: vec![1],
        }
    }

    #[test]
    fn sweep_produces_full_grid() {
        let cfg = tiny_cfg();
        let t = run_sweep_scoped(&CampaignScope::none(), &cfg).unwrap();
        assert_eq!(t.rows.len(), cfg.points());
        for row in &t.rows {
            let lo: f64 = row[8].parse().unwrap();
            let hi: f64 = row[9].parse().unwrap();
            assert!(lo <= hi + 1e-9, "{row:?}");
        }
    }

    #[test]
    fn config_with_the_retired_warm_lb_field_still_parses() {
        let json = |extra: &str| {
            format!(
                r#"{{"instances":[{{"Poisson":{{"n":8,"rho":0.8,"sizes":{{"Uniform":{{"lo":1.0,"hi":3.0}}}},"seed":1}}}}],
                    "policies":["rr"],"speeds":[1.0],"ks":[1],"ms":[1]{extra}}}"#
            )
        };
        let plain: SweepConfig = serde_json::from_str(&json("")).unwrap();
        let legacy: SweepConfig = serde_json::from_str(&json(r#","warm_lb":true"#)).unwrap();
        assert_eq!(
            run_sweep_scoped(&CampaignScope::none(), &plain).unwrap(),
            run_sweep_scoped(&CampaignScope::none(), &legacy).unwrap()
        );
    }

    #[test]
    fn bad_policy_name_fails_fast() {
        let mut cfg = tiny_cfg();
        cfg.policies.push("frobnicate".into());
        assert!(run_sweep_scoped(&CampaignScope::none(), &cfg).is_err());
    }

    #[test]
    fn config_serde_roundtrip() {
        let cfg = tiny_cfg();
        let json = serde_json::to_string(&cfg).unwrap();
        let back: SweepConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.points(), cfg.points());
    }

    #[test]
    fn trace_file_instances_load() {
        let trace = Trace::from_pairs([(0.0, 2.0), (1.0, 1.0)]).unwrap();
        let path = std::env::temp_dir().join(format!("tf-sweep-{}.json", std::process::id()));
        tf_workload::traceio::save_trace(&trace, &path).unwrap();
        let cfg = SweepConfig {
            instances: vec![SweepInstance::TraceFile {
                path: path.to_string_lossy().into(),
            }],
            policies: vec!["rr".into()],
            speeds: vec![1.0],
            ks: vec![2],
            ms: vec![1],
        };
        let t = run_sweep_scoped(&CampaignScope::none(), &cfg).unwrap();
        assert_eq!(t.rows.len(), 1);
        std::fs::remove_file(path).ok();
    }
}
