//! **E22 — per-flow weighted fairness: named flows through RR / WRR / HDF / SRPT.**
//!
//! Claim context (paper, Section 1): RR's appeal is *temporal fairness* —
//! every alive job gets an equal machine share at every instant. Packet
//! and flow scheduling sharpen the question: traffic arrives as named
//! **flows**, each with its own arrival process, size distribution, and
//! weight, and "fair" means *weight-proportional* service per flow, not
//! equal service per job. E22 measures what each policy delivers per
//! flow: the per-flow ℓ1/ℓ2/ℓ∞ flow-time norms (does a heavy flow's
//! service come at a light flow's tail?) and the **weighted temporal
//! Jain index** over normalized shares `x_i/w_i` — 1.0 iff instantaneous
//! rates split in proportion to weight, the fair-queueing ideal.
//!
//! Measurement: four flow-mix instances from [`tf_workload::FlowSet`]
//! (2–8 flows, weight skews up to 16:1, exponential and heavy-tailed
//! Pareto sizes, m ∈ {1, 2}); policies RR (weight-oblivious fair), WRR
//! (weight-proportional fair), HDF (clairvoyant weighted priority), SRPT
//! (clairvoyant unweighted priority). Expected shape: WRR alone scores
//! weighted Jain ≈ 1 under contention; RR is *temporally* fair but
//! weight-blind, so its weighted Jain drops as skew grows; the priority
//! policies win norms for favoured flows by starving the rest.
//!
//! The `Full` run also streams the 4-flow mix at n = 10⁶ through the
//! bounded-memory engine ([`tf_simcore::simulate_stream`] +
//! [`tf_metrics::PerFlowStreamingStats`]). Run by the `experiments`
//! binary, E22 writes `BENCH_6.json` at the repo root — per-flow
//! mean/ℓ2/max plus throughput and footprint, the record the CI
//! flows-smoke job asserts against. Scale can be
//! overridden without recompiling via `TF_FLOWS_N` (streamed jobs per
//! flow), which CI uses to keep the smoke run short.

use std::time::Instant;

use serde::Serialize;

use super::stream::vm_hwm_mb;
use super::RunCtx;
use crate::table::{fnum, Table};
use tf_metrics::{
    instantaneous_fairness, instantaneous_weighted_fairness, per_flow_lk_norms,
    PerFlowStreamingStats,
};
use tf_policies::Policy;
use tf_simcore::{simulate, simulate_stream, MachineConfig, SimOptions, StreamOptions};
use tf_workload::{ArrivalProcess, FlowSet, FlowSpec, SizeDist, StreamArrivals, StreamBound};

/// The four policies E22 compares: the two temporally-fair allocators
/// (weight-oblivious and weight-proportional) against the two clairvoyant
/// priority yardsticks (weighted and unweighted).
const E22_POLICIES: &[Policy] = &[Policy::Rr, Policy::Wrr, Policy::Hdf, Policy::Srpt];

/// Scale knobs for one E22 run.
#[derive(Debug, Clone)]
struct FlowsParams {
    /// Jobs generated per flow for the closed (materialised) mixes.
    closed_n: u64,
    /// Jobs generated per flow for the streaming run (the 4-flow mix has
    /// four flows, so total streamed jobs = 4 × this).
    stream_n: u64,
    /// Completions per accumulator chunk before folding into the run
    /// total (exercises the per-flow streaming `merge` path).
    chunk: u64,
}

impl FlowsParams {
    /// Defaults for the given effort, with the `TF_FLOWS_N` environment
    /// override applied to the streamed per-flow count.
    fn for_effort(effort: crate::Effort) -> Self {
        let mut p = match effort {
            crate::Effort::Quick => FlowsParams {
                closed_n: 25,
                stream_n: 1_500,
                chunk: 256,
            },
            // 250 000 per flow × 4 flows = the acceptance-scale 10⁶-job
            // streaming run.
            crate::Effort::Full => FlowsParams {
                closed_n: 150,
                stream_n: 250_000,
                chunk: 65_536,
            },
        };
        if let Ok(raw) = std::env::var("TF_FLOWS_N") {
            match raw.trim().parse::<u64>() {
                Ok(n) if n > 0 => p.stream_n = n,
                _ => eprintln!("ignoring TF_FLOWS_N={raw:?}: not a positive integer"),
            }
        }
        p
    }
}

fn poisson(rate: f64) -> StreamArrivals {
    StreamArrivals::Process(ArrivalProcess::Poisson { rate })
}

/// The 2-flow mix: a light interactive flow vs a heavy-tailed bulk flow
/// with 4× its weight.
fn mix_two_flows(seed: u64) -> FlowSet {
    FlowSet::new(
        vec![
            FlowSpec::new(
                "light",
                1.0,
                poisson(0.55),
                SizeDist::Exponential { mean: 1.0 },
            ),
            FlowSpec::new(
                "bulk",
                4.0,
                poisson(0.25),
                SizeDist::Pareto {
                    alpha: 1.8,
                    min: 0.4,
                },
            ),
        ],
        seed,
    )
}

/// The 4-flow mix with geometric 1:2:4:8 weights — the streaming
/// subject. Three exponential classes plus one heavy-tailed flow, total
/// offered load ≈ 0.9 on one unit-speed machine.
fn mix_four_flows(seed: u64) -> FlowSet {
    FlowSet::new(
        vec![
            FlowSpec::new(
                "bronze",
                1.0,
                poisson(0.30),
                SizeDist::Exponential { mean: 0.5 },
            ),
            FlowSpec::new(
                "silver",
                2.0,
                poisson(0.25),
                SizeDist::Exponential { mean: 1.0 },
            ),
            FlowSpec::new(
                "gold",
                4.0,
                poisson(0.15),
                SizeDist::Exponential { mean: 1.5 },
            ),
            FlowSpec::new(
                "platinum",
                8.0,
                poisson(0.10),
                SizeDist::Pareto {
                    alpha: 2.2,
                    min: 0.8,
                },
            ),
        ],
        seed,
    )
}

/// The 8-flow mix: seven unit-weight background flows plus one flow at
/// weight 16 — the sharpest skew, run on two machines.
fn mix_eight_flows(seed: u64) -> FlowSet {
    let mut flows: Vec<FlowSpec> = (0..7)
        .map(|i| {
            FlowSpec::new(
                format!("bg{i}"),
                1.0,
                poisson(0.18),
                SizeDist::Exponential { mean: 1.0 },
            )
        })
        .collect();
    flows.push(FlowSpec::new(
        "vip",
        16.0,
        poisson(0.20),
        SizeDist::Pareto {
            alpha: 1.9,
            min: 0.5,
        },
    ));
    FlowSet::new(flows, seed)
}

/// The four flow-mix instances: (label, set, machines).
fn mixes() -> Vec<(&'static str, FlowSet, usize)> {
    vec![
        ("2f 1:4", mix_two_flows(0xE22_0001), 1),
        ("4f 1:2:4:8", mix_four_flows(0xE22_0002), 1),
        ("4f 1:2:4:8", mix_four_flows(0xE22_0003), 2),
        ("8f 16:1 skew", mix_eight_flows(0xE22_0004), 2),
    ]
}

/// Run E22.
pub fn e22(ctx: &RunCtx) -> Vec<Table> {
    e22_with(&FlowsParams::for_effort(ctx.effort), ctx)
}

/// Run E22 at explicit parameters, render the tables, and hand the
/// `BENCH_6.json` record to `ctx`.
fn e22_with(params: &FlowsParams, ctx: &RunCtx) -> Vec<Table> {
    let mut norms = Table::new(
        "E22: per-flow flow-time norms (named flows, weighted policies)",
        &[
            "mix", "m", "policy", "flow", "w", "n", "l1(F)", "l2(F)", "max F", "mean F",
        ],
    );
    let mut fair = Table::new(
        "E22: weighted temporal fairness (Jain over normalized shares x/w)",
        &["mix", "m", "policy", "wJain", "min wJain", "plain Jain"],
    );

    for (label, set, m) in mixes() {
        let (trace, map) = set
            .build(StreamBound::Count(params.closed_n))
            .expect("mix parameters are valid");
        let weights: Vec<f64> = trace.jobs().iter().map(|j| j.weight).collect();
        for &policy in E22_POLICIES {
            let mut alloc = policy.make();
            let s = simulate(
                &trace,
                alloc.as_mut(),
                MachineConfig::new(m),
                SimOptions::with_profile(),
            )
            .expect("valid policy run");

            let l1 = per_flow_lk_norms(&s.flow, map.flow_indices(), map.n_flows(), 1.0);
            let l2 = per_flow_lk_norms(&s.flow, map.flow_indices(), map.n_flows(), 2.0);
            let linf = per_flow_lk_norms(&s.flow, map.flow_indices(), map.n_flows(), f64::INFINITY);
            for f in 0..map.n_flows() {
                let n_f = map
                    .flow_indices()
                    .iter()
                    .filter(|&&x| x as usize == f)
                    .count();
                norms.push_row(vec![
                    label.to_string(),
                    m.to_string(),
                    policy.to_string(),
                    map.name(f).to_string(),
                    fnum(map.weight(f)),
                    n_f.to_string(),
                    fnum(l1[f]),
                    fnum(l2[f]),
                    fnum(linf[f]),
                    fnum(if n_f == 0 { 0.0 } else { l1[f] / n_f as f64 }),
                ]);
            }

            let profile = s.profile.as_ref().expect("profile was requested");
            let wseries = instantaneous_weighted_fairness(profile, &weights);
            let series = instantaneous_fairness(profile);
            fair.push_row(vec![
                label.to_string(),
                m.to_string(),
                policy.to_string(),
                fnum(wseries.mean_jain()),
                fnum(wseries.min_jain()),
                fnum(series.mean_jain()),
            ]);
        }
    }
    norms
        .note("per-flow lk-norms of flow time; w is the flow weight every one of its jobs carries");
    norms.note("expected: HDF/SRPT buy low norms for favoured flows by inflating max F elsewhere; RR/WRR keep tails even");
    fair.note("wJain = duration-weighted Jain index of rate_i/w_i over contended segments: 1.0 iff shares are weight-proportional");
    fair.note("expected: WRR ~ 1.0 (the fair-queueing ideal); RR ~ 1.0 only at unit skew; priority policies well below");

    let stream_table = stream_bench(params, ctx);

    vec![norms, fair, stream_table]
}

/// `BENCH_6.json`: one row per streamed policy run with nested per-flow
/// rows — what the CI flows-smoke job asserts against.
#[derive(Serialize)]
struct Bench6 {
    e22_stream: Vec<FlowStreamRun>,
}

/// One policy's streamed run over the 4-flow mix, a row of
/// `BENCH_6.json`: per-flow accumulators folded chunk-wise (exercising the
/// mergeable path), throughput, and engine footprint.
#[derive(Serialize)]
struct FlowStreamRun {
    mix: String,
    policy: String,
    n: u64,
    n_flows: usize,
    jobs_per_sec: f64,
    peak_alive: usize,
    peak_rss_mb: f64,
    flows: Vec<FlowRow>,
}

/// One flow's streamed flow-time stats: a row of the stream table and of
/// `BENCH_6.json`.
#[derive(Serialize)]
struct FlowRow {
    flow: String,
    weight: f64,
    n: u64,
    mean_flow: f64,
    l2_flow: f64,
    max_flow: f64,
}

fn stream_one(set: &FlowSet, policy: Policy, params: &FlowsParams) -> FlowStreamRun {
    let n_flows = set.n_flows();
    let mut source = set
        .stream(StreamBound::Count(params.stream_n))
        .expect("mix parameters are valid");
    let log = source.flow_log();
    let mut alloc = policy.make();
    let opts = StreamOptions {
        // E[p]/speed/64-ish; a stream cannot know the mean size, so give
        // continuous allocators the materialised engine's heuristic.
        max_step: alloc.continuous().then_some(1.0 / 64.0),
        ..StreamOptions::default()
    };

    let mut total = PerFlowStreamingStats::new(n_flows, 128, 2.0);
    let mut chunk_acc = PerFlowStreamingStats::new(n_flows, 128, 2.0);
    let chunk = params.chunk.max(1);

    let t0 = Instant::now();
    let report = simulate_stream(
        &mut source,
        alloc.as_mut(),
        MachineConfig::new(1),
        opts,
        &mut |job| {
            chunk_acc.push(log.flow_of(job.id), job.flow);
            if chunk_acc.n() >= chunk {
                total.merge(&chunk_acc);
                chunk_acc = PerFlowStreamingStats::new(n_flows, 128, 2.0);
            }
        },
    )
    .expect("open flow stream simulates cleanly");
    let secs = t0.elapsed().as_secs_f64().max(1e-9);
    total.merge(&chunk_acc);

    let n = total.n();
    let l2: Vec<f64> = (0..n_flows).map(|f| total.norm(f)).collect();
    let per_flow = total.finish();
    let flows = per_flow
        .iter()
        .enumerate()
        .map(|(f, st)| FlowRow {
            flow: set.flows[f].name.clone(),
            weight: set.flows[f].weight,
            n: st.n as u64,
            mean_flow: st.mean,
            l2_flow: l2[f],
            max_flow: st.max,
        })
        .collect();
    FlowStreamRun {
        mix: set.label(),
        policy: policy.to_string(),
        n,
        n_flows,
        jobs_per_sec: report.completed as f64 / secs,
        peak_alive: report.stats.peak_alive,
        peak_rss_mb: vm_hwm_mb(),
        flows,
    }
}

/// Stream the 4-flow mix through every E22 policy, render the table, and
/// hand the `BENCH_6.json` record to `ctx`.
fn stream_bench(params: &FlowsParams, ctx: &RunCtx) -> Table {
    let set = mix_four_flows(0xE22_0002);
    let runs: Vec<FlowStreamRun> = E22_POLICIES
        .iter()
        .map(|&p| stream_one(&set, p, params))
        .collect();

    let mut t = Table::new(
        "E22: streamed per-flow stats (4-flow mix, bounded-memory engine, m=1)",
        &[
            "policy",
            "flow",
            "w",
            "n",
            "mean F",
            "l2(F)",
            "max F",
            "jobs/s",
            "peak alive",
        ],
    );
    for r in &runs {
        for f in &r.flows {
            t.push_row(vec![
                r.policy.clone(),
                f.flow.clone(),
                fnum(f.weight),
                f.n.to_string(),
                fnum(f.mean_flow),
                fnum(f.l2_flow),
                fnum(f.max_flow),
                fnum(r.jobs_per_sec),
                r.peak_alive.to_string(),
            ]);
        }
    }
    t.note("per-flow flow-time stats from mergeable PerFlowStreamingStats, folded chunk-wise as a sharded collector would");
    t.note("flow membership read through the FlowLog handle (4 bytes/job) — the Job type itself carries no flow id");

    ctx.write_record(6, &Bench6 { e22_stream: runs });
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_params() -> FlowsParams {
        FlowsParams {
            closed_n: 20,
            stream_n: 400,
            chunk: 64,
        }
    }

    #[test]
    fn e22_tables_are_consistent_and_cover_every_mix() {
        let tables = e22_with(&tiny_params(), &RunCtx::quick());
        assert_eq!(tables.len(), 3);
        for t in &tables {
            assert!(!t.rows.is_empty(), "empty table {}", t.title);
            for row in &t.rows {
                assert_eq!(row.len(), t.headers.len(), "ragged row in {}", t.title);
            }
        }
        // Norms table: (2 + 4 + 4 + 8) flows × 4 policies.
        assert_eq!(tables[0].rows.len(), 18 * 4);
        // Fairness table: 4 mixes × 4 policies.
        assert_eq!(tables[1].rows.len(), 16);
        // Stream table: 4 flows × 4 policies.
        assert_eq!(tables[2].rows.len(), 16);
    }

    #[test]
    fn e22_wrr_is_weight_proportionally_fair_and_rr_is_not() {
        let tables = e22_with(&tiny_params(), &RunCtx::quick());
        let fair = &tables[1];
        // On the sharpest skew (8 flows, 16:1), WRR's weighted Jain beats
        // weight-oblivious RR's, and WRR sits near the 1.0 ideal.
        let cell = |policy: &str| -> f64 {
            fair.rows
                .iter()
                .find(|r| r[0] == "8f 16:1 skew" && r[2] == policy)
                .unwrap_or_else(|| panic!("missing {policy} row"))[3]
                .parse()
                .unwrap()
        };
        let wrr = cell("WRR");
        let rr = cell("RR");
        assert!(wrr > 0.95, "WRR weighted Jain {wrr} far from 1");
        assert!(wrr > rr, "WRR {wrr} !> RR {rr} on a 16:1 skew");
    }

    #[test]
    fn e22_streamed_flows_complete_and_balance() {
        let set = mix_four_flows(7);
        let run = stream_one(&set, Policy::Rr, &tiny_params());
        assert_eq!(run.n, 4 * 400, "every generated job must complete");
        assert_eq!(run.flows.len(), 4);
        for f in &run.flows {
            assert_eq!(f.n, 400, "flow {} lost jobs", f.flow);
            assert!(f.weight > 0.0);
            assert!(
                f.mean_flow > 0.0 && f.l2_flow >= f.mean_flow && f.max_flow >= f.mean_flow,
                "flow {}: mean {} l2 {} max {}",
                f.flow,
                f.mean_flow,
                f.l2_flow,
                f.max_flow
            );
        }
    }

    /// Every key CI's flows-smoke step reads from `BENCH_6.json`.
    #[test]
    fn bench6_carries_the_keys_ci_reads() {
        #[derive(serde::Deserialize)]
        struct Flow {
            n: u64,
            weight: f64,
            mean_flow: f64,
            l2_flow: f64,
            max_flow: f64,
        }
        #[derive(serde::Deserialize)]
        struct Run {
            policy: String,
            n: u64,
            n_flows: usize,
            jobs_per_sec: f64,
            flows: Vec<Flow>,
        }
        #[derive(serde::Deserialize)]
        struct Ci {
            e22_stream: Vec<Run>,
        }
        let run = stream_one(&mix_four_flows(7), Policy::Rr, &tiny_params());
        let json = serde_json::to_string_pretty(&Bench6 {
            e22_stream: vec![run],
        })
        .unwrap();
        let ci: Ci = serde_json::from_str(&json).unwrap();
        let r = &ci.e22_stream[0];
        assert_eq!((r.policy.as_str(), r.n_flows, r.flows.len()), ("RR", 4, 4));
        assert!(r.jobs_per_sec > 0.0);
        assert_eq!(r.flows.iter().map(|f| f.n).sum::<u64>(), r.n);
        for f in &r.flows {
            assert!(f.weight > 0.0 && f.mean_flow > 0.0);
            assert!(f.l2_flow >= f.mean_flow && f.max_flow >= f.mean_flow);
        }
    }

    #[test]
    fn e22_stream_is_reproducible() {
        let set = mix_four_flows(7);
        let a = stream_one(&set, Policy::Wrr, &tiny_params());
        let b = stream_one(&set, Policy::Wrr, &tiny_params());
        for (x, y) in a.flows.iter().zip(&b.flows) {
            let (m, l2) = (x.mean_flow.to_bits(), x.l2_flow.to_bits());
            assert_eq!(m, y.mean_flow.to_bits(), "flow {} mean differs", x.flow);
            assert_eq!(l2, y.l2_flow.to_bits(), "flow {} l2 differs", x.flow);
        }
    }
}
