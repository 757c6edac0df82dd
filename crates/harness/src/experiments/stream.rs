//! The `stream` experiment family: RR vs SRPT on *open* workloads driven
//! through the bounded-memory streaming engine.
//!
//! Unlike E1–E22, which materialise a [`tf_workload`] trace and call
//! [`tf_simcore::simulate`], this family pulls jobs one at a time from an
//! [`OpenWorkload`] generator and retires each job the moment it
//! completes, so a 10⁷-job run holds only the alive set (≈ ρ/(1−ρ) jobs
//! in expectation) plus O(1) accumulator state. Flow-time statistics come
//! from the mergeable one-pass accumulators in [`tf_metrics::streaming`]
//! — the run also exercises their `merge` path by accumulating into a
//! per-chunk sketch and folding it into the run total every 65 536
//! completions, the way a sharded collector would.
//!
//! The family is dispatched by name (`experiments stream`) rather than
//! living in the e1–e20 registry: at its default scale (10⁷ jobs) it is a
//! throughput/memory benchmark, not a tables-only experiment, and `all`
//! runs should not pay for it implicitly. Run by the `experiments` binary
//! it also writes `BENCH_4.json` at the repo root recording jobs/sec,
//! peak RSS (`VmHWM`), and the streamed ℓ₂ for each run — the record the
//! CI stream-smoke job asserts against.
//!
//! Scale can be overridden without recompiling via `TF_STREAM_N` and
//! `TF_STREAM_RHO` (comma-separated lists), which CI uses to keep the
//! smoke run short.

use std::time::Instant;

use serde::Serialize;

use crate::record::Ratios;
use crate::table::{fnum, Table};
use crate::RunCtx;
use tf_metrics::{FlowStats, StreamingFlowStats, StreamingNorm};
use tf_policies::Policy;
use tf_simcore::{simulate_stream, MachineConfig, StreamOptions};
use tf_workload::{OpenWorkload, SizeDist, StreamBound};

/// Scale knobs for one `stream` family run.
#[derive(Debug, Clone)]
struct StreamParams {
    /// Job counts, run in ascending order so the RSS high-water mark of a
    /// smaller run bounds that of a larger one from below.
    ns: Vec<u64>,
    /// Target utilizations ρ = λ·E\[p\]/m.
    rhos: Vec<f64>,
    /// Policies to compare (default: RR vs the clairvoyant SRPT yardstick).
    policies: Vec<Policy>,
    /// Base RNG seed (per-run seeds derive from it, so every (n, ρ) cell
    /// sees a different arrival sequence but reruns reproduce exactly).
    seed: u64,
    /// Completions per accumulator chunk before folding into the run
    /// total (exercises the streaming `merge` path on the hot loop).
    chunk: u64,
}

impl StreamParams {
    /// Paper-scale defaults for the given effort, with `TF_STREAM_N` /
    /// `TF_STREAM_RHO` environment overrides applied.
    fn for_effort(effort: crate::Effort) -> Self {
        let mut p = StreamParams {
            ns: vec![1_000_000, 10_000_000],
            rhos: match effort {
                crate::Effort::Quick => vec![0.9],
                crate::Effort::Full => vec![0.7, 0.9, 0.99],
            },
            policies: vec![Policy::Rr, Policy::Srpt],
            seed: 0x2015_5AA0,
            chunk: 65_536,
        };
        if let Some(ns) = env_list("TF_STREAM_N") {
            p.ns = ns.iter().map(|x| *x as u64).collect();
            p.ns.sort_unstable();
        }
        if let Some(rhos) = env_list("TF_STREAM_RHO") {
            p.rhos = rhos;
        }
        p
    }
}

/// Parse a comma-separated numeric list from the environment; `None` when
/// unset, empty, or any element fails to parse (a typo should fall back
/// to the defaults loudly rather than run a truncated sweep).
fn env_list(var: &str) -> Option<Vec<f64>> {
    let raw = std::env::var(var).ok()?;
    let vals: Vec<f64> = raw
        .split(',')
        .map(|s| s.trim().parse::<f64>())
        .collect::<Result<_, _>>()
        .ok()?;
    if vals.is_empty() || vals.iter().any(|v| !v.is_finite() || *v <= 0.0) {
        eprintln!("ignoring {var}={raw:?}: not a list of positive numbers");
        return None;
    }
    Some(vals)
}

/// One (n, ρ, policy) cell of the sweep.
#[derive(Debug, Clone)]
struct StreamRun {
    /// Jobs streamed.
    n: u64,
    /// Target utilization.
    rho: f64,
    /// Policy that ran.
    policy: Policy,
    /// Flow-time summary from the streaming accumulators.
    stats: FlowStats,
    /// Per-job ℓ₂: `(Σ F_j² / n)^{1/2}` from the max-factored sketch.
    l2_normalized: f64,
    /// Completions per wall-clock second.
    jobs_per_sec: f64,
    /// Engine memory high-water mark (alive jobs).
    peak_alive: usize,
    /// Process `VmHWM` in MiB after this run (0 off Linux).
    peak_rss_mb: f64,
}

/// Run one cell: stream `n` Poisson(ρ) × Exp(1) jobs through `policy` on
/// a single unit-speed machine, folding flows into chunked accumulators.
fn run_one(n: u64, rho: f64, policy: Policy, params: &StreamParams) -> StreamRun {
    // Mix the cell coordinates into the seed so cells are independent but
    // each is reproducible in isolation.
    let seed = params.seed ^ (n.rotate_left(17)) ^ rho.to_bits();
    let workload = OpenWorkload::poisson(
        rho,
        1,
        SizeDist::Exponential { mean: 1.0 },
        StreamBound::Count(n),
        seed,
    );
    let mut source = workload.stream().expect("stream params are validated");
    let mut alloc = policy.make();
    let opts = StreamOptions {
        // E[p]/speed/64, the materialised engine's default step heuristic,
        // supplied explicitly because a stream cannot know the mean size.
        max_step: alloc.continuous().then_some(1.0 / 64.0),
        ..StreamOptions::default()
    };

    let mut total = StreamingFlowStats::new(128);
    let mut l2 = StreamingNorm::new(2.0);
    let mut chunk_stats = StreamingFlowStats::new(128);
    let mut chunk_l2 = StreamingNorm::new(2.0);
    let chunk = params.chunk.max(1);

    let t0 = Instant::now();
    let report = simulate_stream(
        &mut source,
        alloc.as_mut(),
        MachineConfig::new(1),
        opts,
        &mut |job| {
            chunk_stats.push(job.flow);
            chunk_l2.push(job.flow);
            if chunk_stats.n() >= chunk {
                total.merge(&chunk_stats);
                l2.merge(&chunk_l2);
                chunk_stats = StreamingFlowStats::new(128);
                chunk_l2 = StreamingNorm::new(2.0);
            }
        },
    )
    .expect("open Poisson stream simulates cleanly");
    let secs = t0.elapsed().as_secs_f64().max(1e-9);
    total.merge(&chunk_stats);
    l2.merge(&chunk_l2);

    assert_eq!(total.n(), n, "every generated job must complete");
    StreamRun {
        n,
        rho,
        policy,
        stats: total.finish(),
        l2_normalized: l2.normalized_value(),
        jobs_per_sec: report.completed as f64 / secs,
        peak_alive: report.stats.peak_alive,
        peak_rss_mb: vm_hwm_mb(),
    }
}

/// Process peak resident set (`VmHWM`) in MiB; 0 when unavailable.
/// Within one process the high-water mark is monotone, so with runs
/// ordered by ascending n, `hwm(n₂)/hwm(n₁) ≈ 1` is direct evidence the
/// streaming engine's footprint does not grow with n.
pub(crate) fn vm_hwm_mb() -> f64 {
    #[cfg(target_os = "linux")]
    {
        if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
            for line in status.lines() {
                if let Some(rest) = line.strip_prefix("VmHWM:") {
                    if let Ok(kb) = rest.trim().trim_end_matches("kB").trim().parse::<f64>() {
                        return kb / 1024.0;
                    }
                }
            }
        }
    }
    0.0
}

/// The `stream` experiment family entry point used by the dispatcher:
/// paper-scale parameters for the context's effort, plus the
/// `BENCH_4.json` record.
pub fn stream(ctx: &RunCtx) -> Vec<Table> {
    stream_with(&StreamParams::for_effort(ctx.effort), ctx)
}

/// Run the sweep at explicit parameters, render the tables, and hand the
/// `BENCH_4.json` record to `ctx`.
fn stream_with(params: &StreamParams, ctx: &RunCtx) -> Vec<Table> {
    let mut runs: Vec<StreamRun> = Vec::new();
    // Ascending n within each (ρ, policy) so the VmHWM flatness reading
    // (see `vm_hwm_mb`) is valid.
    let mut ns = params.ns.clone();
    ns.sort_unstable();
    for &rho in &params.rhos {
        for &policy in &params.policies {
            for &n in &ns {
                runs.push(run_one(n, rho, policy, params));
            }
        }
    }

    let mut main = Table::new(
        "stream: RR vs SRPT on open Poisson×Exp(1) workloads (streaming engine)",
        &[
            "n",
            "rho",
            "policy",
            "l2(F)/n^1/2",
            "mean F",
            "p99 F",
            "max F",
            "jobs/s",
            "peak alive",
            "RSS MB",
        ],
    );
    for r in &runs {
        main.push_row(vec![
            r.n.to_string(),
            format!("{}", r.rho),
            r.policy.to_string(),
            fnum(r.l2_normalized),
            fnum(r.stats.mean),
            fnum(r.stats.p99),
            fnum(r.stats.max),
            fnum(r.jobs_per_sec),
            r.peak_alive.to_string(),
            fnum(r.peak_rss_mb),
        ]);
    }
    main.note("open M/M/1 stream: Poisson arrivals at utilization rho, Exp(1) sizes, one unit-speed machine");
    main.note("per-job flows retired on completion; stats from mergeable streaming accumulators (t-digest p99)");
    main.note(
        "RSS MB is the process VmHWM after the run: flat across n is the bounded-memory claim",
    );

    let mut ratio = Table::new(
        "stream: streamed RR/SRPT l2 ratio",
        &["n", "rho", "RR l2/n^1/2", "SRPT l2/n^1/2", "ratio"],
    );
    for &rho in &params.rhos {
        for &n in &ns {
            let find = |p: Policy| {
                runs.iter()
                    .find(|r| r.n == n && r.rho == rho && r.policy == p)
            };
            if let (Some(rr), Some(srpt)) = (find(Policy::Rr), find(Policy::Srpt)) {
                ratio.push_row(vec![
                    n.to_string(),
                    format!("{rho}"),
                    fnum(rr.l2_normalized),
                    fnum(srpt.l2_normalized),
                    fnum(rr.l2_normalized / srpt.l2_normalized),
                ]);
            }
        }
    }
    ratio.note(
        "empirical streamed analogue of the paper's l2 competitiveness: ratio stays O(1) in n",
    );

    ctx.write_record(4, &bench4(&runs));

    let mut tables = vec![main];
    if !ratio.rows.is_empty() {
        tables.push(ratio);
    }
    tables
}

/// `BENCH_4.json`: one row per run plus the per-policy RSS flatness
/// ratio `hwm(n_max)/hwm(n_min)` (1.0 ≡ perfectly flat; the CI smoke job
/// asserts it stays under 1.1).
#[derive(Serialize)]
struct Bench4 {
    stream: Vec<StreamRow>,
    rss_flat_ratio: Ratios,
}

/// One run, as a row of `BENCH_4.json`.
#[derive(Serialize)]
struct StreamRow {
    n: u64,
    rho: f64,
    policy: String,
    jobs_per_sec: f64,
    peak_alive: usize,
    peak_rss_mb: f64,
    l2_normalized: f64,
    mean_flow: f64,
    p99_flow: f64,
}

fn bench4(runs: &[StreamRun]) -> Bench4 {
    let mut rss_flat_ratio = Ratios::new();
    for r in runs {
        let cell: Vec<&StreamRun> = runs
            .iter()
            .filter(|x| x.rho == r.rho && x.policy == r.policy)
            .collect();
        // Runs execute in ascending n, so first/last bracket the sweep.
        let (lo, hi) = (cell[0], cell[cell.len() - 1]);
        if cell.len() >= 2 && lo.peak_rss_mb > 0.0 {
            let key = format!("{}_rho{}", hi.policy, hi.rho);
            rss_flat_ratio.insert(key, hi.peak_rss_mb / lo.peak_rss_mb);
        }
    }
    let stream = runs
        .iter()
        .map(|r| StreamRow {
            n: r.n,
            rho: r.rho,
            policy: r.policy.to_string(),
            jobs_per_sec: r.jobs_per_sec,
            peak_alive: r.peak_alive,
            peak_rss_mb: r.peak_rss_mb,
            l2_normalized: r.l2_normalized,
            mean_flow: r.stats.mean,
            p99_flow: r.stats.p99,
        })
        .collect();
    Bench4 {
        stream,
        rss_flat_ratio,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_params() -> StreamParams {
        StreamParams {
            ns: vec![500, 2000],
            rhos: vec![0.8],
            policies: vec![Policy::Rr, Policy::Srpt],
            seed: 7,
            chunk: 64,
        }
    }

    #[test]
    fn tiny_sweep_produces_consistent_tables() {
        let tables = stream_with(&tiny_params(), &RunCtx::quick());
        assert_eq!(tables.len(), 2);
        // 2 ns × 1 rho × 2 policies.
        assert_eq!(tables[0].rows.len(), 4);
        assert_eq!(tables[1].rows.len(), 2);
        for t in &tables {
            for row in &t.rows {
                assert_eq!(row.len(), t.headers.len(), "ragged row in {}", t.title);
            }
        }
    }

    /// Every key CI's stream-smoke step reads from `BENCH_4.json`.
    #[test]
    fn bench4_carries_the_keys_ci_reads() {
        #[derive(serde::Deserialize)]
        struct Run {
            jobs_per_sec: f64,
            peak_rss_mb: f64,
        }
        #[derive(serde::Deserialize)]
        struct Ci {
            stream: Vec<Run>,
            rss_flat_ratio: Ratios,
        }
        let p = tiny_params();
        let runs = [500, 2000].map(|n| run_one(n, 0.8, Policy::Rr, &p));
        let json = serde_json::to_string_pretty(&bench4(&runs)).unwrap();
        let ci: Ci = serde_json::from_str(&json).unwrap();
        assert_eq!(ci.stream.len(), 2);
        assert!(ci
            .stream
            .iter()
            .all(|r| r.jobs_per_sec > 0.0 && r.peak_rss_mb > 0.0));
        let keys: Vec<&String> = ci.rss_flat_ratio.keys().collect();
        assert_eq!(keys, ["RR_rho0.8"]);
    }

    #[test]
    fn srpt_beats_rr_on_mean_flow() {
        let mut p = tiny_params();
        p.ns = vec![3000];
        let rr = run_one(3000, 0.8, Policy::Rr, &p);
        let srpt = run_one(3000, 0.8, Policy::Srpt, &p);
        // SRPT minimises total (= mean) flow on one machine; with 3000
        // jobs at rho = 0.8 the gap is far outside noise.
        assert!(
            srpt.stats.mean < rr.stats.mean,
            "SRPT mean {} !< RR mean {}",
            srpt.stats.mean,
            rr.stats.mean
        );
        assert!(rr.peak_alive >= 1 && rr.stats.n == 3000);
    }

    #[test]
    fn chunked_merge_matches_single_chunk() {
        // Same cell accumulated with chunk=32 and chunk=u64::MAX must
        // agree: merging is lossless for moments/norms.
        let mut a = tiny_params();
        a.chunk = 32;
        let mut b = tiny_params();
        b.chunk = u64::MAX;
        let ra = run_one(1000, 0.8, Policy::Rr, &a);
        let rb = run_one(1000, 0.8, Policy::Rr, &b);
        assert_eq!(ra.stats.n, rb.stats.n);
        assert!((ra.stats.mean - rb.stats.mean).abs() <= 1e-9 * rb.stats.mean);
        assert!((ra.l2_normalized - rb.l2_normalized).abs() <= 1e-9 * rb.l2_normalized);
        assert_eq!(ra.stats.max.to_bits(), rb.stats.max.to_bits());
    }

    #[test]
    fn seeds_make_cells_reproducible() {
        let p = tiny_params();
        let r1 = run_one(800, 0.8, Policy::Rr, &p);
        let r2 = run_one(800, 0.8, Policy::Rr, &p);
        assert_eq!(r1.stats.mean.to_bits(), r2.stats.mean.to_bits());
        assert_eq!(r1.l2_normalized.to_bits(), r2.l2_normalized.to_bits());
    }

    #[test]
    fn env_list_parses_and_rejects() {
        std::env::set_var("TF_STREAM_TEST_LIST", "1000, 2000");
        assert_eq!(env_list("TF_STREAM_TEST_LIST"), Some(vec![1000.0, 2000.0]));
        std::env::set_var("TF_STREAM_TEST_LIST", "12,bogus");
        assert_eq!(env_list("TF_STREAM_TEST_LIST"), None);
        std::env::set_var("TF_STREAM_TEST_LIST", "-3");
        assert_eq!(env_list("TF_STREAM_TEST_LIST"), None);
        std::env::remove_var("TF_STREAM_TEST_LIST");
        assert_eq!(env_list("TF_STREAM_TEST_LIST"), None);
    }
}
