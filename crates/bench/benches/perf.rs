//! The PR-gating performance benches: engine throughput with and without
//! profile recording, the pre-optimization engine as a same-machine
//! baseline, `lk_lower_bound` next to the PR-1 unit-augmenting SSP
//! oracle, and one adversarial-hunt generation.
//! Results land in `BENCH_3.json` at the repo root with speedup ratios
//! against the in-run SSP oracle and the committed `BENCH_1.json` and
//! `BENCH_2.json` records (both kept untouched as historical baselines),
//! so before/after numbers are machine-comparable. The `*_vs_bench2`
//! ratios gate the tf-obs tracing layer: with tracing off they must stay
//! within 2 % of the pre-instrumentation record.
//!
//! Run with `cargo bench -p tf-bench --bench perf`. Set `BENCH_MEASURE_MS`
//! / `BENCH_WARMUP_MS` for a quick smoke pass.

use criterion::{BenchmarkId, Criterion};
use std::hint::black_box;
use std::io::Write as _;
use std::time::Duration;
use tf_bench::{bench_trace, bench_trace_integral};
use tf_harness::hunt::{hunt, HuntConfig};
use tf_lowerbound::{lk_lower_bound, lower_bound, LbRequest, Method};
use tf_policies::Policy;
use tf_simcore::alloc::check_rates;
use tf_simcore::{
    simulate, AliveJob, MachineConfig, Profile, RateAllocator, Schedule, Segment, SimError,
    SimOptions, Trace, ABS_EPS, REL_EPS,
};

/// The engine's hot loop as it stood before the incremental-alive-set
/// optimization: per-event `views` rebuild, `Vec::remove` completion
/// sweep, and one `Vec<(u32, f64)>` allocation per recorded segment. Kept
/// verbatim (modulo the `Profile` constructor) so the speedup reported in
/// `BENCH_1.json` measures the optimization, not an easier strawman.
fn baseline_simulate(
    trace: &Trace,
    policy: &mut dyn RateAllocator,
    cfg: MachineConfig,
    opts: SimOptions,
) -> Result<Schedule, SimError> {
    struct AliveState {
        job: usize,
        remaining: f64,
        attained: f64,
    }

    cfg.validate()?;
    policy.reset();

    let n = trace.len();
    let jobs = trace.jobs();
    let mut completion = vec![f64::NAN; n];
    let mut flow = vec![f64::NAN; n];
    let mut segments: Vec<Segment> = Vec::new();

    let event_budget = {
        let n64 = n as u64;
        4096 + 64 * n64 * n64.max(1)
    };

    let mut alive: Vec<AliveState> = Vec::new();
    let mut next_arrival = 0usize;
    let mut time = 0.0_f64;
    let mut events: u64 = 0;

    let mut views: Vec<AliveJob> = Vec::new();
    let mut rates: Vec<f64> = Vec::new();

    loop {
        while next_arrival < n && jobs[next_arrival].arrival <= time {
            alive.push(AliveState {
                job: next_arrival,
                remaining: jobs[next_arrival].size,
                attained: 0.0,
            });
            next_arrival += 1;
            events += 1;
        }

        if alive.is_empty() {
            if next_arrival >= n {
                break;
            }
            time = jobs[next_arrival].arrival;
            continue;
        }

        if events > event_budget {
            return Err(SimError::EventBudgetExhausted { events });
        }

        views.clear();
        views.extend(alive.iter().map(|a| {
            let j = &jobs[a.job];
            AliveJob {
                id: j.id,
                arrival: j.arrival,
                size: j.size,
                weight: j.weight,
                remaining: a.remaining,
                attained: a.attained,
                seq: j.id,
            }
        }));

        rates.clear();
        rates.resize(alive.len(), 0.0);
        policy.allocate(time, &views, &cfg, &mut rates);
        check_rates(&views, &cfg, &rates, REL_EPS)?;
        for r in rates.iter_mut() {
            *r = r.clamp(0.0, cfg.job_cap());
        }

        let mut dt = f64::INFINITY;
        let mut arrival_at = None;
        if next_arrival < n {
            let d = jobs[next_arrival].arrival - time;
            if d < dt {
                dt = d;
                arrival_at = Some(jobs[next_arrival].arrival);
            }
        }
        for (a, &r) in alive.iter().zip(&rates) {
            if r > ABS_EPS {
                let d = a.remaining / r;
                if d < dt {
                    dt = d;
                    arrival_at = None;
                }
            }
        }
        if let Some(rev) = policy.review_in(time, &views, &cfg) {
            let rev = rev.max(ABS_EPS);
            if rev < dt {
                dt = rev;
                arrival_at = None;
            }
        }

        if !dt.is_finite() {
            return Err(SimError::Stalled {
                time,
                alive: alive.len(),
            });
        }

        if opts.record_profile && dt > 0.0 {
            let seg_rates: Vec<(u32, f64)> =
                views.iter().zip(&rates).map(|(v, &r)| (v.id, r)).collect();
            segments.push(Segment {
                t0: time,
                t1: time + dt,
                rates: seg_rates,
            });
        }
        for (a, &r) in alive.iter_mut().zip(&rates) {
            let w = r * dt;
            a.attained += w;
            a.remaining -= w;
        }
        time = match arrival_at {
            Some(at) => at,
            None => time + dt,
        };
        if opts.record_profile {
            if let Some(s) = segments.last_mut() {
                s.t1 = s.t1.max(time);
            }
        }
        events += 1;

        let mut i = 0;
        while i < alive.len() {
            let a = &alive[i];
            let j = &jobs[a.job];
            if a.remaining <= j.size * REL_EPS + ABS_EPS {
                completion[a.job] = time;
                flow[a.job] = time - j.arrival;
                alive.remove(i);
            } else {
                i += 1;
            }
        }
    }

    let profile = if opts.record_profile {
        let mut p = Profile::from_segments(segments, cfg.m, cfg.speed);
        p.coalesce(ABS_EPS);
        Some(p)
    } else {
        None
    };

    Ok(Schedule {
        policy: policy.name().to_string(),
        cfg,
        completion,
        flow,
        profile,
        events,
        stats: Default::default(),
    })
}

fn bench_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("perf/engine");
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(1));
    for &n in &[100usize, 1000] {
        let trace = bench_trace(n, 11);
        for (mode, opts) in [
            ("profile_off", SimOptions::default()),
            ("profile_on", SimOptions::with_profile()),
        ] {
            g.bench_with_input(BenchmarkId::new(mode, n), &trace, |b, t| {
                b.iter(|| {
                    let mut alloc = Policy::Rr.make();
                    black_box(simulate(t, alloc.as_mut(), MachineConfig::new(1), opts).unwrap())
                })
            });
        }
    }
    g.finish();
}

fn bench_engine_baseline(c: &mut Criterion) {
    let mut g = c.benchmark_group("perf/engine_baseline");
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(1));
    for &n in &[100usize, 1000] {
        let trace = bench_trace(n, 11);
        for (mode, opts) in [
            ("profile_off", SimOptions::default()),
            ("profile_on", SimOptions::with_profile()),
        ] {
            g.bench_with_input(BenchmarkId::new(mode, n), &trace, |b, t| {
                b.iter(|| {
                    let mut alloc = Policy::Rr.make();
                    black_box(
                        baseline_simulate(t, alloc.as_mut(), MachineConfig::new(1), opts).unwrap(),
                    )
                })
            });
        }
    }
    g.finish();
}

fn bench_lower_bound(c: &mut Criterion) {
    let mut g = c.benchmark_group("perf/lower_bound");
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(1));
    g.sample_size(10);
    // n = 160/320 were unreachable in the PR-1 suite (the SSP oracle
    // needed ~100 ms at n = 80 already); they gate the multi-unit solver.
    for &n in &[40usize, 80, 160, 320] {
        let trace = bench_trace_integral(n, 19);
        g.bench_with_input(BenchmarkId::new("lk_k2_m2", n), &trace, |b, t| {
            b.iter(|| black_box(lk_lower_bound(t, 2, 2)))
        });
    }
    g.finish();
}

/// The unit-augmenting SSP solver on the same traces, as an in-run
/// apples-to-apples baseline (same binary, same machine state). Note this
/// oracle also benefits from the shared early-exit/capped-potential
/// Dijkstra, so the full PR-1 delta is the `*_vs_bench1` ratio, not this
/// one. Capped at n = 80: the oracle is O(flow) Dijkstra passes and large
/// n gets slow per sample.
fn bench_lower_bound_ssp(c: &mut Criterion) {
    let mut g = c.benchmark_group("perf/lower_bound_ssp");
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(1));
    g.sample_size(10);
    let reference = LbRequest {
        method: Method::Reference,
        ..LbRequest::new(2, 2)
    };
    for &n in &[40usize, 80] {
        let trace = bench_trace_integral(n, 19);
        g.bench_with_input(BenchmarkId::new("lk_k2_m2", n), &trace, |b, t| {
            b.iter(|| black_box(lower_bound(t, &reference).bound))
        });
    }
    g.finish();
}

/// One full adversarial hunt (restarts x generations x batch candidate
/// evaluations, each a simulate + exact slotted OPT): the harness-side
/// fan-out path that PR 2 parallelized.
fn bench_hunt(c: &mut Criterion) {
    let mut g = c.benchmark_group("perf/hunt");
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(1));
    g.sample_size(10);
    let cfg = HuntConfig {
        steps: 10,
        restarts: 1,
        max_jobs: 6,
        max_arrival: 8,
        max_size: 4,
        batch: 8,
        ..Default::default()
    };
    g.bench_with_input(BenchmarkId::new("rr_generations", 10), &cfg, |b, cfg| {
        b.iter(|| black_box(hunt(Policy::Rr, cfg)))
    });
    g.finish();
}

/// Cross-check that the baseline port is faithful: both engines must
/// produce identical flow vectors before their timings are comparable.
fn assert_baseline_matches() {
    let trace = bench_trace(1000, 11);
    let mut a = Policy::Rr.make();
    let mut b = Policy::Rr.make();
    let new = simulate(
        &trace,
        a.as_mut(),
        MachineConfig::new(1),
        SimOptions::with_profile(),
    )
    .unwrap();
    let old = baseline_simulate(
        &trace,
        b.as_mut(),
        MachineConfig::new(1),
        SimOptions::with_profile(),
    )
    .unwrap();
    assert_eq!(new.flow, old.flow, "baseline port diverged from engine");
    assert_eq!(new.profile, old.profile, "baseline profile diverged");
}

fn mean_of(results: &[criterion::BenchResult], group: &str, bench: &str) -> Option<f64> {
    results
        .iter()
        .find(|r| r.group == group && r.bench == bench)
        .map(|r| r.mean_ns)
}

fn median_of(results: &[criterion::BenchResult], group: &str, bench: &str) -> Option<f64> {
    results
        .iter()
        .find(|r| r.group == group && r.bench == bench)
        .map(|r| r.median_ns)
}

/// Pull `median_ns` for (group, bench) out of a committed record.
/// `BENCH_1.json`/`BENCH_2.json` are written one bench per line by prior
/// versions of this harness, so a line scan is enough — no JSON
/// dependency needed.
fn committed_median(record: &str, group: &str, bench: &str) -> Option<f64> {
    let group_tag = format!("\"group\": {group:?}");
    let bench_tag = format!("\"bench\": {bench:?}");
    for line in record.lines() {
        if line.contains(&group_tag) && line.contains(&bench_tag) {
            let rest = line.split("\"median_ns\": ").nth(1)?;
            let num: String = rest
                .chars()
                .take_while(|c| c.is_ascii_digit() || *c == '.')
                .collect();
            return num.parse().ok();
        }
    }
    None
}

fn write_bench3(results: &[criterion::BenchResult]) {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let path = format!("{root}/BENCH_3.json");
    let bench1 = std::fs::read_to_string(format!("{root}/BENCH_1.json")).unwrap_or_default();
    let bench2 = std::fs::read_to_string(format!("{root}/BENCH_2.json")).unwrap_or_default();

    let mut out = String::from("{\n  \"benches\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"group\": {:?}, \"bench\": {:?}, \"mean_ns\": {:.1}, \"median_ns\": {:.1}, \"min_ns\": {:.1}, \"iters\": {}}}{}\n",
            r.group,
            r.bench,
            r.mean_ns,
            r.median_ns,
            r.min_ns,
            r.iters,
            if i + 1 < results.len() { "," } else { "" },
        ));
    }

    out.push_str("  ],\n  \"engine_speedup_vs_baseline\": {\n");
    let mut lines = Vec::new();
    for bench in [
        "profile_off/100",
        "profile_off/1000",
        "profile_on/100",
        "profile_on/1000",
    ] {
        if let (Some(new), Some(old)) = (
            mean_of(results, "perf/engine", bench),
            mean_of(results, "perf/engine_baseline", bench),
        ) {
            lines.push(format!("    {:?}: {:.3}", bench, old / new));
        }
    }
    out.push_str(&lines.join(",\n"));

    // Same binary, same run: the default bound vs the PR-1 SSP oracle on
    // the unpruned network. At n = 40/80 the default bound is itself the
    // unit-SSP solver, on the pruned network (the size crossover), so
    // this ratio prices the pruning, not the arena.
    out.push_str("\n  },\n  \"lower_bound_speedup_vs_ssp\": {\n");
    let mut lines = Vec::new();
    for bench in ["lk_k2_m2/40", "lk_k2_m2/80"] {
        if let (Some(new), Some(old)) = (
            median_of(results, "perf/lower_bound", bench),
            median_of(results, "perf/lower_bound_ssp", bench),
        ) {
            lines.push(format!("    {:?}: {:.3}", bench, old / new));
        }
    }
    out.push_str(&lines.join(",\n"));

    // Cross-PR: this run's medians vs the committed BENCH_1.json record
    // (both measured on the gating machine).
    out.push_str("\n  },\n  \"lower_bound_speedup_vs_bench1\": {\n");
    let mut lines = Vec::new();
    for bench in ["lk_k2_m2/40", "lk_k2_m2/80"] {
        if let (Some(new), Some(old)) = (
            median_of(results, "perf/lower_bound", bench),
            committed_median(&bench1, "perf/lower_bound", bench),
        ) {
            lines.push(format!("    {:?}: {:.3}", bench, old / new));
        }
    }
    out.push_str(&lines.join(",\n"));

    // The tf-obs gate: this run's medians vs the committed BENCH_2.json
    // record, taken just before the tracing layer landed. Ratios are
    // old/new, so 1.0 means no change. Read them against
    // machine_drift_vs_bench2 below: BENCH_2 was recorded in a different
    // container session, so the instrumented ratios only indicate real
    // overhead to the extent they fall below the drift of the unchanged
    // reference code measured the same way.
    out.push_str("\n  },\n  \"speedup_vs_bench2\": {\n");
    let mut lines = Vec::new();
    for (group, bench) in [
        ("perf/engine", "profile_off/100"),
        ("perf/engine", "profile_off/1000"),
        ("perf/engine", "profile_on/100"),
        ("perf/engine", "profile_on/1000"),
        ("perf/lower_bound", "lk_k2_m2/40"),
        ("perf/lower_bound", "lk_k2_m2/80"),
        ("perf/lower_bound", "lk_k2_m2/160"),
        ("perf/lower_bound", "lk_k2_m2/320"),
        ("perf/hunt", "rr_generations/10"),
    ] {
        if let (Some(new), Some(old)) = (
            median_of(results, group, bench),
            committed_median(&bench2, group, bench),
        ) {
            lines.push(format!("    \"{group}/{bench}\": {:.3}", old / new));
        }
    }
    out.push_str(&lines.join(",\n"));

    // Machine-drift control: the same old/new ratio for bench targets whose
    // code has not changed since BENCH_2 (the frozen pre-optimization engine
    // loop and the unit-SSP oracle, neither of which contains a tf-obs
    // probe). Any deviation from 1.0 here is measurement/machine drift, and
    // bounds how finely speedup_vs_bench2 can be read.
    out.push_str("\n  },\n  \"machine_drift_vs_bench2\": {\n");
    let mut lines = Vec::new();
    for (group, bench) in [
        ("perf/engine_baseline", "profile_off/100"),
        ("perf/engine_baseline", "profile_off/1000"),
        ("perf/engine_baseline", "profile_on/100"),
        ("perf/engine_baseline", "profile_on/1000"),
        ("perf/lower_bound_ssp", "lk_k2_m2/40"),
        ("perf/lower_bound_ssp", "lk_k2_m2/80"),
    ] {
        if let (Some(new), Some(old)) = (
            median_of(results, group, bench),
            committed_median(&bench2, group, bench),
        ) {
            lines.push(format!("    \"{group}/{bench}\": {:.3}", old / new));
        }
    }
    out.push_str(&lines.join(",\n"));
    out.push_str("\n  }\n}\n");

    let mut f = std::fs::File::create(&path).expect("create BENCH_3.json");
    f.write_all(out.as_bytes()).expect("write BENCH_3.json");
    println!("wrote {path}");
}

fn main() {
    assert_baseline_matches();
    let mut c = Criterion::default();
    bench_engine(&mut c);
    bench_engine_baseline(&mut c);
    bench_lower_bound(&mut c);
    bench_lower_bound_ssp(&mut c);
    bench_hunt(&mut c);
    c.flush_json();
    write_bench3(c.results());
}
