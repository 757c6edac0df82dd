//! The PR-7 scale benches: certified lower bounds far past the old
//! frontier. A criterion group times the default lower bound — column
//! generation above 80 jobs — at n = 160/320 (the sizes the committed
//! `BENCH_3.json` record gates on), then a one-shot pass pushes it up
//! the size ladder to n = 5000, recording wall-clock seconds, the
//! certified value and the raw LP value of every point. Results land in
//! `BENCH_5.json` at the repo root with `speedup_vs_bench3` ratios
//! against the committed PR-3 medians, so the headline "same
//! certificate, ≥5× faster" claim is machine-comparable.
//!
//! Column generation is exact (clean pricing ⇒ full-LP dual
//! feasibility), so every frontier point is a true certified bound; the
//! gate checks it against the reference solver at n = 320.
//!
//! Run with `cargo bench -p tf-bench --bench solver_scale`. Set
//! `BENCH_MEASURE_MS` / `BENCH_WARMUP_MS` for a quick smoke pass — the
//! frontier then stops at n = 640 so CI stays fast.

use criterion::{BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Instant;
use tf_bench::{bench_rows, bench_trace_integral, Bench5, FrontierPoint};
use tf_harness::record::{self, speedups};
use tf_lowerbound::{lk_lower_bound, lower_bound, LbRequest, Method};

/// The gate sizes: present in `BENCH_3.json`, so old/new is well-defined.
const GATE_SIZES: [usize; 2] = [160, 320];

fn bench_colgen(c: &mut Criterion) {
    let mut g = c.benchmark_group("scale/lower_bound_colgen");
    g.sample_size(10);
    for &n in &GATE_SIZES {
        let trace = bench_trace_integral(n, 19);
        g.bench_with_input(BenchmarkId::new("lk_k2_m2", n), &trace, |b, t| {
            b.iter(|| black_box(lk_lower_bound(t, 2, 2)))
        });
    }
    g.finish();
}

/// Time the colgen solver once per ladder size (criterion sampling at
/// n = 5000 would take minutes for no extra information — the solve is
/// deterministic and seconds long, so one measurement is the number).
fn certified_frontier(smoke: bool) -> Vec<FrontierPoint> {
    let sizes: &[usize] = if smoke {
        &[640]
    } else {
        &[640, 1280, 2560, 5000]
    };
    let mut points = Vec::new();
    for &n in sizes {
        let trace = bench_trace_integral(n, 7);
        let t0 = Instant::now();
        let lb = lk_lower_bound(&trace, 2, 2);
        points.push(FrontierPoint {
            n,
            seconds: t0.elapsed().as_secs_f64(),
            value: lb.value,
            kind: lb.kind.label(),
            lp_raw: lb.lp_raw,
        });
    }
    points
}

/// The X3-style equivalence gate at the largest criterion size: the
/// colgen LP value must match the reference solver's within 1e-9
/// relative before its timings mean anything. It compares `lp_raw`, not
/// the combined bound: on this trace the size bound wins, so the bound's
/// value would hide a wrong LP.
fn equivalence_at_gate() -> f64 {
    let trace = bench_trace_integral(320, 19);
    let reference = LbRequest {
        method: Method::Reference,
        ..LbRequest::new(2, 2)
    };
    let want = lower_bound(&trace, &reference).bound.lp_raw;
    let got = lk_lower_bound(&trace, 2, 2).lp_raw;
    assert!(want > 0.0, "the reference LP must run on an integral trace");
    let rel = (got - want).abs() / want;
    assert!(
        rel <= 1e-9,
        "colgen diverged from the reference solver at n=320: LP {got} vs {want}"
    );
    rel
}

fn main() {
    let smoke = std::env::var_os("BENCH_MEASURE_MS").is_some();
    let equivalence_at_320_rel_diff = equivalence_at_gate();
    let mut c = Criterion::default();
    bench_colgen(&mut c);
    let run = bench_rows(c.results());
    // The headline gate: this run's colgen medians vs the committed PR-3
    // record of the exact solver on the same trace family.
    let speedup_vs_bench3 = speedups(
        |r| r.median_ns,
        (&record::committed_benches(3), "perf/lower_bound/"),
        (&run, "scale/lower_bound_colgen/"),
    );
    let bench5 = Bench5 {
        benches: run,
        speedup_vs_bench3,
        certified_frontier: certified_frontier(smoke),
        equivalence_at_320_rel_diff,
    };
    let path = record::write(5, &bench5).expect("write BENCH_5.json");
    println!("wrote {}", path.display());
}
