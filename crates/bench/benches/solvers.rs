//! Scaling of the analysis machinery: LP lower bound (min-cost flow) and
//! the dual-fitting certificate pipeline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;
use tf_bench::bench_trace_integral;
use tf_core::verify_theorem1;
use tf_lowerbound::lk_lower_bound;

fn bench_lp(c: &mut Criterion) {
    let mut g = c.benchmark_group("solvers/lp");
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));
    g.sample_size(10);
    for &n in &[25usize, 50, 100] {
        let trace = bench_trace_integral(n, 17);
        for k in [1u32, 2] {
            g.bench_with_input(BenchmarkId::new(format!("k{k}"), n), &trace, |b, t| {
                b.iter(|| black_box(lk_lower_bound(t, 2, k).lp_raw))
            });
        }
    }
    g.finish();
}

fn bench_combined_bound(c: &mut Criterion) {
    let mut g = c.benchmark_group("solvers/lower_bound");
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));
    g.sample_size(10);
    let trace = bench_trace_integral(60, 19);
    g.bench_function("lk_lower_bound_k2_m2", |b| {
        b.iter(|| black_box(lk_lower_bound(&trace, 2, 2)))
    });
    g.finish();
}

fn bench_certificate(c: &mut Criterion) {
    let mut g = c.benchmark_group("solvers/certificate");
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));
    g.sample_size(10);
    for &n in &[25usize, 50, 100] {
        let trace = bench_trace_integral(n, 23);
        g.bench_with_input(BenchmarkId::new("verify_theorem1_k2", n), &trace, |b, t| {
            b.iter(|| {
                let cert = verify_theorem1(t, 2, 2, 0.05).unwrap();
                assert!(cert.certified());
                black_box(cert)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_lp, bench_combined_bound, bench_certificate);
criterion_main!(benches);
