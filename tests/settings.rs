//! Integration across the alternative-setting substrates, exercised
//! through the facade crate: the paper's Section 1.2 narrative end to end.

use temporal_fairness_rr::broadcast::{
    simulate_broadcast, BroadcastInstance, PerPageRR, PerRequestRR,
};
use temporal_fairness_rr::dispatch::{simulate_dispatch, DispatchRule};
use temporal_fairness_rr::prelude::*;
use temporal_fairness_rr::speedup::families::seq_swarm_overlapped;
use temporal_fairness_rr::speedup::{simulate_speedup, Equi, GreedyPar};

/// The crux of the paper in one test: the *same* Round Robin that Theorem
/// 1 certifies on identical machines fails (ratio grows with dilution) for
/// l2 under speed-up curves — both measured here.
#[test]
fn section_1_2_contrast_end_to_end() {
    // Standard setting: Theorem 1 certificate on a congested instance.
    let trace = Trace::from_pairs((0..20).map(|i| (0.5 * i as f64, 1.0 + (i % 3) as f64))).unwrap();
    let cert = verify_theorem1(&trace, 1, 2, 0.05).unwrap();
    assert!(cert.certified());

    // Speed-up curves: EQUI's l2 ratio doubles when dilution quadruples.
    let ratio_at = |d: f64| {
        let par_work = 2.0;
        let swarm = 4usize;
        let seq_len = par_work / d;
        let horizon = 1.2 * par_work * (4.0 * swarm as f64 + 1.0);
        let rounds = (horizon / (seq_len / 4.0)).ceil() as usize;
        let t = seq_swarm_overlapped(swarm, seq_len, par_work, rounds, 4);
        let e = simulate_speedup(&t, &mut Equi, 1.0, 1.0);
        let g = simulate_speedup(&t, &mut GreedyPar, 1.0, 1.0);
        lk_norm(&e.flow, 2.0) / lk_norm(&g.flow, 2.0)
    };
    let (r4, r64) = (ratio_at(4.0), ratio_at(64.0));
    assert!(r64 > 2.0 * r4, "no dilution growth: {r4} -> {r64}");
}

#[test]
fn dispatch_preserves_workload_semantics() {
    let trace =
        PoissonWorkload::new(80, 0.9, 4, SizeDist::Exponential { mean: 2.0 }, 99).generate();
    let out = simulate_dispatch(&trace, DispatchRule::LeastWork, Policy::Rr, 4, 1.0).unwrap();
    // Total flow of the merged schedule equals the sum over machines.
    let merged: f64 = out.schedule.flow.iter().sum();
    let by_machine: f64 = out.per_machine.iter().map(|s| s.total_flow()).sum();
    assert!((merged - by_machine).abs() < 1e-6);
}

#[test]
fn broadcast_aggregation_beats_unicast_semantics() {
    // The same "requests" treated as unicast jobs (tf-simcore) vs broadcast
    // (tf-broadcast): batches of identical requests are free only under
    // broadcast.
    let batch = 16usize;
    let i = BroadcastInstance::new(
        vec![4.0],
        (0..batch)
            .map(|_| temporal_fairness_rr::broadcast::Request {
                page: 0,
                arrival: 0.0,
            })
            .collect(),
    );
    let b = simulate_broadcast(&i, &mut PerPageRR, 1.0);
    assert!((b.transmitted - 4.0).abs() < 1e-9); // one transmission

    let unicast = Trace::from_pairs((0..batch).map(|_| (0.0, 4.0))).unwrap();
    let mut rr = RoundRobin::new();
    let u = simulate(
        &unicast,
        &mut rr,
        MachineConfig::new(1),
        SimOptions::default(),
    )
    .unwrap();
    // Unicast RR needs 64 units of work; broadcast flow is 16x smaller.
    assert!((u.makespan() - 64.0).abs() < 1e-9);
    assert!(lk_norm(&b.flow, f64::INFINITY) * 8.0 < u.flow_norm(f64::INFINITY));

    // Per-request RR agrees with per-page RR on a single page.
    let b2 = simulate_broadcast(&i, &mut PerRequestRR, 1.0);
    assert_eq!(b.completion, b2.completion);
}
