//! Quickstart: simulate Round Robin and a clairvoyant baseline on a small
//! instance and compare the flow-time norms the paper studies.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use temporal_fairness_rr::prelude::*;

fn main() {
    // Five jobs: (arrival, size). Job 0 is large; shorts arrive during it.
    let trace = Trace::from_pairs([(0.0, 8.0), (1.0, 1.0), (2.0, 2.0), (2.0, 1.0), (6.0, 3.0)])
        .expect("valid trace");

    println!(
        "instance: {} jobs, total work {}",
        trace.len(),
        trace.total_size()
    );
    println!();

    // One machine, unit speed: RR vs SRPT vs FCFS.
    let run = |policy: &mut dyn RateAllocator, speed: f64| {
        let cfg = MachineConfig::with_speed(1, speed);
        simulate(&trace, policy, cfg, SimOptions::default()).unwrap()
    };
    for (name, sched) in [
        ("RR", run(&mut RoundRobin::new(), 1.0)),
        ("SRPT", run(&mut Srpt::new(), 1.0)),
        ("FCFS", run(&mut Fcfs::new(), 1.0)),
    ] {
        println!("{name:>5}:");
        for j in trace.jobs() {
            println!(
                "    job {} (r={}, p={}): completes {:.3}, flow {:.3}",
                j.id, j.arrival, j.size, sched.completion[j.id as usize], sched.flow[j.id as usize]
            );
        }
        println!(
            "    l1 = {:.3}   l2 = {:.3}   max = {:.3}",
            sched.flow_norm(1.0),
            sched.flow_norm(2.0),
            sched.flow_norm(f64::INFINITY)
        );
        println!();
    }

    // The paper's speed augmentation: RR with a (4+eps)-speed machine is
    // O(1)-competitive for the l2 norm (Theorem 1, k=2).
    let rr_fast = run(&mut RoundRobin::new(), 4.4);
    println!(
        "RR at speed 4.4: l2 = {:.3} (speed-1 SRPT l2 = {:.3})",
        rr_fast.flow_norm(2.0),
        run(&mut Srpt::new(), 1.0).flow_norm(2.0),
    );

    // And a certified lower bound on what ANY schedule could do:
    let lb = lk_lower_bound(&trace, 1, 2);
    println!("certified lower bound on the l2 norm: {:.3}", lb.norm(2.0));
}
