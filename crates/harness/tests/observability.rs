//! The programmatic observability surface: counters from the engine, the
//! min-cost-flow solver, and the lower-bound cache merge into one flat
//! [`tf_obs::ObsRegistry`] with disjoint namespaces.

use tf_policies::RoundRobin;
use tf_simcore::{simulate, MachineConfig, SimOptions, Trace};

#[test]
fn registries_merge_across_layers() {
    let trace = Trace::from_pairs([(0.0, 2.0), (1.0, 1.0), (1.0, 3.0), (4.0, 2.0)]).unwrap();

    let mut rr = RoundRobin::new();
    let sched = simulate(
        &trace,
        &mut rr,
        MachineConfig::new(1),
        SimOptions::default(),
    )
    .unwrap();
    let mut reg = sched.stats.registry();

    // The shared solver is thread-local: the stats read below must happen
    // on the thread that ran the bound.
    let lb = tf_lowerbound::lk_lower_bound(&trace, 1, 2);
    assert!(lb.value > 0.0);
    reg.merge(&tf_lowerbound::last_solve_stats().registry());
    reg.merge(&tf_harness::lbcache::registry());

    for key in [
        "sim.jobs_admitted",
        "sim.peak_alive",
        "mcmf.phases",
        "mcmf.heap_pops",
        "cache.hits",
    ] {
        assert!(reg.get(key).is_some(), "missing {key}: {reg:?}");
    }
    assert!(reg.get("sim.jobs_admitted").unwrap() >= 4.0);
    assert!(reg.get("mcmf.heap_pops").unwrap() > 0.0);

    // Merging the same engine registry twice sums counters but
    // max-combines gauges.
    let peak = reg.get("sim.peak_alive").unwrap();
    let jobs = reg.get("sim.jobs_admitted").unwrap();
    reg.merge(&sched.stats.registry());
    assert_eq!(reg.get("sim.peak_alive").unwrap(), peak);
    assert_eq!(reg.get("sim.jobs_admitted").unwrap(), jobs * 2.0);
}
