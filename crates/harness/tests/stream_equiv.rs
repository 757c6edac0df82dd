//! Golden equivalence: the streaming engine against the materialised one.
//!
//! [`tf_simcore::simulate_stream`] claims to be *numerically identical*
//! to [`tf_simcore::simulate`] — same admission rule, step selection,
//! arrival snapping, and completion threshold, differing only in what it
//! retains. This suite pins that claim across **every** policy in the
//! registry on closed traces (n ≤ 10³): each streamed completion must
//! match the materialised one bit for bit, not merely within tolerance.
//! Any divergence — a reordered float operation, a different step choice
//! — shows up as a failed `to_bits` comparison naming the first job.
//!
//! A second group pins the streaming accumulators (`tf_metrics`) against
//! the materialised statistics on the same schedules: exact agreement
//! for moments and norms, rank-error-bounded agreement for the t-digest
//! percentiles.
//!
//! A third group pins Round Robin's virtual-time loop, which runs when a
//! policy declares `equal_share` and no profile is kept, to the general
//! loop: every way of running RR through the general loop must give the
//! same completions, event count and step counts, bit for bit.

use tf_metrics::{flow_stats, lk_norm, StreamingFlowStats, StreamingNorm};
use tf_policies::{Policy, RoundRobin, WeightedRoundRobin};
use tf_simcore::{
    simulate, simulate_stream, AliveJob, CompletedJob, MachineConfig, RateAllocator, Schedule,
    SimOptions, SimStats, StreamOptions, Trace, TraceSource, ABS_EPS,
};
use tf_workload::{PoissonWorkload, SizeDist};

/// The closed golden instances: (label, trace, machine environment).
fn golden_instances() -> Vec<(String, Trace, MachineConfig)> {
    let mut out = Vec::new();

    // M/G/1 at moderate load, exponential sizes.
    let t = PoissonWorkload::new(400, 0.8, 1, SizeDist::Exponential { mean: 1.0 }, 11).generate();
    out.push(("poisson-exp".into(), t, MachineConfig::new(1)));

    // Heavy-tailed sizes on two machines, briefly overloaded.
    let t = PoissonWorkload::new(
        250,
        1.3,
        2,
        SizeDist::Pareto {
            alpha: 1.8,
            min: 0.5,
        },
        12,
    )
    .generate();
    out.push(("poisson-pareto-m2".into(), t, MachineConfig::new(2)));

    // Tie-heavy integral batch trace: many simultaneous arrivals and
    // equal sizes stress completion-threshold and snapping order.
    let t = Trace::from_pairs((0..300).map(|i| ((i / 10) as f64, 1.0 + (i % 4) as f64))).unwrap();
    out.push(("batched-ties".into(), t, MachineConfig::new(1)));

    // Fractional speed: exercises job_cap clamping and the speed-scaled
    // adaptive step on continuous policies.
    let t =
        PoissonWorkload::new(200, 0.9, 1, SizeDist::Uniform { lo: 0.1, hi: 3.0 }, 13).generate();
    out.push((
        "poisson-uniform-s1.5".into(),
        t,
        MachineConfig::with_speed(1, 1.5),
    ));

    out
}

/// The materialised engine's default adaptive step for `trace` — computed
/// here explicitly so the *same* value can be handed to both engines
/// (`simulate` would derive it internally; `simulate_stream` cannot, as a
/// stream has no whole-trace mean size).
fn engine_default_max_step(trace: &Trace, cfg: &MachineConfig) -> f64 {
    let n = trace.len();
    let mean = if n > 0 {
        trace.total_size() / n as f64
    } else {
        1.0
    };
    (mean / cfg.speed / 64.0).max(ABS_EPS)
}

#[test]
fn streamed_completions_are_bit_identical_for_all_policies() {
    for (label, trace, cfg) in golden_instances() {
        for policy in Policy::all() {
            let mut mat_alloc = policy.make();
            let continuous = mat_alloc.continuous();
            let max_step = continuous.then(|| engine_default_max_step(&trace, &cfg));

            let sched = simulate(
                &trace,
                mat_alloc.as_mut(),
                cfg,
                SimOptions {
                    max_step,
                    ..SimOptions::default()
                },
            )
            .unwrap_or_else(|e| panic!("{label}/{policy}: materialised run failed: {e}"));

            let mut stream_alloc = policy.make();
            let mut source = TraceSource::new(&trace);
            let mut streamed: Vec<CompletedJob> = Vec::with_capacity(trace.len());
            let report = simulate_stream(
                &mut source,
                stream_alloc.as_mut(),
                cfg,
                StreamOptions {
                    max_step,
                    ..StreamOptions::default()
                },
                &mut |job| streamed.push(job),
            )
            .unwrap_or_else(|e| panic!("{label}/{policy}: streamed run failed: {e}"));

            assert_eq!(
                report.completed as usize,
                trace.len(),
                "{label}/{policy}: not every job completed"
            );
            assert_eq!(
                report.events, sched.events,
                "{label}/{policy}: event counts diverged"
            );
            assert_eq!(
                report.stats.peak_alive, sched.stats.peak_alive,
                "{label}/{policy}: peak alive diverged"
            );

            // Streamed jobs retire in completion order; compare per job id.
            for job in &streamed {
                let id = job.id as usize;
                assert_eq!(
                    job.completion.to_bits(),
                    sched.completion[id].to_bits(),
                    "{label}/{policy}: completion of job {id} diverged \
                     (streamed {} vs materialised {})",
                    job.completion,
                    sched.completion[id]
                );
                assert_eq!(
                    job.flow.to_bits(),
                    sched.flow[id].to_bits(),
                    "{label}/{policy}: flow of job {id} diverged"
                );
            }
        }
    }
}

#[test]
fn golden_pinning_covers_the_policy_frontier() {
    // The bitwise suite above iterates `Policy::all()`; assert the new
    // frontier policies are in that set so they cannot silently drop out
    // of the pinning.
    let all = Policy::all();
    for id in ["RR", "SRPT", "FCFS", "HYB", "ML"] {
        assert!(
            all.iter().any(|p| p.id() == id),
            "{id} missing from Policy::all() — stream pinning lost it"
        );
    }
}

#[test]
fn streaming_accumulators_match_materialised_stats_on_schedules() {
    for (label, trace, cfg) in golden_instances() {
        // One representative policy per instance is enough here — the
        // accumulators only see the flow vector, not the policy.
        let mut alloc = Policy::Rr.make();
        let sched = simulate(&trace, alloc.as_mut(), cfg, SimOptions::default()).unwrap();

        let mut acc = StreamingFlowStats::new(128);
        let mut l2 = StreamingNorm::new(2.0);
        let mut linf = StreamingNorm::new(f64::INFINITY);
        for &f in &sched.flow {
            acc.push(f);
            l2.push(f);
            linf.push(f);
        }
        let s = acc.finish();
        let exact = flow_stats(&sched.flow);

        assert_eq!(s.n, exact.n, "{label}: n");
        assert_eq!(s.min.to_bits(), exact.min.to_bits(), "{label}: min");
        assert_eq!(s.max.to_bits(), exact.max.to_bits(), "{label}: max");
        let rel = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1e-300);
        assert!(
            rel(s.total, exact.total),
            "{label}: total {} vs {}",
            s.total,
            exact.total
        );
        assert!(
            rel(s.mean, exact.mean),
            "{label}: mean {} vs {}",
            s.mean,
            exact.mean
        );
        assert!(
            (s.variance - exact.variance).abs() <= 1e-6 * exact.variance.max(1e-300),
            "{label}: variance {} vs {}",
            s.variance,
            exact.variance
        );

        // t-digest percentiles are rank-accurate, not value-accurate: in
        // a heavy tail a handful of ranks can span a wide value range, so
        // the check is on the *rank* of the reported quantile. With
        // compression 128 and n ≤ 10³ the digest holds ≲ 2 samples per
        // centroid, so a few ranks of slack is generous.
        let mut sorted = sched.flow.clone();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len() as f64;
        let slack = 3.0_f64.max(2.0 * n / 128.0);
        for (q, digest_p) in [(0.5, s.p50), (0.9, s.p90), (0.99, s.p99)] {
            let below = sorted.partition_point(|&x| x < digest_p) as f64;
            let at_or_below = sorted.partition_point(|&x| x <= digest_p) as f64;
            let target = q * n;
            assert!(
                below - slack <= target && target <= at_or_below + slack,
                "{label}: p{q}: digest {digest_p} sits at ranks \
                 [{below}, {at_or_below}] of {n}, target {target} ± {slack}"
            );
        }

        let exact_l2 = lk_norm(&sched.flow, 2.0);
        assert!(
            rel(l2.value(), exact_l2),
            "{label}: l2 {} vs {}",
            l2.value(),
            exact_l2
        );
        assert_eq!(
            linf.value().to_bits(),
            exact.max.to_bits(),
            "{label}: l-infinity"
        );
    }
}

/// Poisson traces over the machine counts, speeds, loads and size laws
/// on which Round Robin's virtual-time loop must match the general loop.
fn poisson_family() -> Vec<(String, Trace, MachineConfig)> {
    let sizes = [
        ("exp", SizeDist::Exponential { mean: 1.0 }),
        (
            "pareto",
            SizeDist::Pareto {
                alpha: 1.8,
                min: 0.5,
            },
        ),
        ("uniform", SizeDist::Uniform { lo: 0.1, hi: 3.0 }),
    ];
    let mut out = Vec::new();
    let mut seed = 100;
    for m in 1..=4 {
        for speed in [0.7, 1.0, 1.5, 4.4] {
            for (law, dist) in sizes {
                for rho in [0.7, 0.85, 1.0, 1.15, 1.3] {
                    seed += 1;
                    let t = PoissonWorkload::new(800, rho, m, dist, seed).generate();
                    out.push((
                        format!("{law}-m{m}-s{speed}-rho{rho}"),
                        t,
                        MachineConfig::with_speed(m, speed),
                    ));
                }
            }
        }
    }
    out
}

/// Round Robin that declares `equal_share` and counts `allocate` calls.
/// The engine must make none.
#[derive(Default)]
struct CountingRr {
    calls: u64,
}

impl RateAllocator for CountingRr {
    fn name(&self) -> &'static str {
        "RR"
    }
    fn allocate(&mut self, now: f64, alive: &[AliveJob], cfg: &MachineConfig, rates: &mut [f64]) {
        self.calls += 1;
        RoundRobin.allocate(now, alive, cfg, rates);
    }
    fn equal_share(&self) -> bool {
        true
    }
}

/// A wrapper that forwards only the five methods every policy had before
/// `equal_share`, as a probing wrapper does, so it keeps the default and
/// runs the general loop.
struct Forwarding<A>(A);

impl<A: RateAllocator> RateAllocator for Forwarding<A> {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn allocate(&mut self, now: f64, alive: &[AliveJob], cfg: &MachineConfig, rates: &mut [f64]) {
        self.0.allocate(now, alive, cfg, rates);
    }
    fn review_in(&self, now: f64, alive: &[AliveJob], cfg: &MachineConfig) -> Option<f64> {
        self.0.review_in(now, alive, cfg)
    }
    fn continuous(&self) -> bool {
        self.0.continuous()
    }
    fn reset(&mut self) {
        self.0.reset();
    }
}

/// Named "RR", with an off-by-one share `s·min(1, m/(n+1))`, and not
/// declaring `equal_share`: the engine must run its own allocation.
struct OffByOneRr;

impl RateAllocator for OffByOneRr {
    fn name(&self) -> &'static str {
        "RR"
    }
    fn allocate(&mut self, _: f64, alive: &[AliveJob], cfg: &MachineConfig, rates: &mut [f64]) {
        rates.fill(cfg.speed * (cfg.m as f64 / (alive.len() + 1) as f64).min(1.0));
    }
}

/// The step counters two runs of one schedule must share (`alloc_ns` is
/// wall-clock and `segments_recorded` counts the profile).
fn step_counts(s: &SimStats) -> [u64; 6] {
    [
        s.arrival_steps,
        s.completion_steps,
        s.review_steps,
        s.adaptive_steps,
        s.jobs_admitted,
        s.peak_alive as u64,
    ]
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn rr_virtual_time_loop_matches_the_general_loop_bit_for_bit() {
    let cases = golden_instances().into_iter().chain(poisson_family());
    let mut traces = 0;
    for (label, trace, cfg) in cases {
        traces += 1;
        let run = |alloc: &mut dyn RateAllocator, opts: SimOptions| -> Schedule {
            simulate(&trace, alloc, cfg, opts)
                .unwrap_or_else(|e| panic!("{label}/{}: run failed: {e}", alloc.name()))
        };
        let mut declared = CountingRr::default();
        let fast = run(&mut declared, SimOptions::default());
        assert_eq!(declared.calls, 0, "{label}: the declared RR was allocated");

        let general = [
            (
                "forwarding wrapper",
                run(&mut Forwarding(RoundRobin), SimOptions::default()),
            ),
            (
                "recorded profile",
                run(&mut RoundRobin, SimOptions::with_profile()),
            ),
            (
                "unit-weight WRR",
                run(&mut WeightedRoundRobin::new(), SimOptions::default()),
            ),
        ];
        for (how, sched) in &general {
            assert_eq!(
                bits(&sched.completion),
                bits(&fast.completion),
                "{label}: RR via {how} completes differently"
            );
            assert_eq!(sched.events, fast.events, "{label}: {how}: events");
            assert_eq!(
                step_counts(&sched.stats),
                step_counts(&fast.stats),
                "{label}: {how}: step counts"
            );
        }

        let mut streamed = vec![f64::NAN; trace.len()];
        let report = simulate_stream(
            &mut TraceSource::new(&trace),
            &mut RoundRobin,
            cfg,
            StreamOptions::default(),
            &mut |c| streamed[c.id as usize] = c.completion,
        )
        .unwrap_or_else(|e| panic!("{label}: streamed run failed: {e}"));
        assert_eq!(
            bits(&streamed),
            bits(&fast.completion),
            "{label}: streamed RR completes differently"
        );
        assert_eq!(report.events, fast.events, "{label}: streamed events");
        assert_eq!(
            step_counts(&report.stats),
            step_counts(&fast.stats),
            "{label}: streamed step counts"
        );
    }
    assert_eq!(traces, 4 + 240);
}

/// Bursts 40 time units apart, each done long before the next, so the
/// alive set empties and refills 80 times and the virtual-time loop
/// reuses its slab slots. Even bursts are exact ties across slots: at
/// time 0 jobs of size 0.5 and 3 arrive, the first retires at time 1
/// and frees its slot, and a job of size 2 arriving at time 1.5 takes
/// that slot and reaches the same finish point, 3, as the size-3 job in
/// the later slot. Odd bursts are batches of equal sizes, tied in
/// arrival order, and a second wave that lands in slots freed mid-burst.
fn slot_reuse_trace() -> Trace {
    let mut jobs = Vec::new();
    for b in 0..80 {
        let t0 = 40.0 * b as f64;
        if b % 2 == 0 {
            jobs.extend([(t0, 0.5), (t0, 3.0), (t0 + 1.5, 2.0)]);
        } else {
            let n = 1 + b % 9;
            jobs.extend((0..n).map(|i| (t0, 1.0 + (i % 2) as f64)));
            jobs.extend((0..n / 2).map(|_| (t0 + 0.25 * n as f64, 1.0)));
        }
    }
    Trace::from_pairs(jobs).unwrap()
}

/// The virtual-time loop's slab and 16-byte heap keys against the
/// general loop: on [`slot_reuse_trace`], streamed RR retires the same
/// jobs, in the same order, at the same bits, as RR behind a wrapper
/// that does not declare `equal_share`.
#[test]
fn reused_slots_and_tied_finishes_retire_as_in_the_general_loop() {
    let trace = slot_reuse_trace();
    let cfg = MachineConfig::new(1);
    let stream = |alloc: &mut dyn RateAllocator| {
        let mut retired = Vec::new();
        let report = simulate_stream(
            &mut TraceSource::new(&trace),
            alloc,
            cfg,
            StreamOptions::default(),
            &mut |c| retired.push((c.id, c.completion.to_bits())),
        )
        .unwrap_or_else(|e| panic!("{}: {e}", alloc.name()));
        (retired, report.events, step_counts(&report.stats))
    };
    let mut declared = CountingRr::default();
    let fast = stream(&mut declared);
    assert_eq!(declared.calls, 0, "the declared RR was allocated");
    let general = stream(&mut Forwarding(RoundRobin));
    assert_eq!(fast.0.len(), trace.len());
    assert_eq!(general.0.len(), trace.len());
    let first = fast.0.iter().zip(&general.0).position(|(a, b)| a != b);
    assert_eq!(
        first, None,
        "the retirements differ from the general loop's"
    );
    assert_eq!(fast.1, general.1, "events");
    assert_eq!(fast.2, general.2, "step counts");

    // The slot-crossing tie: the size-3 job (id 1) and the size-2 job
    // that took the retired size-0.5 job's slot (id 2) finish together
    // at time 5.5, and retire in arrival order.
    assert_eq!(
        &fast.0[1..3],
        &[(1, 5.5f64.to_bits()), (2, 5.5f64.to_bits())]
    );
}

#[test]
fn an_undeclared_allocator_named_rr_keeps_its_own_schedule() {
    for (label, trace, cfg) in golden_instances() {
        let rr = simulate(&trace, &mut RoundRobin, cfg, SimOptions::default()).unwrap();
        let bad = simulate(&trace, &mut OffByOneRr, cfg, SimOptions::default()).unwrap();
        assert_eq!(bad.policy, "RR");
        assert_ne!(
            bits(&bad.completion),
            bits(&rr.completion),
            "{label}: the off-by-one share got Round Robin's schedule"
        );
    }
}
