//! The two streaming workloads: `simulate_stream` fed by an open source,
//! with the completion sink folding flows into mergeable accumulators
//! chunk by chunk, the way BENCH_4 and BENCH_6 run them.
//!
//! Every rep of a run streams the same input, so chunk `j` (completions
//! `j·CHUNK .. (j+1)·CHUNK`) is the same work in every rep. Each chunk's
//! CPU time is rescaled to the reference machine speed by a calibration
//! unit run right after it ([`crate::probe::calibrate`]).

use std::time::Instant;

use tf_metrics::{PerFlowStreamingStats, StreamingFlowStats, StreamingNorm};
use tf_policies::Policy;
use tf_simcore::{
    simulate_stream, CompletedJob, JobSource, MachineConfig, StreamOptions, StreamReport,
};
use tf_workload::{
    ArrivalProcess, FlowLog, FlowSet, FlowSpec, OpenWorkload, SizeDist, StreamArrivals, StreamBound,
};

use crate::catalogue::{FLOWS_WRR, RR_HEAVY};
use crate::probe::{
    calibrate, normalize, thread_cpu_s, vm_hwm_mb, AllocProbe, Probe, ProbedAlloc, ProbedSource,
};
use crate::{diff_outputs, median, Ctx, Outcome, Output, RepClock, SETUPS};

/// Completions per accumulator chunk before it is merged into the total.
const CHUNK: u64 = 65_536;
/// Load of the RR stream.
const RHO: f64 = 0.98;
const RR_JOBS: u64 = 4_000_000;
const RR_WARMUP: u64 = 200_000;
const FLOW_JOBS_PER_FLOW: u64 = 2_000_000;
const FLOW_WARMUP_PER_FLOW: u64 = 25_000;

/// Which stream a run drives.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Rr,
    Flows,
}

impl Kind {
    fn of(workload: &str) -> Kind {
        match workload {
            RR_HEAVY => Kind::Rr,
            FLOWS_WRR => Kind::Flows,
            other => unreachable!("{other} is not a stream workload"),
        }
    }

    fn policy(self) -> Policy {
        match self {
            Kind::Rr => Policy::Rr,
            Kind::Flows => Policy::Wrr,
        }
    }

    /// Jobs of one timed rep.
    fn jobs(self, ctx: &Ctx) -> u64 {
        match self {
            Kind::Rr => ctx.scaled(RR_JOBS, 1000),
            Kind::Flows => 4 * ctx.scaled(FLOW_JOBS_PER_FLOW, 250),
        }
    }
}

/// The input seed of `n` jobs at run seed `seed`. For seed 0 it is the
/// seed the BENCH_4 stream family derives for an (n, ρ) cell (RR), or
/// E22's streaming seed (flows).
fn input_seed(kind: Kind, seed: u64, n: u64) -> u64 {
    match kind {
        Kind::Rr => (0x2015_5AA0 + 10007 * seed) ^ n.rotate_left(17) ^ RHO.to_bits(),
        Kind::Flows => 0xE22_0002 + 10007 * seed,
    }
}

fn poisson(rate: f64) -> StreamArrivals {
    StreamArrivals::Process(ArrivalProcess::Poisson { rate })
}

/// E22's 4-flow mix with geometric 1:2:4:8 weights (rebuilt here from the
/// public `FlowSpec`/`FlowSet`: the experiment keeps its mix functions private).
fn four_flows(seed: u64) -> FlowSet {
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

/// The completion sink: flows go into a chunk accumulator that is merged
/// into the run total every [`CHUNK`] completions.
trait Sink {
    fn push(&mut self, job: &CompletedJob);
    fn chunk_full(&self) -> bool;
    fn merge(&mut self);
    fn finish(self) -> Vec<Output>;
    /// Bytes of per-job side tables the sink reads from.
    fn side_table_bytes(&self) -> u64;
}

struct RrSink {
    total: StreamingFlowStats,
    l2: StreamingNorm,
    chunk: StreamingFlowStats,
    chunk_l2: StreamingNorm,
}

impl RrSink {
    fn new() -> Self {
        RrSink {
            total: StreamingFlowStats::new(128),
            l2: StreamingNorm::new(2.0),
            chunk: StreamingFlowStats::new(128),
            chunk_l2: StreamingNorm::new(2.0),
        }
    }
}

impl Sink for RrSink {
    fn push(&mut self, job: &CompletedJob) {
        self.chunk.push(job.flow);
        self.chunk_l2.push(job.flow);
    }

    fn chunk_full(&self) -> bool {
        self.chunk.n() >= CHUNK
    }

    fn merge(&mut self) {
        self.total.merge(&self.chunk);
        self.l2.merge(&self.chunk_l2);
        self.chunk = StreamingFlowStats::new(128);
        self.chunk_l2 = StreamingNorm::new(2.0);
    }

    fn finish(mut self) -> Vec<Output> {
        self.merge();
        let completed = self.total.n();
        let st = self.total.finish();
        vec![
            Output::exact("completed", completed as f64),
            Output::rel("l2_normalized", self.l2.normalized_value()),
            Output::rel("mean_flow", st.mean),
            Output::rel("max_flow", st.max),
        ]
    }

    fn side_table_bytes(&self) -> u64 {
        0
    }
}

struct FlowSink {
    log: FlowLog,
    names: Vec<String>,
    total: PerFlowStreamingStats,
    chunk: PerFlowStreamingStats,
}

impl FlowSink {
    fn new(set: &FlowSet, log: FlowLog) -> Self {
        FlowSink {
            log,
            names: set.flows.iter().map(|f| f.name.clone()).collect(),
            total: PerFlowStreamingStats::new(set.n_flows(), 128, 2.0),
            chunk: PerFlowStreamingStats::new(set.n_flows(), 128, 2.0),
        }
    }
}

impl Sink for FlowSink {
    fn push(&mut self, job: &CompletedJob) {
        self.chunk.push(self.log.flow_of(job.id), job.flow);
    }

    fn chunk_full(&self) -> bool {
        self.chunk.n() >= CHUNK
    }

    fn merge(&mut self) {
        self.total.merge(&self.chunk);
        self.chunk = PerFlowStreamingStats::new(self.names.len(), 128, 2.0);
    }

    fn finish(mut self) -> Vec<Output> {
        self.merge();
        let mut out = vec![Output::exact("completed", self.total.n() as f64)];
        let l2: Vec<f64> = (0..self.names.len()).map(|f| self.total.norm(f)).collect();
        for (f, st) in self.total.finish().iter().enumerate() {
            let name = &self.names[f];
            out.push(Output::rel(format!("{name}.mean_flow"), st.mean));
            out.push(Output::rel(format!("{name}.l2_flow"), l2[f]));
            out.push(Output::rel(format!("{name}.max_flow"), st.max));
        }
        out
    }

    fn side_table_bytes(&self) -> u64 {
        4 * self.log.len() as u64
    }
}

/// Counters a traced rep accumulates at each layer boundary.
#[derive(Debug, Default)]
struct Probes {
    source: Probe,
    alloc: AllocProbe,
    push: Probe,
    merge_calls: u64,
    merge_ns: f64,
}

/// One streamed rep.
struct Rep {
    /// Wall time of the chunks, calibration units left out.
    wall_s: f64,
    /// Every chunk's CPU time, the last chunk partial, normalised by the
    /// calibration unit run on the same thread right after it.
    chunk_ms: Vec<f64>,
    report: StreamReport,
    outputs: Vec<Output>,
    side_table_bytes: u64,
}

impl Rep {
    /// The rep's time at the reference machine speed.
    fn normalized_s(&self) -> f64 {
        self.chunk_ms.iter().sum::<f64>() / 1e3
    }
}

fn drive<S: JobSource, K: Sink>(
    mut source: S,
    policy: Policy,
    mut sink: K,
    probes: Option<&mut Probes>,
) -> Rep {
    let mut alloc = policy.make();
    let opts = StreamOptions {
        // A stream cannot know its mean size; continuous allocators get
        // the materialised engine's E[p]/64 heuristic, as in BENCH_4.
        max_step: alloc.continuous().then_some(1.0 / 64.0),
        ..StreamOptions::default()
    };
    let cfg = MachineConfig::new(1);
    let mut chunk_ms = Vec::new();
    let mut wall_s = 0.0;
    let mut chunk_start = (Instant::now(), thread_cpu_s());
    let mut end_chunk = |now: Instant| {
        let cpu_s = thread_cpu_s() - chunk_start.1;
        wall_s += now.duration_since(chunk_start.0).as_secs_f64();
        chunk_ms.push(normalize(cpu_s, calibrate()) * 1e3);
        chunk_start = (Instant::now(), thread_cpu_s());
    };
    let report = match probes {
        None => simulate_stream(&mut source, alloc.as_mut(), cfg, opts, &mut |job| {
            sink.push(&job);
            if sink.chunk_full() {
                sink.merge();
                end_chunk(Instant::now());
            }
        }),
        Some(p) => {
            let mut source = ProbedSource {
                inner: source,
                probe: &mut p.source,
            };
            let mut alloc = ProbedAlloc {
                inner: alloc.as_mut(),
                probe: &mut p.alloc,
            };
            let (push, merge_calls, merge_ns) = (&mut p.push, &mut p.merge_calls, &mut p.merge_ns);
            simulate_stream(&mut source, &mut alloc, cfg, opts, &mut |job| {
                push.call(|| sink.push(&job));
                if sink.chunk_full() {
                    let t = Instant::now();
                    sink.merge();
                    let now = Instant::now();
                    *merge_calls += 1;
                    *merge_ns += now.duration_since(t).as_nanos() as f64;
                    end_chunk(now);
                }
            })
        }
    }
    .expect("open Poisson streams simulate cleanly");
    end_chunk(Instant::now());
    let side_table_bytes = sink.side_table_bytes();
    Rep {
        wall_s,
        chunk_ms,
        report,
        outputs: sink.finish(),
        side_table_bytes,
    }
}

/// The pass's time at the reference speed: the sum over chunks of each
/// chunk's median normalised time over the reps. Every rep streams the
/// same input, so chunk `j` is the same work in each, and the median drops
/// the chunks a calibration unit misjudged.
fn pass_ms(reps: &[Rep]) -> f64 {
    (0..reps[0].chunk_ms.len())
        .map(|j| median(&reps.iter().map(|r| r.chunk_ms[j]).collect::<Vec<_>>()))
        .sum()
}

/// Open a source of `n` jobs in total and stream it.
fn rep(kind: Kind, seed: u64, n: u64, probes: Option<&mut Probes>) -> Rep {
    match kind {
        Kind::Rr => {
            let source = OpenWorkload::poisson(
                RHO,
                1,
                SizeDist::Exponential { mean: 1.0 },
                StreamBound::Count(n),
                seed,
            )
            .stream()
            .expect("valid open workload");
            drive(source, kind.policy(), RrSink::new(), probes)
        }
        Kind::Flows => {
            let set = four_flows(seed);
            let source = set
                .stream(StreamBound::Count(n / 4))
                .expect("valid flow mix");
            let sink = FlowSink::new(&set, source.flow_log());
            drive(source, kind.policy(), sink, probes)
        }
    }
}

/// The set-up: a short stream of seed 0's input whatever the run's seed,
/// so set-up time does not depend on which sample path the seed drew.
/// Returns its time at the reference speed.
fn warm_up(kind: Kind, ctx: &Ctx) -> f64 {
    let n = match kind {
        Kind::Rr => ctx.scaled(RR_WARMUP, 100),
        Kind::Flows => 4 * ctx.scaled(FLOW_WARMUP_PER_FLOW, 25),
    };
    rep(kind, input_seed(kind, 0, n), n, None).normalized_s()
}

/// Run a stream workload. Every rep is preceded by a set-up (the
/// warm-up), so the set-ups sample the same spells of a shared machine
/// as the reps. A traced run follows each untraced rep with the same rep
/// through the probes, so both see the same machine too.
pub fn run(ctx: &Ctx) -> Outcome {
    let kind = Kind::of(ctx.workload);
    let n = kind.jobs(ctx);
    let seed = input_seed(kind, ctx.seed, n);
    let mut out = Outcome::default();
    let mut clock = RepClock::new(ctx.seconds);
    let mut p = Probes::default();
    let mut setups = Vec::new();
    let (mut reps, mut traced): (Vec<Rep>, Vec<Rep>) = (Vec::new(), Vec::new());
    while clock.more() {
        setups.push(warm_up(kind, ctx));
        let j = reps.len() as u64;
        let r = rep(kind, seed, n, None);
        let mut wall = r.wall_s;
        if ctx.traced {
            let t = rep(kind, seed, n, Some(&mut p));
            if let Some(d) = diff_outputs(&r.outputs, &t.outputs) {
                out.fail(format!("traced rep {j} differs from the untraced one: {d}"));
            }
            wall += t.wall_s;
            traced.push(t);
        }
        clock.walls.push(wall);
        eprintln!(
            "rep {j}: {:.3} s wall, {:.3} s at reference speed",
            r.wall_s,
            r.normalized_s()
        );
        reps.push(r);
    }
    out.attempted += (reps.len() + traced.len()) as u64;
    for (j, r) in reps.iter().chain(&traced).enumerate() {
        if r.report.completed != n {
            out.fail(format!(
                "rep {j}: {} of {n} jobs completed",
                r.report.completed
            ));
        }
    }
    out.outputs = reps[0].outputs.clone();

    if !ctx.traced {
        while setups.len() < SETUPS {
            setups.push(warm_up(kind, ctx));
        }
        let pass_ms = pass_ms(&reps);
        out.set("setup_s", median(&setups));
        out.set("throughput_per_s", n as f64 * 1e3 / pass_ms);
        out.set("latency_p50_ms", pass_ms);
        out.set("latency_p99_ms", pass_ms);
        out.set("peak_rss_mb", vm_hwm_mb("self").unwrap_or(0.0));
        return out;
    }

    let k = traced.len() as f64;
    let traced_wall: f64 = traced.iter().map(|r| r.wall_s).sum();
    let at_ref = |reps: &[Rep]| reps.iter().map(Rep::normalized_s).sum::<f64>();
    let mut events = 0u64;
    let mut steps = [0u64; 4];
    let mut peak_alive = 0usize;
    let mut side_bytes = 0u64;
    for r in &traced {
        events += r.report.events;
        let s = &r.report.stats;
        for (acc, v) in steps.iter_mut().zip([
            s.arrival_steps,
            s.completion_steps,
            s.review_steps,
            s.adaptive_steps,
        ]) {
            *acc += v;
        }
        peak_alive = peak_alive.max(s.peak_alive);
        side_bytes = side_bytes.max(r.side_table_bytes);
    }
    let wall_ns = traced_wall * 1e9;
    let source_ns = p.source.total_ns();
    let alloc_ns = p.alloc.probe.total_ns();
    let sink_ns = p.push.total_ns() + p.merge_ns;
    let engine_ns = (wall_ns - source_ns - alloc_ns - sink_ns).max(0.0);
    out.set("workload.next_job.calls", p.source.calls as f64 / k);
    out.set("workload.next_job.ns_per_call", p.source.ns_per_call());
    out.set("workload.flow_log.bytes", side_bytes as f64);
    out.set("policies.allocate.calls", p.alloc.probe.calls as f64 / k);
    out.set("policies.allocate.ns_per_call", p.alloc.probe.ns_per_call());
    out.set("policies.allocate.alive_mean", p.alloc.alive_mean());
    out.set("simcore.events", events as f64 / k);
    out.set("simcore.steps.arrival", steps[0] as f64 / k);
    out.set("simcore.steps.completion", steps[1] as f64 / k);
    out.set("simcore.steps.review", steps[2] as f64 / k);
    out.set("simcore.steps.adaptive", steps[3] as f64 / k);
    out.set("simcore.peak_alive", peak_alive as f64);
    out.set("simcore.self_ns_per_event", engine_ns / events as f64);
    out.set("metrics.push.ns_per_call", p.push.ns_per_call());
    out.set("metrics.merge.calls", p.merge_calls as f64 / k);
    out.set("metrics.merge.ns", p.merge_ns / k);
    out.set("share.workload", source_ns / wall_ns);
    out.set("share.policies", alloc_ns / wall_ns);
    out.set("share.simcore", engine_ns / wall_ns);
    out.set("share.metrics", sink_ns / wall_ns);
    out.set("trace_overhead", at_ref(&traced) / at_ref(&reps) - 1.0);
    out
}
