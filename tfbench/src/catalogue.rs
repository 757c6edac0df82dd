//! The benchmark catalogue: one table of workloads, end-to-end metrics
//! (unit, direction, regression bound) and per-layer metrics (layer, the
//! end-to-end metric each should move, and on which workloads).
//!
//! `BENCHMARK.json` at the repository root is rendered from this table by
//! `tfbench catalogue`; `tests/catalogue.rs` pins the committed file to the
//! rendering byte for byte and checks the format limits.

/// The benchmark command; a run appends
/// `--workload W --seed S --seconds N --trace 0|1`.
pub const COMMAND: &[&str] = &["bash", "tfbench/run.sh"];

/// Directories holding the benchmark and nothing else.
pub const PATHS: &[&str] = &["tfbench"];

/// Seconds one run measures for.
pub const RUN_SECONDS: u32 = 30;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload: a fixed recipe of inputs, generated from the run's seed.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload is in the benchmark (one line).
    pub why: &'static str,
}

/// An end-to-end metric, measured with tracing off.
#[derive(Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
    /// What the metric is on each workload.
    pub what: &'static str,
}

/// A per-layer metric, measured by a traced run (`--trace 1`).
#[derive(Debug)]
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The crate the metric looks into.
    pub layer: &'static str,
    /// The end-to-end metric a change to this layer should move.
    pub moves: &'static str,
    /// The workloads on which it should move it. Workloads that never
    /// enter the layer report the metric as 0.
    pub on: &'static [&'static str],
    pub what: &'static str,
}

pub const RR_HEAVY: &str = "stream-rr-heavy";
pub const FLOWS_WRR: &str = "stream-flows-wrr";
pub const SWEEP: &str = "ratio-sweep-l2";
pub const SERVE: &str = "serve-mixed";

const STREAMS: &[&str] = &[RR_HEAVY, FLOWS_WRR];
const ALL: &[&str] = &[RR_HEAVY, FLOWS_WRR, SWEEP, SERVE];

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: RR_HEAVY,
        why: "RR streams Poisson x Exp(1) jobs at load 0.98 on one machine: the alive set is large, so the engine's O(alive) work per event dominates",
    },
    Workload {
        name: FLOWS_WRR,
        why: "WRR streams the E22 4-flow 1:2:4:8 mix: the alive set is tiny, so source, allocator and per-flow sinks carry the cost, and FlowLog grows RSS",
    },
    Workload {
        name: SWEEP,
        why: "E2's 200 ratio tasks (RR at speed 4.4, l2, m in {1,4}) through the harness fan-out: nearly all time is the exact min-cost-flow LP lower bound",
    },
    Workload {
        name: SERVE,
        why: "the tf-serve binary under 2 closed-loop TCP clients cycling certify, ratio and audit requests: small LP solves plus the parse and wire layers",
    },
];

pub const END_TO_END: &[Metric] = &[
    Metric {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "input generation and warm-up at the reference speed, one set-up before every rep (serve-mixed: server spawn and the clients' warm-up in wall time, three servers); median of at least 3",
    },
    Metric {
        name: "throughput_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.2,
        what: "jobs/s (streams) and ratio tasks/s (sweep) over latency_p50_ms; requests/s of the closed loop (serve): connections over the mean fastest round trip",
    },
    Metric {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.2,
        what: "median of each request's fastest round trip (serve); for the batch workloads one pass over the whole input at the reference speed: the sum over chunks of each chunk's median over reps (streams), the busiest worker's total of per-task medians (sweep)",
    },
    Metric {
        name: "latency_p99_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.2,
        what: "99th percentile of each request's fastest round trip (serve); the batch workloads make one pass estimate per run, so it equals latency_p50_ms there",
    },
    Metric {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
        what: "VmHWM of the benchmark process (the sweep: after its first rep), or of the tf-serve process for serve-mixed",
    },
];

/// One [`LayerMetric`], positionally, to keep the table one row per metric.
const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    moves: &'static str,
    on: &'static [&'static str],
    what: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        layer,
        moves,
        on,
        what,
    }
}

use Better::{Higher, Lower};

#[rustfmt::skip]
pub const PER_LAYER: &[LayerMetric] = &[
    // Streams: the wrapped JobSource, RateAllocator and sink closure.
    layer("workload.next_job.calls", "count", Lower, "workload", "throughput_per_s", &[FLOWS_WRR],
        "JobSource::next_job calls per rep"),
    layer("workload.next_job.ns_per_call", "ns", Lower, "workload", "throughput_per_s", &[FLOWS_WRR],
        "time per next_job call (1 call in 17 timed)"),
    layer("workload.flow_log.bytes", "B", Lower, "workload", "peak_rss_mb", &[FLOWS_WRR],
        "4 x FlowLog::len at the end of a rep: the per-job side table a job tag would delete"),
    layer("workload.generate.ms", "ms", Lower, "workload", "setup_s", &[SWEEP],
        "time to generate the 200 integral corpus traces"),
    layer("policies.allocate.calls", "count", Lower, "policies", "throughput_per_s", &[RR_HEAVY],
        "RateAllocator::allocate calls per rep (streams) or per sweep"),
    layer("policies.allocate.ns_per_call", "ns", Lower, "policies", "throughput_per_s", &[RR_HEAVY],
        "time per allocate call (1 call in 17 timed)"),
    layer("policies.allocate.alive_mean", "count", Lower, "policies", "throughput_per_s", &[RR_HEAVY],
        "mean alive-set length handed to allocate"),
    layer("simcore.events", "count", Lower, "simcore", "throughput_per_s", &[RR_HEAVY],
        "engine events per rep (streams) or per sweep"),
    layer("simcore.steps.arrival", "count", Lower, "simcore", "throughput_per_s", &[RR_HEAVY],
        "steps ended by an arrival"),
    layer("simcore.steps.completion", "count", Lower, "simcore", "throughput_per_s", &[RR_HEAVY],
        "steps ended by a completion"),
    layer("simcore.steps.review", "count", Lower, "simcore", "throughput_per_s", &[RR_HEAVY],
        "steps ended by a policy review point"),
    layer("simcore.steps.adaptive", "count", Lower, "simcore", "throughput_per_s", &[RR_HEAVY],
        "bounded adaptive steps of continuous policies"),
    layer("simcore.peak_alive", "count", Lower, "simcore", "peak_rss_mb", &[RR_HEAVY],
        "largest alive set of any rep or simulation"),
    layer("simcore.self_ns_per_event", "ns", Lower, "simcore", "throughput_per_s", &[RR_HEAVY],
        "engine wall time minus source, allocate and sink time, per event"),
    layer("simcore.simulate.calls", "count", Lower, "simcore", "throughput_per_s", &[SWEEP],
        "simulate() calls: the algorithm plus 4 baselines per task"),
    layer("simcore.simulate.ms_per_call", "ms", Lower, "simcore", "throughput_per_s", &[SWEEP],
        "time per simulate() call"),
    layer("metrics.push.ns_per_call", "ns", Lower, "metrics", "throughput_per_s", &[FLOWS_WRR],
        "time per completion pushed into the streaming accumulators (1 in 17 timed)"),
    layer("metrics.merge.calls", "count", Lower, "metrics", "throughput_per_s", &[FLOWS_WRR],
        "chunk merges per rep"),
    layer("metrics.merge.ns", "ns", Lower, "metrics", "throughput_per_s", &[FLOWS_WRR],
        "time in chunk merges per rep"),
    // The lower bound.
    layer("lowerbound.lk_lower_bound.calls", "count", Lower, "lowerbound", "throughput_per_s", &[SWEEP],
        "lk_lower_bound calls"),
    layer("lowerbound.lk_lower_bound.ms_per_call", "ms", Lower, "lowerbound", "throughput_per_s", &[SWEEP],
        "time per lk_lower_bound call"),
    layer("lowerbound.mcmf.phases", "count", Lower, "lowerbound", "throughput_per_s", &[SWEEP],
        "min-cost-flow phases per lower-bound solve"),
    layer("lowerbound.mcmf.heap_pops", "count", Lower, "lowerbound", "throughput_per_s", &[SWEEP],
        "Dijkstra heap pops per solve"),
    layer("lowerbound.mcmf.arcs_scanned", "count", Lower, "lowerbound", "throughput_per_s", &[SWEEP],
        "residual arcs relaxed per solve"),
    layer("lowerbound.mcmf.blocking_pushes", "count", Lower, "lowerbound", "throughput_per_s", &[SWEEP],
        "augmenting paths in blocking flows per solve"),
    layer("lowerbound.mcmf.units_routed", "count", Lower, "lowerbound", "throughput_per_s", &[SWEEP],
        "flow units routed per solve"),
    // The harness fan-out.
    layer("harness.task.calls", "count", Lower, "harness", "throughput_per_s", &[SWEEP],
        "ratio tasks in the traced pass"),
    layer("harness.task.ms_p50", "ms", Lower, "harness", "throughput_per_s", &[SWEEP],
        "median busy time of one ratio task"),
    layer("harness.task.ms_p95", "ms", Lower, "harness", "throughput_per_s", &[SWEEP],
        "95th-percentile busy time of one ratio task"),
    layer("harness.task.ms_max", "ms", Lower, "harness", "throughput_per_s", &[SWEEP],
        "slowest ratio task"),
    layer("harness.fanout.efficiency", "fraction", Higher, "harness", "throughput_per_s", &[SWEEP],
        "summed task time / (threads x the untraced sweep time), both at the reference speed"),
    layer("harness.ratio.ms_p50", "ms", Lower, "harness", "latency_p50_ms", &[SERVE],
        "in-process empirical_ratio_scoped on the served ratio requests, median"),
    // tf-serve and the certificate.
    layer("serve.handle.ms_p50", "ms", Lower, "serve", "latency_p50_ms", &[SERVE],
        "server-side serve/request span, median"),
    layer("serve.handle.ms_p99", "ms", Lower, "serve", "latency_p99_ms", &[SERVE],
        "server-side serve/request span, 99th percentile"),
    layer("serve.latency.certify.ms_p50", "ms", Lower, "serve", "latency_p50_ms", &[SERVE],
        "client round trip of certify requests, median"),
    layer("serve.latency.ratio.ms_p50", "ms", Lower, "serve", "latency_p50_ms", &[SERVE],
        "client round trip of ratio requests, median"),
    layer("serve.latency.audit.ms_p50", "ms", Lower, "serve", "latency_p50_ms", &[SERVE],
        "client round trip of audit requests, median"),
    layer("serve.wire.ms_p50", "ms", Lower, "serve", "latency_p50_ms", &[SERVE],
        "client round trip minus the server span of the same request id, median"),
    layer("core.certify.ms_p50", "ms", Lower, "core", "latency_p50_ms", &[SERVE],
        "in-process verify_theorem1_at_speed on the served certify requests, median"),
    // Each layer's share of the traced time.
    layer("share.workload", "fraction", Lower, "workload", "throughput_per_s", STREAMS,
        "source share of traced stream wall time"),
    layer("share.policies", "fraction", Lower, "policies", "throughput_per_s", STREAMS,
        "allocator share of traced stream wall time"),
    layer("share.simcore", "fraction", Lower, "simcore", "throughput_per_s", &[RR_HEAVY, SWEEP],
        "engine share of traced wall time (streams) or of summed task time (sweep)"),
    layer("share.metrics", "fraction", Lower, "metrics", "throughput_per_s", STREAMS,
        "sink share of traced stream wall time"),
    layer("share.lowerbound", "fraction", Lower, "lowerbound", "throughput_per_s", &[SWEEP],
        "lower-bound share of summed task time"),
    layer("trace_overhead", "fraction", Lower, "tfbench", "throughput_per_s", ALL,
        "traced time / untraced time - 1 on the same inputs (streams and sweep at the reference speed)"),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn end_to_end(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().find(|m| m.name == name)
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_list(items: &[&str]) -> String {
    let parts: Vec<String> = items.iter().map(|s| json_str(s)).collect();
    format!("[{}]", parts.join(", "))
}

/// `BENCHMARK.json` as committed at the repository root.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"command\": {},\n", json_list(COMMAND)));
    out.push_str(&format!("  \"paths\": {},\n", json_list(PATHS)));
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(w.name),
                json_str(w.why)
            )
        })
        .collect();
    out.push_str(&format!("  \"workloads\": [\n{}\n  ],\n", rows.join(",\n")));
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.as_str()),
                m.bound
            )
        })
        .collect();
    out.push_str(&format!(
        "  \"end_to_end\": [\n{}\n  ],\n",
        rows.join(",\n")
    ));
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.as_str())
            )
        })
        .collect();
    out.push_str(&format!(
        "  \"per_layer\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    ));
    out
}
