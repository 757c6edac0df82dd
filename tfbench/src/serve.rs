//! `serve-mixed`: the release `tf-serve` binary under a closed loop of
//! [`CONNS`] client connections. Each connection sends one request line
//! per `write`, waits for the reply, and cycles 4 `certify` (n = 200,
//! m = 2), 4 `ratio` (n = 60, m = 1, RR) and 2 `audit` (n = 12) requests.
//! Every trace is an integral Poisson × Exp(mean 3) at ρ = 0.9, seeded by
//! the run seed and the request id. The loop is closed because tf-serve
//! callers wait for each reply on a connection held by one worker. The
//! timed phase replays the same [`PASS`] requests per connection until the
//! budget ends, each send after a random pause shorter than a kernel
//! timer tick ([`DESYNC_US`]); latencies are each request's fastest round
//! trip.
//!
//! The traced run starts a second server with `TF_TRACE=jsonl` and reads
//! its per-request `serve/request` spans back by request id; it also
//! re-runs the certify and ratio requests in-process through the library
//! entry points the server calls.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use serde::Value;
use tf_harness::campaign::CampaignScope;
use tf_harness::corpus::integral_poisson;
use tf_harness::ratio::{default_baselines, empirical_ratio_scoped};
use tf_lowerbound::{last_solve_stats, lk_lower_bound, McmfStats};
use tf_policies::Policy;
use tf_simcore::Trace;
use tf_workload::SizeDist;

use crate::probe::{vm_hwm_mb, SpanLog};
use crate::{median, secs, Ctx, Outcome, Output, SETUPS};

/// Client connections, and tf-serve worker threads to match (a
/// connection holds its worker until it closes).
const CONNS: usize = 2;
/// Requests per connection before the timed phase.
const WARMUP: u64 = 20;
/// Distinct requests per connection in the timed phase, sent pass after
/// pass until the budget ends (a pass takes about 10 s).
const PASS: u64 = 200;
/// Longest pause before a timed send, in µs: one kernel timer tick at
/// HZ = 250. tf-serve's reply newline waits for the client's delayed ACK,
/// which fires on a tick, so a closed loop that sends right after each
/// reply phase-locks to the tick and every round trip is rounded up to
/// whole 4 ms ticks. A pause drawn uniformly over one tick breaks the lock.
const DESYNC_US: u64 = 4_000;
const K: u32 = 2;
const EPS: f64 = 0.05;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Certify,
    Ratio,
    Audit,
}

impl Kind {
    /// Request `seq` of a connection: 4 certify, 4 ratio, 2 audit, repeat.
    fn of(seq: u64) -> Kind {
        match seq % 10 {
            0..=3 => Kind::Certify,
            4..=7 => Kind::Ratio,
            _ => Kind::Audit,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Kind::Certify => "certify",
            Kind::Ratio => "ratio",
            Kind::Audit => "audit",
        }
    }

    /// (jobs, machines).
    fn shape(self) -> (u64, usize) {
        match self {
            Kind::Certify => (200, 2),
            Kind::Ratio => (60, 1),
            Kind::Audit => (12, 1),
        }
    }
}

/// Request `seq` of connection `conn`; ids start at 1 (0 is shutdown).
#[derive(Debug, Clone, Copy)]
struct Req {
    id: u64,
    kind: Kind,
}

impl Req {
    fn new(conn: usize, seq: u64) -> Req {
        Req {
            id: conn as u64 * 1_000_000 + seq + 1,
            kind: Kind::of(seq),
        }
    }

    fn trace(self, ctx: &Ctx) -> Trace {
        let (n, m) = self.kind.shape();
        integral_poisson(
            ctx.scaled(n, 4) as usize,
            0.9,
            m,
            SizeDist::Exponential { mean: 3.0 },
            ctx.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ self.id,
        )
    }

    /// The request as one JSON line, written by hand.
    fn line(self, trace: &Trace) -> String {
        let pairs: Vec<String> = trace
            .jobs()
            .iter()
            .map(|j| format!("[{:?},{:?}]", j.arrival, j.size))
            .collect();
        let (_, m) = self.kind.shape();
        let policy = if self.kind == Kind::Ratio {
            ",\"policy\":\"rr\""
        } else {
            ""
        };
        format!(
            "{{\"id\":{},\"kind\":\"{}\",\"m\":{m},\"k\":{K}{policy},\"trace\":[{}]}}\n",
            self.id,
            self.kind.name(),
            pairs.join(",")
        )
    }
}

/// One answered request.
#[derive(Debug, Clone)]
struct Sample {
    req: Req,
    start: Instant,
    latency_s: f64,
    /// `ratio_vs_lb` of a ratio reply.
    ratio: Option<f64>,
    /// Why the reply failed its check.
    error: Option<String>,
}

/// Check a reply line; returns `ratio_vs_lb` for ratio replies.
fn check_reply(line: &str, req: Req) -> Result<Option<f64>, String> {
    let v: Value =
        serde_json::from_str(line.trim()).map_err(|e| format!("unparsable reply: {e}"))?;
    let field = |v: &Value, k: &str| v.get(k).cloned();
    let id: Option<u64> = field(&v, "id").and_then(|x| serde::Deserialize::from_value(&x).ok());
    if id != Some(req.id) {
        return Err(format!("reply id {id:?} to request {}", req.id));
    }
    if field(&v, "ok") != Some(Value::Bool(true)) {
        return Err(format!("request {} failed: {}", req.id, line.trim()));
    }
    let result = field(&v, "result").ok_or("reply without result")?;
    match req.kind {
        Kind::Certify if field(&result, "certified") != Some(Value::Bool(true)) => {
            Err(format!("request {} not certified", req.id))
        }
        Kind::Audit if field(&result, "ok") != Some(Value::Bool(true)) => {
            Err(format!("request {} audit found violations", req.id))
        }
        Kind::Ratio => {
            let r: f64 = field(&result, "ratio_vs_lb")
                .and_then(|x| serde::Deserialize::from_value(&x).ok())
                .ok_or("ratio reply without ratio_vs_lb")?;
            Ok(Some(r))
        }
        _ => Ok(None),
    }
}

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        Ok(Client {
            writer: s.try_clone()?,
            reader: BufReader::new(s),
        })
    }

    fn round_trip(&mut self, line: &str) -> std::io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(reply)
    }

    /// Send `reqs` once, or over and over until `deadline` if there is one,
    /// each timed send after a pause of up to [`DESYNC_US`].
    fn drive(&mut self, reqs: &[(Req, String)], deadline: Option<Instant>) -> Vec<Sample> {
        let mut out = Vec::new();
        let sends = if deadline.is_some() {
            usize::MAX
        } else {
            reqs.len()
        };
        let mut x = 0x2545_F491_4F6C_DD1D ^ reqs.first().map_or(0, |(r, _)| r.id);
        for (req, line) in reqs.iter().cycle().take(sends) {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                break;
            }
            if deadline.is_some() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                std::thread::sleep(Duration::from_micros(x % DESYNC_US));
            }
            let req = *req;
            let start = Instant::now();
            let reply = self.round_trip(line);
            let latency_s = secs(start);
            let (ratio, error) = match reply
                .map_err(|e| e.to_string())
                .and_then(|r| check_reply(&r, req))
            {
                Ok(r) => (r, None),
                Err(e) => (None, Some(e)),
            };
            let failed = error.is_some();
            out.push(Sample {
                req,
                start,
                latency_s,
                ratio,
                error,
            });
            if failed {
                break;
            }
        }
        out
    }
}

/// A running tf-serve child; dropping it kills the child if it is still
/// running, so no error path leaves a server behind.
struct Server {
    child: Child,
    addr: SocketAddr,
    stderr: Option<std::thread::JoinHandle<()>>,
}

impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

impl Server {
    fn spawn(bin: &Path, trace: Option<&Path>) -> Result<Server, String> {
        let mut cmd = Command::new(bin);
        cmd.args([
            "--addr",
            "127.0.0.1:0",
            "--threads",
            &CONNS.to_string(),
            "--no-cache",
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .env_remove("TF_TRACE");
        if let Some(p) = trace {
            cmd.env("TF_TRACE", "jsonl").arg("--trace").arg(p);
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut lines = BufReader::new(child.stderr.take().expect("stderr is piped")).lines();
        let addr = loop {
            match lines.next() {
                Some(Ok(l)) => {
                    if let Some(a) = l.strip_prefix("listening on ") {
                        break a.trim().parse::<SocketAddr>().ok();
                    }
                }
                _ => break None,
            }
        };
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("tf-serve exited before its listening banner".into());
        };
        // Keep draining stderr so the server never blocks on it.
        let stderr = Some(std::thread::spawn(move || {
            lines.map_while(Result::ok).for_each(drop)
        }));
        Ok(Server {
            child,
            addr,
            stderr,
        })
    }

    /// Ask the server to stop and wait for it (and its trace file).
    fn stop(mut self, client: &mut Client) -> Result<(), String> {
        let acked = client
            .round_trip("{\"id\":0,\"kind\":\"shutdown\"}\n")
            .is_ok();
        let deadline = Instant::now() + Duration::from_secs(30);
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(s)) => break Some(s),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20))
                }
                _ => break None,
            }
        };
        match status {
            Some(s) if s.success() && acked => Ok(()),
            other => Err(format!("tf-serve did not shut down cleanly ({other:?})")),
        }
    }
}

/// Start a server, connect every client and run their warm-up requests.
fn start(
    ctx: &Ctx,
    bin: &Path,
    trace: Option<&Path>,
) -> Result<(Server, Vec<Client>, Vec<Sample>), String> {
    let server = Server::spawn(bin, trace)?;
    let mut clients = Vec::new();
    for _ in 0..CONNS {
        clients.push(Client::connect(server.addr).map_err(|e| format!("cannot connect: {e}"))?);
    }
    let warm = phase(ctx, &mut clients, None);
    Ok((server, clients, warm))
}

/// Run every connection concurrently: the warm-up requests once when there
/// is no deadline, else the [`PASS`] timed requests pass after pass until
/// `deadline`. Request lines are built before the first is sent. Samples
/// in request-id order, a request's replays in the order they were sent.
fn phase(ctx: &Ctx, clients: &mut [Client], deadline: Option<Instant>) -> Vec<Sample> {
    let seqs = match deadline {
        Some(_) => WARMUP..WARMUP + PASS,
        None => 0..WARMUP,
    };
    let mut all: Vec<Sample> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(conn, c)| {
                let seqs = seqs.clone();
                s.spawn(move || {
                    let reqs: Vec<(Req, String)> = seqs
                        .map(|seq| {
                            let req = Req::new(conn, seq);
                            (req, req.line(&req.trace(ctx)))
                        })
                        .collect();
                    c.drive(&reqs, deadline)
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    all.sort_by_key(|s| s.req.id);
    all
}

/// Count the samples and their failed checks; a replayed request must get
/// the reply it got the first time.
fn record(samples: &[Sample], out: &mut Outcome) {
    out.attempted += samples.len() as u64;
    for (i, s) in samples.iter().enumerate() {
        if let Some(e) = &s.error {
            out.fail(e.clone());
        } else if i > 0
            && samples[i - 1].req.id == s.req.id
            && samples[i - 1].ratio.map(f64::to_bits) != s.ratio.map(f64::to_bits)
        {
            out.fail(format!("request {}: replay answered differently", s.req.id));
        }
    }
}

/// Each distinct request's fastest round trip over its replays, in ms,
/// grouped by connection. Noise on a shared machine only ever slows a
/// round trip, and a request's replays lie a pass apart, so the fastest
/// is its undisturbed cost.
fn fastest_ms(samples: &[Sample]) -> Vec<Vec<f64>> {
    let mut by_conn = vec![Vec::new(); CONNS];
    for (i, s) in samples.iter().enumerate() {
        let conn = (s.req.id / 1_000_000) as usize;
        let ms = s.latency_s * 1e3;
        let list: &mut Vec<f64> = &mut by_conn[conn];
        if i > 0 && samples[i - 1].req.id == s.req.id {
            let last = list.last_mut().expect("the request's first sample");
            *last = last.min(ms);
        } else {
            list.push(ms);
        }
    }
    by_conn
}

/// The warm-up's checkable outputs (its requests are the same every run).
fn outputs(warm: &[Sample]) -> Vec<Output> {
    let ok = |k: Kind| {
        warm.iter()
            .filter(|s| s.req.kind == k && s.error.is_none())
            .count() as f64
    };
    vec![
        Output::exact("warmup_certified", ok(Kind::Certify)),
        Output::exact("warmup_audits_clean", ok(Kind::Audit)),
        Output::rel(
            "warmup_sum_ratio_vs_lb",
            warm.iter().filter_map(|s| s.ratio).sum(),
        ),
    ]
}

/// Wall time of a phase, from its first send to its last reply.
fn wall(samples: &[Sample]) -> f64 {
    let start = samples.iter().map(|s| s.start).min();
    let end = samples
        .iter()
        .map(|s| s.start + Duration::from_secs_f64(s.latency_s))
        .max();
    match (start, end) {
        (Some(a), Some(b)) => b.duration_since(a).as_secs_f64(),
        _ => 0.0,
    }
}

fn ms(v: impl Iterator<Item = f64>) -> Vec<f64> {
    v.map(|s| s * 1e3).collect()
}

/// Run the serve workload against the tf-serve binary at `bin`.
pub fn run(ctx: &Ctx, bin: &Path) -> Result<Outcome, String> {
    // The in-process re-runs must solve, not read a cache file.
    tf_harness::lbcache::set_enabled(false);
    let mut out = Outcome::default();
    let mut warm_outputs: Vec<Vec<Output>> = Vec::new();
    // Several set-ups, each its own server; only the last one's server
    // goes on to the timed phase.
    let mut kept: Option<(Server, Vec<Client>)> = None;
    let mut setups = Vec::new();
    for _ in 0..if ctx.traced { 1 } else { SETUPS } {
        let t = Instant::now();
        let (server, clients, warm) = start(ctx, bin, None)?;
        setups.push(secs(t));
        record(&warm, &mut out);
        warm_outputs.push(outputs(&warm));
        if let Some((old, mut old_clients)) = kept.replace((server, clients)) {
            old.stop(&mut old_clients[0])?;
        }
    }
    let (server, mut clients) = kept.expect("a set-up succeeded");
    for (i, w) in warm_outputs.iter().enumerate().skip(1) {
        if let Some(d) = crate::diff_outputs(&warm_outputs[0], w) {
            out.fail(format!("warm-up of set-up {i} differs from the first: {d}"));
        }
    }
    out.outputs = warm_outputs.swap_remove(0);

    let budget = if ctx.traced {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let timed = phase(
        ctx,
        &mut clients,
        Some(Instant::now() + Duration::from_secs_f64(budget)),
    );
    record(&timed, &mut out);
    let rss = vm_hwm_mb(&server.child.id().to_string());
    server.stop(&mut clients[0])?;
    drop(clients);
    let timed_wall = wall(&timed);

    if !ctx.traced {
        let by_conn = fastest_ms(&timed);
        let lat: Vec<f64> = by_conn.concat();
        // A closed-loop connection sends one request per round trip.
        let per_s: f64 = by_conn
            .iter()
            .filter(|l| !l.is_empty())
            .map(|l| l.len() as f64 * 1e3 / l.iter().sum::<f64>())
            .sum();
        out.set("setup_s", median(&setups));
        out.set("throughput_per_s", per_s);
        out.set("latency_p50_ms", median(&lat));
        out.set("latency_p99_ms", tf_metrics::percentile(&lat, 0.99));
        out.set("peak_rss_mb", rss.unwrap_or(0.0));
        return Ok(out);
    }

    // Traced: a second server writing its spans, the same requests again.
    let trace_path = ctx.trace_file(".serve.jsonl");
    if let Some(dir) = trace_path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let (server, mut clients, warm) = start(ctx, bin, Some(&trace_path))?;
    record(&warm, &mut out);
    let deadline = Instant::now() + Duration::from_secs_f64(budget);
    let traced = phase(ctx, &mut clients, Some(deadline));
    record(&traced, &mut out);
    server.stop(&mut clients[0])?;
    drop(clients);
    let untraced: HashMap<u64, Option<u64>> = timed
        .iter()
        .map(|s| (s.req.id, s.ratio.map(f64::to_bits)))
        .collect();
    for t in &traced {
        if untraced
            .get(&t.req.id)
            .is_some_and(|&u| u != t.ratio.map(f64::to_bits))
        {
            out.fail(format!(
                "request {}: traced reply differs from the untraced one",
                t.req.id
            ));
        }
    }
    let handled = server_spans(&trace_path)?;
    layer_metrics(ctx, &traced, &handled, &mut out);
    let traced_wall = wall(&traced);
    out.set(
        "trace_overhead",
        (traced_wall / traced.len() as f64) / (timed_wall / timed.len() as f64) - 1.0,
    );
    Ok(out)
}

/// `serve/request` span durations (seconds) by request id, one per replay
/// in the order they ended, from the server's JSON-lines trace.
fn server_spans(path: &Path) -> Result<HashMap<u64, Vec<f64>>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut spans = HashMap::new();
    for line in text.lines() {
        let Ok(v) = serde_json::from_str::<Value>(line) else {
            continue;
        };
        let is = |k: &str, want: &str| v.get(k).and_then(Value::as_str) == Some(want);
        if !(is("type", "span") && is("cat", "serve") && is("name", "request")) {
            continue;
        }
        let num = |x: Option<&Value>| x.and_then(|x| serde::Deserialize::from_value(x).ok());
        let id: Option<f64> = num(v.get("args").and_then(|a| a.get("id")));
        let dur: Option<f64> = num(v.get("dur_ns"));
        if let (Some(id), Some(dur)) = (id, dur) {
            spans
                .entry(id as u64)
                .or_insert_with(Vec::new)
                .push(dur / 1e9);
        }
    }
    Ok(spans)
}

/// Per-layer metrics of the traced phase: server spans, the wire, and
/// the library calls behind certify and ratio requests, re-run here once
/// per distinct request.
fn layer_metrics(
    ctx: &Ctx,
    traced: &[Sample],
    handled: &HashMap<u64, Vec<f64>>,
    out: &mut Outcome,
) {
    let origin = traced
        .iter()
        .map(|s| s.start)
        .min()
        .unwrap_or_else(Instant::now);
    let mut log = SpanLog::new(origin);
    let (mut handle, mut wire) = (Vec::new(), Vec::new());
    let (mut certify, mut ratio, mut lb) = (Vec::new(), Vec::new(), Vec::new());
    let mut mcmf = McmfStats::default();
    let speed = tf_core::eta(K, EPS);
    let mut replay = 0;
    for (i, s) in traced.iter().enumerate() {
        let tid = s.req.id / 1_000_000 + 1;
        log.push("request", tid, s.req.id, s.start, s.latency_s);
        replay = if i > 0 && traced[i - 1].req.id == s.req.id {
            replay + 1
        } else {
            0
        };
        if let Some(&h) = handled.get(&s.req.id).and_then(|h| h.get(replay)) {
            handle.push(h * 1e3);
            wire.push((s.latency_s - h) * 1e3);
        }
        if replay > 0 {
            continue;
        }
        let (_, m) = s.req.kind.shape();
        let trace = s.req.trace(ctx);
        let t = Instant::now();
        match s.req.kind {
            Kind::Certify => {
                let ok = tf_core::verify_theorem1_at_speed(&trace, m, K, EPS, speed)
                    .is_ok_and(|c| c.certified());
                certify.push(secs(t) * 1e3);
                log.push("certify", tid, s.req.id, t, secs(t));
                if !ok {
                    out.fail(format!(
                        "request {}: in-process certificate fails",
                        s.req.id
                    ));
                }
            }
            Kind::Ratio => {
                lk_lower_bound(&trace, m, K);
                lb.push(secs(t) * 1e3);
                mcmf.absorb(&last_solve_stats());
                let t = Instant::now();
                let est = empirical_ratio_scoped(
                    &CampaignScope::none(),
                    &trace,
                    Policy::Rr,
                    m,
                    speed,
                    K,
                    &default_baselines(),
                );
                ratio.push(secs(t) * 1e3);
                log.push("ratio", tid, s.req.id, t, secs(t));
                if s.ratio.map(f64::to_bits) != Some(est.ratio_vs_lb.to_bits()) {
                    out.fail(format!(
                        "request {}: served ratio differs from the in-process one",
                        s.req.id
                    ));
                }
            }
            Kind::Audit => {}
        }
    }
    let path = ctx.trace_file(".trace.json");
    match log.write_chrome(&path) {
        Ok(()) => eprintln!("chrome trace written to {}", path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
    let by_kind = |k: Kind| {
        ms(traced
            .iter()
            .filter(|s| s.req.kind == k)
            .map(|s| s.latency_s))
    };
    let solves = lb.len().max(1) as f64;
    out.set("serve.handle.ms_p50", median(&handle));
    out.set("serve.handle.ms_p99", tf_metrics::percentile(&handle, 0.99));
    out.set(
        "serve.latency.certify.ms_p50",
        median(&by_kind(Kind::Certify)),
    );
    out.set("serve.latency.ratio.ms_p50", median(&by_kind(Kind::Ratio)));
    out.set("serve.latency.audit.ms_p50", median(&by_kind(Kind::Audit)));
    out.set("serve.wire.ms_p50", median(&wire));
    out.set("core.certify.ms_p50", median(&certify));
    out.set("harness.ratio.ms_p50", median(&ratio));
    out.set("lowerbound.lk_lower_bound.calls", lb.len() as f64);
    out.set(
        "lowerbound.lk_lower_bound.ms_per_call",
        lb.iter().sum::<f64>() / solves,
    );
    out.set("lowerbound.mcmf.phases", mcmf.phases as f64 / solves);
    out.set("lowerbound.mcmf.heap_pops", mcmf.heap_pops as f64 / solves);
    out.set(
        "lowerbound.mcmf.arcs_scanned",
        mcmf.arcs_scanned as f64 / solves,
    );
    out.set(
        "lowerbound.mcmf.blocking_pushes",
        mcmf.blocking_pushes as f64 / solves,
    );
    out.set(
        "lowerbound.mcmf.units_routed",
        mcmf.units_routed as f64 / solves,
    );
}
