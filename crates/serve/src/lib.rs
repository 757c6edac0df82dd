#![warn(missing_docs)]

//! # tf-serve — a TCP/JSON-lines front-end for the analysis pipeline
//!
//! A deliberately small network layer over the workspace's three
//! heavyweight entry points: empirical ratio estimation
//! ([`tf_harness::ratio`]), Theorem 1 dual-fitting certification
//! ([`tf_core::verify_theorem1_at_speed`]), and the invariant catalogue
//! ([`tf_audit::audit_trace`]). One request per line, one JSON response
//! per line, over plain `std::net` blocking sockets served by a fixed
//! thread pool — no async runtime, matching the workspace's
//! no-external-dependency rule.
//!
//! ## Protocol
//!
//! Requests are JSON objects, one per line:
//!
//! ```json
//! {"id": 1, "kind": "certify", "trace": [[0.0, 2.0], [0.0, 1.0]],
//!  "m": 1, "k": 2, "eps": 0.05}
//! ```
//!
//! | field | meaning | valid | default |
//! |---|---|---|---|
//! | `id` | echoed back, pairs responses to requests | any `u64` | required |
//! | `kind` | `ratio` \| `certify` \| `audit` \| `stats` \| `shutdown` | one of those | required |
//! | `trace` | `[arrival, size]` pairs | finite, arrivals ≥ 0, sizes > 0 | required except `stats` and `shutdown` |
//! | `policy` | policy name for `ratio` (`rr`, `srpt`, `laps:0.25`, …) | a registered id | `rr` |
//! | `m` | machine count | ≥ 1 | `1` |
//! | `speed` | policy speed | finite, > 0 | `2k(1+10ε)` for ratio/certify, `1` for audit |
//! | `k` | norm exponent | ≥ 1 | `2` |
//! | `eps` | Theorem 1 epsilon | finite, > 0 | `0.05` |
//!
//! A request line holds at most [`MAX_REQUEST_BYTES`] bytes before its
//! newline. A longer line gets an `ok: false` reply and the connection is
//! closed, so a client that never sends a newline cannot grow the
//! server's buffer without limit.
//!
//! Responses are `{"id": …, "ok": true, "result": …}` or
//! `{"id": …, "ok": false, "error": "…"}`. A field outside its valid
//! range gets an `ok: false` reply, and so does a request whose handler
//! panics (a `k` so large that an LP cost overflows, say): the panic is
//! caught, so the worker thread lives on. Every reply line goes out in a
//! single write on a `TCP_NODELAY` socket, so no reply waits for the
//! client's delayed ACK. Each request runs under a `serve/request`
//! tracing span on its worker's track, so a `TF_TRACE=jsonl` run yields
//! one timed span per request.
//!
//! A `shutdown` request from a loopback peer is answered, then the server
//! drains and [`serve`] returns; from any other peer it gets `ok: false`
//! and the server keeps serving. A `stats` request returns the server's
//! counts since start (`requests`, `errors`, `in_flight`, `queued`,
//! `open`, `busy_refused`, `yields`, `accept_errors`) and `handle_ms`
//! quantiles (`p50`, `p99`, `max`) over the last 4 096 handled
//! requests. Neither `stats` nor `shutdown` counts as a request.
//!
//! At most twice `threads` connections are open at once, queued or held
//! by a worker. A connection past that gets one
//! `{"id":0,"ok":false,"error":"busy: …"}` line and is closed, unless it
//! comes from a loopback peer and its first line, sent within one read
//! poll (200 ms), is `shutdown`: that is answered and the server stops,
//! so idle clients holding every connection cannot keep it up. One
//! refuser thread, off the accept path, answers every connection past
//! the cap: after `busy` it closes its write half and reads what the
//! peer sent, until the peer closes or one more read poll passes, so the
//! peer reads `busy` and then the end of the stream, not a reset. Workers
//! share the open connections round robin: when a worker's connection
//! sends nothing for one read poll (200 ms) while another waits, the
//! worker moves it, partial line and all, to the back of the queue and
//! takes the next, so idle clients cannot pin the pool.
//!
//! See docs/DISTRIBUTED.md for the full protocol description and a
//! worked client example.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{IpAddr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use tf_harness::campaign::CampaignScope;
use tf_harness::ratio::{default_baselines, empirical_ratio_scoped};
use tf_policies::Policy;
use tf_simcore::Trace;

/// The longest request line the server buffers, newline excluded: 16 MiB,
/// several thousand times the largest request the benchmark clients send.
pub const MAX_REQUEST_BYTES: usize = 16 << 20;

/// How many of the latest handled requests `stats` takes its `handle_ms`
/// quantiles over.
const HANDLE_WINDOW: usize = 4096;

/// How long a worker's read waits before it looks for a shutdown or for
/// a queued connection to hand its turn to.
const READ_POLL: Duration = Duration::from_millis(200);

/// How often the refuser reads the connections it holds past the cap.
const REFUSE_POLL: Duration = Duration::from_millis(5);

/// How long the acceptor pauses after a failed `accept`. Running out of
/// file descriptors leaves the connection in the backlog, so an immediate
/// retry would spin until a worker closes one.
const ACCEPT_RETRY: Duration = Duration::from_millis(10);

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeCfg {
    /// Worker threads (= concurrently served connections). Twice this
    /// many connections may be open at once.
    pub threads: usize,
    /// Per-request lower-bound solve budget (`ratio` requests degrade
    /// to the closed-form bound when it expires).
    pub task_timeout: Option<Duration>,
}

impl Default for ServeCfg {
    fn default() -> Self {
        ServeCfg {
            threads: 8,
            task_timeout: None,
        }
    }
}

/// One parsed request line.
#[derive(Debug, Clone)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// `ratio` | `certify` | `audit` | `stats` | `shutdown`.
    pub kind: String,
    /// `[arrival, size]` pairs.
    pub trace: Vec<(f64, f64)>,
    /// Policy name for `ratio` requests.
    pub policy: String,
    /// Machine count.
    pub m: usize,
    /// Machine speed; `None` = the kind's default.
    pub speed: Option<f64>,
    /// Norm exponent.
    pub k: u32,
    /// Theorem 1 epsilon.
    pub eps: f64,
}

/// Hand-written (the vendored derive has no `#[serde(default)]`): every
/// field except `id` and `kind` is optional with a documented default.
impl serde::Deserialize for Request {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let m = v
            .as_map()
            .ok_or_else(|| serde::Error::expected("map for struct Request", v))?;
        let opt = |f: &'static str| serde::map_get(m, f);
        let req = |f: &'static str| opt(f).ok_or_else(|| serde::Error::missing_field(f));
        Ok(Request {
            id: serde::Deserialize::from_value(req("id")?)?,
            kind: serde::Deserialize::from_value(req("kind")?)?,
            trace: match opt("trace") {
                Some(v) => serde::Deserialize::from_value(v)?,
                None => Vec::new(),
            },
            policy: match opt("policy") {
                Some(v) => serde::Deserialize::from_value(v)?,
                None => "rr".to_string(),
            },
            m: match opt("m") {
                Some(v) => serde::Deserialize::from_value(v)?,
                None => 1,
            },
            speed: match opt("speed") {
                Some(v) => Some(serde::Deserialize::from_value(v)?),
                None => None,
            },
            k: match opt("k") {
                Some(v) => serde::Deserialize::from_value(v)?,
                None => 2,
            },
            eps: match opt("eps") {
                Some(v) => serde::Deserialize::from_value(v)?,
                None => 0.05,
            },
        })
    }
}

/// Evaluate one `ratio`, `certify` or `audit` request. Public so the
/// handlers are testable without sockets. Fields outside their documented
/// range are errors; the serve loop additionally catches any panic left.
pub fn handle_request(
    req: &Request,
    task_timeout: Option<Duration>,
) -> Result<serde::Value, String> {
    let trace =
        Trace::from_pairs(req.trace.iter().copied()).map_err(|e| format!("bad trace: {e}"))?;
    let positive = |x: f64| x.is_finite() && x > 0.0;
    if req.m < 1 {
        return Err("bad m: need at least 1 machine".into());
    }
    if req.k < 1 {
        return Err("bad k: need a norm exponent of at least 1".into());
    }
    if !positive(req.eps) {
        return Err(format!("bad eps {}: need a finite eps > 0", req.eps));
    }
    if let Some(speed) = req.speed.filter(|&s| !positive(s)) {
        return Err(format!("bad speed {speed}: need a finite speed > 0"));
    }
    match req.kind.as_str() {
        "ratio" => {
            let policy: Policy = req
                .policy
                .parse()
                .map_err(|e| format!("bad policy {:?}: {e}", req.policy))?;
            let speed = req.speed.unwrap_or_else(|| tf_core::eta(req.k, req.eps));
            let scope = match task_timeout {
                Some(t) => CampaignScope::with_timeout(t),
                None => CampaignScope::none(),
            };
            let est = empirical_ratio_scoped(
                &scope,
                &trace,
                policy,
                req.m,
                speed,
                req.k,
                &default_baselines(),
            );
            serde_json::to_value(&est).map_err(|e| e.to_string())
        }
        "certify" => {
            let speed = req.speed.unwrap_or_else(|| tf_core::eta(req.k, req.eps));
            let cert = tf_core::verify_theorem1_at_speed(&trace, req.m, req.k, req.eps, speed)
                .map_err(|e| format!("simulation failed: {e}"))?;
            let mut out = vec![(
                "certified".to_string(),
                serde::Value::Bool(cert.certified()),
            )];
            out.push((
                "certificate".to_string(),
                serde_json::to_value(&cert).map_err(|e| e.to_string())?,
            ));
            Ok(serde::Value::Map(out))
        }
        "audit" => {
            let cfg = tf_audit::AuditConfig {
                k: req.k,
                eps: req.eps,
                ..tf_audit::AuditConfig::default()
            };
            let rep = tf_audit::audit_trace(
                &trace,
                req.m,
                req.speed.unwrap_or(1.0),
                &Policy::all(),
                &cfg,
            );
            let violations: Vec<serde::Value> = rep
                .violations
                .iter()
                .map(|v| {
                    serde::Value::Map(vec![
                        ("check".into(), serde::Value::Str(v.check.to_string())),
                        (
                            "policy".into(),
                            match &v.policy {
                                Some(p) => serde::Value::Str(p.clone()),
                                None => serde::Value::Null,
                            },
                        ),
                        ("detail".into(), serde::Value::Str(v.detail.clone())),
                    ])
                })
                .collect();
            Ok(serde::Value::Map(vec![
                ("ok".into(), serde::Value::Bool(rep.ok())),
                (
                    "checks_run".into(),
                    serde::Value::UInt(rep.checks_run as u64),
                ),
                ("violations".into(), serde::Value::Seq(violations)),
            ]))
        }
        other => Err(format!(
            "unknown kind {other:?} (want ratio, certify, audit, stats, or shutdown)"
        )),
    }
}

/// The message of a caught panic payload.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "request handler panicked"
    }
}

/// Render one response line (no trailing newline).
pub fn response_line(id: u64, outcome: Result<serde::Value, String>) -> String {
    let body = match outcome {
        Ok(result) => serde::Value::Map(vec![
            ("id".into(), serde::Value::UInt(id)),
            ("ok".into(), serde::Value::Bool(true)),
            ("result".into(), result),
        ]),
        Err(error) => serde::Value::Map(vec![
            ("id".into(), serde::Value::UInt(id)),
            ("ok".into(), serde::Value::Bool(false)),
            ("error".into(), serde::Value::Str(error)),
        ]),
    };
    serde_json::to_string(&body).expect("response serializes")
}

/// Send one reply line and its newline in a single write. Written in two,
/// Nagle's algorithm holds the lone newline until the peer's delayed ACK,
/// which puts a ≈ 40 ms floor under every round trip.
fn send_line(mut stream: &TcpStream, mut line: String) -> io::Result<()> {
    line.push('\n');
    stream.write_all(line.as_bytes())
}

/// Whether a peer at `ip` may shut the server down: only one on this
/// host, an IPv4-mapped loopback address (`::ffff:127.0.0.1`) included.
fn may_shut_down(ip: IpAddr) -> bool {
    ip.to_canonical().is_loopback()
}

/// One admitted connection. It keeps its reader, with any buffered bytes
/// and partial line, when a worker hands it back to the queue.
struct Conn {
    reader: BufReader<TcpStream>,
    partial: Vec<u8>,
    loopback: bool,
}

/// The last [`HANDLE_WINDOW`] handle times in ms, the oldest overwritten
/// first; sorted only when `stats` asks.
#[derive(Default)]
struct Window {
    ms: Vec<f64>,
    next: usize,
}

impl Window {
    fn push(&mut self, ms: f64) {
        if self.ms.len() < HANDLE_WINDOW {
            self.ms.push(ms);
        } else {
            self.ms[self.next] = ms;
        }
        self.next = (self.next + 1) % HANDLE_WINDOW;
    }

    /// `{p50, p99, max}` by nearest rank, `null` before the first request.
    fn quantiles(&self) -> serde::Value {
        let mut ms = self.ms.clone();
        ms.sort_by(f64::total_cmp);
        let rank = |p: f64| match ms.len() {
            0 => serde::Value::Null,
            n => serde::Value::Float(ms[((p * n as f64).ceil() as usize).clamp(1, n) - 1]),
        };
        serde::Value::Map(vec![
            ("p50".into(), rank(0.5)),
            ("p99".into(), rank(0.99)),
            ("max".into(), rank(1.0)),
        ])
    }
}

/// What the acceptor and the workers share, all under one lock.
#[derive(Default)]
struct State {
    /// Admitted connections waiting for a worker.
    queue: VecDeque<Conn>,
    /// Admitted connections not yet closed, queued or held by a worker.
    open: usize,
    /// Set by an accepted `shutdown`: no connection is handed out after.
    stopping: bool,
    requests: u64,
    errors: u64,
    in_flight: u64,
    busy_refused: u64,
    yields: u64,
    accept_errors: u64,
    handle_ms: Window,
}

struct Shared {
    state: Mutex<State>,
    ready: Condvar,
}

impl Shared {
    fn state(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("no thread panics while holding the state lock")
    }

    /// The next connection to serve, or `None` once the server stops.
    fn next(&self) -> Option<Conn> {
        let mut state = self.state();
        loop {
            if state.stopping {
                return None;
            }
            if let Some(conn) = state.queue.pop_front() {
                return Some(conn);
            }
            state = self
                .ready
                .wait(state)
                .expect("no thread panics while holding the state lock");
        }
    }

    fn requeue(&self, conn: Conn) {
        let mut state = self.state();
        state.queue.push_back(conn);
        state.yields += 1;
        self.ready.notify_one();
    }

    fn close(&self, conn: Conn) {
        drop(conn);
        self.state().open -= 1;
    }

    /// Hand out no more connections, wake every idle worker, and
    /// unblock the acceptor with a connection to its own address.
    fn shut_down(&self, local: SocketAddr) {
        self.state().stopping = true;
        self.ready.notify_all();
        let _ = TcpStream::connect(local);
    }

    /// Count one answered request, with its handle time.
    fn record(&self, ok: bool, started: Instant) {
        let ms = started.elapsed().as_secs_f64() * 1e3;
        let mut state = self.state();
        state.requests += 1;
        state.errors += u64::from(!ok);
        state.handle_ms.push(ms);
    }

    /// The `stats` reply.
    fn stats(&self) -> serde::Value {
        let state = self.state();
        let count = |n: u64| serde::Value::UInt(n);
        serde::Value::Map(vec![
            ("requests".into(), count(state.requests)),
            ("errors".into(), count(state.errors)),
            ("in_flight".into(), count(state.in_flight)),
            ("queued".into(), count(state.queue.len() as u64)),
            ("open".into(), count(state.open as u64)),
            ("busy_refused".into(), count(state.busy_refused)),
            ("yields".into(), count(state.yields)),
            ("accept_errors".into(), count(state.accept_errors)),
            ("handle_ms".into(), state.handle_ms.quantiles()),
        ])
    }
}

/// Serve connections from `listener` until a loopback peer sends
/// `shutdown`; returns after the worker pool drains. `cfg.threads`
/// workers share the open connections round robin, and at most twice
/// that many connections are open at once: a connection past the cap
/// goes to the refuser thread, which answers `busy` and closes it, or
/// stops the server on a loopback peer's `shutdown`. A failed `accept`
/// (out of file descriptors, say) is counted and retried after a short
/// pause.
pub fn serve(listener: TcpListener, cfg: &ServeCfg) -> io::Result<()> {
    let local = listener.local_addr()?;
    let threads = cfg.threads.max(1);
    let cap = 2 * threads;
    let shared = Arc::new(Shared {
        state: Mutex::new(State::default()),
        ready: Condvar::new(),
    });

    let workers: Vec<_> = (0..threads)
        .map(|i| {
            let shared = Arc::clone(&shared);
            let timeout = cfg.task_timeout;
            std::thread::spawn(move || worker_loop(i, &shared, timeout, local))
        })
        .collect();
    let (refuse, refused) = mpsc::channel();
    let refuser = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || refuser_loop(&refused, &shared, cap, local))
    };

    loop {
        let accepted = listener.accept();
        let mut state = shared.state();
        if state.stopping {
            // The unblocking self-connection (or a straggler): drop it.
            break;
        }
        let Ok((stream, peer)) = accepted else {
            state.accept_errors += 1;
            drop(state);
            std::thread::sleep(ACCEPT_RETRY);
            continue;
        };
        let _ = stream.set_nodelay(true);
        if state.open >= cap {
            drop(state);
            let _ = refuse.send((stream, may_shut_down(peer.ip())));
            continue;
        }
        let _ = stream.set_read_timeout(Some(READ_POLL));
        state.open += 1;
        state.queue.push_back(Conn {
            reader: BufReader::new(stream),
            partial: Vec::new(),
            loopback: may_shut_down(peer.ip()),
        });
        drop(state);
        shared.ready.notify_one();
    }

    drop(refuse);
    for w in workers {
        let _ = w.join();
    }
    refuser.join().expect("the refuser does not panic");
    Ok(())
}

/// A connection past the admission cap, held by the refuser until it has
/// been answered and has closed or gone quiet.
struct Refused {
    stream: TcpStream,
    /// A loopback peer's first line so far, while it may yet be
    /// `shutdown`; `None` once the peer has its `busy` line.
    line: Option<Vec<u8>>,
    /// When the wait for the first line, or then the drain, ends.
    deadline: Instant,
}

impl Refused {
    /// Send `busy`, close the write half, and give the peer one
    /// [`READ_POLL`] to close its own. Reading what it sent until then
    /// keeps the close from turning into a reset that can cost the peer
    /// its `busy` line.
    fn refuse(&mut self, shared: &Shared, cap: usize) {
        shared.state().busy_refused += 1;
        let reply = response_line(
            0,
            Err(format!(
                "busy: {cap} connections open; retry after one closes"
            )),
        );
        let _ = send_line(&self.stream, reply);
        let _ = self.stream.shutdown(Shutdown::Write);
        self.line = None;
        self.deadline = Instant::now() + READ_POLL;
    }

    /// Read what the peer has sent without blocking: a loopback peer's
    /// first line, answered at once if it is `shutdown` (which stops the
    /// server) and with `busy` otherwise (or when it has sent none by the
    /// deadline), then anything else until it closes or the deadline
    /// passes. Returns whether the connection is still held.
    fn poll(&mut self, shared: &Shared, cap: usize, local: SocketAddr) -> bool {
        let mut buf = [0; 4096];
        loop {
            let read = (&self.stream).read(&mut buf);
            let early = Instant::now() < self.deadline;
            let waiting = early && matches!(&read, Err(e) if e.kind() == io::ErrorKind::WouldBlock);
            let Some(line) = &mut self.line else {
                match read {
                    Ok(n) if n > 0 && early => continue,
                    _ => return waiting,
                }
            };
            match read {
                Ok(n) if n > 0 => {
                    let end = buf[..n].iter().position(|&b| b == b'\n');
                    line.extend_from_slice(&buf[..end.unwrap_or(n)]);
                    if let Some(id) = end.and_then(|_| shutdown_id(line)) {
                        let ok = Ok(serde::Value::Str("shutting down".into()));
                        let _ = send_line(&self.stream, response_line(id, ok));
                        shared.shut_down(local);
                        return false;
                    }
                    if end.is_none() && line.len() <= MAX_REQUEST_BYTES {
                        continue;
                    }
                }
                _ if waiting => return true,
                _ => {}
            }
            self.refuse(shared, cap);
        }
    }
}

/// The id of `line` if it is a `shutdown` request.
fn shutdown_id(line: &[u8]) -> Option<u64> {
    let req: Request = serde_json::from_str(std::str::from_utf8(line).ok()?).ok()?;
    (req.kind == "shutdown").then_some(req.id)
}

/// The refuser: one thread that answers every connection past the cap,
/// so a silent one holds neither the acceptor nor another refusal. Each
/// connection it is handed (with whether its peer is on loopback) is
/// polled every [`REFUSE_POLL`] until it is done. The thread ends when
/// the acceptor does.
fn refuser_loop(
    refused: &mpsc::Receiver<(TcpStream, bool)>,
    shared: &Shared,
    cap: usize,
    local: SocketAddr,
) {
    let mut held: Vec<Refused> = Vec::new();
    loop {
        let next = if held.is_empty() {
            refused
                .recv()
                .map_err(|_| mpsc::RecvTimeoutError::Disconnected)
        } else {
            refused.recv_timeout(REFUSE_POLL)
        };
        if let Err(mpsc::RecvTimeoutError::Disconnected) = next {
            return;
        }
        for (stream, loopback) in next.into_iter().chain(refused.try_iter()) {
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let mut conn = Refused {
                stream,
                line: Some(Vec::new()),
                deadline: Instant::now() + READ_POLL,
            };
            if !loopback {
                conn.refuse(shared, cap);
            }
            held.push(conn);
        }
        held.retain_mut(|conn| conn.poll(shared, cap, local));
    }
}

/// How a worker's turn on a connection ended.
enum Turn {
    Closed,
    Yield,
    Shutdown,
}

fn worker_loop(index: usize, shared: &Shared, task_timeout: Option<Duration>, local: SocketAddr) {
    // Give each worker its own trace track so concurrent request spans
    // render side by side instead of nested.
    let _track = tf_obs::set_track(index as u32 + 1);
    while let Some(mut conn) = shared.next() {
        match serve_turn(&mut conn, shared, task_timeout) {
            Turn::Closed => shared.close(conn),
            Turn::Yield => shared.requeue(conn),
            Turn::Shutdown => {
                shared.close(conn);
                shared.shut_down(local);
            }
        }
    }
}

/// Serve requests on `conn` until it closes, sends an accepted
/// `shutdown`, or sends nothing for one [`READ_POLL`] while another
/// connection waits. A connection with bytes to process keeps its worker.
///
/// The read poll also lets a worker parked on an idle (but still open)
/// connection notice a shutdown and let [`serve`] drain — otherwise one
/// lingering client would block shutdown forever.
fn serve_turn(conn: &mut Conn, shared: &Shared, task_timeout: Option<Duration>) -> Turn {
    loop {
        // A timed-out read leaves any partial line in `partial`; the next
        // read keeps appending to it, up to one byte past the cap.
        let room = (MAX_REQUEST_BYTES + 1 - conn.partial.len()) as u64;
        match (&mut conn.reader)
            .take(room)
            .read_until(b'\n', &mut conn.partial)
        {
            Ok(0) => return Turn::Closed,
            Ok(_)
                if conn.partial.len() > MAX_REQUEST_BYTES
                    && conn.partial.last() != Some(&b'\n') =>
            {
                let started = Instant::now();
                let reply = response_line(
                    0,
                    Err(format!(
                        "bad request: line exceeds {MAX_REQUEST_BYTES} bytes"
                    )),
                );
                shared.record(false, started);
                let _ = send_line(conn.reader.get_ref(), reply);
                return Turn::Closed;
            }
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                let state = shared.state();
                if state.stopping {
                    return Turn::Closed;
                }
                if !state.queue.is_empty() {
                    return Turn::Yield;
                }
                continue;
            }
            Err(_) => return Turn::Closed,
        }
        let line = String::from_utf8_lossy(&conn.partial).into_owned();
        conn.partial.clear();
        if line.trim().is_empty() {
            continue;
        }
        let (reply, shutdown) = answer(&line, conn.loopback, shared, task_timeout);
        if send_line(conn.reader.get_ref(), reply).is_err() {
            return Turn::Closed;
        }
        if shutdown {
            return Turn::Shutdown;
        }
    }
}

/// The reply to one request line, and whether it is an accepted
/// `shutdown`. Every request but `stats` and `shutdown` is counted.
fn answer(
    line: &str,
    loopback: bool,
    shared: &Shared,
    task_timeout: Option<Duration>,
) -> (String, bool) {
    let started = Instant::now();
    let (id, outcome) = match serde_json::from_str::<Request>(line) {
        Err(e) => (0, Err(format!("bad request: {e}"))),
        Ok(req) if req.kind == "shutdown" => {
            let outcome = if loopback {
                Ok(serde::Value::Str("shutting down".into()))
            } else {
                Err("shutdown is accepted only from a loopback peer".into())
            };
            return (response_line(req.id, outcome), loopback);
        }
        Ok(req) if req.kind == "stats" => {
            return (response_line(req.id, Ok(shared.stats())), false)
        }
        Ok(req) => {
            shared.state().in_flight += 1;
            let mut span = tf_obs::span!("serve", "request");
            span.arg("id", req.id as f64);
            // A panic must not end this worker: it would stop serving
            // for good, and the pool would shrink by one thread.
            let outcome =
                panic::catch_unwind(AssertUnwindSafe(|| handle_request(&req, task_timeout)))
                    .unwrap_or_else(|payload| {
                        Err(format!("internal error: {}", panic_text(&*payload)))
                    });
            shared.state().in_flight -= 1;
            (req.id, outcome)
        }
    };
    let ok = outcome.is_ok();
    let reply = response_line(id, outcome);
    shared.record(ok, started);
    (reply, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_trace() -> Vec<(f64, f64)> {
        vec![(0.0, 2.0), (0.0, 1.0), (1.0, 1.0)]
    }

    #[test]
    fn request_defaults_fill_in() {
        let r: Request =
            serde_json::from_str(r#"{"id": 7, "kind": "ratio", "trace": [[0.0, 1.0]]}"#).unwrap();
        assert_eq!(r.id, 7);
        assert_eq!(r.policy, "rr");
        assert_eq!((r.m, r.k), (1, 2));
        assert_eq!(r.speed, None);
        assert!((r.eps - 0.05).abs() < 1e-12);
    }

    #[test]
    fn ratio_request_returns_an_estimate() {
        let req = Request {
            id: 1,
            kind: "ratio".into(),
            trace: tiny_trace(),
            policy: "rr".into(),
            m: 1,
            speed: Some(4.4),
            k: 2,
            eps: 0.05,
        };
        let v = handle_request(&req, None).unwrap();
        let ratio = v.get("ratio_vs_best").expect("estimate field");
        assert!(matches!(ratio, serde::Value::Float(x) if x.is_finite()));
    }

    #[test]
    fn certify_request_certifies_at_prescribed_speed() {
        let req = Request {
            id: 2,
            kind: "certify".into(),
            trace: tiny_trace(),
            policy: "rr".into(),
            m: 1,
            speed: None, // defaults to eta(k, eps) = 2k(1+10eps)
            k: 2,
            eps: 0.05,
        };
        let v = handle_request(&req, None).unwrap();
        assert_eq!(v.get("certified"), Some(&serde::Value::Bool(true)));
        assert!(v.get("certificate").is_some());
    }

    #[test]
    fn audit_request_reports_clean_verdict() {
        let req = Request {
            id: 3,
            kind: "audit".into(),
            trace: tiny_trace(),
            policy: "rr".into(),
            m: 1,
            speed: None,
            k: 2,
            eps: 0.05,
        };
        let v = handle_request(&req, None).unwrap();
        assert_eq!(v.get("ok"), Some(&serde::Value::Bool(true)));
        assert!(matches!(v.get("checks_run"), Some(serde::Value::UInt(n)) if *n > 0));
    }

    /// A near-zero job size must be answered, not turned into a caught
    /// panic: the LP would divide by the size.
    #[test]
    fn near_zero_job_size_is_answered_not_a_panic() {
        for kind in ["ratio", "audit"] {
            let line = format!(r#"{{"id": 5, "kind": "{kind}", "trace": [[0, 3], [0, 1e-310]]}}"#);
            let req: Request = serde_json::from_str(&line).unwrap();
            assert!(handle_request(&req, None).is_ok(), "{kind}");
        }
    }

    #[test]
    fn out_of_range_fields_are_errors() {
        let ok = Request {
            id: 6,
            kind: "ratio".into(),
            trace: tiny_trace(),
            policy: "rr".into(),
            m: 1,
            speed: None,
            k: 2,
            eps: 0.05,
        };
        let bad = [
            Request { m: 0, ..ok.clone() },
            Request { k: 0, ..ok.clone() },
            Request {
                eps: 0.0,
                ..ok.clone()
            },
            Request {
                eps: f64::NAN,
                ..ok.clone()
            },
            Request {
                speed: Some(0.0),
                ..ok.clone()
            },
            Request {
                speed: Some(f64::INFINITY),
                ..ok.clone()
            },
        ];
        for req in bad {
            for kind in ["ratio", "certify", "audit"] {
                let req = Request {
                    kind: kind.into(),
                    ..req.clone()
                };
                let err = handle_request(&req, None).unwrap_err();
                assert!(err.starts_with("bad "), "{kind} {req:?}: {err}");
            }
        }
    }

    #[test]
    fn bad_kind_and_bad_policy_are_errors_not_panics() {
        let mut req = Request {
            id: 4,
            kind: "bogus".into(),
            trace: tiny_trace(),
            policy: "rr".into(),
            m: 1,
            speed: None,
            k: 2,
            eps: 0.05,
        };
        let err = handle_request(&req, None).unwrap_err();
        assert!(
            err.contains("unknown kind") && err.contains("stats"),
            "{err}"
        );
        req.kind = "ratio".into();
        req.policy = "not-a-policy".into();
        assert!(handle_request(&req, None)
            .unwrap_err()
            .contains("bad policy"));
    }

    #[test]
    fn response_lines_echo_id_and_status() {
        let ok = response_line(9, Ok(serde::Value::Bool(true)));
        assert!(ok.contains("\"id\":9") || ok.contains("\"id\": 9"), "{ok}");
        assert!(ok.contains("true"), "{ok}");
        let err = response_line(9, Err("nope".into()));
        assert!(err.contains("nope"), "{err}");
    }

    #[test]
    fn only_loopback_peers_may_shut_down() {
        for ip in ["127.0.0.1", "::1", "::ffff:127.0.0.1"] {
            assert!(may_shut_down(ip.parse().unwrap()), "{ip}");
        }
        for ip in ["10.0.0.1", "::ffff:10.0.0.1"] {
            assert!(!may_shut_down(ip.parse().unwrap()), "{ip}");
        }
    }

    #[test]
    fn handle_window_keeps_the_latest_requests() {
        let mut w = Window::default();
        assert_eq!(w.quantiles().get("p50"), Some(&serde::Value::Null));
        for ms in 1..=HANDLE_WINDOW + 100 {
            w.push(ms as f64);
        }
        assert_eq!(w.ms.len(), HANDLE_WINDOW);
        let q = |p| match w.quantiles().get(p) {
            Some(serde::Value::Float(x)) => *x,
            other => panic!("{p}: {other:?}"),
        };
        // The oldest 100 were overwritten: the window holds 101..=4196.
        assert_eq!(q("max"), (HANDLE_WINDOW + 100) as f64);
        assert_eq!(q("p50"), (100 + HANDLE_WINDOW / 2) as f64);
        assert_eq!(q("p99"), (100 + 4056) as f64);
    }
}
