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
//! | `kind` | `ratio` \| `certify` \| `audit` \| `shutdown` | one of those | required |
//! | `trace` | `[arrival, size]` pairs | finite, arrivals ≥ 0, sizes > 0 | required except `shutdown` |
//! | `policy` | policy name for `ratio` (`rr`, `srpt`, `laps:0.25`, …) | a registered id | `rr` |
//! | `m` | machine count | ≥ 1 | `1` |
//! | `speed` | policy speed | finite, > 0 | `2k(1+10ε)` for ratio/certify, `1` for audit |
//! | `k` | norm exponent | ≥ 1 | `2` |
//! | `eps` | Theorem 1 epsilon | finite, > 0 | `0.05` |
//!
//! Responses are `{"id": …, "ok": true, "result": …}` or
//! `{"id": …, "ok": false, "error": "…"}`. A field outside its valid
//! range gets an `ok: false` reply, and so does a request whose handler
//! panics (a `k` so large that an LP cost overflows, say): the panic is
//! caught, so the worker thread lives on. A `shutdown` request is
//! answered, then the server drains and [`serve`] returns. Each request
//! runs under a `serve/request` tracing span on its worker's track, so a
//! `TF_TRACE=jsonl` run yields one timed span per request.
//!
//! See docs/DISTRIBUTED.md for the full protocol description and a
//! worked client example.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use tf_harness::campaign::CampaignScope;
use tf_harness::ratio::{default_baselines, empirical_ratio_scoped};
use tf_policies::Policy;
use tf_simcore::Trace;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeCfg {
    /// Worker threads (= concurrently served connections).
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
    /// `ratio` | `certify` | `audit` | `shutdown`.
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

/// Evaluate one non-`shutdown` request. Public so the handlers are
/// testable without sockets. Fields outside their documented range are
/// errors; the serve loop additionally catches any panic left.
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
            "unknown kind {other:?} (want ratio, certify, audit, or shutdown)"
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

struct Shared {
    queue: Mutex<VecDeque<TcpStream>>,
    ready: Condvar,
    stop: AtomicBool,
}

/// Serve connections from `listener` until a `shutdown` request
/// arrives; returns after the worker pool drains. Connections are
/// handled whole-connection-per-worker: `cfg.threads` workers bound the
/// number of concurrently served clients, excess connections queue.
pub fn serve(listener: TcpListener, cfg: &ServeCfg) -> std::io::Result<()> {
    let local = listener.local_addr()?;
    let shared = Arc::new(Shared {
        queue: Mutex::new(VecDeque::new()),
        ready: Condvar::new(),
        stop: AtomicBool::new(false),
    });

    let workers: Vec<_> = (0..cfg.threads.max(1))
        .map(|i| {
            let shared = Arc::clone(&shared);
            let timeout = cfg.task_timeout;
            std::thread::spawn(move || worker_loop(i, &shared, timeout, local))
        })
        .collect();

    loop {
        let (conn, _) = listener.accept()?;
        if shared.stop.load(Ordering::SeqCst) {
            // The unblocking self-connection (or a straggler): drop it.
            break;
        }
        let mut q = shared.queue.lock().unwrap();
        q.push_back(conn);
        drop(q);
        shared.ready.notify_one();
    }

    shared.ready.notify_all();
    for w in workers {
        let _ = w.join();
    }
    Ok(())
}

fn worker_loop(
    index: usize,
    shared: &Shared,
    task_timeout: Option<Duration>,
    local: std::net::SocketAddr,
) {
    // Give each worker its own trace track so concurrent request spans
    // render side by side instead of nested.
    let _track = tf_obs::set_track(index as u32 + 1);
    loop {
        let conn = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if let Some(c) = q.pop_front() {
                    break c;
                }
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                q = shared.ready.wait(q).unwrap();
            }
        };
        if handle_connection(conn, shared, task_timeout) {
            // Shutdown seen: wake everyone and unblock the acceptor.
            shared.stop.store(true, Ordering::SeqCst);
            shared.ready.notify_all();
            let _ = TcpStream::connect(local);
        }
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
    }
}

/// Serve one connection to completion. Returns true iff a `shutdown`
/// request was received.
///
/// Reads run under a short timeout so a worker parked on an idle (but
/// still open) connection notices `stop` and lets [`serve`] drain —
/// otherwise one lingering client would block shutdown forever.
fn handle_connection(conn: TcpStream, shared: &Shared, task_timeout: Option<Duration>) -> bool {
    let mut writer = match conn.try_clone() {
        Ok(w) => w,
        Err(_) => return false,
    };
    let _ = conn.set_read_timeout(Some(Duration::from_millis(200)));
    let mut reader = BufReader::new(conn);
    let mut raw: Vec<u8> = Vec::new();
    loop {
        // A timed-out read leaves any partial line in `raw`; the next
        // iteration keeps appending to it.
        match reader.read_until(b'\n', &mut raw) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
            Err(_) => break,
        }
        let line = String::from_utf8_lossy(&raw).into_owned();
        raw.clear();
        if line.trim().is_empty() {
            continue;
        }
        let parsed: Result<Request, _> = serde_json::from_str(&line);
        let (id, outcome, shutdown) = match parsed {
            Err(e) => (0, Err(format!("bad request: {e}")), false),
            Ok(req) if req.kind == "shutdown" => {
                (req.id, Ok(serde::Value::Str("shutting down".into())), true)
            }
            Ok(req) => {
                let mut span = tf_obs::span!("serve", "request");
                span.arg("id", req.id as f64);
                // A panic must not end this worker: it would stop serving
                // for good, and the pool would shrink by one thread.
                let outcome =
                    panic::catch_unwind(AssertUnwindSafe(|| handle_request(&req, task_timeout)))
                        .unwrap_or_else(|payload| {
                            Err(format!("internal error: {}", panic_text(&*payload)))
                        });
                (req.id, outcome, false)
            }
        };
        let reply = response_line(id, outcome);
        if writer
            .write_all(reply.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| writer.flush())
            .is_err()
        {
            break;
        }
        if shutdown {
            return true;
        }
    }
    false
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
        assert!(handle_request(&req, None)
            .unwrap_err()
            .contains("unknown kind"));
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
}
