//! End-to-end tests of the real `tf-serve` binary: bind an ephemeral
//! port, hit it with 8 concurrent client connections, check every
//! response pairs with its request id, feed a one-worker server
//! out-of-range requests and a request line past the length cap, time
//! sequential round trips against the delayed-ACK floor, burst past the
//! admission cap and the process's file limit, stop a full server with a
//! `shutdown` past the cap, park an idle client on the only worker, read
//! the server's own `stats`, then shut the server down over the protocol
//! itself. Every read has a timeout, so a server that stops answering
//! fails a test instead of hanging it.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use tf_serve::MAX_REQUEST_BYTES;

/// How long a client waits for any one reply line.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

const BIN: &str = env!("CARGO_BIN_EXE_tf-serve");

const TRACE3: &str = r#""trace": [[0.0, 2.0], [0.0, 1.0], [1.0, 1.0]]"#;

struct Server {
    child: Child,
    addr: String,
}

impl Server {
    fn spawn(threads: usize) -> Server {
        Server::start(Command::new(BIN), threads)
    }

    /// A server whose process may hold at most `nofile` open files.
    fn spawn_with_fd_limit(threads: usize, nofile: u32) -> Server {
        let mut sh = Command::new("sh");
        sh.args([
            "-c",
            &format!(r#"ulimit -n {nofile} && exec "$0" "$@""#),
            BIN,
        ]);
        Server::start(sh, threads)
    }

    fn start(mut cmd: Command, threads: usize) -> Server {
        let mut child = cmd
            .args(["--addr", "127.0.0.1:0", "--threads", &threads.to_string()])
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn tf-serve");
        let stderr = child.stderr.take().expect("piped stderr");
        let mut line = String::new();
        BufReader::new(stderr)
            .read_line(&mut line)
            .expect("read listening line");
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected banner: {line:?}"))
            .to_string();
        Server { child, addr }
    }

    fn connect(&self) -> TcpStream {
        for _ in 0..50 {
            if let Ok(s) = TcpStream::connect(&self.addr) {
                s.set_read_timeout(Some(READ_TIMEOUT))
                    .expect("read timeout");
                return s;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("cannot connect to {}", self.addr);
    }

    fn shutdown(&mut self) {
        let reply = roundtrip_admitted(&self.addr, r#"{"id": 999, "kind": "shutdown"}"#);
        assert!(
            reply.contains("\"ok\":true") || reply.contains("shutting down"),
            "{reply}"
        );
        self.exits();
    }

    /// The server must actually exit after a `shutdown`, not just
    /// acknowledge it.
    fn exits(&mut self) {
        for _ in 0..200 {
            if let Some(status) = self.child.try_wait().expect("poll server") {
                assert!(status.success(), "server exited with {status}");
                return;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        let _ = self.child.kill();
        panic!("server did not exit after shutdown request");
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Send `request` and its newline in one write, read one reply line.
fn send(conn: &mut TcpStream, reader: &mut impl BufRead, request: &str) -> String {
    conn.write_all(format!("{request}\n").as_bytes())
        .expect("send");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("receive");
    reply
}

fn roundtrip(server_addr: &str, request: &str) -> String {
    let mut conn = TcpStream::connect(server_addr).expect("connect");
    conn.set_read_timeout(Some(READ_TIMEOUT))
        .expect("read timeout");
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    send(&mut conn, &mut reader, request)
}

/// [`roundtrip`] on a fresh connection, again while the server answers
/// `busy`: connections a test has just closed count against the
/// admission cap until a worker reads their end of stream. (A `stats`
/// reply names `busy_refused`, so only the refusal's error text counts.)
fn roundtrip_admitted(server_addr: &str, request: &str) -> String {
    for _ in 0..250 {
        let reply = roundtrip(server_addr, request);
        if !reply.contains(r#""error":"busy: "#) {
            return reply;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("still busy after 5 s: {request}");
}

/// One counter of a `stats` reply.
fn stat(reply: &str, name: &str) -> u64 {
    let v: serde::Value = serde_json::from_str(reply).unwrap_or_else(|e| panic!("{e}: {reply}"));
    v.get("result")
        .and_then(|r| r.get(name))
        .and_then(|n| serde::Deserialize::from_value(n).ok())
        .unwrap_or_else(|| panic!("no count {name} in {reply}"))
}

/// Eight concurrent connections, mixed request kinds; every response
/// must carry its own request's id and succeed.
#[test]
fn serves_eight_concurrent_requests() {
    let mut server = Server::spawn(8);
    let addr = server.addr.clone();

    let handles: Vec<_> = (0..8u64)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let kind = match i % 3 {
                    0 => "ratio",
                    1 => "certify",
                    _ => "audit",
                };
                let req = format!(
                    "{{\"id\": {i}, \"kind\": \"{kind}\", \
                     \"trace\": [[0.0, 2.0], [0.0, 1.0], [1.0, 1.0]], \"k\": 2}}"
                );
                (i, roundtrip(&addr, &req))
            })
        })
        .collect();

    for h in handles {
        let (i, reply) = h.join().expect("client thread");
        assert!(
            reply.contains(&format!("\"id\":{i}")) || reply.contains(&format!("\"id\": {i}")),
            "response lost its id: {reply}"
        );
        assert!(
            reply.contains("\"ok\":true") || reply.contains("\"ok\": true"),
            "request {i} failed: {reply}"
        );
    }

    server.shutdown();
}

/// Malformed lines and unknown kinds get error responses on the same
/// connection instead of killing it.
#[test]
fn malformed_requests_get_error_responses() {
    let mut server = Server::spawn(8);
    let mut conn = server.connect();
    conn.write_all(b"this is not json\n{\"id\": 5, \"kind\": \"bogus\"}\n")
        .expect("send");
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    let mut first = String::new();
    reader.read_line(&mut first).expect("first reply");
    assert!(
        first.contains("\"ok\":false") || first.contains("\"ok\": false"),
        "{first}"
    );
    let mut second = String::new();
    reader.read_line(&mut second).expect("second reply");
    assert!(second.contains("unknown kind"), "{second}");
    assert!(
        second.contains("\"id\":5") || second.contains("\"id\": 5"),
        "{second}"
    );
    drop(conn);
    server.shutdown();
}

/// Fields outside their valid range, and a `k` so large that an LP cost
/// overflows and the solver panics, each get an `ok: false` reply. The
/// server has one worker, so had any of these lines ended it, the
/// `certify` on the next connection would never be answered.
#[test]
fn out_of_range_fields_get_errors_and_the_worker_survives() {
    let mut server = Server::spawn(1);
    let trace = r#""trace": [[0.0, 2.0], [0.0, 1.0], [1.0, 1.0]]"#;
    let bad = [
        r#""kind": "ratio", "k": 0"#,
        r#""kind": "ratio", "m": 0"#,
        r#""kind": "audit", "k": 0"#,
        r#""kind": "audit", "m": 0"#,
        r#""kind": "certify", "eps": 0"#,
        r#""kind": "ratio", "eps": null"#, // parses as NaN
        r#""kind": "ratio", "speed": 0"#,
        r#""kind": "ratio", "speed": -1.5"#,
        r#""kind": "ratio", "speed": 1e999"#, // parses as +inf
        r#""kind": "ratio", "k": 1000"#,
        r#""kind": "audit", "k": 1000"#,
    ];
    let mut conn = server.connect();
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    for (i, fields) in bad.iter().enumerate() {
        writeln!(conn, "{{\"id\": {i}, {fields}, {trace}}}").expect("send");
        let mut reply = String::new();
        reader
            .read_line(&mut reply)
            .unwrap_or_else(|e| panic!("no reply to {{{fields}}}: {e}"));
        assert!(reply.contains(&format!("\"id\":{i},")), "{fields}: {reply}");
        assert!(reply.contains("\"ok\":false"), "{fields}: {reply}");
    }
    drop((reader, conn));

    let reply = roundtrip(
        &server.addr,
        &format!(r#"{{"id": 99, "kind": "certify", {trace}, "k": 2}}"#),
    );
    assert!(reply.contains("\"ok\":true"), "{reply}");
    server.shutdown();
}

/// A request line that never ends is refused once it passes the cap: the
/// one worker answers `ok: false` and closes the connection rather than
/// buffering without limit, then serves the next connection.
#[test]
fn overlong_request_line_is_refused_and_the_worker_survives() {
    let mut server = Server::spawn(1);
    let mut conn = server.connect();
    conn.write_all(&vec![b'x'; MAX_REQUEST_BYTES + 1])
        .expect("send");
    let mut reply = String::new();
    BufReader::new(conn)
        .read_line(&mut reply)
        .expect("reply to an overlong line");
    assert!(reply.contains("\"ok\":false"), "{reply}");
    assert!(reply.contains("exceeds"), "{reply}");

    let reply = roundtrip(
        &server.addr,
        r#"{"id": 7, "kind": "certify", "trace": [[0.0, 2.0], [0.0, 1.0]], "k": 2}"#,
    );
    assert!(reply.contains("\"ok\":true"), "{reply}");
    server.shutdown();
}

/// Sequential round trips on one connection take the handler's time, not
/// the client's delayed ACK: a reply written as the line and then its
/// newline sat ≈ 40 ms behind Nagle's algorithm (median 44 ms).
#[test]
fn sequential_round_trips_are_not_held_for_a_delayed_ack() {
    let mut server = Server::spawn(1);
    let mut conn = server.connect();
    conn.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    let mut ms: Vec<f64> = (0..20)
        .map(|i| {
            let t = Instant::now();
            let reply = send(
                &mut conn,
                &mut reader,
                &format!(r#"{{"id": {i}, "kind": "audit", {TRACE3}}}"#),
            );
            let elapsed = t.elapsed().as_secs_f64() * 1e3;
            assert!(reply.contains("\"ok\":true"), "{reply}");
            elapsed
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    let median = (ms[9] + ms[10]) / 2.0;
    assert!(median < 10.0, "median round trip {median:.2} ms: {ms:?}");
    drop((reader, conn));
    server.shutdown();
}

/// A connection past the cap (twice `--threads`) gets one `busy` line
/// and is closed, while the admitted connections stay open. That holds
/// for one that sends nothing and for one that sends a request.
#[test]
fn the_connection_past_the_cap_reads_busy() {
    let mut server = Server::spawn(1);
    let held = [server.connect(), server.connect()];
    for request in [None, Some(r#"{"id": 1, "kind": "stats"}"#)] {
        let mut conn = server.connect();
        if let Some(request) = request {
            conn.write_all(format!("{request}\n").as_bytes())
                .expect("send");
        }
        let mut reader = BufReader::new(conn);
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("busy reply");
        assert!(
            reply.starts_with(r#"{"id":0,"ok":false,"error":"busy: "#),
            "{request:?}: {reply}"
        );
        reply.clear();
        assert_eq!(reader.read_line(&mut reply).expect("end of stream"), 0);
    }
    drop(held);
    server.shutdown();
}

/// A refused client that sent requests before its refusal reads `busy`
/// and then the end of the stream, not a reset: the server reads what
/// the client sent before it closes the connection.
#[test]
fn a_refused_client_reads_busy_then_end_of_stream() {
    let mut server = Server::spawn(1);
    let held = [server.connect(), server.connect()];
    let pairs: Vec<String> = (0..400).map(|i| format!("[{i}.0, 1.0]")).collect();
    let certify = format!(
        r#"{{"id": 2, "kind": "certify", "trace": [{}]}}"#,
        pairs.join(", ")
    );
    let mut conn = server.connect();
    conn.write_all(format!("{{\"id\": 1, \"kind\": \"stats\"}}\n{certify}\n").as_bytes())
        .expect("send");
    let mut reader = BufReader::new(conn);
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("busy reply");
    assert!(
        reply.starts_with(r#"{"id":0,"ok":false,"error":"busy: "#),
        "{reply}"
    );
    reply.clear();
    let end = reader.read_line(&mut reply);
    assert_eq!(end.expect("end of stream, not an error"), 0, "{reply}");
    drop(held);
    server.shutdown();
}

/// Refusals happen off the accept path: ten silent loopback connections
/// past a full one-worker server wait for their first line side by side,
/// not one read poll after another, so a client behind them reads its
/// `busy` at once. That reply also shows the acceptor has met the whole
/// burst (it accepts in order), so the slot freed next goes to the next
/// client, whose request is answered well within a second.
#[test]
fn silent_connections_past_the_cap_do_not_hold_the_acceptor() {
    let mut server = Server::spawn(1);
    let [first, second] = [server.connect(), server.connect()];
    let silent: Vec<TcpStream> = (0..10).map(|_| server.connect()).collect();
    let certify = format!(r#"{{"id": 1, "kind": "certify", {TRACE3}, "k": 2}}"#);
    let start = Instant::now();
    let reply = roundtrip(&server.addr, &certify);
    assert!(reply.contains("busy"), "{reply}");
    drop(first);
    let reply = roundtrip_admitted(&server.addr, &certify);
    let took = start.elapsed();
    assert!(reply.contains(r#""id":1,"ok":true"#), "{reply}");
    assert!(took < Duration::from_secs(1), "answered after {took:?}");
    drop((second, silent));
    server.shutdown();
}

/// A loopback `shutdown` past the cap is answered and stops the server,
/// although idle clients hold every admitted connection.
#[test]
fn a_shutdown_past_the_cap_stops_the_server() {
    let mut server = Server::spawn(1);
    let held = [server.connect(), server.connect()];
    let mut conn = server.connect();
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    let reply = send(&mut conn, &mut reader, r#"{"id":9,"kind":"shutdown"}"#);
    assert!(reply.starts_with(r#"{"id":9,"ok":true"#), "{reply}");
    server.exits();
    drop(held);
}

/// A burst of held connections past the process's file limit neither
/// ends the server nor wedges it. One worker refuses the burst past its
/// cap; eight workers admit up to 16 and run out of descriptors first,
/// and the acceptor retries until the clients let go. Either way the
/// same server then certifies a trace and shuts down cleanly.
#[test]
fn a_burst_past_the_file_limit_leaves_the_server_serving() {
    for (threads, counter, least) in [(1, "busy_refused", 22), (8, "accept_errors", 1)] {
        let mut server = Server::spawn_with_fd_limit(threads, 16);
        let mut burst: Vec<TcpStream> = (0..24).map(|_| server.connect()).collect();
        // The first connection is admitted; ask it until the server has
        // met the whole burst.
        let mut first = burst.remove(0);
        let mut reader = BufReader::new(first.try_clone().expect("clone"));
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let reply = send(&mut first, &mut reader, r#"{"id": 1, "kind": "stats"}"#);
            if stat(&reply, counter) >= least {
                break;
            }
            assert!(Instant::now() < deadline, "threads {threads}: {reply}");
            std::thread::sleep(Duration::from_millis(20));
        }
        drop((burst, reader, first));

        let reply = roundtrip_admitted(
            &server.addr,
            &format!(r#"{{"id": 2, "kind": "certify", {TRACE3}, "k": 2}}"#),
        );
        assert!(reply.contains("\"ok\":true"), "threads {threads}: {reply}");
        server.shutdown();
    }
}

/// Workers are shared round robin: an idle client on the only worker
/// hands it to a waiting one after one read poll, and is requeued, not
/// closed, so its own later request is answered too.
#[test]
fn an_idle_client_does_not_pin_the_only_worker() {
    let mut server = Server::spawn(1);
    let mut idle = server.connect();
    let mut busy = server.connect();
    busy.set_read_timeout(Some(Duration::from_secs(2)))
        .expect("read timeout");
    let mut reader = BufReader::new(busy.try_clone().expect("clone"));
    let reply = send(
        &mut busy,
        &mut reader,
        &format!(r#"{{"id": 1, "kind": "certify", {TRACE3}, "k": 2}}"#),
    );
    assert!(reply.contains("\"ok\":true"), "{reply}");

    let mut reader = BufReader::new(idle.try_clone().expect("clone"));
    let reply = send(
        &mut idle,
        &mut reader,
        &format!(r#"{{"id": 2, "kind": "audit", {TRACE3}}}"#),
    );
    assert!(reply.contains("\"ok\":true"), "{reply}");
    drop((idle, busy, reader));
    server.shutdown();
}

/// `stats` counts every request but itself and `shutdown`, failures
/// included, and reads no request in flight once all are answered.
#[test]
fn stats_counts_requests_and_errors() {
    let mut server = Server::spawn(2);
    let mut conn = server.connect();
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    let requests = [
        format!(r#"{{"id": 1, "kind": "audit", {TRACE3}}}"#),
        "this is not json".to_string(),
        format!(r#"{{"id": 2, "kind": "certify", {TRACE3}}}"#),
        format!(r#"{{"id": 3, "kind": "ratio", "k": 0, {TRACE3}}}"#),
        format!(r#"{{"id": 4, "kind": "audit", {TRACE3}}}"#),
    ];
    for r in &requests {
        send(&mut conn, &mut reader, r);
    }
    let reply = send(&mut conn, &mut reader, r#"{"id": 5, "kind": "stats"}"#);
    assert!(reply.contains(r#""id":5,"ok":true"#), "{reply}");
    assert_eq!(stat(&reply, "requests"), 5, "{reply}");
    assert_eq!(stat(&reply, "errors"), 2, "{reply}");
    assert_eq!(stat(&reply, "in_flight"), 0, "{reply}");
    assert_eq!(stat(&reply, "open"), 1, "{reply}");
    assert!(reply.contains(r#""handle_ms":{"p50":"#), "{reply}");
    drop((reader, conn));
    server.shutdown();
}
