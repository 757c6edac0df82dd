//! End-to-end tests of the real `tf-serve` binary: bind an ephemeral
//! port, hit it with 8 concurrent client connections, check every
//! response pairs with its request id, feed a one-worker server
//! out-of-range requests, then shut the server down over the protocol
//! itself. Every read has a timeout, so a server that stops answering
//! fails a test instead of hanging it.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// How long a client waits for any one reply line.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

struct Server {
    child: Child,
    addr: String,
}

impl Server {
    fn spawn(threads: usize) -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_tf-serve"))
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
        let mut conn = self.connect();
        conn.write_all(b"{\"id\": 999, \"kind\": \"shutdown\"}\n")
            .expect("send shutdown");
        let mut reply = String::new();
        BufReader::new(conn).read_line(&mut reply).expect("ack");
        assert!(
            reply.contains("\"ok\":true") || reply.contains("shutting down"),
            "{reply}"
        );
        // The server must actually exit, not just acknowledge.
        for _ in 0..200 {
            if self.child.try_wait().expect("poll server").is_some() {
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

fn roundtrip(server_addr: &str, request: &str) -> String {
    let mut conn = TcpStream::connect(server_addr).expect("connect");
    conn.set_read_timeout(Some(READ_TIMEOUT))
        .expect("read timeout");
    conn.write_all(request.as_bytes()).expect("send");
    conn.write_all(b"\n").expect("send newline");
    let mut reply = String::new();
    BufReader::new(conn).read_line(&mut reply).expect("receive");
    reply
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
