//! `tf-serve` — serve the analysis pipeline over TCP/JSON-lines.
//!
//! ```text
//! tf-serve [--addr HOST:PORT] [--task-timeout SECS] [--no-cache]
//!          [--threads N] [--trace PATH]
//! ```
//!
//! Binds the address (default `127.0.0.1:7878`; port `0` picks a free
//! port), prints `listening on HOST:PORT` to stderr, and serves until a
//! loopback peer sends `shutdown`. `--threads` sizes the connection
//! worker pool (default 8); twice that many connections may be open at
//! once. With `TF_TRACE` set, every request is traced as a
//! `serve/request` span and the trace file is written on shutdown.
//! Protocol: see the `tf_serve` crate docs and docs/DISTRIBUTED.md.

use std::net::TcpListener;
use std::time::Duration;
use tf_harness::cli::{self, CliError, CliSpec};
use tf_serve::{serve, ServeCfg};

fn usage() -> ! {
    eprintln!(
        "usage: tf-serve [--addr HOST:PORT] [--task-timeout SECS] [--no-cache] [--threads N] [--trace PATH]\n\
         Serves ratio / certify / audit requests over TCP, one JSON object per line.\n\
         --addr HOST:PORT   bind address (default 127.0.0.1:7878; port 0 = ephemeral)\n\
         --task-timeout S   per-request lower-bound budget in seconds\n\
         --no-cache         bypass the on-disk lower-bound cache\n\
         --threads N        connection worker pool size (default 8)\n\
         --trace PATH       write the TF_TRACE-selected trace format to PATH"
    );
    std::process::exit(2);
}

fn main() {
    let cli = cli::parse(CliSpec::default(), std::env::args().skip(1)).unwrap_or_else(|e| {
        if !matches!(e, CliError::Help) {
            eprintln!("{e}");
        }
        usage();
    });

    let mut addr = "127.0.0.1:7878".to_string();
    let mut task_timeout: Option<Duration> = None;
    let mut rest = cli.rest.iter().cloned();
    while let Some(a) = rest.next() {
        match a.as_str() {
            "--addr" => addr = rest.next().unwrap_or_else(|| usage()),
            "--task-timeout" => {
                let secs: f64 = match cli::value("--task-timeout", rest.next(), "seconds") {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("{e}");
                        usage();
                    }
                };
                if !secs.is_finite() || secs <= 0.0 {
                    eprintln!("--task-timeout: want a positive number of seconds");
                    usage();
                }
                task_timeout = Some(Duration::from_secs_f64(secs));
            }
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
    }

    let ctx = cli.applied_run_ctx("serve");

    let listener = TcpListener::bind(&addr).unwrap_or_else(|e| {
        eprintln!("cannot bind {addr}: {e}");
        std::process::exit(2);
    });
    let local = listener.local_addr().expect("bound socket has an address");
    // The one line clients (and the smoke test) scrape for the port.
    eprintln!("listening on {local}");

    let cfg = ServeCfg {
        threads: cli.threads.unwrap_or(8),
        task_timeout,
    };
    if let Err(e) = serve(listener, &cfg) {
        eprintln!("serve failed: {e}");
        std::process::exit(1);
    }
    if !ctx.trace.is_off() {
        match tf_obs::flush() {
            Ok(Some(p)) => eprintln!("trace written to {}", p.display()),
            Ok(None) => {}
            Err(e) => eprintln!("trace write failed: {e}"),
        }
    }
}
