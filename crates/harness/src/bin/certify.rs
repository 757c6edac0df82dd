//! Produce a Theorem 1 dual-fitting certificate for a trace file.
//!
//! ```text
//! certify <trace.json> [--m M] [--k K] [--eps E] [--speed S] [--pretty]
//!         [--threads N] [--trace PATH]
//! ```
//!
//! Reads a JSON trace (as written by `tf_workload::traceio::save_trace`),
//! runs RR at the prescribed speed `2k(1+10ε)` (or `--speed`), builds the
//! Section 3.2 dual variables, checks every inequality, and prints the
//! certificate as JSON on stdout. Exit code 0 iff certified.
//!
//! With `TF_TRACE` set (`jsonl`/`chrome`), the run is traced (default
//! path `certify.jsonl` / `certify.trace.json`, overridable with
//! `--trace`) and the merged counter registry — engine counters plus
//! min-cost-flow solver counters — is printed to stderr.

use tf_core::{verify_theorem1_at_speed, Certificate};
use tf_harness::cli::{self, CliError, CliSpec};
use tf_workload::traceio::load_trace;

fn usage() -> ! {
    eprintln!(
        "usage: certify <trace.json> [--m M] [--k K] [--eps E] [--speed S] [--pretty] [--threads N] [--trace PATH]"
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

    let mut path = None;
    let mut m = 1usize;
    let mut k = 2u32;
    let mut eps = 0.05f64;
    let mut speed: Option<f64> = None;
    let mut pretty = false;
    let mut rest = cli.rest.iter().cloned();
    while let Some(a) = rest.next() {
        let r = match a.as_str() {
            "--m" => cli::value("--m", rest.next(), "a machine count").map(|v| m = v),
            "--k" => cli::value("--k", rest.next(), "a norm index").map(|v| k = v),
            "--eps" => cli::value("--eps", rest.next(), "a positive epsilon").map(|v| eps = v),
            "--speed" => cli::value("--speed", rest.next(), "a speed").map(|v| speed = Some(v)),
            "--pretty" => {
                pretty = true;
                Ok(())
            }
            other if other.starts_with('-') => {
                eprintln!("unknown flag: {other}");
                usage();
            }
            other => {
                path = Some(other.to_string());
                Ok(())
            }
        };
        if let Err(e) = r {
            eprintln!("{e}");
            usage();
        }
    }

    let ctx = cli.applied_run_ctx("certify");

    let Some(path) = path else { usage() };
    let trace = match load_trace(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("failed to read trace {path}: {e}");
            std::process::exit(2);
        }
    };
    let speed = speed.unwrap_or_else(|| tf_core::eta(k, eps));
    let cert: Certificate = {
        let _span = tf_obs::span!("harness", "certify");
        match verify_theorem1_at_speed(&trace, m, k, eps, speed) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("simulation failed: {e}");
                std::process::exit(2);
            }
        }
    };
    eprintln!(
        "sim: {} steps ({} arrival, {} completion, {} review, {} adaptive), peak alive {}, {} segments, allocate {:.3} ms",
        cert.sim.steps(),
        cert.sim.arrival_steps,
        cert.sim.completion_steps,
        cert.sim.review_steps,
        cert.sim.adaptive_steps,
        cert.sim.peak_alive,
        cert.sim.segments_recorded,
        cert.sim.alloc_secs() * 1e3,
    );
    if !ctx.trace.is_off() {
        // One flat registry over every layer the run touched: engine
        // step/alloc counters, MCMF solver work, and lb-cache traffic.
        let mut reg = cert.sim.registry();
        reg.merge(&tf_lowerbound::last_solve_stats().registry());
        reg.merge(&tf_harness::lbcache::registry());
        for (key, value) in reg.iter() {
            eprintln!("counter {key} = {value}");
        }
        match tf_obs::flush() {
            Ok(Some(p)) => eprintln!("trace written to {}", p.display()),
            Ok(None) => {}
            Err(e) => eprintln!("trace write failed: {e}"),
        }
    }
    let json = if pretty {
        serde_json::to_string_pretty(&cert)
    } else {
        serde_json::to_string(&cert)
    }
    .expect("certificate serializes");
    println!("{json}");
    std::process::exit(if cert.certified() { 0 } else { 1 });
}
