//! Grid-sweep CLI: evaluate policies across a JSON-declared grid.
//!
//! ```text
//! sweep <config.json> [--format text|md|csv] [--no-cache] [--threads N] [--trace PATH]
//!       [--campaign DIR] [--resume] [--task-timeout SECS]
//! ```
//!
//! Example config:
//! ```json
//! {
//!   "instances": [{"Poisson": {"n": 60, "rho": 0.9,
//!                   "sizes": {"Exponential": {"mean": 4.0}}, "seed": 7}}],
//!   "policies": ["rr", "srpt", "laps:0.25"],
//!   "speeds": [1.0, 2.2, 4.4],
//!   "ks": [1, 2],
//!   "ms": [1, 4]
//! }
//! ```
//!
//! Tracing follows `TF_TRACE` (`jsonl`/`chrome`; default output
//! `sweep.jsonl` / `sweep.trace.json`, overridable with `--trace`); when
//! on, a per-stage timing table is printed to stderr after the sweep.

use tf_harness::cli::{self, CliError, CliSpec};
use tf_harness::sweep::{run_sweep_scoped, SweepConfig};
use tf_harness::table::timing_table;

fn usage() -> ! {
    eprintln!(
        "usage: sweep <config.json> [--format text|md|csv] [--no-cache] [--threads N] [--trace PATH]\n\
         \x20            [--campaign DIR] [--resume] [--task-timeout SECS]"
    );
    std::process::exit(2);
}

fn main() {
    let spec = CliSpec {
        effort: false,
        out: false,
        campaign: true,
        shard: false,
    };
    let cli = cli::parse(spec, std::env::args().skip(1)).unwrap_or_else(|e| {
        if !matches!(e, CliError::Help) {
            eprintln!("{e}");
        }
        usage();
    });

    let mut path = None;
    let mut format = "text".to_string();
    let mut rest = cli.rest.iter();
    while let Some(a) = rest.next() {
        match a.as_str() {
            "--format" => format = rest.next().cloned().unwrap_or_else(|| usage()),
            other if other.starts_with('-') => usage(),
            other => path = Some(other.to_string()),
        }
    }

    let ctx = cli.applied_run_ctx("sweep");

    let Some(path) = path else { usage() };
    let json = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    });
    let cfg: SweepConfig = serde_json::from_str(&json).unwrap_or_else(|e| {
        eprintln!("bad config: {e}");
        std::process::exit(2);
    });
    let table = run_sweep_scoped(&ctx.scope(), &cfg).unwrap_or_else(|e| {
        eprintln!("sweep failed: {e}");
        std::process::exit(2);
    });
    let rendered = {
        let _span = tf_obs::span!("harness", "render_table");
        match format.as_str() {
            "text" => table.to_text(),
            "md" | "markdown" => table.to_markdown(),
            "csv" => table.to_csv(),
            _ => usage(),
        }
    };
    println!("{rendered}");
    ctx.finish_campaign(&format!("sweep:{path}"));
    if !ctx.trace.is_off() {
        if let Some(t) = timing_table() {
            eprintln!("{}", t.to_text());
        }
        match tf_obs::flush() {
            Ok(Some(p)) => eprintln!("trace written to {}", p.display()),
            Ok(None) => {}
            Err(e) => eprintln!("trace write failed: {e}"),
        }
    }
}
