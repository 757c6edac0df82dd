//! CLI entry point: run experiments and print/persist their tables.
//!
//! ```text
//! experiments [e1 e2 ... | all] [--quick] [--no-cache] [--format text|md|csv]
//!             [--out DIR] [--threads N] [--trace PATH]
//!             [--campaign DIR] [--resume] [--task-timeout SECS]
//!             [--shard-workers N]
//! ```
//!
//! Tracing is controlled by the `TF_TRACE` environment variable (`off`,
//! `jsonl`, `chrome`); `--trace PATH` overrides the default output path
//! (`experiments.jsonl` / `experiments.trace.json`). When tracing is on, a per-stage
//! timing table is printed after the experiment tables and the trace file
//! is written on exit.
//!
//! `--shard-workers N` runs the campaign sharded: the process becomes a
//! coordinator that spawns N copies of itself (each with a hidden
//! `--shard I/N` flag), then replays their per-worker journals
//! in-process to render tables and write the manifest — byte-identical
//! to a single-process run. See docs/DISTRIBUTED.md.

use std::io::Write;
use tf_harness::cli::{self, CliError, CliSpec};
use tf_harness::experiments::{all_ids, family_ids, run_experiment_ctx};
use tf_harness::shard;
use tf_harness::table::timing_table;
use tf_harness::{RunCtx, Table};

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Text,
    Markdown,
    Csv,
}

fn usage() -> ! {
    let ids = all_ids();
    eprintln!(
        "usage: experiments [{first} {second} ... | all | {families}] [--quick] [--no-cache] [--format text|md|csv] [--out DIR] [--threads N] [--trace PATH]\n\
         \x20                  [--campaign DIR] [--resume] [--task-timeout SECS] [--shard-workers N]\n\
         Runs the {first}-{last} experiment suite (see DESIGN.md) and prints the tables.\n\
         Named families ({families}) run only when requested: `stream` pushes 10^7 jobs\n\
         through the bounded-memory open-workload engine and writes BENCH_4.json\n\
         (scale overrides: TF_STREAM_N / TF_STREAM_RHO, comma-separated).\n\
         --no-cache         recompute lower bounds instead of reading results/cache/\n\
         --threads N        fix the worker-thread count (default: one per core)\n\
         --trace PATH       write the TF_TRACE-selected trace format to PATH\n\
         --campaign DIR     journal completed tasks to DIR (crash-safe; see docs/ROBUSTNESS.md)\n\
         --resume           replay completed tasks from the campaign journal\n\
         --task-timeout S   per-task lower-bound budget in seconds (degrades to closed-form)\n\
         --shard-workers N  run the campaign across N worker processes (see docs/DISTRIBUTED.md)",
        first = ids.first().unwrap_or(&"e1"),
        second = ids.get(1).unwrap_or(&"e2"),
        last = ids.last().unwrap_or(&"e1"),
        families = family_ids().join(" "),
    );
    std::process::exit(2);
}

fn main() {
    let spec = CliSpec {
        effort: true,
        out: true,
        campaign: true,
        shard: true,
    };
    let cli = cli::parse(spec, std::env::args().skip(1)).unwrap_or_else(|e| {
        if !matches!(e, CliError::Help) {
            eprintln!("{e}");
        }
        usage();
    });

    let mut ids: Vec<String> = Vec::new();
    let mut format = Format::Text;
    let mut rest = cli.rest.iter();
    while let Some(a) = rest.next() {
        match a.as_str() {
            "--format" => {
                format = match rest.next().map(String::as_str) {
                    Some("text") => Format::Text,
                    Some("md") | Some("markdown") => Format::Markdown,
                    Some("csv") => Format::Csv,
                    _ => usage(),
                }
            }
            other if other.starts_with('-') => usage(),
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() || ids.iter().any(|i| i == "all") {
        ids = all_ids().into_iter().map(String::from).collect();
    }

    let ctx = match cli.shard_workers {
        Some(workers) => shard::run_coordinator(&cli, workers, "experiments"),
        None => cli.applied_run_ctx("experiments"),
    };
    if cli.shard.is_some() {
        // Worker mode: journal leaf tasks only; the coordinator renders.
        shard::run_worker(&ctx, |ctx| {
            for id in &ids {
                if run_experiment_ctx(id, ctx).is_none() {
                    eprintln!("unknown experiment: {id}");
                    std::process::exit(2);
                }
            }
        });
        return;
    }

    render_and_finish(&ctx, &ids, format);
}

fn render_and_finish(ctx: &RunCtx, ids: &[String], format: Format) {
    if let Some(dir) = &ctx.out_dir {
        std::fs::create_dir_all(dir).expect("create output directory");
    }

    for id in ids {
        let Some(tables) = run_experiment_ctx(id, ctx) else {
            eprintln!(
                "unknown experiment: {id} (known: {}, {})",
                all_ids().join(", "),
                family_ids().join(", ")
            );
            std::process::exit(2);
        };
        for (i, t) in tables.iter().enumerate() {
            let rendered = {
                let _span = tf_obs::span!("harness", "render_table");
                render(t, format)
            };
            println!("{rendered}");
            if let Some(dir) = &ctx.out_dir {
                let ext = match format {
                    Format::Text => "txt",
                    Format::Markdown => "md",
                    Format::Csv => "csv",
                };
                let path = dir.join(format!("{id}_{i}.{ext}"));
                let mut f = std::fs::File::create(&path).expect("create table file");
                f.write_all(rendered.as_bytes()).expect("write table file");
            }
        }
    }

    ctx.finish_campaign(&format!("experiments:{}:{:?}", ids.join(","), ctx.effort));

    if !ctx.trace.is_off() {
        if let Some(t) = timing_table() {
            eprintln!("{}", t.to_text());
        }
        match tf_obs::flush() {
            Ok(Some(path)) => eprintln!("trace written to {}", path.display()),
            Ok(None) => {}
            Err(e) => eprintln!("trace write failed: {e}"),
        }
    }
}

fn render(t: &Table, f: Format) -> String {
    match f {
        Format::Text => t.to_text(),
        Format::Markdown => t.to_markdown(),
        Format::Csv => t.to_csv(),
    }
}
