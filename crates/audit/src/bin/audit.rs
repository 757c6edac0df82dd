//! `audit` — the fuzzing CLI: random traces × all policies × the whole
//! invariant catalogue, with delta-debugging shrinks of any failure.
//!
//! ```text
//! audit [--traces N] [--seed S] [--quick] [--no-metamorphic]
//!       [--k K] [--eps E] [--out DIR] [--no-cache] [--threads N] [--trace PATH]
//!       [--campaign DIR] [--resume] [--task-timeout SECS]
//!       [--shard-workers N]
//! ```
//!
//! Exit status is 0 iff no invariant was violated. Failures are shrunk
//! and written to `--out` (default `results/audit/`) as JSON records
//! that `tf-workload`'s trace loader can replay. Tracing follows the
//! same `TF_TRACE` conventions as the `experiments` bin, and so does
//! sharding: `--shard-workers N` spawns N worker copies of this binary
//! and replays their journals in-process for the final summary (see
//! docs/DISTRIBUTED.md).

use std::path::PathBuf;
use tf_audit::{run_fuzz_scoped, FuzzConfig};
use tf_harness::cli::{self, CliError, CliSpec};
use tf_harness::shard;
use tf_harness::RunCtx;

fn usage() -> ! {
    eprintln!(
        "usage: audit [--traces N] [--seed S] [--quick] [--no-metamorphic] [--k K] [--eps E]\n\
         \x20            [--out DIR] [--no-cache] [--threads N] [--trace PATH]\n\
         \x20            [--campaign DIR] [--resume] [--task-timeout SECS] [--shard-workers N]\n\
         Fuzzes random traces through every registered policy and the full\n\
         invariant catalogue (see docs/VALIDATION.md). Failing traces are\n\
         shrunk to minimal counterexamples and written to the output dir.\n\
         --traces N        instances to generate (default 1000)\n\
         --seed S          master seed (default 0xA5D17)\n\
         --quick           200 instances (CI smoke scale)\n\
         --no-metamorphic  skip the metamorphic suite\n\
         --k K             norm exponent for cross-layer checks (default 2)\n\
         --eps E           Theorem 1 epsilon (default 0.05)\n\
         --out DIR         counterexample directory (default results/audit)\n\
         --no-cache        bypass the on-disk lower-bound cache\n\
         --threads N       fix the worker-thread count\n\
         --trace PATH      write the TF_TRACE-selected trace format to PATH\n\
         --campaign DIR    journal clean fuzz chunks to DIR (crash-safe resume)\n\
         --resume          replay clean chunks from the campaign journal\n\
         --task-timeout S  per-chunk lower-bound budget in seconds\n\
         --shard-workers N fuzz across N worker processes (see docs/DISTRIBUTED.md)"
    );
    std::process::exit(2);
}

fn main() {
    // `--quick` and `--out` mean fuzzer things here (trace count and
    // counterexample dir), not harness things — parse them locally.
    let spec = CliSpec {
        effort: false,
        out: false,
        campaign: true,
        shard: true,
    };
    let cli = cli::parse(spec, std::env::args().skip(1)).unwrap_or_else(|e| {
        if !matches!(e, CliError::Help) {
            eprintln!("{e}");
        }
        usage();
    });

    let mut cfg = FuzzConfig::default();
    let mut rest = cli.rest.iter().cloned();
    while let Some(a) = rest.next() {
        let r = match a.as_str() {
            "--traces" => cli::value("--traces", rest.next(), "a count").map(|v| cfg.traces = v),
            "--seed" => cli::value("--seed", rest.next(), "a seed").map(|v| cfg.seed = v),
            "--quick" => {
                cfg.traces = 200;
                Ok(())
            }
            "--no-metamorphic" => {
                cfg.metamorphic = false;
                Ok(())
            }
            "--k" => cli::value("--k", rest.next(), "a norm index").map(|v| cfg.audit.k = v),
            "--eps" => cli::value("--eps", rest.next(), "an epsilon").map(|v| cfg.audit.eps = v),
            "--out" => match rest.next() {
                Some(d) => {
                    cfg.out_dir = Some(PathBuf::from(d));
                    Ok(())
                }
                None => Err(CliError::Missing { flag: "--out" }),
            },
            _ => {
                eprintln!("unknown argument: {a}");
                usage();
            }
        };
        if let Err(e) = r {
            eprintln!("{e}");
            usage();
        }
    }

    let ctx = match cli.shard_workers {
        Some(workers) => shard::run_coordinator(&cli, workers, "audit"),
        None => cli.applied_run_ctx("audit"),
    };
    if cli.shard.is_some() {
        // Worker mode: journal clean chunks only; the coordinator's final
        // replay owns the summary and the exit status.
        shard::run_worker(&ctx, |ctx| {
            run_fuzz_scoped(&ctx.scope(), &cfg);
        });
        return;
    }

    finish_and_report(&ctx, &cfg);
}

fn finish_and_report(ctx: &RunCtx, cfg: &FuzzConfig) -> ! {
    let summary = run_fuzz_scoped(&ctx.scope(), cfg);
    println!(
        "audit: {} traces, {} checks, {} violation(s)",
        summary.traces, summary.checks_run, summary.violations
    );
    for f in &summary.failures {
        let policy = f.policy.as_deref().unwrap_or("-");
        let dest = f
            .path
            .as_ref()
            .map(|p| p.display().to_string())
            .unwrap_or_else(|| "(not written)".into());
        println!(
            "  FAIL #{} {} [{}] shrunk {} -> {} jobs -> {}",
            f.index,
            f.check,
            policy,
            f.trace.len(),
            f.shrunk.len(),
            dest
        );
        println!("       {}", f.detail);
    }

    ctx.finish_campaign(&format!("audit:{}:{}", cfg.seed, cfg.traces));

    if !ctx.trace.is_off() {
        match tf_obs::flush() {
            Ok(Some(path)) => eprintln!("trace written to {}", path.display()),
            Ok(None) => {}
            Err(e) => eprintln!("trace write failed: {e}"),
        }
    }
    std::process::exit(if summary.ok() { 0 } else { 1 });
}
