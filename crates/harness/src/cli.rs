//! Shared command-line parsing for the workspace binaries.
//!
//! `experiments`, `sweep`, `certify`, and `audit` each grew a hand-rolled
//! flag loop with the same six flags (`--campaign/--resume/
//! --task-timeout/--threads/--trace/--quick`) — quadruplicated logic
//! whose `parse().unwrap_or` details quietly diverged. [`parse`] owns the
//! common flags once, with a typed [`CliError`] instead of
//! inlined `usage()` jumps; flags a binary doesn't opt into (via
//! [`CliSpec`]) and anything bin-specific pass through in
//! [`CommonCli::rest`] for the binary's own loop. `tf-serve` and the
//! shard worker mode reuse the same module.

use std::path::PathBuf;
use std::time::Duration;

use crate::campaign::{CampaignCfg, ShardSpec};
use crate::experiments::Effort;
use crate::runctx::RunCtx;

/// A command-line error, rendered to stderr by the binaries (exit 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// A flag that requires a value was passed without one.
    Missing {
        /// The flag, e.g. `"--threads"`.
        flag: &'static str,
    },
    /// A flag's value did not parse or was out of range.
    Bad {
        /// The flag, e.g. `"--task-timeout"`.
        flag: &'static str,
        /// The offending value.
        value: String,
        /// What was expected, e.g. `"a positive number of seconds"`.
        want: &'static str,
    },
    /// Two flags (or a flag and a missing prerequisite) conflict.
    Conflict(String),
    /// The tracing sink could not be configured (`TF_TRACE`/`--trace`).
    Trace(String),
    /// `--help`/`-h`: the binary should print usage and exit 2.
    Help,
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Missing { flag } => write!(f, "{flag} requires a value"),
            CliError::Bad { flag, value, want } => {
                write!(f, "{flag}: bad value {value:?} (want {want})")
            }
            CliError::Conflict(msg) => f.write_str(msg),
            CliError::Trace(msg) => f.write_str(msg),
            CliError::Help => f.write_str("help requested"),
        }
    }
}

impl std::error::Error for CliError {}

/// Which optional flag groups a binary opts into. The always-on common
/// set is `--no-cache`, `--threads N`, `--trace PATH`, `--help`/`-h`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CliSpec {
    /// `--quick` (Effort::Quick).
    pub effort: bool,
    /// `--out DIR`.
    pub out: bool,
    /// `--campaign DIR`, `--resume`, `--task-timeout SECS`,
    /// `--no-dirsync`.
    pub campaign: bool,
    /// `--shard-workers N` (coordinator) and `--shard I/N` (worker).
    pub shard: bool,
}

/// Parsed common flags plus the passthrough remainder.
#[derive(Debug, Clone, Default)]
pub struct CommonCli {
    /// Effort (`--quick` flips to [`Effort::Quick`]).
    pub quick: bool,
    /// `--no-cache`.
    pub no_cache: bool,
    /// `--threads N`.
    pub threads: Option<usize>,
    /// `--trace PATH` (the sink format still comes from `TF_TRACE`).
    pub trace_path: Option<PathBuf>,
    /// `--out DIR`.
    pub out_dir: Option<PathBuf>,
    /// `--campaign DIR`.
    pub campaign_dir: Option<PathBuf>,
    /// `--resume`.
    pub resume: bool,
    /// `--task-timeout SECS` (validated finite and positive).
    pub task_timeout: Option<f64>,
    /// `--no-dirsync`.
    pub no_dirsync: bool,
    /// `--shard-workers N`: run as the sharding coordinator.
    pub shard_workers: Option<usize>,
    /// `--shard I/N`: run as shard worker I of N (spawned by the
    /// coordinator; not meant for direct use).
    pub shard: Option<ShardSpec>,
    /// Everything not recognized above, in order: positionals and
    /// bin-specific flags for the caller's own loop.
    pub rest: Vec<String>,
}

/// Parse a flag's value with a typed error.
pub fn value<T: std::str::FromStr>(
    flag: &'static str,
    next: Option<String>,
    want: &'static str,
) -> Result<T, CliError> {
    let raw = next.ok_or(CliError::Missing { flag })?;
    raw.parse().map_err(|_| CliError::Bad {
        flag,
        value: raw,
        want,
    })
}

/// Parse the common flags out of `args` (everything after the program
/// name), passing unrecognized arguments through in [`CommonCli::rest`].
pub fn parse(spec: CliSpec, args: impl Iterator<Item = String>) -> Result<CommonCli, CliError> {
    let mut cli = CommonCli::default();
    let mut args = args;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--help" | "-h" => return Err(CliError::Help),
            "--no-cache" => cli.no_cache = true,
            "--threads" => cli.threads = Some(value("--threads", args.next(), "a thread count")?),
            "--trace" => {
                cli.trace_path = Some(PathBuf::from(
                    args.next().ok_or(CliError::Missing { flag: "--trace" })?,
                ))
            }
            "--quick" if spec.effort => cli.quick = true,
            "--out" if spec.out => {
                cli.out_dir = Some(PathBuf::from(
                    args.next().ok_or(CliError::Missing { flag: "--out" })?,
                ))
            }
            "--campaign" if spec.campaign => {
                cli.campaign_dir = Some(PathBuf::from(
                    args.next()
                        .ok_or(CliError::Missing { flag: "--campaign" })?,
                ))
            }
            "--resume" if spec.campaign => cli.resume = true,
            "--task-timeout" if spec.campaign => {
                let secs: f64 = value("--task-timeout", args.next(), "seconds")?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err(CliError::Bad {
                        flag: "--task-timeout",
                        value: secs.to_string(),
                        want: "a positive number of seconds",
                    });
                }
                cli.task_timeout = Some(secs);
            }
            "--no-dirsync" if spec.campaign => cli.no_dirsync = true,
            "--shard-workers" if spec.shard => {
                let n: usize = value("--shard-workers", args.next(), "a worker count")?;
                if n == 0 {
                    return Err(CliError::Bad {
                        flag: "--shard-workers",
                        value: "0".into(),
                        want: "at least 1 worker",
                    });
                }
                cli.shard_workers = Some(n);
            }
            "--shard" if spec.shard => {
                let raw = args.next().ok_or(CliError::Missing { flag: "--shard" })?;
                cli.shard = Some(ShardSpec::parse(&raw).ok_or(CliError::Bad {
                    flag: "--shard",
                    value: raw,
                    want: "I/N with I < N",
                })?);
            }
            _ => cli.rest.push(a),
        }
    }
    cli.validate(spec)?;
    Ok(cli)
}

impl CommonCli {
    fn validate(&self, spec: CliSpec) -> Result<(), CliError> {
        if spec.campaign && self.campaign_dir.is_none() {
            let dependents = [
                (self.resume, "--resume"),
                (self.task_timeout.is_some(), "--task-timeout"),
                (self.no_dirsync, "--no-dirsync"),
                (self.shard_workers.is_some(), "--shard-workers"),
                (self.shard.is_some(), "--shard"),
            ];
            for (on, flag) in dependents {
                if on {
                    return Err(CliError::Conflict(format!(
                        "{flag} requires --campaign DIR"
                    )));
                }
            }
        }
        if self.shard_workers.is_some() && self.shard.is_some() {
            return Err(CliError::Conflict(
                "--shard-workers (coordinator) and --shard (worker) are mutually exclusive".into(),
            ));
        }
        Ok(())
    }

    /// The configured effort.
    pub fn effort(&self) -> Effort {
        if self.quick {
            Effort::Quick
        } else {
            Effort::Full
        }
    }

    /// Build the campaign config (worker `--shard` included; the
    /// coordinator's `--shard-workers` stays at the bin level).
    pub fn campaign_cfg(&self) -> Option<CampaignCfg> {
        let dir = self.campaign_dir.as_ref()?;
        let mut cfg = CampaignCfg::new(dir)
            .resume(self.resume)
            .no_dirsync(self.no_dirsync);
        if let Some(secs) = self.task_timeout {
            cfg = cfg.task_timeout(Duration::from_secs_f64(secs));
        }
        if let Some(spec) = self.shard {
            cfg = cfg.shard(spec);
        }
        Some(cfg)
    }

    /// Build the (unapplied) [`RunCtx`]: effort, cache, threads, out
    /// dir, the `TF_TRACE`-selected tracing sink with `trace_stem` as
    /// its default file stem, and the campaign config.
    pub fn run_ctx(&self, trace_stem: &str) -> Result<RunCtx, CliError> {
        let mut ctx = RunCtx::with_effort(self.effort());
        ctx.cache = !self.no_cache;
        ctx.threads = self.threads;
        ctx.out_dir = self.out_dir.clone();
        ctx.trace = tf_obs::SinkSpec::from_env(self.trace_path.clone(), trace_stem)
            .map_err(CliError::Trace)?;
        ctx.campaign = self.campaign_cfg();
        Ok(ctx)
    }

    /// [`CommonCli::run_ctx`], applied: a bad tracing setup or an
    /// unopenable campaign directory is reported on stderr and ends the
    /// process with status 2, like any other flag error.
    pub fn applied_run_ctx(&self, trace_stem: &str) -> RunCtx {
        let mut ctx = self.run_ctx(trace_stem).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        });
        if let Err(e) = ctx.apply() {
            eprintln!("cannot open campaign directory: {e}");
            std::process::exit(2);
        }
        ctx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> impl Iterator<Item = String> {
        s.iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    const FULL: CliSpec = CliSpec {
        effort: true,
        out: true,
        campaign: true,
        shard: true,
    };

    #[test]
    fn common_flags_parse_and_rest_passes_through() {
        let cli = parse(
            FULL,
            argv(&[
                "e1",
                "--quick",
                "--format",
                "csv",
                "--threads",
                "2",
                "--campaign",
                "/tmp/c",
                "--resume",
            ]),
        )
        .unwrap();
        assert_eq!(cli.effort(), Effort::Quick);
        assert_eq!(cli.threads, Some(2));
        assert!(cli.resume);
        assert_eq!(
            cli.campaign_dir.as_deref(),
            Some(std::path::Path::new("/tmp/c"))
        );
        assert_eq!(cli.rest, ["e1", "--format", "csv"]);
        let cfg = cli.campaign_cfg().unwrap();
        assert!(cfg.resume);
        assert!(cfg.shard.is_none());
    }

    #[test]
    fn campaign_dependents_require_campaign_dir() {
        for flags in [
            &["--resume"][..],
            &["--task-timeout", "5"][..],
            &["--no-dirsync"][..],
            &["--shard-workers", "4"][..],
            &["--shard", "0/4"][..],
        ] {
            let err = parse(FULL, argv(flags)).unwrap_err();
            match err {
                CliError::Conflict(msg) => {
                    assert!(msg.contains("--campaign"), "{msg}")
                }
                other => panic!("expected Conflict, got {other:?}"),
            }
        }
    }

    #[test]
    fn coordinator_and_worker_flags_conflict() {
        let err = parse(
            FULL,
            argv(&[
                "--campaign",
                "/tmp/c",
                "--shard-workers",
                "4",
                "--shard",
                "0/4",
            ]),
        )
        .unwrap_err();
        assert!(matches!(err, CliError::Conflict(_)));
    }

    #[test]
    fn bad_values_are_typed_errors() {
        assert_eq!(
            parse(FULL, argv(&["--threads"])).unwrap_err(),
            CliError::Missing { flag: "--threads" }
        );
        assert!(matches!(
            parse(
                FULL,
                argv(&["--campaign", "/tmp/c", "--task-timeout", "-3"])
            )
            .unwrap_err(),
            CliError::Bad {
                flag: "--task-timeout",
                ..
            }
        ));
        assert!(matches!(
            parse(FULL, argv(&["--campaign", "/tmp/c", "--shard", "9/4"])).unwrap_err(),
            CliError::Bad {
                flag: "--shard",
                ..
            }
        ));
        assert_eq!(parse(FULL, argv(&["-h"])).unwrap_err(), CliError::Help);
    }

    #[test]
    fn flags_outside_the_spec_pass_through() {
        let cli = parse(CliSpec::default(), argv(&["--quick", "--out", "d"])).unwrap();
        assert_eq!(cli.rest, ["--quick", "--out", "d"]);
        assert_eq!(cli.effort(), Effort::Full);
    }

    #[test]
    fn worker_shard_lands_in_campaign_cfg() {
        let cli = parse(FULL, argv(&["--campaign", "/tmp/c", "--shard", "2/8"])).unwrap();
        let cfg = cli.campaign_cfg().unwrap();
        assert_eq!(cfg.shard, Some(ShardSpec { worker: 2, of: 8 }));
    }
}
