//! [`RunCtx`] — one run context for the whole experiment pipeline.
//!
//! Effort, output directory, cache policy, worker-thread override, the
//! tracing sink, and the campaign used to be plumbed ad hoc: each binary
//! parsed its own flags and poked the relevant globals
//! (`lbcache::set_enabled`, `rayon::set_thread_override`) in its own
//! order. `RunCtx` gathers the knobs in one value that the binaries build
//! from their command lines (see [`crate::cli`]) and every experiment
//! receives by reference, so a new knob is one field plus one flag
//! instead of a cross-cutting edit.
//!
//! The campaign is **not** a process global: [`RunCtx::apply`] opens it
//! into a [`CampaignScope`] held by the context, and experiments reach it
//! through [`RunCtx::scope`]. Shard workers, `tf-serve` requests, and
//! unit tests can therefore each run under their own campaign (or none)
//! inside one process.

use std::path::PathBuf;
use std::sync::Arc;

use crate::campaign::{Campaign, CampaignCfg, CampaignScope};
use crate::experiments::Effort;
use tf_obs::SinkSpec;

/// Everything an experiment run needs to know beyond the experiment id.
///
/// Construct with [`RunCtx::quick`] / [`RunCtx::full`] (or
/// [`Default::default`], which is full effort) and chain the setters.
/// Call [`RunCtx::apply`] once, before running experiments, to push the
/// cache/thread/trace settings into the process globals they live in and
/// open the campaign (if configured) into this context's scope.
#[derive(Debug, Clone)]
pub struct RunCtx {
    /// Instance scale: quick (CI) or full (paper-scale tables).
    pub effort: Effort,
    /// Directory tables are written to (`None` = stdout only).
    pub out_dir: Option<PathBuf>,
    /// Whether the on-disk lower-bound cache may be read and written.
    pub cache: bool,
    /// Worker-thread override for the rayon fan-outs (`None` = default).
    pub threads: Option<usize>,
    /// Tracing sink for this run ([`SinkSpec::Off`] = no tracing).
    pub trace: SinkSpec,
    /// Crash-safe campaign journal (`--campaign DIR`); `None` = off.
    pub campaign: Option<CampaignCfg>,
    /// The opened campaign scope; [`CampaignScope::none`] until
    /// [`RunCtx::apply`] runs with a campaign configured.
    scope: CampaignScope,
}

impl Default for RunCtx {
    fn default() -> Self {
        RunCtx {
            effort: Effort::Full,
            out_dir: None,
            cache: true,
            threads: None,
            trace: SinkSpec::Off,
            campaign: None,
            scope: CampaignScope::none(),
        }
    }
}

/// Equality over the *configuration* fields only — the opened scope is
/// derived state (an `Arc` handle has no meaningful structural equality).
impl PartialEq for RunCtx {
    fn eq(&self, other: &Self) -> bool {
        self.effort == other.effort
            && self.out_dir == other.out_dir
            && self.cache == other.cache
            && self.threads == other.threads
            && self.trace == other.trace
            && self.campaign == other.campaign
    }
}

impl RunCtx {
    /// Quick-effort context with all other knobs at their defaults.
    pub fn quick() -> Self {
        RunCtx {
            effort: Effort::Quick,
            ..Default::default()
        }
    }

    /// Full-effort context with all other knobs at their defaults.
    pub fn full() -> Self {
        RunCtx::default()
    }

    /// Context with the given effort.
    pub fn with_effort(effort: Effort) -> Self {
        RunCtx {
            effort,
            ..Default::default()
        }
    }

    /// Set the output directory for rendered tables.
    pub fn out_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.out_dir = Some(dir.into());
        self
    }

    /// Disable the on-disk lower-bound cache for this run.
    pub fn no_cache(mut self) -> Self {
        self.cache = false;
        self
    }

    /// Override the rayon worker-thread count.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n);
        self
    }

    /// Set the tracing sink.
    pub fn trace(mut self, sink: SinkSpec) -> Self {
        self.trace = sink;
        self
    }

    /// Attach a crash-safe campaign journal (see [`crate::campaign`]).
    pub fn campaign(mut self, cfg: CampaignCfg) -> Self {
        self.campaign = Some(cfg);
        self
    }

    /// The campaign scope experiments run under. Cheap to clone;
    /// [`CampaignScope::none`] unless [`RunCtx::apply`] opened one.
    pub fn scope(&self) -> CampaignScope {
        self.scope.clone()
    }

    /// Push the context into the process globals it governs — the
    /// lower-bound cache gate, the rayon thread override, the tf-obs
    /// sink — and open the configured campaign (if any) into this
    /// context's [`CampaignScope`]. Call once before running
    /// experiments; the global settings stay in effect afterwards
    /// (tests that flip them back hold the serializing lock in
    /// `tests/determinism.rs`), while the campaign stays scoped to this
    /// context.
    ///
    /// # Errors
    /// Only campaign opening does I/O; every other knob is infallible.
    /// `Err` means the campaign directory or journal could not be
    /// opened.
    pub fn apply(&mut self) -> std::io::Result<()> {
        crate::lbcache::set_enabled(self.cache);
        if let Some(n) = self.threads {
            rayon::set_thread_override(n);
        }
        tf_obs::install(self.trace.clone());
        self.scope = match &self.campaign {
            Some(cfg) => CampaignScope::of(Campaign::open(cfg.clone())?),
            None => CampaignScope::none(),
        };
        Ok(())
    }

    /// The opened campaign handle, if [`RunCtx::apply`] opened one.
    pub fn campaign_handle(&self) -> Option<&Arc<Campaign>> {
        self.scope.campaign()
    }

    /// If a campaign is open, write its manifest under `run_key` and
    /// print the `campaign: … replayed, … computed, …` summary line on
    /// stderr (a failed manifest write is reported there instead).
    pub fn finish_campaign(&self, run_key: &str) {
        let Some(c) = self.campaign_handle() else {
            return;
        };
        match c.finish(run_key) {
            Ok(_) => {
                let s = c.stats();
                eprintln!(
                    "campaign: {} replayed, {} computed, {} attempts, {} degradations",
                    s.replays, s.computed, s.attempts, s.degradations
                );
            }
            Err(e) => eprintln!("campaign: manifest write failed: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_full_cached_untraced() {
        let ctx = RunCtx::default();
        assert_eq!(ctx.effort, Effort::Full);
        assert!(ctx.cache);
        assert!(ctx.out_dir.is_none());
        assert!(ctx.threads.is_none());
        assert!(ctx.trace.is_off());
        assert!(ctx.scope().campaign().is_none());
        assert!(ctx.scope().task_budget().is_unlimited());
    }

    #[test]
    fn builder_setters_compose() {
        let ctx = RunCtx::quick()
            .out_dir("results")
            .no_cache()
            .threads(2)
            .trace(SinkSpec::Collect);
        assert_eq!(ctx.effort, Effort::Quick);
        assert_eq!(
            ctx.out_dir.as_deref(),
            Some(std::path::Path::new("results"))
        );
        assert!(!ctx.cache);
        assert_eq!(ctx.threads, Some(2));
        assert_eq!(ctx.trace, SinkSpec::Collect);
    }

    #[test]
    fn apply_opens_the_campaign_into_the_scope() {
        let dir = std::env::temp_dir().join(format!("tf-runctx-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut ctx = RunCtx::quick().campaign(CampaignCfg::new(&dir));
        ctx.apply().unwrap();
        assert!(ctx.scope().campaign().is_some());
        assert!(ctx.campaign_handle().is_some());
        // Equality ignores the opened handle.
        let unapplied = RunCtx::quick().campaign(CampaignCfg::new(&dir));
        assert_eq!(ctx, unapplied);
        std::fs::remove_dir_all(&dir).ok();
    }
}
