//! Content-addressed persistent cache for certified lower bounds.
//!
//! The LP component of the lower bound (min-cost flow over a time-indexed
//! network) dominates experiment wall-clock, and the experiment suite
//! re-evaluates the same seeded traces run after run. Since a bound is a
//! pure function of `(trace, m, k)` and the solver code, we memoize it on
//! disk under `results/cache/`, keyed by a content hash of the trace
//! bytes plus the parameters and a solver version. [`cached_lower_bound`]
//! is the one entry point: it takes the same [`LbRequest`] as
//! [`tf_lowerbound::lower_bound`] and caches unweighted
//! [`Method::Exact`] requests; every other request passes straight
//! through to the solver.
//!
//! Bump [`SOLVER_VERSION`] whenever `tf-lowerbound`'s numeric behaviour
//! changes; stale entries are then simply never looked up again.
//!
//! The cache is enabled by default. Disable per-process with
//! [`set_enabled`]`(false)` (the `--no-cache` flag in the harness bins).
//! All I/O errors degrade to a cache miss — the cache can never make a
//! run fail.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use tf_lowerbound::{lower_bound, LbOutcome, LbRequest, LowerBound, Method};
use tf_simcore::Trace;

/// Version tag mixed into every cache key. Bump when the lower-bound
/// solver's output could change for the same input.
///
/// v2: arena-based multi-unit MCMF solver with per-job horizon pruning
/// (same optima up to f64 rounding, but rounding may differ in the last
/// ulps, so old entries must not be reused).
///
/// v3: settled-region-restricted blocking flow plus the column-generation
/// solve path. Keys also carried a solve-method tag, so entries from
/// different solve paths never aliased.
///
/// v4: [`Method::Exact`] runs column generation above 80 jobs, which may
/// land a last ulp away from the old full-network solve; it is the one
/// cached method, so keys carry no method tag.
pub const SOLVER_VERSION: u32 = 4;

/// Whether `req` is cached: unweighted [`Method::Exact`] requests only.
/// The reference solver is an audit oracle and weighted bounds have a
/// different objective: neither is cached.
fn cacheable(req: &LbRequest) -> bool {
    !req.weighted && matches!(req.method, Method::Exact)
}

static ENABLED: AtomicBool = AtomicBool::new(true);
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);

/// Enable or disable the on-disk cache for this process.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// True iff lookups/stores are currently performed.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Directory the cache lives in, relative to the working directory —
/// `results/` is already the harness output root.
pub fn cache_dir() -> PathBuf {
    PathBuf::from("results").join("cache")
}

/// `(hits, misses)` tallied by [`cached_lower_bound`] since process
/// start (bypassed lookups — cache disabled, or an uncached request —
/// count as misses).
pub fn stats() -> (u64, u64) {
    (HITS.load(Ordering::Relaxed), MISSES.load(Ordering::Relaxed))
}

/// The cache tallies as a flat [`tf_obs::ObsRegistry`] under the `cache.`
/// namespace, mergeable with `sim.` and `mcmf.` registries.
pub fn registry() -> tf_obs::ObsRegistry {
    let (hits, misses) = stats();
    tf_obs::ObsRegistry::from_counters([
        ("cache.hits", hits as f64),
        ("cache.misses", misses as f64),
    ])
}

/// FNV-1a, 64-bit. Stable across platforms and Rust versions (unlike
/// `DefaultHasher`), which is what a persistent cache key needs.
fn fnv1a(bytes: impl IntoIterator<Item = u8>, seed: u64) -> u64 {
    let mut h = 0xcbf29ce484222325u64 ^ seed;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// 128-bit content key over the trace's job data and the bound
/// parameters.
fn key(trace: &Trace, m: usize, k: u32) -> String {
    let mut bytes: Vec<u8> = Vec::with_capacity(trace.len() * 24 + 32);
    for j in trace.jobs() {
        bytes.extend_from_slice(&j.arrival.to_bits().to_le_bytes());
        bytes.extend_from_slice(&j.size.to_bits().to_le_bytes());
        bytes.extend_from_slice(&j.weight.to_bits().to_le_bytes());
    }
    bytes.extend_from_slice(&(m as u64).to_le_bytes());
    bytes.extend_from_slice(&k.to_le_bytes());
    bytes.extend_from_slice(&SOLVER_VERSION.to_le_bytes());
    let lo = fnv1a(bytes.iter().copied(), 0);
    let hi = fnv1a(bytes.iter().copied(), 0x9e3779b97f4a7c15);
    format!("{hi:016x}{lo:016x}")
}

/// [`tf_lowerbound::lower_bound`] with on-disk memoization. Semantics are
/// identical to calling the solver directly; only wall-clock differs.
///
/// Hits are returned whatever the request's budget: a cached entry is
/// always the *full* bound, so it can only be better than a degraded
/// recompute. A degraded outcome — the LP abandoned, closed-form
/// fallback — is **not** stored: caching it would silently weaken later
/// unlimited runs that trust cache entries to be full bounds.
pub fn cached_lower_bound(trace: &Trace, req: &LbRequest) -> LbOutcome {
    if !(cacheable(req) && enabled()) {
        MISSES.fetch_add(1, Ordering::Relaxed);
        return lower_bound(trace, req);
    }
    let path = cache_dir().join(format!("lb-{}.json", key(trace, req.m, req.k)));
    if let Ok(text) = std::fs::read_to_string(&path) {
        if let Ok(bound) = serde_json::from_str::<LowerBound>(&text) {
            HITS.fetch_add(1, Ordering::Relaxed);
            tf_obs::instant!("cache", "hit");
            return LbOutcome {
                bound,
                degraded: false,
            };
        }
    }
    MISSES.fetch_add(1, Ordering::Relaxed);
    tf_obs::instant!("cache", "miss");
    let out = lower_bound(trace, req);
    if !out.degraded {
        store(&path, &out.bound);
    }
    out
}

/// Monotone discriminator for temp-file names: the pid alone is not
/// unique within a process, and two rayon workers computing the same key
/// concurrently would otherwise write the *same* temp path — one's
/// `rename` can then move the other's half-written file into place.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Write-to-temp + atomic rename. Each writer gets a private temp path
/// (pid + per-process counter), so concurrent writers of one key race
/// only on the final rename — and both rename complete, equal-bytes
/// files.
fn store(path: &std::path::Path, lb: &LowerBound) {
    if std::fs::create_dir_all(cache_dir()).is_err() {
        return;
    }
    let Ok(json) = serde_json::to_string(lb) else {
        return;
    };
    let tmp = path.with_extension(format!(
        "tmp{}-{}",
        std::process::id(),
        TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    if std::fs::write(&tmp, json).is_ok() && std::fs::rename(&tmp, path).is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tf_lowerbound::{lk_lower_bound, SolveBudget};

    fn trace() -> Trace {
        Trace::from_pairs([(0.0, 2.0), (1.0, 1.0), (1.0, 3.0)]).unwrap()
    }

    fn exact(m: usize, k: u32) -> LbRequest<'static> {
        LbRequest::new(m, k)
    }

    #[test]
    fn key_is_content_addressed() {
        let t = trace();
        assert_eq!(key(&t, 1, 2), key(&trace(), 1, 2));
        assert_ne!(key(&t, 1, 2), key(&t, 2, 2));
        assert_ne!(key(&t, 1, 2), key(&t, 1, 3));
        let other = Trace::from_pairs([(0.0, 2.0), (1.0, 1.0), (1.0, 3.5)]).unwrap();
        assert_ne!(key(&t, 1, 2), key(&other, 1, 2));
    }

    /// The key material is a persistent format: a change to this digest
    /// orphans every existing `results/cache/` entry.
    #[test]
    fn cache_key_bytes_are_pinned() {
        assert_eq!(key(&trace(), 2, 2), "084d024cf6523a4cfb111d6c5e4395c9");
    }

    /// Oracle and weighted bounds are never cached at all.
    #[test]
    fn only_unweighted_exact_requests_are_cached() {
        assert!(cacheable(&exact(2, 2)));
        let reference = LbRequest {
            method: Method::Reference,
            ..LbRequest::new(2, 2)
        };
        assert!(!cacheable(&reference));
        let weighted = LbRequest {
            weighted: true,
            ..LbRequest::new(2, 2)
        };
        assert!(!cacheable(&weighted));
    }

    #[test]
    fn cached_value_matches_solver() {
        // Run in a scratch cwd-independent way: just compare values; the
        // cache file (if written) holds exactly the solver's output.
        let t = trace().to_integral();
        let direct = lk_lower_bound(&t, 1, 2);
        let cached = cached_lower_bound(&t, &exact(1, 2));
        let warm = cached_lower_bound(&t, &exact(1, 2));
        assert_eq!(direct, cached.bound);
        assert_eq!(direct, warm.bound);
    }

    /// Serializes the tests that toggle the process-global `ENABLED`
    /// flag against the one that requires the cache to stay on.
    static ENABLED_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn disabled_cache_bypasses_disk() {
        let _guard = ENABLED_LOCK.lock().unwrap();
        set_enabled(false);
        let t = trace();
        assert!(!enabled());
        assert_eq!(
            cached_lower_bound(&t, &exact(1, 1)).bound,
            lk_lower_bound(&t, 1, 1)
        );
        set_enabled(true);
    }

    #[test]
    fn degraded_bounds_are_never_cached() {
        let _guard = ENABLED_LOCK.lock().unwrap();
        // A trace no other test uses, so this test owns its cache entry.
        let t = Trace::from_pairs([(0.0, 3.0), (1.0, 4.0), (2.0, 2.0), (5.0, 1.0)]).unwrap();
        let (m, k) = (1usize, 3u32);
        let path = cache_dir().join(format!("lb-{}.json", key(&t, m, k)));
        let _ = std::fs::remove_file(&path);

        let spent = SolveBudget::with_timeout(std::time::Duration::ZERO);
        let req = LbRequest {
            budget: &spent,
            ..exact(m, k)
        };
        let degraded = cached_lower_bound(&t, &req);
        assert!(degraded.degraded);
        assert!(
            !path.exists(),
            "a budget-degraded bound must not poison the cache"
        );

        // A later unlimited call computes and caches the full bound.
        let full = cached_lower_bound(&t, &exact(m, k));
        assert!(!full.degraded);
        assert!(full.bound.value >= degraded.bound.value);
        assert!(path.exists());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn concurrent_writers_never_tear_an_entry() {
        let _guard = ENABLED_LOCK.lock().unwrap();
        // A trace no other test uses, so this test owns its cache entry.
        let t = Trace::from_pairs([(0.0, 4.0), (1.0, 2.0), (3.0, 3.0), (3.0, 1.0), (6.0, 2.0)])
            .unwrap();
        let (m, k) = (2usize, 2u32);
        let path = cache_dir().join(format!("lb-{}.json", key(&t, m, k)));
        let expect = lk_lower_bound(&t, m, k);

        // Both threads start cold on the same key and race the full
        // miss → solve → store path, repeatedly.
        for round in 0..10 {
            let _ = std::fs::remove_file(&path);
            let barrier = std::sync::Barrier::new(2);
            let results: Vec<LowerBound> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..2)
                    .map(|_| {
                        let (t, barrier) = (&t, &barrier);
                        s.spawn(move || {
                            barrier.wait();
                            cached_lower_bound(t, &exact(m, k)).bound
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            for r in &results {
                assert_eq!(*r, expect, "round {round}");
            }
            // The entry on disk must be complete and correct — never a
            // torn mix of the two writers.
            let text = std::fs::read_to_string(&path).expect("entry written");
            let on_disk: LowerBound = serde_json::from_str(&text).expect("entry parses");
            assert_eq!(on_disk, expect, "round {round}");
        }
    }
}
