//! Property test for the sharding invariant the whole coordinator
//! design rests on: for ANY worker count and ANY per-worker task
//! visitation order, workers that claim tasks by lease alone compute
//! each task once, and replaying their journals yields a manifest
//! byte-identical to a single-process campaign over the same tasks.
//!
//! The workers here are in-process [`Campaign`] handles in worker mode
//! (the real binary wraps exactly this), which lets proptest drive many
//! orders cheaply; `tests/shard_kill.rs` covers the real spawned-process
//! path including SIGKILL.

use proptest::prelude::*;
use tf_harness::campaign::{Campaign, CampaignCfg, ShardSpec, TaskKey};

fn scratch(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("tf-shard-prop-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn task_key(i: usize) -> TaskKey {
    TaskKey::hashed("exp", format!("prop task {i}"))
}

/// The task itself: any pure function of the key.
fn value_of(i: usize) -> Vec<u64> {
    vec![i as u64, (i as u64).wrapping_mul(0x9E37_79B9), 42]
}

/// splitmix64-driven permutation, so each (seed, worker) pair visits
/// the tasks in its own order.
fn shuffled(n: usize, mut seed: u64) -> Vec<usize> {
    let mut next = move || {
        seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    order
}

fn run_single_process(dir: &std::path::Path, n: usize, run_key: &str) -> String {
    let c = Campaign::open(CampaignCfg::new(dir)).unwrap();
    for i in 0..n {
        let got = c.run_leaf(&task_key(i), || value_of(i), Vec::new);
        assert_eq!(got, value_of(i));
    }
    c.finish(run_key).unwrap();
    std::fs::read_to_string(dir.join("manifest.json")).unwrap()
}

fn worker(dir: &std::path::Path, w: usize, workers: usize) -> std::sync::Arc<Campaign> {
    let cfg = CampaignCfg::new(dir).shard(ShardSpec {
        worker: w,
        of: workers,
    });
    Campaign::open(cfg).unwrap()
}

/// The coordinator's final pass: resume from the workers' journals,
/// every task replaying.
fn final_pass(dir: &std::path::Path, n: usize, run_key: &str) -> String {
    let c = Campaign::open(CampaignCfg::new(dir).resume(true)).unwrap();
    for i in 0..n {
        let got: Vec<u64> = c.run_leaf(&task_key(i), || panic!("task {i} not journaled"), Vec::new);
        assert_eq!(got, value_of(i));
    }
    assert_eq!(c.stats().replays, n as u64);
    c.finish(run_key).unwrap();
    std::fs::read_to_string(dir.join("manifest.json")).unwrap()
}

/// Workers that each make one pass in their own order, interleaved one
/// task at a time.
fn run_sharded_in_process(
    dir: &std::path::Path,
    n: usize,
    workers: usize,
    seed: u64,
    run_key: &str,
) -> String {
    let pool: Vec<_> = (0..workers).map(|w| worker(dir, w, workers)).collect();
    let orders: Vec<Vec<usize>> = (0..workers)
        .map(|w| shuffled(n, seed ^ (w as u64).wrapping_mul(0xABCD)))
        .collect();
    for step in 0..n {
        for (c, order) in pool.iter().zip(&orders) {
            let i = order[step];
            c.run_leaf(&task_key(i), || value_of(i), Vec::new);
        }
    }
    let computed: u64 = pool.iter().map(|c| c.stats().computed).sum();
    assert_eq!(computed, n as u64, "each task computed exactly once");
    final_pass(dir, n, run_key)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any (task count, worker count, visitation order) triple replays
    /// to the single-process manifest, byte for byte.
    #[test]
    fn replayed_manifest_matches_single_process(
        n in 1usize..30,
        workers in 1usize..5,
        seed in any::<u64>(),
    ) {
        let tag = format!("n{n}-w{workers}-s{seed:016x}");
        let single = scratch(&format!("single-{tag}"));
        let sharded = scratch(&format!("sharded-{tag}"));
        let run_key = "shard-replay-prop";

        let a = run_single_process(&single, n, run_key);
        let b = run_sharded_in_process(&sharded, n, workers, seed, run_key);
        prop_assert_eq!(a, b, "manifests diverged for {}", tag);

        std::fs::remove_dir_all(&single).ok();
        std::fs::remove_dir_all(&sharded).ok();
    }
}

/// Workers racing from real threads (lease contention, not just
/// interleaved passes) still compute each task once and replay to the
/// single-process manifest.
#[test]
fn concurrent_workers_replay_identically() {
    let n = 40usize;
    let workers = 4usize;
    let run_key = "shard-replay-threads";

    let single = scratch("threads-single");
    let expected = run_single_process(&single, n, run_key);

    let dir = scratch("threads-sharded");
    let computed: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let dir = &dir;
                s.spawn(move || {
                    let c = worker(dir, w, workers);
                    for i in 0..n {
                        c.run_leaf(&task_key(i), || value_of(i), Vec::new);
                    }
                    c.stats().computed
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    assert_eq!(computed, n as u64, "each task computed exactly once");
    assert_eq!(expected, final_pass(&dir, n, run_key));

    std::fs::remove_dir_all(&single).ok();
    std::fs::remove_dir_all(&dir).ok();
}
