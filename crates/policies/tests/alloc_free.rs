//! The allocation contract: after one warm-up pass, no registry policy's
//! `allocate` or `review_in` touches the heap.
//!
//! The engine calls `allocate` on every event, and `review_in` after it,
//! so a policy that allocates per call pays a `malloc`/`free` pair per
//! event. Each policy keeps its scratch (index buffers, weights, levels,
//! the rates `review_in` recomputes) in its own fields, sized by the
//! largest alive set it has seen. This test runs every policy of
//! [`Policy::all`] at m ∈ {1, 2} over the same 200 alive sets twice and
//! counts, under a counting global allocator, the allocations the second
//! pass makes: there must be none.
//!
//! The harness runs tests on parallel threads, so the count is kept per
//! thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tf_policies::Policy;
use tf_simcore::{AliveJob, MachineConfig, RateAllocator};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: every method forwards to `System` unchanged; the counter is a
// const-initialised thread-local `Cell` without a destructor, so touching
// it never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Largest alive set in [`snapshots`].
const MAX_ALIVE: usize = 9;

/// 200 `(now, alive)` pairs as the engine hands them over: 1–9 jobs
/// sorted by `(arrival, seq)`, weights from {1, 2, 4, 8} (so WRR takes
/// both its equal-weight path and the water-fill, and at m = 2 a heavy
/// job's share often hits its cap), and attained service drawn from a
/// few values, so SETF and MLFQ see tied groups and distinct levels.
fn snapshots() -> Vec<(f64, Vec<AliveJob>)> {
    let mut rng = StdRng::seed_from_u64(0xA110C);
    (0..200)
        .map(|_| {
            let n = rng.gen_range(1..=MAX_ALIVE);
            let mut arrival = 0.0;
            let alive: Vec<AliveJob> = (0..n)
                .map(|i| {
                    arrival += rng.gen_range(0.0..3.0);
                    let size = rng.gen_range(0.5..12.0);
                    let attained = [0.0, 0.25, 1.0, 2.5][rng.gen_range(0..4usize)] * size / 12.0;
                    AliveJob {
                        id: i as u32,
                        arrival,
                        size,
                        weight: [1.0, 2.0, 4.0, 8.0][rng.gen_range(0..4usize)],
                        remaining: size - attained,
                        attained,
                        seq: i as u32,
                    }
                })
                .collect();
            (arrival + rng.gen_range(0.0..5.0), alive)
        })
        .collect()
}

/// One pass over `snaps`: the allocations made inside `allocate` and
/// inside `review_in`.
fn pass(
    alloc: &mut dyn RateAllocator,
    snaps: &[(f64, Vec<AliveJob>)],
    cfg: &MachineConfig,
    rates: &mut Vec<f64>,
) -> (u64, u64) {
    let (mut in_allocate, mut in_review) = (0, 0);
    for (now, alive) in snaps {
        rates.clear();
        rates.resize(alive.len(), 0.0);
        let before = allocs();
        alloc.allocate(*now, alive, cfg, rates);
        let mid = allocs();
        std::hint::black_box(alloc.review_in(*now, alive, cfg));
        let after = allocs();
        in_allocate += mid - before;
        in_review += after - mid;
    }
    (in_allocate, in_review)
}

#[test]
fn no_policy_touches_the_heap_after_warm_up() {
    let snaps = snapshots();
    let mut rates = Vec::with_capacity(MAX_ALIVE);
    let mut failures = Vec::new();
    for m in [1, 2] {
        let cfg = MachineConfig::new(m);
        for policy in Policy::all() {
            let mut alloc = policy.make();
            pass(alloc.as_mut(), &snaps, &cfg, &mut rates);
            let (a, r) = pass(alloc.as_mut(), &snaps, &cfg, &mut rates);
            if a + r > 0 {
                failures.push(format!(
                    "{policy} at m = {m}: {a} allocations in allocate, {r} in review_in"
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} calls each after warm-up:\n{}",
        snaps.len(),
        failures.join("\n")
    );
}
