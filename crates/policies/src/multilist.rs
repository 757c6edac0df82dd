//! Multi-list dispatch: largest job to the least-loaded list
//! \[arXiv 2001.07061\].
//!
//! A non-migratory policy for `m ≥ 2` machines: every arriving job is
//! irrevocably appended to one of `m` FIFO lists, and each machine serves
//! its own list in append order at full speed. Simultaneously-arriving
//! jobs are placed **largest first**, each onto the currently
//! **least-loaded** list (total remaining work, ties to the lowest index)
//! — the greedy volume rule that is 2-competitive for makespan-style
//! objectives and the natural immediate-dispatch baseline for flow-time
//! frontiers.
//!
//! The policy is a stateful [`RateAllocator`], so the ordinary batch and
//! streaming engines, ratio tables, hunts, and audits all apply
//! unchanged. The audit oracles `P-ML-LARGEST` and `P-ML-LEASTLOAD` check
//! its service shape and replay its routing.
//!
//! ```
//! use tf_policies::Policy;
//! use tf_simcore::{simulate, MachineConfig, SimOptions, Trace};
//!
//! let trace = Trace::from_pairs([(0.0, 4.0), (0.0, 1.0), (0.0, 1.0)]).unwrap();
//! let mut ml = "ml".parse::<Policy>().unwrap().make();
//! let s = simulate(&trace, ml.as_mut(), MachineConfig::new(2), SimOptions::default()).unwrap();
//! // Largest-first: the size-4 job claims list 0, both unit jobs share
//! // list 1 back-to-back.
//! assert!((s.completion[0] - 4.0).abs() < 1e-9);
//! assert!((s.completion[1] - 1.0).abs() < 1e-9);
//! assert!((s.completion[2] - 2.0).abs() < 1e-9);
//! ```

use std::collections::BTreeMap;
use tf_simcore::{AliveJob, MachineConfig, RateAllocator};

/// Largest-job / least-loaded multi-list dispatcher as a rate allocator.
///
/// State: a persistent map `job id → (list, position)` recording every
/// routing decision. Decisions are made the first time a job is observed
/// alive (its arrival instant, on both engines) and never revisited, so
/// the policy is genuinely immediate-dispatch and non-migratory. Entries
/// of completed jobs are pruned each call, keeping memory proportional to
/// the alive set on the streaming path.
///
/// Service: machine `k` runs the earliest-placed alive job of list `k` at
/// full speed — per-list FCFS. Machines with an empty list idle even if
/// other lists are backlogged (non-migratory by construction).
///
/// Clairvoyant (routing reads sizes); deterministic: ties in size break
/// by trace order, ties in load break by list index.
#[derive(Debug, Default, Clone)]
pub struct MultiList {
    /// job id → (list index, placement rank).
    placed: BTreeMap<u32, (usize, u64)>,
    next_rank: u64,
    // scratch
    alive_ids: Vec<u32>,
    load: Vec<f64>,
    batch: Vec<usize>,
    heads: Vec<Option<(u64, usize)>>,
}

impl MultiList {
    /// A fresh dispatcher with empty lists.
    pub fn new() -> Self {
        Self::default()
    }

    /// The list each alive job is currently placed on (for tests/audits).
    pub fn placement_of(&self, id: u32) -> Option<usize> {
        self.placed.get(&id).map(|&(list, _)| list)
    }

    /// Route every not-yet-placed alive job. `alive` is (arrival, seq)-
    /// sorted, so consecutive equal arrivals form the simultaneous batch.
    fn place_new(&mut self, alive: &[AliveJob], m: usize) {
        // Current load of each list = remaining work of its alive members.
        self.load.clear();
        self.load.resize(m, 0.0);
        for j in alive {
            if let Some(&(list, _)) = self.placed.get(&j.id) {
                self.load[list] += j.remaining;
            }
        }
        let mut i = 0;
        while i < alive.len() {
            if self.placed.contains_key(&alive[i].id) {
                i += 1;
                continue;
            }
            // Batch = maximal run of unplaced jobs with identical arrival.
            let arrival = alive[i].arrival;
            self.batch.clear();
            let mut k = i;
            while k < alive.len()
                && alive[k].arrival == arrival
                && !self.placed.contains_key(&alive[k].id)
            {
                self.batch.push(k);
                k += 1;
            }
            // Largest first; ties by trace order (seq).
            self.batch.sort_by(|&a, &b| {
                alive[b]
                    .size
                    .partial_cmp(&alive[a].size)
                    .unwrap()
                    .then_with(|| alive[a].seq.cmp(&alive[b].seq))
            });
            for &idx in &self.batch {
                let mut best = 0usize;
                for (list, &l) in self.load.iter().enumerate() {
                    if l < self.load[best] {
                        best = list;
                    }
                }
                self.placed.insert(alive[idx].id, (best, self.next_rank));
                self.next_rank += 1;
                self.load[best] += alive[idx].remaining;
            }
            i = k;
        }
    }
}

impl RateAllocator for MultiList {
    fn name(&self) -> &'static str {
        "ML"
    }

    fn allocate(&mut self, _now: f64, alive: &[AliveJob], cfg: &MachineConfig, rates: &mut [f64]) {
        // Prune completed jobs so state stays bounded by the alive set.
        self.alive_ids.clear();
        self.alive_ids.extend(alive.iter().map(|j| j.id));
        self.alive_ids.sort_unstable();
        let ids = std::mem::take(&mut self.alive_ids);
        self.placed.retain(|id, _| ids.binary_search(id).is_ok());
        self.alive_ids = ids;

        self.place_new(alive, cfg.m);

        // Per list, serve the earliest-placed alive job.
        self.heads.clear();
        self.heads.resize(cfg.m, None);
        for (i, j) in alive.iter().enumerate() {
            let (list, rank) = self.placed[&j.id];
            if self.heads[list].is_none_or(|(r, _)| rank < r) {
                self.heads[list] = Some((rank, i));
            }
        }
        for slot in self.heads.iter().flatten() {
            rates[slot.1] = cfg.speed;
        }
    }

    fn reset(&mut self) {
        self.placed.clear();
        self.next_rank = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{alive, cfg, rates_of};
    use crate::Fcfs;
    use tf_simcore::{simulate, SimOptions, Trace};

    #[test]
    fn batch_goes_largest_first_to_least_loaded() {
        let a = alive(&[(0.0, 1.0, 0.0), (0.0, 4.0, 0.0), (0.0, 2.0, 0.0)]);
        let mut ml = MultiList::new();
        let r = rates_of(&mut ml, 0.0, &a, &cfg(2, 1.0));
        // Placement: size 4 → list 0, size 2 → list 1, size 1 → list 1
        // (load 4 vs 2). Heads: job1 (list 0) and job2 (list 1).
        assert_eq!(ml.placement_of(1), Some(0));
        assert_eq!(ml.placement_of(2), Some(1));
        assert_eq!(ml.placement_of(0), Some(1));
        assert_eq!(r, vec![0.0, 1.0, 1.0]);
    }

    #[test]
    fn placement_is_sticky_across_calls() {
        let mut ml = MultiList::new();
        let a = alive(&[(0.0, 4.0, 0.0), (0.0, 1.0, 0.0)]);
        let _ = rates_of(&mut ml, 0.0, &a, &cfg(2, 1.0));
        assert_eq!(ml.placement_of(0), Some(0));
        // Later, job 0 has nearly drained: it must not migrate to list 1.
        let a2 = alive(&[(0.0, 4.0, 3.9), (0.0, 1.0, 0.9)]);
        let _ = rates_of(&mut ml, 3.9, &a2, &cfg(2, 1.0));
        assert_eq!(ml.placement_of(0), Some(0));
    }

    #[test]
    fn lists_are_fcfs_ordered() {
        // Two jobs forced onto the same list: the first-placed one runs.
        let a = alive(&[(0.0, 2.0, 0.0), (1.0, 2.0, 0.0)]);
        let mut ml = MultiList::new();
        let r0 = rates_of(&mut ml, 0.0, &a[..1], &cfg(1, 1.0));
        assert_eq!(r0, vec![1.0]);
        let r1 = rates_of(&mut ml, 1.0, &a, &cfg(1, 1.0));
        assert_eq!(r1, vec![1.0, 0.0]);
    }

    #[test]
    fn non_migratory_idles_empty_lists() {
        // Both jobs land on different lists; after the short one finishes,
        // its machine idles rather than helping the long job (one job can
        // occupy only one machine anyway).
        let t = Trace::from_pairs([(0.0, 4.0), (0.0, 1.0)]).unwrap();
        let s = simulate(
            &t,
            &mut MultiList::new(),
            tf_simcore::MachineConfig::new(2),
            SimOptions::default(),
        )
        .unwrap();
        assert!((s.completion[0] - 4.0).abs() < 1e-9);
        assert!((s.completion[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn distinct_arrivals_on_one_machine_match_fcfs() {
        // With m=1 and no simultaneous arrivals the single list is plain
        // FCFS (batch reordering never kicks in).
        let t = Trace::from_pairs([(0.0, 3.0), (0.5, 1.0), (1.0, 2.0), (4.0, 0.5)]).unwrap();
        let cfg = tf_simcore::MachineConfig::new(1);
        let ml = simulate(&t, &mut MultiList::new(), cfg, SimOptions::default()).unwrap();
        let f = simulate(&t, &mut Fcfs::new(), cfg, SimOptions::default()).unwrap();
        for (a, b) in ml.completion.iter().zip(&f.completion) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn reset_clears_placements() {
        let mut ml = MultiList::new();
        let a = alive(&[(0.0, 4.0, 0.0)]);
        let _ = rates_of(&mut ml, 0.0, &a, &cfg(2, 1.0));
        assert!(ml.placement_of(0).is_some());
        ml.reset();
        assert!(ml.placement_of(0).is_none());
    }

    #[test]
    fn all_jobs_complete_on_adversarial_batches() {
        let t = Trace::from_pairs([
            (0.0, 5.0),
            (0.0, 5.0),
            (0.0, 1.0),
            (2.0, 3.0),
            (2.0, 0.5),
            (7.0, 2.0),
        ])
        .unwrap();
        for m in [2usize, 3, 4] {
            let s = simulate(
                &t,
                &mut MultiList::new(),
                tf_simcore::MachineConfig::new(m),
                SimOptions::default(),
            )
            .unwrap();
            for c in &s.completion {
                assert!(c.is_finite());
            }
        }
    }
}
