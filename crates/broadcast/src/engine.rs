//! Event-driven broadcast simulation.
//!
//! Between events (request arrivals, request completions, policy reviews)
//! page transmission rates are constant; each outstanding request `r` for
//! page `p` completes when the page has transmitted `ℓ_p` since `t_r`, so
//! the earliest completion is computed analytically. The server transmits
//! a page at one rate for *all* its outstanding requests simultaneously —
//! the broadcast non-conservation of work.

use crate::policy::{BroadcastPolicy, PageView};
use crate::workload::BroadcastInstance;

/// Output of a broadcast simulation.
#[derive(Debug, Clone)]
pub struct BroadcastSchedule {
    /// Policy name.
    pub policy: String,
    /// Server speed.
    pub speed: f64,
    /// Completion time per request (index = position in
    /// [`BroadcastInstance::requests`]).
    pub completion: Vec<f64>,
    /// Flow time per request.
    pub flow: Vec<f64>,
    /// Total bandwidth actually transmitted (≤ requested work; the gap is
    /// the broadcast gain).
    pub transmitted: f64,
    /// Engine events processed.
    pub events: u64,
}

/// One outstanding request's live state.
struct Outstanding {
    request: usize, // index into instance.requests()
    arrival: f64,
    remaining: f64, // page-units still to receive
}

const REL_EPS: f64 = 1e-9;
const ABS_EPS: f64 = 1e-12;

/// Simulate `policy` on `instance` with a server of speed `speed`.
///
/// # Panics
/// If the policy over-allocates bandwidth or the configuration is
/// degenerate.
pub fn simulate_broadcast(
    instance: &BroadcastInstance,
    policy: &mut dyn BroadcastPolicy,
    speed: f64,
) -> BroadcastSchedule {
    assert!(speed > 0.0 && speed.is_finite());
    let reqs = instance.requests();
    let n = reqs.len();
    let mut completion = vec![f64::NAN; n];
    let mut flow = vec![f64::NAN; n];

    // Active pages: page -> outstanding requests (in arrival order).
    let n_pages = instance.page_len().len();
    let mut outstanding: Vec<Vec<Outstanding>> = (0..n_pages).map(|_| Vec::new()).collect();
    let mut active_pages: Vec<u32> = Vec::new(); // sorted, pages with requests

    let mut next_arrival = 0usize;
    let mut time = 0.0f64;
    let mut events = 0u64;
    let mut transmitted = 0.0f64;
    let mut done = 0usize;

    let mut views: Vec<PageView> = Vec::new();
    let mut rates: Vec<f64> = Vec::new();

    while done < n {
        // Admit arrivals.
        while next_arrival < n && reqs[next_arrival].arrival <= time {
            let r = reqs[next_arrival];
            let p = r.page as usize;
            if outstanding[p].is_empty() {
                let pos = active_pages.partition_point(|&q| q < r.page);
                active_pages.insert(pos, r.page);
            }
            outstanding[p].push(Outstanding {
                request: next_arrival,
                arrival: r.arrival,
                remaining: instance.len_of(r.page),
            });
            next_arrival += 1;
            events += 1;
        }
        if active_pages.is_empty() {
            time = reqs[next_arrival].arrival; // done < n ⇒ arrivals remain
            continue;
        }

        views.clear();
        views.extend(active_pages.iter().map(|&pg| {
            let outs = &outstanding[pg as usize];
            PageView {
                page: pg,
                len: instance.len_of(pg),
                outstanding: outs.len(),
                total_wait: outs.iter().map(|o| time - o.arrival).sum(),
                earliest_arrival: outs.iter().map(|o| o.arrival).fold(f64::INFINITY, f64::min),
            }
        }));
        rates.clear();
        rates.resize(views.len(), 0.0);
        policy.allocate(time, &views, speed, &mut rates);
        let total: f64 = rates.iter().sum();
        assert!(
            total <= speed * (1.0 + REL_EPS) + ABS_EPS,
            "policy {} over-allocated bandwidth",
            policy.name()
        );

        // Earliest event.
        let mut dt = f64::INFINITY;
        let mut arrival_snap = None;
        if next_arrival < n {
            let d = reqs[next_arrival].arrival - time;
            if d < dt {
                dt = d;
                arrival_snap = Some(reqs[next_arrival].arrival);
            }
        }
        for (v, &x) in views.iter().zip(&rates) {
            if x > ABS_EPS {
                // Earliest completion on this page: the oldest request has
                // the least remaining (monotone in arrival order).
                let min_rem = outstanding[v.page as usize]
                    .iter()
                    .map(|o| o.remaining)
                    .fold(f64::INFINITY, f64::min);
                let d = min_rem / x;
                if d < dt {
                    dt = d;
                    arrival_snap = None;
                }
            }
        }
        if let Some(rev) = policy.review_in(time, &views, speed) {
            let rev = rev.max(ABS_EPS);
            if rev < dt {
                dt = rev;
                arrival_snap = None;
            }
        }
        assert!(dt.is_finite(), "stalled broadcast: no rate, no arrivals");

        // Advance.
        for (v, &x) in views.iter().zip(&rates) {
            if x <= 0.0 {
                continue;
            }
            let w = x * dt;
            transmitted += w;
            for o in outstanding[v.page as usize].iter_mut() {
                o.remaining -= w;
            }
        }
        time = arrival_snap.unwrap_or(time + dt);
        events += 1;

        // Complete satisfied requests; deactivate empty pages.
        for v in &views {
            let p = v.page as usize;
            let len = instance.len_of(v.page);
            outstanding[p].retain(|o| {
                if o.remaining <= len * REL_EPS + ABS_EPS {
                    completion[o.request] = time;
                    flow[o.request] = time - o.arrival;
                    done += 1;
                    false
                } else {
                    true
                }
            });
            if outstanding[p].is_empty() {
                if let Ok(pos) = active_pages.binary_search(&v.page) {
                    active_pages.remove(pos);
                }
            }
        }
    }

    BroadcastSchedule {
        policy: policy.name().to_string(),
        speed,
        completion,
        flow,
        transmitted,
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Lwf, Mrf, PerPageRR, PerRequestRR};
    use crate::workload::{BroadcastInstance, Request};

    fn inst(page_len: &[f64], reqs: &[(u32, f64)]) -> BroadcastInstance {
        BroadcastInstance::new(
            page_len.to_vec(),
            reqs.iter()
                .map(|&(page, arrival)| Request { page, arrival })
                .collect(),
        )
    }

    #[test]
    fn single_request_single_page() {
        let i = inst(&[2.0], &[(0, 1.0)]);
        let s = simulate_broadcast(&i, &mut PerPageRR, 1.0);
        assert!((s.completion[0] - 3.0).abs() < 1e-9);
        assert!((s.transmitted - 2.0).abs() < 1e-9);
    }

    #[test]
    fn simultaneous_requests_share_one_transmission() {
        // Five requests for the same unit page at t=0: one transmission
        // satisfies all — total transmitted = 1, everyone's flow = 1.
        let i = inst(&[1.0], &[(0, 0.0); 5]);
        let s = simulate_broadcast(&i, &mut PerPageRR, 1.0);
        for r in 0..5 {
            assert!((s.flow[r] - 1.0).abs() < 1e-9);
        }
        assert!((s.transmitted - 1.0).abs() < 1e-9);
        assert!((i.requested_work() - 5.0).abs() < 1e-9); // 5x gain
    }

    #[test]
    fn late_joiner_needs_a_full_page_after_its_arrival() {
        // Page length 2 at rate 1; request A at 0 (done at 2), request B
        // at 1 — it has only seen 1 unit by t=2 and needs 2 since t=1 →
        // completes at 3 (the cyclic re-broadcast).
        let i = inst(&[2.0], &[(0, 0.0), (0, 1.0)]);
        let s = simulate_broadcast(&i, &mut PerPageRR, 1.0);
        assert!((s.completion[0] - 2.0).abs() < 1e-9);
        assert!((s.completion[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn per_page_rr_splits_between_pages() {
        // Two unit pages, one request each at t=0, speed 1: each at rate
        // 1/2 → both complete at 2.
        let i = inst(&[1.0, 1.0], &[(0, 0.0), (1, 0.0)]);
        let s = simulate_broadcast(&i, &mut PerPageRR, 1.0);
        assert!((s.completion[0] - 2.0).abs() < 1e-9);
        assert!((s.completion[1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn per_request_rr_favors_popular_pages() {
        // Page 0 has 3 requests, page 1 has 1: page 0 at rate 3/4 finishes
        // at 4/3; page 1 at 1/4 then full rate: 1/4·(4/3) = 1/3 done, then
        // rate 1 for 2/3 → completes at 2.
        let i = inst(&[1.0, 1.0], &[(0, 0.0), (0, 0.0), (0, 0.0), (1, 0.0)]);
        let s = simulate_broadcast(&i, &mut PerRequestRR, 1.0);
        for r in 0..3 {
            assert!((s.completion[r] - 4.0 / 3.0).abs() < 1e-9);
        }
        assert!((s.completion[3] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn lwf_switches_at_crossings() {
        // Page 0: one request at t=0. Page 1: three requests at t=1.
        // At t=1: waits are 1 vs 0, slopes 1 vs 3 → crossing at t=1.5.
        // LWF serves page 0 until its completion at t=1 (page len 1,
        // full rate from 0) — so page 0 is done before any contest.
        let i = inst(&[1.0, 1.0], &[(0, 0.0), (1, 1.0), (1, 1.0), (1, 1.0)]);
        let s = simulate_broadcast(&i, &mut Lwf, 1.0);
        assert!((s.completion[0] - 1.0).abs() < 1e-9);
        for r in 1..4 {
            assert!((s.completion[r] - 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn mrf_can_starve_singletons() {
        // A lone request for page 0 vs repeated 2-batches for fresh pages:
        // MRF always prefers the batches.
        let i = BroadcastInstance::new(
            vec![1.0, 1.0, 1.0, 1.0],
            vec![
                Request {
                    page: 0,
                    arrival: 0.0,
                },
                Request {
                    page: 1,
                    arrival: 0.0,
                },
                Request {
                    page: 1,
                    arrival: 0.0,
                },
                Request {
                    page: 2,
                    arrival: 1.0,
                },
                Request {
                    page: 2,
                    arrival: 1.0,
                },
                Request {
                    page: 3,
                    arrival: 2.0,
                },
                Request {
                    page: 3,
                    arrival: 2.0,
                },
            ],
        );
        let s = simulate_broadcast(&i, &mut Mrf, 1.0);
        // Page 0's lone request waits for all three batches.
        assert!(s.flow[0] > 3.0 - 1e-9, "{}", s.flow[0]);
    }

    #[test]
    fn idle_gaps_are_skipped() {
        let i = inst(&[1.0], &[(0, 0.0), (0, 10.0)]);
        let s = simulate_broadcast(&i, &mut PerPageRR, 1.0);
        assert!((s.completion[0] - 1.0).abs() < 1e-9);
        assert!((s.completion[1] - 11.0).abs() < 1e-9);
        assert!((s.transmitted - 2.0).abs() < 1e-9);
    }

    #[test]
    fn speed_scales_everything() {
        let i = inst(&[3.0], &[(0, 0.0)]);
        let s = simulate_broadcast(&i, &mut PerPageRR, 3.0);
        assert!((s.completion[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_instance() {
        let i = BroadcastInstance::new(vec![1.0], vec![]);
        let s = simulate_broadcast(&i, &mut PerPageRR, 1.0);
        assert!(s.flow.is_empty());
        assert_eq!(s.transmitted, 0.0);
    }
}
